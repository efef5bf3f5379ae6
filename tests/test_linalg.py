from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings.errors import CoringsError
from corings.linalg import Field, Mat
from reference import (
    IsoFailure,
    contains,
    from_generators,
    inverse,
    is_identity,
    kernel,
    lift_mat,
    map_kernel,
    quotient,
    rank,
    rref,
    transpose,
    zero_mat,
    zero_subspace,
)

Q = Field.rationals()
F2 = Field.prime(2)
F5 = Field.prime(5)


def mat(field, rows):
    return Mat.from_rows(field, rows)


class TestField:
    def test_rationals_are_exact_fractions(self):
        x = Q.coerce("3/4")
        assert x == Fraction(3, 4)
        assert Q.add(x, Q.coerce("1/4")) == 1

    def test_lowest_terms_and_positive_denominator(self):
        x = Q.coerce("-2/4")
        assert x.numerator == -1 and x.denominator == 2

    def test_prime_field_is_canonical_mod_p(self):
        assert F5.coerce(-1) == 4
        assert F5.mul(3, 4) == 2
        assert F5.inv(3) == 2

    def test_non_prime_modulus_rejected(self):
        with pytest.raises(ValueError):
            Field.prime(4)
        with pytest.raises(ValueError):
            Field.prime(1)

    @pytest.mark.parametrize("p", [5.5, 5.0, "5", True], ids=repr)
    def test_modulus_must_be_an_int(self, p):
        with pytest.raises(TypeError):
            Field.prime(p)

    def test_modulus_bound(self):
        with pytest.raises(ValueError):
            Field.prime((1 << 31) + 11)

    def test_equality(self):
        assert Field.prime(5) == F5
        assert Q != F5


class TestRref:
    def test_collapses_dependent_rows(self):
        r, piv = rref(mat(Q, [[2, 4], [1, 2]]))
        assert r.to_lists() == [[1, 2]]
        assert piv == [0]

    def test_identity_fixed(self):
        ident = Mat.identity(Q, 3)
        r, piv = rref(ident)
        assert r == ident
        assert piv == [0, 1, 2]

    def test_mod_two(self):
        r, piv = rref(mat(F2, [[1, 1], [1, 1]]))
        assert r.to_lists() == [[1, 1]]
        assert piv == [0]

    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([None, 2, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, rows, p):
        field = Field(p)
        m = mat(field, rows)
        r, piv = rref(m)
        r2, piv2 = rref(r)
        assert r == r2 and piv == piv2


class TestKernel:
    def test_zero_map_full_kernel(self):
        assert kernel(zero_mat(Q, 3, 3)).dim == 3

    def test_invertible_trivial_kernel(self):
        assert kernel(mat(Q, [[1, 1], [0, 1]])).dim == 0

    def test_sum_functional(self):
        k = kernel(mat(Q, [[1, 1]]))
        assert k.basis.to_lists() == [[1, -1]]

    @given(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=4, max_size=4),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([None, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, rows, p):
        field = Field(p)
        m = mat(field, rows)
        assert kernel(m).dim + rank(m) == m.ncols

    def test_map_kernel_matches_row_convention(self):
        f = mat(Q, [[1], [1]])
        k = map_kernel(f)
        assert k.ambient_dim == 2 and k.basis.to_lists() == [[1, -1]]


class TestQuotient:
    def test_line_in_plane(self):
        rel = from_generators(Q, 2, [[1, -1]])
        qs = quotient(2, rel)
        assert qs.dim == 1
        assert qs.rep_columns == [1]
        assert qs.project.to_lists() == [[1], [1]]

    def test_zero_relations_identity(self):
        qs = quotient(3, zero_subspace(Q, 3))
        assert is_identity(qs.project) and is_identity(lift_mat(qs))

    def test_full_relations(self):
        rel = from_generators(Q, 2, [[1, 0], [0, 1]])
        assert quotient(2, rel).dim == 0

    def test_dimension_mismatch(self):
        with pytest.raises(CoringsError, match=r"^relations live in k\^2, not k\^3$"):
            quotient(3, zero_subspace(Q, 2))

    @given(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=4, max_size=4),
            min_size=0,
            max_size=3,
        ),
        st.sampled_from([None, 2, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_projection_laws(self, gens, p):
        field = Field(p)
        rel = from_generators(field, 4, gens)
        qs = quotient(4, rel)
        assert qs.dim == 4 - rel.dim
        assert is_identity(lift_mat(qs) @ qs.project)
        roundtrip = qs.project @ lift_mat(qs)
        for j in range(4):
            diff = dict(roundtrip.rows[j])
            one = field.one
            diff[j] = field.sub(diff.get(j, field.zero), one)
            if not diff.get(j):
                diff.pop(j, None)
            assert contains(rel, diff)
        assert map_kernel(qs.project) == rel


class TestMat:
    def test_composition_convention(self):
        # f: k^2 -> k^3 then g: k^3 -> k^1 is f @ g.
        f = mat(Q, [[1, 0, 2], [0, 1, 0]])
        g = mat(Q, [[1], [1], [1]])
        assert (f @ g).to_lists() == [[3], [1]]

    def test_kron_row_major(self):
        a = mat(Q, [[1, 2]])
        b = mat(Q, [[0, 3]])
        assert a.kron(b).to_lists() == [[0, 3, 0, 6]]

    def test_inverse(self):
        m = mat(Q, [[1, 1], [0, 1]])
        assert inverse(m).to_lists() == [[1, -1], [0, 1]]
        with pytest.raises(IsoFailure):
            inverse(mat(Q, [[1, 1], [2, 2]]))

    def test_inverse_mod_p(self):
        m = mat(F5, [[2, 1], [1, 1]])
        assert is_identity(m @ inverse(m))

    def test_entries_are_canonical(self):
        m = mat(F5, [[7, -1]])
        assert m.to_lists() == [[2, 4]]

    def test_zero_dims(self):
        z = Mat(Q, 0, 3, [])
        assert transpose(z).nrows == 3
        r, piv = rref(z)
        assert r.nrows == 0 and piv == []
