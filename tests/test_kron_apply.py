"""Kronecker applies and the regrouped projection against materialized products.

`bimodules._kron_apply(f, g, vec)` applies f (x) g to a sparse vector without
building the product, and takes an int n for either factor as the identity
of k^n.  Each of its three paths (matrix (x) matrix, matrix (x) identity,
identity (x) matrix) must give `f.kron(g).apply(vec)`, over Q with fractions
and over F_2, F_3 and F_5, including coefficients that are zero mod p.
`regrouped_image` projects the left leg of a triple tensor straight from the
quotient's class lists; it must give the map it replaced, the projection
matrix of the pair tensor Kronecker the identity applied after
id (x) g_lift, on the presentations the coassociativity check reads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corings.algebras import AlgebraMorphism, dual_numbers, ground_algebra
from corings.bimodules import _kron_apply, regrouped_image, tensor_over_alg
from corings.constructions import matrix_coalgebra, sweedler_coring, trivial_coring
from corings.linalg import Field, Mat
from reference import project_mat, quotient_form

FIELDS = {
    "Q": Field.rationals(),
    "F2": Field.prime(2),
    "F3": Field.prime(3),
    "F5": Field.prime(5),
}

RATIONALS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def entry(draw, field, zero_mod_p=False):
    """A field element, zero included; with `zero_mod_p` over F_p, any int
    in [0, 2p], so 0, p and 2p occur as coefficients that vanish mod p."""
    if field.p is None:
        return field.coerce(draw(RATIONALS))
    if zero_mod_p:
        return draw(st.integers(0, 2 * field.p))
    return draw(st.integers(0, field.p - 1))


def matrix(draw, field, nrows, ncols):
    rows = [[entry(draw, field) for _ in range(ncols)] for _ in range(nrows)]
    return Mat.from_rows(field, rows, ncols)


@st.composite
def kron_cases(draw):
    """(field, f, g, vec): f and g matrices or ints, vec in their source."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    shape = draw(st.sampled_from(["mat-mat", "mat-id", "id-mat"]))
    fr, fc, gr, gc = (draw(st.integers(1, 4)) for _ in range(4))
    f = fr if shape == "id-mat" else matrix(draw, field, fr, fc)
    g = gr if shape == "mat-id" else matrix(draw, field, gr, gc)
    cols = draw(st.lists(st.integers(0, fr * gr - 1), max_size=6, unique=True))
    vec = {c: entry(draw, field, zero_mod_p=True) for c in cols}
    return field, f, g, vec


def as_mat(field, x):
    return Mat.identity(field, x) if x.__class__ is int else x


@given(kron_cases())
@settings(max_examples=300, deadline=None)
def test_kron_apply_matches_the_materialized_product(case):
    field, f, g, vec = case
    want = as_mat(field, f).kron(as_mat(field, g)).apply(vec)
    got = _kron_apply(f, g, dict(vec))
    assert got == want
    assert all(got.values())


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_every_path_is_reached_with_a_vanishing_coefficient(field):
    """A zero coefficient (p itself over F_p) adds nothing on every path."""
    zero = field.p or 0
    f = Mat.from_rows(field, [[1, 2], [0, 1]])
    g = Mat.from_rows(field, [[1, 1, 0], [0, 1, 1]])
    vec = {0: field.one, 3: zero}
    for a, b in ((f, g), (f, 2), (2, g)):
        want = as_mat(field, a).kron(as_mat(field, b)).apply(vec)
        assert _kron_apply(a, b, dict(vec)) == want
        assert _kron_apply(a, b, {3: zero}) == {}


def sweedler_dual(field):
    return sweedler_coring(AlgebraMorphism(
        ground_algebra(field), dual_numbers(field), Mat.from_rows(field, [[1, 0]])))


CORINGS = {
    "matrix2-Q": lambda: matrix_coalgebra(2, FIELDS["Q"]),
    "dual-Q": lambda: trivial_coring(dual_numbers(FIELDS["Q"])),
    "sweedler-Q": lambda: sweedler_dual(FIELDS["Q"]),
    "sweedler-F3": lambda: sweedler_dual(FIELDS["F3"]),
}


@pytest.mark.parametrize("name", sorted(CORINGS))
def test_regrouped_image_matches_the_projection_matrix(name):
    c = CORINGS[name]()
    field = c.field
    t_left = tensor_over_alg(c.tens.result, c.carrier)
    image = regrouped_image(c.comul_lift, c.tens, t_left)
    project = project_mat(c.tens.quot)
    ident_y2 = Mat.identity(field, c.dim)
    ident_x = Mat.identity(field, c.dim)
    vecs = [{i: field.one} for i in range(c.tens.quot.ambient_dim)]
    vecs.append({i: field.coerce(i + 1) for i in range(0, c.tens.quot.ambient_dim, 3)})
    for vec in vecs:
        want = project.kron(ident_y2).apply(ident_x.kron(c.comul_lift).apply(vec))
        assert image(dict(vec)) == want
    # matrix 2 is presented over k with no relations, the others with some.
    assert quotient_form(c.tens.quot) == ("free" if name.startswith("matrix") else "monomial")
