"""Action laws checked on the algebra's generators against the all-basis references.

Every law that an algebra's action or an algebra map decides is checked on
the generators of the acting algebra (`algebras.generators`): the first
index of the module laws and both indices of `commuting-actions` in
`Bimodule.check`, multiplicativity in `check_algebra_morphism`, bilinearity
in `check_coring`, `delta-right-linear` in `check_ext_morphism`,
`coaction-linearity` in `right_coaction_verdict` and bilinearity in
`check_corings_morphism`.  tests/reference.py keeps each of these checked on
every basis element.  The greedy generators come in ascending order and
every other basis element lies in the subalgebra the earlier ones generate,
so the first failure is at a generator and both give the same (ok, law,
witness).

The Hypothesis test draws a field (Q or F_5), a small algebra A (k[K4],
k[C3], the dual numbers, M_2, k[C2] (x) dual numbers, or k x k with unit
e0 + e1, which is no basis vector), one of the six law sites, and adds a
nonzero scalar to one entry of an action or a map of an object over A: the
regular bimodule, the identity of A, the trivial and the Sweedler coring of
A, a right extension of either by the trivial coring, and their identity and
counit corings morphisms.  The carriers and the corings a corrupted object
refers to stay valid, as the checkers' preconditions require, except that a
corrupted action is what the module-law site tests.  The 600 examples take
under 2 s on one core.
"""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KLEIN_4
from corings.algebras import (
    AlgebraMorphism,
    FinDimAlgebra,
    check_algebra_morphism,
    dual_numbers,
    generators,
    ground_algebra,
    group_algebra,
    identity_morphism,
    tensor_algebra,
)
from corings.bimodules import Bimodule, regular_bimodule, scalar_bimodule
from corings.category import (
    CoringsMorphism,
    ExtMorphism,
    check_corings_morphism,
    check_ext_morphism,
    corings_identity,
    counit_corings_morphism,
    ext_identity,
    ext_to_trivial,
)
from corings.constructions import matrix_coalgebra, sweedler_coring, trivial_coring
from corings.coring import Coring, check_coring, right_coaction_verdict
from corings.linalg import Field, Mat
from oracles import unit_map
from reference import (
    reference_bimodule_check,
    reference_check_algebra_morphism,
    reference_check_coring,
    reference_check_corings_morphism,
    reference_right_coaction_verdict,
    reference_right_extension_verdict,
)

FIELDS = {"Q": Field.rationals(), "F5": Field.prime(5)}
CYCLIC_3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def matrix_algebra(field):
    """M_2 on the matrix units e_ij (index 2i + j), unit e_00 + e_11."""
    one = field.one
    table = [[{2 * i + l: one} if j == k else {} for k in range(2) for l in range(2)]
             for i in range(2) for j in range(2)]
    return FinDimAlgebra._trusted(field, 4, table, {0: one, 3: one},
                                  ["e_00", "e_01", "e_10", "e_11"])


def split_algebra(field):
    """k x k on its two idempotents e0, e1, unit e0 + e1."""
    one = field.one
    return FinDimAlgebra._trusted(field, 2, [[{0: one}, {}], [{}, {1: one}]],
                                  {0: one, 1: one}, ["e0", "e1"])


ALGEBRAS = {
    "k[K4]": lambda field: group_algebra(field, KLEIN_4),
    "k[C3]": lambda field: group_algebra(field, CYCLIC_3),
    "dual": dual_numbers,
    "M_2": matrix_algebra,
    "k[C2](x)dual": lambda field: tensor_algebra(
        group_algebra(field, [[0, 1], [1, 0]]), dual_numbers(field)),
    "k x k": split_algebra,
}


@cache
def objects(field_name, alg_name):
    """The objects over A that the law sites corrupt, built once."""
    a = ALGEBRAS[alg_name](FIELDS[field_name])
    corings = [trivial_coring(a), sweedler_coring(unit_map(a))]
    return a, corings


def corrupted(mat, r, c, delta):
    """`mat` with `delta` added to entry (r, c)."""
    field = mat.field
    rows = list(mat.rows)
    row = {**rows[r], c: field.add(rows[r].get(c, field.zero), delta)}
    rows[r] = {k: v for k, v in sorted(row.items()) if v}
    return Mat(field, mat.nrows, mat.ncols, rows)


def outcome(v):
    return (v.ok, v.law, v.witness)


@st.composite
def corrupt(draw, mat):
    field = mat.field
    r, c = draw(st.integers(0, mat.nrows - 1)), draw(st.integers(0, mat.ncols - 1))
    return corrupted(mat, r, c, field.coerce(draw(st.sampled_from([1, 2, -1]))))


def module_laws(draw, a, corings):
    """Bimodule.check on the regular bimodule with one action entry moved."""
    m = regular_bimodule(a)
    left, right = list(m.left_act), list(m.right_act)
    acts = draw(st.sampled_from([left, right]))
    i = draw(st.integers(0, a.dim - 1))
    acts[i] = draw(corrupt(acts[i]))
    m = Bimodule(a, a, a.dim, left, right, m.labels)
    return m.check(), reference_bimodule_check(m)


def multiplicativity(draw, a, corings):
    f = identity_morphism(a)
    f = AlgebraMorphism(a, a, draw(corrupt(f.map)))
    return check_algebra_morphism(f), reference_check_algebra_morphism(f)


def coring_bilinearity(draw, a, corings):
    c = draw(st.sampled_from(corings))
    comul, counit = c.comul_lift, c.counit_mat
    if draw(st.booleans()):
        comul = draw(corrupt(comul))
    else:
        counit = draw(corrupt(counit))
    c = Coring(c.base, c.carrier, comul, counit)
    return check_coring(c), reference_check_coring(c)


def delta_right_linear(draw, a, corings):
    """A right extension by the trivial coring, with the source's
    comultiplication, the new action or the coaction corrupted."""
    c = draw(st.sampled_from(corings))
    e = ext_to_trivial(c)
    action, coact = list(e.action_mats), e.coact_lift
    what = draw(st.sampled_from(["comultiplication", "action", "coaction"]))
    if what == "comultiplication":
        c = Coring(c.base, c.carrier, draw(corrupt(c.comul_lift)), c.counit_mat)
    elif what == "action":
        j = draw(st.integers(0, len(action) - 1))
        action[j] = draw(corrupt(action[j]))
    else:
        coact = draw(corrupt(coact))
    e = ExtMorphism(c, e.target, action, coact)
    return check_ext_morphism(e), reference_right_extension_verdict(c, e.target, action, coact)


def coaction_linearity(draw, a, corings):
    """The coaction of a right extension (the comultiplication of C, or
    c -> c (x) 1 into the trivial coring) with one lift entry moved."""
    e = draw(st.sampled_from([f(c) for c in corings for f in (ext_identity, ext_to_trivial)]))
    coact = draw(corrupt(e.coact_lift))
    return (right_coaction_verdict(e.bimodule, e.target, coact),
            reference_right_coaction_verdict(e.bimodule, e.target, coact))


def corings_bilinearity(draw, a, corings):
    m = draw(st.sampled_from([f(c) for c in corings
                              for f in (corings_identity, counit_corings_morphism)]))
    phi, varphi = m.phi, m.varphi
    if draw(st.integers(0, 3)):
        phi = draw(corrupt(phi))
    else:
        varphi = AlgebraMorphism(varphi.source, varphi.target, draw(corrupt(varphi.map)))
    m = CoringsMorphism(m.source, m.target, phi, varphi)
    return check_corings_morphism(m), reference_check_corings_morphism(m)


SITES = [module_laws, multiplicativity, coring_bilinearity, delta_right_linear,
         coaction_linearity, corings_bilinearity]


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_generator_checkers_agree_with_the_all_basis_references(data):
    a, corings = objects(data.draw(st.sampled_from(sorted(FIELDS))),
                         data.draw(st.sampled_from(sorted(ALGEBRAS))))
    site = data.draw(st.sampled_from(SITES), label="site")
    got, want = site(data.draw, a, corings)
    assert outcome(got) == outcome(want)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_generators_of_the_test_algebras(field):
    """The greedy generators, ascending; a unit that is no basis vector is
    no generator's concern: e1 = 1 - e0 and e_11 = 1 - e_00 are derived."""
    gens = {name: generators(build(field)) for name, build in ALGEBRAS.items()}
    assert gens == {"k[K4]": [1, 2], "k[C3]": [1], "dual": [1], "M_2": [0, 1, 2],
                    "k[C2](x)dual": [1, 2], "k x k": [0]}


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_a_product_of_generators_still_trips_the_module_law(field):
    """g_3 = g_1 g_2 in k[K4] is no generator: corrupting its left action is
    caught at the pair (g_1, g_2), the first pair the all-basis check fails."""
    a = group_algebra(field, KLEIN_4)
    assert 3 not in generators(a)
    m = regular_bimodule(a)
    left = list(m.left_act)
    left[3] = corrupted(left[3], 0, 0, field.one)
    m = Bimodule(a, a, a.dim, left, m.right_act, m.labels)
    witness = "action of g_1*g_2 differs from the composite of the actions of g_1 and g_2"
    assert outcome(m.check()) == outcome(reference_bimodule_check(m)) == (
        False, "left-module", witness)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS)
def test_over_a_one_dimensional_base_the_unit_law_decides(field):
    """k has no generator, so every generator loop is empty: each law still
    reads `pass`, never vacuous, and a unit acting wrongly fails the unit law."""
    k = ground_algebra(field)
    assert generators(k) == []
    m2 = matrix_coalgebra(2, field)
    verdicts = [
        scalar_bimodule(field, 3).check(),
        check_algebra_morphism(identity_morphism(k)),
        check_coring(m2),
        check_ext_morphism(ext_identity(m2)),
        right_coaction_verdict(m2.carrier, m2, m2.comul_lift),
        check_corings_morphism(corings_identity(m2)),
    ]
    for v in verdicts:
        assert v.ok and v.laws_passed == v.laws_declared and v.laws_vacuous == ()
    two = Mat(field, 3, 3, [{i: field.coerce(2)} for i in range(3)])
    bad = Bimodule(k, k, 3, [two], [Mat.identity(field, 3)])
    assert outcome(bad.check()) == (False, "left-module", "unit acts as a non-identity matrix")
