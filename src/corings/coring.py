"""Corings over finite-dimensional algebras.

A coring over an algebra A is an (A,A)-bimodule C with an A-bilinear
comultiplication C -> C (x)_A C and counit C -> A satisfying coassociativity
and the two counit laws (`check_coring`).  The checker yields the laws of its
declared tuple in order, and `verdict.checker` makes it return their
`Verdict`.  Comultiplications are supplied as lifts into the ambient (x)_k
space and projected through the presented quotients, so input data never
depends on internal pivot choices.

Triple tensors are presented left-associated only: a route that applies a
map on the right leg is regrouped into that presentation as it is computed
(`regrouped_image`).  Every axiom check is an exact matrix equality.

`bilinearity` compares whole action matrices: the map after the action of
each generator of A (`algebras.generators`) against the induced action of the
presented tensor after the map.  Every other law is evaluated on the rows of
the lift it is about, not on a whole induced map.  A two-route law pushes the
lift rows through the ambient map of each route and projects once into the
triple tensor (`push`, `_coassociativity_row`).  A counit law applies the
counit to one leg of each row and lets the value act on the other leg
(`_counit_contraction`), so no unit tensor A (x)_A C or C (x)_A A is
presented.  The results do not depend on the lift, because `bilinearity`
makes each map descend; that needs every carrier to be a bimodule, which is
validated where it enters.  `category.check_ext_morphism` checks the right
D-coaction of a right extension with the same three row helpers: the
comultiplication is the right coaction of C on itself, so both
coassociativity laws take one route.
"""

from functools import cached_property

from .algebras import generators
from .bimodules import _kron_apply, push, regrouped_image, tensor_over_alg
from .errors import CoringsError
from .linalg import Mat, _vadd
from .verdict import checker, first_difference, first_noncommuting, format_combo

CORING_LAWS = ("bilinearity", "coassociativity", "right-counit", "left-counit")


class Coring:
    """An A-coring: carrier, comultiplication lift, and counit matrix C -> A.

    Immutable: tensor corings are shared (`constructions.tensor_coring`).
    """

    def __init__(self, base, carrier, comul_lift, counit_mat):
        if carrier.left_alg != base or carrier.right_alg != base:
            raise CoringsError("carrier must be a bimodule over the base algebra")
        if comul_lift.nrows != carrier.dim or comul_lift.ncols != carrier.dim**2:
            raise CoringsError(
                "comultiplication lift must map the carrier into its ambient tensor square"
            )
        if counit_mat.nrows != carrier.dim or counit_mat.ncols != base.dim:
            raise CoringsError("counit must map the carrier to the base algebra")
        if comul_lift.field != base.field or counit_mat.field != base.field:
            raise CoringsError("coring data over mixed fields")
        self.base = base
        self.carrier = carrier
        self.comul_lift = comul_lift
        self.counit_mat = counit_mat

    @property
    def field(self):
        return self.base.field

    @property
    def dim(self):
        return self.carrier.dim

    def label(self, i):
        return self.carrier.label(i)

    @cached_property
    def tens(self):
        """The presented tensor square C (x)_A C, built on first use."""
        return tensor_over_alg(self.carrier, self.carrier)

    @cached_property
    def comul(self):
        """Comultiplication as a map into the presented C (x)_A C."""
        return self.tens.quot.project_rows(self.comul_lift)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Coring)
            and self.base == other.base
            and self.carrier == other.carrier
            and self.comul_lift == other.comul_lift
            and self.counit_mat == other.counit_mat
        )

    __hash__ = None

    def __repr__(self):
        return f"Coring(dim {self.dim} over base dim {self.base.dim}, {self.field!r})"


def _counit_contraction(lift, width, counit, acts, left):
    """The counit applied to one leg of each lift row, its value acting on the other.

    Rows of `lift` live in X (x)_k Y with dim Y = `width`.  With `left` the
    counit takes the X leg and acts on the Y leg by its left action `acts`
    (a (x) m -> a.m); otherwise it takes the Y leg and acts on the X leg by
    its right action (m (x) a -> m.a).  Row i is the image of lift row i in
    the module M acted on, whose dim is that of the action matrices.  A lift
    with one row per basis element of M gives a square matrix.  The counit
    may take values in A (x) k^s, s = counit.ncols // len(acts): its value
    sum a_t (x) e_j acts by its A leg and keeps e_j, so the image lands in
    M (x) k^s.  A counit into A has s = 1.
    """
    field = lift.field
    s = counit.ncols // len(acts)
    rows = []
    for row in lift.rows:
        out = {}
        for idx, val in row.items():
            x, y = divmod(idx, width)
            leg, m = (x, y) if left else (y, x)
            for col, e in counit.rows[leg].items():
                t, j = divmod(col, s)
                _vadd(field, out, acts[t].rows[m], field.mul(val, e), j, s)
        rows.append(out)
    return Mat(field, lift.nrows, acts[0].nrows * s, rows)


def _counit_leg(what, got, label):
    """The witness that the contraction `got`, the composite `what`, is not the
    identity on the basis `label`, or None."""
    i = first_difference(got, Mat.identity(got.field, got.nrows))
    if i is None:
        return None
    return f"{label(i)}: {what} = {format_combo(got.rows[i], label, got.field.fmt)} != {label(i)}"


def _coassociativity_row(t_md, rho, lift, d):
    """First row of `lift` where (rho (x) D) o rho and (M (x) comul_D) o rho differ, or None.

    rho: M -> M (x)_B D into `t_md` must be right B-linear, so that rho (x) D
    descends; M (x) comul_D does because D is a coring.
    """
    t_l = tensor_over_alg(t_md.result, d.carrier)
    lhs = push(t_l, lambda vec: _kron_apply(rho, d.dim, vec), lift.rows)
    rhs = push(t_l, regrouped_image(d.comul_lift, t_md, t_l), lift.rows)
    return first_difference(lhs, rhs)


@checker(CORING_LAWS)
def check_coring(c):
    """Bilinearity, coassociativity, and both counit laws, with a witness.

    `bilinearity` checks the comultiplication against the induced actions on
    C (x)_A C and the counit against the regular actions of A, on the left,
    then on the right, on the generators of A.
    """
    left, right = c.carrier.left_alg, c.carrier.right_alg
    tens = c.tens.result
    regular = ({i: c.base.left_regular_mat(i) for i in generators(left)},
               {i: c.base.right_regular_mat(i) for i in generators(right)})
    for what, f, (tgt_left, tgt_right) in (
            ("comultiplication", c.comul, (tens.left_act, tens.right_act)),
            ("counit", c.counit_mat, regular)):
        for side, alg, acts, acts2 in (("left", left, c.carrier.left_act, tgt_left),
                                       ("right", right, c.carrier.right_act, tgt_right)):
            i = first_noncommuting(acts, f, acts2, generators(alg))
            if i is not None:
                yield "bilinearity", (
                    f"{what}: map does not commute with the {side} action of {alg.label(i)}")
    yield "bilinearity", None

    # The comultiplication is the right coaction of C on itself; it is right
    # and left A-linear (`bilinearity`), as that route needs.
    i = _coassociativity_row(c.tens, c.comul, c.comul_lift, c)
    if i is not None:
        yield "coassociativity", f"{c.label(i)}: the two triple coproducts differ"
    yield "coassociativity", None

    # The counit is bilinear (`bilinearity`) and C a bimodule, so both
    # contractions send the relations of C (x)_A C to zero.
    got = _counit_contraction(c.comul_lift, c.dim, c.counit_mat, c.carrier.right_act, False)
    yield "right-counit", _counit_leg("(C (x) counit) o comul", got, c.label)
    got = _counit_contraction(c.comul_lift, c.dim, c.counit_mat, c.carrier.left_act, True)
    yield "left-counit", _counit_leg("(counit (x) C) o comul", got, c.label)
