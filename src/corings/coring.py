"""Corings, the coaction laws of a right extension, and the cotensor product.

A coring over an algebra A is an (A,A)-bimodule C with an A-bilinear
comultiplication C -> C (x)_A C and counit C -> A satisfying coassociativity
and the two counit laws (`check_coring`).  A right extension of C by D is
checked with the laws of a right D-coaction (`right_coaction_verdict`) and
its commutation with the left C-coaction that is the comultiplication
(`coaction_compatibility`); the cotensor product (`cotensor`) backs the
independent oracle of `compose`.  Comultiplications and coactions are
supplied as lifts into the ambient (x)_k space and projected through the
presented quotients, so input data never depends on internal pivot choices.

Triple tensors are presented left-associated only: a route that applies a
map on the right leg is regrouped into that presentation as it is computed
(`regrouped_id_tensor`).  Every axiom check is an exact matrix equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bimodules import (
    BimoduleMorphism,
    induced_map_on_tensor,
    left_unit_collapse,
    regrouped_id_tensor,
    regular_bimodule,
    right_unit_collapse,
    tensor_over_alg,
)
from .errors import DescentFailure, DimensionMismatch, FieldMismatch
from .linalg import Mat, map_kernel
from .verdict import Verdict, first_difference, format_combo

CORING_LAWS = ("bilinearity", "coassociativity", "right-counit", "left-counit")


class Coring:
    """An A-coring: carrier, comultiplication lift, and counit."""

    def __init__(self, base, carrier, comul_lift, counit):
        if carrier.left_alg != base or carrier.right_alg != base:
            raise DimensionMismatch("carrier must be a bimodule over the base algebra")
        if comul_lift.nrows != carrier.dim or comul_lift.ncols != carrier.dim**2:
            raise DimensionMismatch(
                "comultiplication lift must map the carrier into its ambient tensor square"
            )
        counit_mat = counit.map if isinstance(counit, BimoduleMorphism) else counit
        if counit_mat.nrows != carrier.dim or counit_mat.ncols != base.dim:
            raise DimensionMismatch("counit must map the carrier to the base algebra")
        if comul_lift.field != base.field or counit_mat.field != base.field:
            raise FieldMismatch("coring data over mixed fields")
        self.base = base
        self.carrier = carrier
        self.comul_lift = comul_lift
        self.counit = BimoduleMorphism(carrier, regular_bimodule(base), counit_mat)

    @property
    def field(self):
        return self.base.field

    @property
    def dim(self):
        return self.carrier.dim

    @property
    def counit_mat(self):
        return self.counit.map

    def label(self, i):
        return self.carrier.label(i)

    @cached_property
    def tens(self):
        """The presented tensor square C (x)_A C, built on first use."""
        return tensor_over_alg(self.carrier, self.carrier)

    @cached_property
    def comul(self):
        """Comultiplication as a map into the presented C (x)_A C."""
        return self.comul_lift @ self.tens.project

    @cached_property
    def unit_tensor_left(self):
        return tensor_over_alg(regular_bimodule(self.base), self.carrier)

    @cached_property
    def unit_tensor_right(self):
        return tensor_over_alg(self.carrier, regular_bimodule(self.base))

    def __eq__(self, other):
        return (
            isinstance(other, Coring)
            and self.base == other.base
            and self.carrier == other.carrier
            and self.comul_lift == other.comul_lift
            and self.counit.map == other.counit.map
        )

    __hash__ = None

    def __repr__(self):
        return f"Coring(dim {self.dim} over base dim {self.base.dim}, {self.field!r})"


def _counit_leg(law, what, coact, f, g, t_src, t_unit, collapse, label, passed):
    """One counit law: collapse o (f (x) g) o coact must be the identity.

    Returns the failed verdict, or None when the law holds.  `what` names the
    composite in the witness and `label` the carrier basis.
    """
    try:
        leg = induced_map_on_tensor(f, g, t_src, t_unit).map @ collapse(t_unit)
    except DescentFailure as e:
        return Verdict.failed(law, str(e), passed)
    got = coact @ leg
    i = first_difference(got, Mat.identity(got.field, got.nrows))
    if i is None:
        return None
    return Verdict.failed(
        law,
        f"{label(i)}: {what} = {format_combo(got.rows[i], label, got.field.fmt)} != {label(i)}",
        passed,
    )


def check_coring(c):
    """Bilinearity, coassociativity, and both counit laws, with a witness."""
    passed = []

    v = BimoduleMorphism(c.carrier, c.tens.result, c.comul).check()
    if not v.ok:
        return Verdict.failed("bilinearity", f"comultiplication: {v.witness}", passed)
    v = c.counit.check()
    if not v.ok:
        return Verdict.failed("bilinearity", f"counit: {v.witness}", passed)
    passed.append("bilinearity")

    ident = Mat.identity(c.field, c.dim)
    try:
        t_left = tensor_over_alg(c.tens.result, c.carrier)
        lhs = c.comul @ induced_map_on_tensor(c.comul, ident, c.tens, t_left).map
        rhs = c.comul @ regrouped_id_tensor(c.tens, c.comul_lift, c.tens, t_left)
    except DescentFailure as e:
        return Verdict.failed("coassociativity", str(e), passed)
    i = first_difference(lhs, rhs)
    if i is not None:
        return Verdict.failed(
            "coassociativity",
            f"{c.label(i)}: the two triple coproducts differ",
            passed,
        )
    passed.append("coassociativity")

    v = _counit_leg("right-counit", "(C (x) counit) o comul", c.comul, ident,
                    c.counit_mat, c.tens, c.unit_tensor_right, right_unit_collapse,
                    c.label, passed)
    if v is not None:
        return v
    passed.append("right-counit")

    v = _counit_leg("left-counit", "(counit (x) C) o comul", c.comul, c.counit_mat,
                    ident, c.tens, c.unit_tensor_left, left_unit_collapse,
                    c.label, passed)
    if v is not None:
        return v
    passed.append("left-counit")
    return Verdict.passed(passed)


def right_coaction_verdict(carrier, d, coact_lift):
    """Right-coaction laws for rho: M -> M (x)_B D on an (*, B)-bimodule M."""
    passed = []
    field = carrier.field
    t_md = tensor_over_alg(carrier, d.carrier)
    rho = coact_lift @ t_md.project

    for j in range(carrier.right_alg.dim):
        if carrier.right_act[j] @ rho != rho @ t_md.result.right_act[j]:
            return Verdict.failed(
                "coaction-linearity",
                f"coaction does not commute with the right action of "
                f"{carrier.right_alg.label(j)}",
                passed,
            )
    passed.append("coaction-linearity")

    try:
        t_l = tensor_over_alg(t_md.result, d.carrier)
        lhs = rho @ induced_map_on_tensor(
            rho, Mat.identity(field, d.dim), t_md, t_l
        ).map
        rhs = rho @ regrouped_id_tensor(t_md, d.comul_lift, t_md, t_l)
    except DescentFailure as e:
        return Verdict.failed("coaction-coassociativity", str(e), passed)
    i = first_difference(lhs, rhs)
    if i is not None:
        return Verdict.failed(
            "coaction-coassociativity",
            f"{carrier.label(i)}: the coaction is not coassociative",
            passed,
        )
    passed.append("coaction-coassociativity")

    v = _counit_leg("coaction-counit", "(M (x) counit) o coaction", rho,
                    Mat.identity(field, carrier.dim), d.counit_mat, t_md,
                    tensor_over_alg(carrier, regular_bimodule(d.base)),
                    right_unit_collapse, carrier.label, passed)
    if v is not None:
        return v
    passed.append("coaction-counit")
    return Verdict.passed(passed)


def coaction_compatibility(c, d, carrier, left_lift, right_lift):
    """Commutation of a left C-coaction with a right D-coaction on one carrier.

    Checks (lambda (x) D) o rho = (C (x) rho) o lambda in the left-associated
    presentation of C (x) M (x) D; for lambda the regular comultiplication this
    is exactly left colinearity of rho.
    """
    field = carrier.field
    t_cm = tensor_over_alg(c.carrier, carrier)
    t_md = tensor_over_alg(carrier, d.carrier)
    lam = left_lift @ t_cm.project
    rho = right_lift @ t_md.project
    try:
        t_l = tensor_over_alg(t_cm.result, d.carrier)
        lhs = rho @ induced_map_on_tensor(
            lam, Mat.identity(field, d.dim), t_md, t_l
        ).map
        rhs = lam @ regrouped_id_tensor(t_cm, right_lift, t_cm, t_l)
    except DescentFailure as e:
        return Verdict.failed("colinearity", str(e))
    i = first_difference(lhs, rhs)
    if i is not None:
        return Verdict.failed(
            "colinearity",
            f"{carrier.label(i)}: the two coactions do not commute",
        )
    return Verdict.passed(("colinearity",))


@dataclass
class CotensorSpace:
    """M box_C N inside the presented M (x)_A N, with its inclusion."""

    tensor: object
    subspace: object
    include: Mat

    @property
    def dim(self):
        return self.subspace.dim


def cotensor(m, rho_lift, c, n, lam_lift):
    """Kernel presentation of M box_C N for a right and a left C-comodule.

    M is an (*, A)-bimodule with coaction lift `rho_lift` into M (x)_k C, and
    N an (A, *)-bimodule with coaction lift `lam_lift` into C (x)_k N, A the
    base of the coring `c`.  The cotensor product is the kernel of
    rho (x) N - M (x) lambda on the presented M (x)_A N.
    """
    t_mn = tensor_over_alg(m, n)
    t_mc = tensor_over_alg(m, c.carrier)
    t_l = tensor_over_alg(t_mc.result, n)
    rho_side = induced_map_on_tensor(
        rho_lift @ t_mc.project, Mat.identity(c.field, n.dim), t_mn, t_l
    ).map
    lam_side = regrouped_id_tensor(t_mn, lam_lift, t_mc, t_l)
    subspace = map_kernel(rho_side - lam_side)
    include = Mat(c.field, subspace.dim, t_mn.dim, [dict(r) for r in subspace.basis.rows])
    return CotensorSpace(t_mn, subspace, include)
