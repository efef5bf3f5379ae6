"""Corings, comodules, colinearity checks, and the cotensor product.

A coring over an algebra A is an (A,A)-bimodule C with an A-bilinear
comultiplication C -> C (x)_A C and counit C -> A satisfying coassociativity
and the two counit laws.  Comultiplications and coactions are supplied as
lifts into the ambient (x)_k space and projected through the presented
quotients, so input data never depends on internal pivot choices.

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

LEFT = "left"
RIGHT = "right"

CORING_LAWS = ("bilinearity", "coassociativity", "right-counit", "left-counit")
COMODULE_LAWS = ("coaction-linearity", "coaction-coassociativity", "coaction-counit")
COLINEARITY_LAWS = ("module-linearity", "colinearity")


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


def right_coaction_verdict(carrier, d, coact_lift, laws=COMODULE_LAWS):
    """Right-coaction laws for rho: M -> M (x)_B D on an (*, B)-bimodule M."""
    passed = []
    field = carrier.field
    t_md = tensor_over_alg(carrier, d.carrier)
    rho = coact_lift @ t_md.project

    for j in range(carrier.right_alg.dim):
        if carrier.right_act[j] @ rho != rho @ t_md.result.right_act[j]:
            return Verdict.failed(
                laws[0],
                f"coaction does not commute with the right action of "
                f"{carrier.right_alg.label(j)}",
                passed,
            )
    passed.append(laws[0])

    try:
        t_l = tensor_over_alg(t_md.result, d.carrier)
        lhs = rho @ induced_map_on_tensor(
            rho, Mat.identity(field, d.dim), t_md, t_l
        ).map
        rhs = rho @ regrouped_id_tensor(t_md, d.comul_lift, t_md, t_l)
    except DescentFailure as e:
        return Verdict.failed(laws[1], str(e), passed)
    i = first_difference(lhs, rhs)
    if i is not None:
        return Verdict.failed(
            laws[1], f"{carrier.label(i)}: the coaction is not coassociative", passed
        )
    passed.append(laws[1])

    v = _counit_leg(laws[2], "(M (x) counit) o coaction", rho,
                    Mat.identity(field, carrier.dim), d.counit_mat, t_md,
                    tensor_over_alg(carrier, regular_bimodule(d.base)),
                    right_unit_collapse, carrier.label, passed)
    if v is not None:
        return v
    passed.append(laws[2])
    return Verdict.passed(passed)


def left_coaction_verdict(carrier, c, coact_lift, laws=COMODULE_LAWS):
    """Left-coaction laws for lambda: M -> C (x)_A M on an (A, *)-bimodule M."""
    passed = []
    field = carrier.field
    t_cm = tensor_over_alg(c.carrier, carrier)
    lam = coact_lift @ t_cm.project

    for i in range(carrier.left_alg.dim):
        if carrier.left_act[i] @ lam != lam @ t_cm.result.left_act[i]:
            return Verdict.failed(
                laws[0],
                f"coaction does not commute with the left action of "
                f"{carrier.left_alg.label(i)}",
                passed,
            )
    passed.append(laws[0])

    try:
        t_l = tensor_over_alg(c.tens.result, carrier)
        lhs = lam @ induced_map_on_tensor(
            c.comul, Mat.identity(field, carrier.dim), t_cm, t_l
        ).map
        rhs = lam @ regrouped_id_tensor(t_cm, coact_lift, c.tens, t_l)
    except DescentFailure as e:
        return Verdict.failed(laws[1], str(e), passed)
    i = first_difference(lhs, rhs)
    if i is not None:
        return Verdict.failed(
            laws[1], f"{carrier.label(i)}: the coaction is not coassociative", passed
        )
    passed.append(laws[1])

    v = _counit_leg(laws[2], "(counit (x) M) o coaction", lam, c.counit_mat,
                    Mat.identity(field, carrier.dim), t_cm,
                    tensor_over_alg(regular_bimodule(c.base), carrier),
                    left_unit_collapse, carrier.label, passed)
    if v is not None:
        return v
    passed.append(laws[2])
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


class Comodule:
    """A one-sided comodule: the non-coacting side of the carrier is the ground field."""

    def __init__(self, coring, side, carrier, coact_lift):
        if side not in (LEFT, RIGHT):
            raise ValueError("side must be 'left' or 'right'")
        if carrier.field != coring.field:
            raise FieldMismatch("comodule carrier over a different field")
        acting = carrier.right_alg if side == RIGHT else carrier.left_alg
        other = carrier.left_alg if side == RIGHT else carrier.right_alg
        if acting != coring.base:
            raise DimensionMismatch("coacting side must carry the coring's base algebra")
        if other.dim != 1:
            raise DimensionMismatch("non-coacting side must be the ground field")
        expected = carrier.dim * coring.dim
        if coact_lift.nrows != carrier.dim or coact_lift.ncols != expected:
            raise DimensionMismatch("coaction lift has the wrong ambient shape")
        self.coring = coring
        self.side = side
        self.carrier = carrier
        self.coact_lift = coact_lift

    @classmethod
    def regular(cls, coring, side):
        carrier = (
            coring.carrier.forget_left()
            if side == RIGHT
            else coring.carrier.forget_right()
        )
        return cls(coring, side, carrier, coring.comul_lift)

    @cached_property
    def tens(self):
        if self.side == RIGHT:
            return tensor_over_alg(self.carrier, self.coring.carrier)
        return tensor_over_alg(self.coring.carrier, self.carrier)

    @cached_property
    def coaction(self):
        return self.coact_lift @ self.tens.project

    @property
    def dim(self):
        return self.carrier.dim

    def __repr__(self):
        return f"Comodule({self.side}, dim {self.dim} over {self.coring!r})"


def check_comodule(m):
    if m.side == RIGHT:
        return right_coaction_verdict(m.carrier, m.coring, m.coact_lift)
    return left_coaction_verdict(m.carrier, m.coring, m.coact_lift)


class Bicomodule:
    """A carrier with commuting left and right coactions over two corings."""

    def __init__(self, left_coring, right_coring, carrier, left_lift, right_lift):
        if carrier.left_alg != left_coring.base or carrier.right_alg != right_coring.base:
            raise DimensionMismatch("carrier algebras must match the coring bases")
        self.left_coring = left_coring
        self.right_coring = right_coring
        self.carrier = carrier
        self.left_lift = left_lift
        self.right_lift = right_lift


def check_bicomodule(b):
    """Both one-sided coaction law sets plus commutation of the coactions."""
    passed = []
    v = left_coaction_verdict(
        b.carrier, b.left_coring, b.left_lift,
        laws=tuple("left-" + l for l in COMODULE_LAWS),
    )
    if not v.ok:
        return Verdict.failed(v.law, v.witness, list(v.laws_passed))
    passed.extend(v.laws_passed)
    v = right_coaction_verdict(
        b.carrier, b.right_coring, b.right_lift,
        laws=tuple("right-" + l for l in COMODULE_LAWS),
    )
    if not v.ok:
        return Verdict.failed(v.law, v.witness, passed + list(v.laws_passed))
    passed.extend(v.laws_passed)
    v = coaction_compatibility(
        b.left_coring, b.right_coring, b.carrier, b.left_lift, b.right_lift
    )
    if not v.ok:
        return Verdict.failed(v.law, v.witness, passed)
    passed.append("colinearity")
    return Verdict.passed(passed)


def check_left_colinear(f, m, n):
    """Colinearity of f: M -> N for two left comodules over one coring."""
    if m.coring != n.coring:
        raise DimensionMismatch("comodules over different corings")
    fm = f.map if isinstance(f, BimoduleMorphism) else f
    if fm.nrows != m.dim or fm.ncols != n.dim:
        raise DimensionMismatch("map shape does not match the comodules")
    passed = []
    for i in range(m.carrier.left_alg.dim):
        if m.carrier.left_act[i] @ fm != fm @ n.carrier.left_act[i]:
            return Verdict.failed(
                "module-linearity",
                f"map does not commute with the left action of "
                f"{m.carrier.left_alg.label(i)}",
                passed,
            )
    passed.append("module-linearity")
    try:
        pushed = induced_map_on_tensor(
            Mat.identity(m.coring.field, m.coring.dim), fm, m.tens, n.tens
        ).map
    except DescentFailure as e:
        return Verdict.failed("colinearity", str(e), passed)
    lhs = fm @ n.coaction
    rhs = m.coaction @ pushed
    i = first_difference(lhs, rhs)
    if i is not None:
        return Verdict.failed(
            "colinearity", f"{m.carrier.label(i)}: coaction square does not commute", passed
        )
    passed.append("colinearity")
    return Verdict.passed(passed)


@dataclass
class CotensorSpace:
    """M box_C N inside the presented M (x)_A N, with its inclusion."""

    tensor: object
    subspace: object
    include: Mat

    @property
    def dim(self):
        return self.subspace.dim


def cotensor(m, n):
    """Kernel presentation of the cotensor product of a right and a left comodule."""
    if m.side != RIGHT or n.side != LEFT:
        raise ValueError("cotensor expects a right comodule and a left comodule")
    if m.coring != n.coring:
        raise DimensionMismatch("comodules over different corings")
    field = m.coring.field
    t_mn = tensor_over_alg(m.carrier, n.carrier)
    t_l = tensor_over_alg(m.tens.result, n.carrier)
    rho_side = induced_map_on_tensor(
        m.coaction, Mat.identity(field, n.dim), t_mn, t_l
    ).map
    lam_side = regrouped_id_tensor(t_mn, n.coact_lift, m.tens, t_l)
    defect = rho_side - lam_side
    subspace = map_kernel(defect)
    include = Mat(field, subspace.dim, t_mn.dim, [dict(r) for r in subspace.basis.rows])
    return CotensorSpace(t_mn, subspace, include)
