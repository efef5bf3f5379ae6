"""Two categories whose objects are corings, each monoidal for the same tensor.

In the extension category a morphism (C:A) -> (D:B) is a pair: a new right
B-action on C that is left C-colinear, and a left C-colinear right D-coaction
C -> C (x)_B D; that is, D is a right extension of C (Brzezinski), and
`ExtMorphism` is the one class for both readings: the `extensions` of a
workspace load as these morphisms.  The action is held as one C -> C matrix
per basis element of B, the form `Bimodule` and `tensor_over_alg` read.
`check_ext_morphism` yields the four laws of a right extension of the
`ExtMorphism` itself; the coaction checkers it calls live in `coring`.
Composition is by the bullet formulas, computed from the explicit lifts, with
an independent oracle that routes through the cotensor product E box_C C,
read off f's coaction, which is an isomorphism onto it for every valid f.  A
corings morphism gives rise to the base ring extension B (x)_A C (x)_A B with
its right extension by the target (`base_ring_extension`), an `ExtMorphism`.

In the plain corings category a morphism is an algebra map together with a
compatible bilinear map of carriers.  Both categories carry the tensor-coring
bifunctor, and it is strict: C tensored with the unit coring on either side is
C, and the two groupings of a triple tensor are one coring, so the unitors and
the associator are identity morphisms (Mac Lane, CWM VII.1), and the pentagon
and triangle reduce to identity preservation.  The verifiers here
machine-check identity preservation, the interchange law on composites, and
the strictness itself as equalities of corings.
"""

from __future__ import annotations

import operator
import random
from functools import cached_property

from .algebras import (
    AlgebraMorphism,
    check_algebra_morphism,
    identity_morphism,
)
from .bimodules import (
    Bimodule,
    _kron_apply,
    induced_map_on_tensor,
    push,
    regrouped_kron,
    regular_bimodule,
    restrict_scalars,
    tensor_over_alg,
)
from .constructions import tensor_coring, trivial_coring, unit_coring
from .coring import Coring, _counit_contraction, coaction_compatibility, right_coaction_verdict
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    InvalidMorphism,
    ObjectMismatch,
)
from .linalg import Mat, _vadd, _vadd_at
from .verdict import checker, first_difference, first_noncommuting, run_laws

EXT_MORPHISM_LAWS = ("bimodule", "delta-right-linear", "coaction", "colinearity")
CORINGS_MORPHISM_LAWS = (
    "algebra-morphism",
    "bilinearity",
    "counit-square",
    "comultiplication-square",
)
MONOIDAL_LAWS = (
    "identity-preservation",
    "interchange",
    "unit-isomorphisms",
    "associator",
)
MAX_SQUARES = {"ext": 12, "corings": 24}
MAX_TRIPLES = 4


class ExtMorphism:
    """A morphism (C:A) -> (D:B) in the extension category: a right extension of C by D.

    `action_mats[j]` is the C -> C matrix of the new right action of the j-th
    basis element of B; `coact_lift` lifts the coaction into the ambient
    C (x)_k D with row-major pair indexing.  The tensor over B inside the
    coaction target always uses the action supplied here.  Construction checks
    shapes and fields only; `check_ext_morphism` runs the four laws.

    A workspace's `extensions` load as these morphisms, their action given per
    basis element as here.  An `ext` entry of its `morphisms` spells the action
    as one interleaved matrix C (x)_k B -> C; only `workspace` knows that form.
    """

    def __init__(self, source, target, action_mats, coact_lift):
        dim_c, dim_d = source.dim, target.dim
        if len(action_mats) != target.base.dim or any(
            m.nrows != dim_c or m.ncols != dim_c for m in action_mats
        ):
            raise DimensionMismatch("need one C -> C action matrix per basis element of B")
        if coact_lift.nrows != dim_c or coact_lift.ncols != dim_c * dim_d:
            raise DimensionMismatch("coaction lift must map C into ambient C (x) D")
        if any(m.field != source.field for m in (target, *action_mats, coact_lift)):
            raise FieldMismatch("morphism data over mixed fields")
        self.source = source
        self.target = target
        self.action_mats = list(action_mats)
        self.coact_lift = coact_lift

    @cached_property
    def bimodule(self):
        """C with the new right action: C's own carrier, with its factors,
        when the action is the carrier's own over the same base."""
        carrier = self.source.carrier
        if self.target.base is self.source.base and self.action_mats == carrier.right_act:
            return carrier
        return Bimodule(
            self.source.base,
            self.target.base,
            self.source.dim,
            self.source.carrier.left_act,
            self.action_mats,
            self.source.carrier.labels,
        )

    @cached_property
    def coaction_tensor(self):
        return tensor_over_alg(self.bimodule, self.target.carrier)

    @cached_property
    def coaction(self):
        return self.coaction_tensor.quot.project_rows(self.coact_lift)

    def __repr__(self):
        return f"ExtMorphism({self.source!r} -> {self.target!r})"


@checker
def check_ext_morphism(m):
    """The four laws of a right extension in order, stopping at the first failure."""
    c, bimodule = m.source, m.bimodule
    yield "bimodule", bimodule.check().witness

    # The action on C (x)_A C is read off C (x)_A M, whose relations use only
    # C's left action, so it is in the coordinates of `c.comul`; it descends
    # because the two actions on M commute (`bimodule`).
    act = tensor_over_alg(c.carrier, bimodule).result.right_act
    j = first_noncommuting(bimodule.right_act, c.comul, act)
    if j is not None:
        yield "delta-right-linear", (
            f"comultiplication does not commute with the right action of "
            f"{bimodule.right_alg.label(j)}"
        )
    yield "delta-right-linear", None

    v = right_coaction_verdict(bimodule, m.target, m.coact_lift)
    if not v.ok:
        yield "coaction", f"{v.law}: {v.witness}"
    yield "coaction", None
    yield "colinearity", coaction_compatibility(
        c, m.target, bimodule, c.comul_lift, m.coact_lift).witness


def ext_identity(c):
    """Identity morphism: the initial right action and the comultiplication."""
    return ExtMorphism(c, c, c.carrier.right_act, c.comul_lift)


def ext_to_unit(c):
    """The morphism (C:A) -> unit coring: scalar action, identity coaction."""
    field = c.field
    ident = Mat.identity(field, c.dim)
    return ExtMorphism(c, unit_coring(field), [ident.copy()], ident)


def ext_to_trivial(c):
    """The morphism (C:A) -> (A:A): initial action, coaction c -> c (x) 1."""
    unit = Mat(c.field, 1, c.base.dim, [c.base.unit])
    coact = Mat.identity(c.field, c.dim).kron(unit)
    return ExtMorphism(c, trivial_coring(c.base), c.carrier.right_act, coact)


def ext_compose(g, f):
    """Bullet composition of f: (E:C0) -> (C:A) and g: (C:A) -> (D:B).

    Computed by expanding the coaction lifts into pure basis tensors:
    the new action sends e (x) b to e_(0) eps_C(e_(1) b) and the new coaction
    sends e to e_(0) eps_C(e_(1)^[0]) (x)_B e_(1)^[1].
    """
    if f.target != g.source:
        raise ObjectMismatch("inner endpoints do not match")
    field = f.source.field
    e_dim = f.source.dim
    c_dim = g.source.dim
    d_dim = g.target.dim
    eps = g.source.counit_mat
    act_f = f.action_mats
    # The action of b contracts f's coaction with c -> eps_C(c b).
    action = [_counit_contraction(f.coact_lift, c_dim, a @ eps, act_f, False)
              for a in g.action_mats]

    coact_rows = []
    for e in range(e_dim):
        out = {}
        for idx, val in f.coact_lift.rows[e].items():
            e0, c = divmod(idx, c_dim)
            for idx2, val2 in g.coact_lift.rows[c].items():
                c0, d = divmod(idx2, d_dim)
                coeff = field.mul(val, val2)
                for t, at in eps.rows[c0].items():
                    _vadd_at(field, out, act_f[t].rows[e0], field.mul(coeff, at), d, d_dim)
        coact_rows.append(out)
    coact = Mat(field, e_dim, e_dim * d_dim, coact_rows)
    return ExtMorphism(f.source, g.target, action, coact)


def ext_compose_via_cotensor(g, f, composed):
    """Bullet coaction through the cotensor route, as an independent oracle.

    `composed` is `ext_compose(g, f)`, the composite under check.  Reads E
    as E box_C C along f's coaction rho_f: E -> E (x)_A C, pushes through
    E box_C (C (x)_B D) along g's coaction, and collapses with the counit
    into the presentation of E (x)_B D that `composed` carries.  That rho_f
    maps E onto E box_C C bijectively is not checked here, since it holds
    for every right C-comodule: rho_f lands in the cotensor by
    coassociativity, and E (x) counit splits it by the counit law and the
    right A-linearity of rho_f.  f must therefore be a valid right
    extension, as every loaded morphism is: `check_ext_morphism` verified
    those laws for it at load.  The action component has only the explicit
    formula, so the result takes the action of `composed`.
    """
    if f.target != g.source:
        raise ObjectMismatch("inner endpoints do not match")
    field = f.source.field
    d_dim = g.target.dim

    t_cd = g.coaction_tensor
    t_r = tensor_over_alg(f.bimodule, t_cd.result)
    through_d = induced_map_on_tensor(
        Mat.identity(field, f.source.dim), g.coaction, f.coaction_tensor, t_r
    )

    t_ed = composed.coaction_tensor
    eps = g.source.counit_mat
    act_f = f.action_mats
    collapse_rows = []
    # Class s of t_r lifts to e_i (x) (class u of t_cd), which lifts to
    # e_i (x) e_c (x) e_d.
    for idx in t_r.quot.rep_columns:
        i, u = divmod(idx, t_cd.dim)
        c, d = divmod(t_cd.quot.rep_columns[u], d_dim)
        moved = {}
        for t, at in eps.rows[c].items():
            _vadd(field, moved, act_f[t].rows[i], at)
        collapse_rows.append(
            t_ed.quot.project_vec({w * d_dim + d: wv for w, wv in moved.items()}))
    collapse = Mat(field, t_r.dim, t_ed.dim, collapse_rows)

    oracle = f.coaction @ through_d @ collapse
    reps = t_ed.quot.rep_columns
    lift = Mat(field, oracle.nrows, t_ed.quot.ambient_dim,
               [{reps[t]: v for t, v in row.items()} for row in oracle.rows])
    return ExtMorphism(f.source, g.target, composed.action_mats, lift)


def ext_tensor_morphisms(m, m2):
    """Tensor of two morphisms: paired action and regrouped coaction lift.

    The coaction lift is the two lifts' product regrouped into
    (C (x) C') (x) (D (x) D'), whose projection is the regrouping iso applied
    after coaction (x) coaction'.
    """
    if m.source.field != m2.source.field:
        raise FieldMismatch("tensor of morphisms over different fields")
    source = tensor_coring(m.source, m2.source)
    target = tensor_coring(m.target, m2.target)
    action = [r.kron(r2) for r in m.action_mats for r2 in m2.action_mats]
    coact = regrouped_kron(m.coact_lift, m2.coact_lift, m.target.dim, m2.target.dim)
    return ExtMorphism(source, target, action, coact)


def ext_morphisms_equal(a, b):
    """Equality of morphisms: exact actions, coactions compared in C (x)_B D."""
    if a.source != b.source or a.target != b.target:
        return False
    if a.action_mats != b.action_mats:
        return False
    return a.coaction == a.coaction_tensor.quot.project_rows(b.coact_lift)


class CoringsMorphism:
    """A morphism (C:A) -> (D:B): an algebra map and a compatible carrier map."""

    def __init__(self, source, target, phi, varphi):
        if varphi.source != source.base or varphi.target != target.base:
            raise DimensionMismatch("algebra map endpoints must be the coring bases")
        if phi.nrows != source.dim or phi.ncols != target.dim:
            raise DimensionMismatch("carrier map has the wrong shape")
        if phi.field != source.field:
            raise FieldMismatch("morphism data over mixed fields")
        self.source = source
        self.target = target
        self.phi = phi
        self.varphi = varphi

    def __eq__(self, other):
        return (
            isinstance(other, CoringsMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.phi == other.phi
            and self.varphi == other.varphi
        )

    __hash__ = None

    def __repr__(self):
        return f"CoringsMorphism({self.source!r} -> {self.target!r})"


@checker
def check_corings_morphism(m):
    """Algebra map, bilinearity, counit square, and the comultiplication square."""
    v = check_algebra_morphism(m.varphi)
    if not v.ok:
        yield "algebra-morphism", f"{v.law}: {v.witness}"
    yield "algebra-morphism", None

    # The target carrier as a bimodule over the source base, along varphi;
    # the left, then the right action of each basis element in turn.
    src = m.source.carrier
    tgt = restrict_scalars(m.target.carrier, left=m.varphi, right=m.varphi)
    k = first_noncommuting([a for p in zip(src.left_act, src.right_act) for a in p], m.phi,
                           [a for p in zip(tgt.left_act, tgt.right_act) for a in p])
    if k is not None:
        i, side = divmod(k, 2)
        yield "bilinearity", (
            f"carrier map is not {('left', 'right')[side]}-linear over "
            f"{m.source.base.label(i)}"
        )
    yield "bilinearity", None

    if m.source.counit_mat @ m.varphi.map != m.phi @ m.target.counit_mat:
        yield "counit-square", (
            "counit of the target after the carrier map differs from the algebra "
            "map after the source counit"
        )
    yield "counit-square", None

    lhs = m.phi @ m.target.comul
    # phi (x) phi descends from C (x)_A C to D (x)_B D because phi is
    # bilinear along varphi (`bilinearity`): A-relations go to B-relations.
    rhs = push(m.target.tens, lambda vec: _kron_apply(m.phi, m.phi, vec),
               m.source.comul_lift.rows)
    i = first_difference(lhs, rhs)
    if i is not None:
        yield "comultiplication-square", (
            f"{m.source.label(i)}: the comultiplication square does not commute"
        )
    yield "comultiplication-square", None


def corings_identity(c):
    return CoringsMorphism(
        c, c, Mat.identity(c.field, c.dim), identity_morphism(c.base)
    )


def counit_corings_morphism(c):
    """(counit, id): (C:A) -> (A:A), the trivial coring over the base."""
    return CoringsMorphism(
        c, trivial_coring(c.base), c.counit_mat, identity_morphism(c.base)
    )


def trivial_corings_morphism(f):
    """An algebra map A -> B as a morphism of trivial corings (A:A) -> (B:B)."""
    return CoringsMorphism(
        trivial_coring(f.source), trivial_coring(f.target), f.map, f
    )


def grouplike_corings_morphism(source, target, mapping):
    """The coalgebra map of grouplike fixtures induced by g_i -> h_mapping[i]."""
    field = source.field
    rows = [{mapping[i]: field.one} for i in range(source.dim)]
    phi = Mat(field, source.dim, target.dim, rows)
    return CoringsMorphism(
        source, target, phi, identity_morphism(source.base)
    )


def corings_compose(g, f):
    """Componentwise composition of corings morphisms."""
    if f.target != g.source:
        raise ObjectMismatch("inner endpoints do not match")
    return CoringsMorphism(
        f.source,
        g.target,
        f.phi @ g.phi,
        AlgebraMorphism(f.source.base, g.target.base, f.varphi.map @ g.varphi.map),
    )


def corings_tensor_morphisms(m, m2):
    """(phi (x) phi', varphi (x) varphi') between the tensor corings."""
    if m.source.field != m2.source.field:
        raise FieldMismatch("tensor of morphisms over different fields")
    source = tensor_coring(m.source, m2.source)
    target = tensor_coring(m.target, m2.target)
    varphi = AlgebraMorphism(source.base, target.base, m.varphi.map.kron(m2.varphi.map))
    return CoringsMorphism(source, target, m.phi.kron(m2.phi), varphi)


def base_ring_extension(m):
    """Base ring extension of a corings morphism (phi, varphi): (C:A) -> (D:B).

    Builds the B-coring X = B (x)_A C (x)_A B with the standard
    comultiplication and counit and the right D-coaction
    b (x) c (x) b' -> (b (x) c_(1) (x) 1) (x)_B phi(c_(2)) b', and returns
    the extension as the `ExtMorphism` (X:B) -> (D:B), whose action
    is right multiplication.  The morphism is checked first
    (InvalidMorphism); the extension is not.
    """
    v = check_corings_morphism(m)
    if not v.ok:
        raise InvalidMorphism(f"{v.law}: {v.witness}")
    c, d = m.source, m.target
    b_alg = d.base
    field = c.field
    phi, varphi = m.phi, m.varphi.map

    # B as a (B, A)-bimodule and as an (A, B)-bimodule, the A-side through varphi.
    b_left = restrict_scalars(regular_bimodule(b_alg), right=m.varphi)
    b_right = restrict_scalars(regular_bimodule(b_alg), left=m.varphi)

    t_bc = tensor_over_alg(b_left, c.carrier)
    t_bcb = tensor_over_alg(t_bc.result, b_right)
    carrier = t_bcb.result
    dim_b, dim_c = b_alg.dim, c.dim
    x_dim = carrier.dim
    unit = Mat(field, 1, dim_b, [b_alg.unit])

    # The factor maps b (x) c -> b (x) c (x) 1 and c (x) b' -> 1 (x) c (x) b'
    # into X, and c (x) b' -> phi(c) b' into D, the product taken in the right
    # B-module structure of D.  Comultiplication and coaction apply them to
    # b (x) comul(c) (x) b': (b (x) c_(1) (x) 1) (x)_X (1 (x) c_(2) (x) b')
    # and (b (x) c_(1) (x) 1) (x)_k phi(c_(2)) b'.
    left = t_bcb.quot.project_rows(
        t_bc.quot.project_rows(Mat.identity(field, dim_b * dim_c)).kron(unit))
    right = t_bcb.quot.project_rows(
        t_bc.quot.project_rows(unit.kron(Mat.identity(field, dim_c)))
        .kron(Mat.identity(field, dim_b)))
    acted = Mat(field, dim_c * dim_b, d.dim,
                [d.carrier.right_act[l].apply(row) for row in phi.rows for l in range(dim_b)])
    comul_rows = []
    counit_rows = []
    coact_rows = []
    eps_phi = c.counit_mat @ varphi
    for idx in t_bcb.quot.rep_columns:
        # Class s of the carrier lifts to (class u of t_bc) (x) e_l, and class u
        # to e_(b_i) (x) e_(c_j); its comultiplication lifts to
        # e_(b_i) (x) comul(c_j) (x) e_l in (B (x)_k C) (x)_k (C (x)_k B).
        u, l = divmod(idx, dim_b)
        b_i, c_j = divmod(t_bc.quot.rep_columns[u], dim_c)
        lift = {(b_i * dim_c * dim_c + pair) * dim_b + l: w
                for pair, w in c.comul_lift.rows[c_j].items()}
        comul_rows.append(_kron_apply(left, right, lift))
        coact_rows.append(_kron_apply(left, acted, lift))
        # counit: b * varphi(counit(c)) * b'
        counit_rows.append(b_alg.mul_vec(b_alg.mul_vec({b_i: field.one}, eps_phi.rows[c_j]),
                                         {l: field.one}))

    coring = Coring(
        b_alg,
        carrier,
        Mat(field, x_dim, x_dim * x_dim, comul_rows),
        Mat(field, x_dim, b_alg.dim, counit_rows),
    )
    return ExtMorphism(
        coring, d, carrier.right_act, Mat(field, x_dim, x_dim * d.dim, coact_rows)
    )


def _composable_pairs(morphisms):
    pairs = []
    for gi, g in enumerate(morphisms):
        for fi, f in enumerate(morphisms):
            if f.target == g.source:
                pairs.append((gi, fi))
    return pairs


def _sampled(items, cap, seed):
    if len(items) <= cap:
        return list(items)
    rng = random.Random(seed)
    picked = sorted(rng.sample(range(len(items)), cap))
    return [items[i] for i in picked]


def _verify_monoidal(corings, morphisms, seed, kind):
    """Shared four-phase monoidal verifier; `kind` picks the category.

    Every coring in the family must pass `check_coring` (workspace load
    guarantees it); the morphisms need not be valid.  The tensor is strict,
    so the unitors and the associator are identities, and the last two phases
    check that as equalities of corings: C tensored with the unit on either
    side is C, and the two groupings of a sampled triple are one coring.
    Interchange is checked on at most MAX_SQUARES[kind] sampled squares of
    composable pairs, each composite composed and checked once, and the
    associator on at most MAX_TRIPLES sampled triples.  An empty family
    passes every law vacuously.
    """
    vacuous = []
    return run_laws(_monoidal_laws(corings, morphisms, seed, kind, vacuous), vacuous)


def _monoidal_laws(corings, morphisms, seed, kind, vacuous):
    """The laws of `_verify_monoidal`; each that held on no instance joins `vacuous`."""
    is_ext = kind == "ext"

    def held(law, instances):
        if not instances:
            vacuous.append(law)
        return law, None

    identity_of = ext_identity if is_ext else corings_identity
    tensor_of = ext_tensor_morphisms if is_ext else corings_tensor_morphisms
    compose = ext_compose if is_ext else corings_compose
    check = check_ext_morphism if is_ext else check_corings_morphism
    morphs_equal = ext_morphisms_equal if is_ext else operator.eq

    for i in range(len(corings)):
        for j in range(len(corings)):
            lhs = tensor_of(identity_of(corings[i]), identity_of(corings[j]))
            rhs = identity_of(lhs.source)
            same = (
                lhs.action_mats == rhs.action_mats and lhs.coact_lift == rhs.coact_lift
                if is_ext
                else lhs == rhs
            )
            if not same:
                yield "identity-preservation", (
                    f"tensor of the identities of corings {i} and {j} is not the "
                    f"identity of their tensor"
                )
    yield held("identity-preservation", corings)

    pairs = _composable_pairs(morphisms)
    squares = _sampled(
        [(p, q) for p in pairs for q in pairs], MAX_SQUARES[kind], seed
    )
    composites = {}
    for (gi, fi), (gj, fj) in squares:
        for a, b in ((gi, fi), (gj, fj)):
            if (a, b) not in composites:
                composites[a, b] = compose(morphisms[a], morphisms[b])
                v = check(composites[a, b])
                if not v.ok:
                    yield "interchange", (
                        f"composite of morphisms {a} after {b} is not a valid morphism "
                        f"({v.law}: {v.witness})"
                    )
        g, f = morphisms[gi], morphisms[fi]
        g2, f2 = morphisms[gj], morphisms[fj]
        lhs = tensor_of(composites[gi, fi], composites[gj, fj])
        rhs = compose(tensor_of(g, g2), tensor_of(f, f2))
        if not morphs_equal(lhs, rhs):
            yield "interchange", (
                f"interchange fails on morphism pairs ({gi},{fi}) and ({gj},{fj})"
            )
    yield held("interchange", squares)

    for i, c in enumerate(corings):
        unit = unit_coring(c.field)
        if not tensor_coring(unit, c) == c == tensor_coring(c, unit):
            yield "unit-isomorphisms", (
                f"tensoring coring {i} with the unit does not collapse to it"
            )
    yield held("unit-isomorphisms", corings)

    triples = [
        (i, j, l)
        for i in range(len(corings))
        for j in range(len(corings))
        for l in range(len(corings))
        if corings[i].dim * corings[j].dim * corings[l].dim <= 64
    ]
    triples = _sampled(triples, MAX_TRIPLES, seed + 1)
    for i, j, l in triples:
        left = tensor_coring(tensor_coring(corings[i], corings[j]), corings[l])
        right = tensor_coring(corings[i], tensor_coring(corings[j], corings[l]))
        if left != right:
            yield "associator", f"the two groupings of ({i},{j},{l}) are different corings"
    yield held("associator", triples)


def verify_ext_monoidal(corings, morphisms, seed=0):
    """Monoidal-category laws of the extension category; every coring must be valid."""
    return _verify_monoidal(corings, morphisms, seed, "ext")


def verify_corings_monoidal(corings, morphisms, seed=0):
    """Monoidal-category laws of the plain corings category; every coring must be valid."""
    return _verify_monoidal(corings, morphisms, seed, "corings")
