"""Two categories whose objects are corings, each monoidal for the same tensor.

In the extension category a morphism (C:A) -> (D:B) is a pair: a new right
B-action on C that is left C-colinear, and a left C-colinear right D-coaction
C -> C (x)_B D; that is, D is a right extension of C.  Composition is by the
bullet formulas, computed from the explicit lifts, with an independent oracle
that routes through the cotensor product.

In the plain corings category a morphism is an algebra map together with a
compatible bilinear map of carriers.  Both categories carry the tensor-coring
bifunctor, and the verifiers here machine-check identity preservation, the
interchange law, invertibility of the unitors in-category, and that the
re-association map is an isomorphism of corings.
"""

from __future__ import annotations

import random
from functools import cached_property

from .algebras import (
    AlgebraMorphism,
    check_algebra_morphism,
    ground_algebra,
    identity_morphism,
)
from .bimodules import Bimodule, induced_map_on_tensor, middle_swap, tensor_over_alg
from .constructions import (
    base_ring_extension,
    right_extension_verdict,
    tensor_coring,
    unit_coring,
)
from .coring import LEFT, RIGHT, Comodule, cotensor
from .errors import (
    DescentFailure,
    DimensionMismatch,
    FieldMismatch,
    InvalidMorphism,
    IsoFailure,
    ObjectMismatch,
)
from .linalg import Mat, _vadd
from .verdict import Verdict

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


class ExtMorphism:
    """A morphism (C:A) -> (D:B) in the extension category.

    `rho_action` is the matrix of the new right action C (x)_k B -> C with
    row-major pair indexing; `coact_lift` lifts the coaction into the ambient
    C (x)_k D.  The tensor over B inside the coaction target always uses the
    action supplied here.
    """

    def __init__(self, source, target, rho_action, coact_lift):
        dim_c, dim_b, dim_d = source.dim, target.base.dim, target.dim
        if rho_action.nrows != dim_c * dim_b or rho_action.ncols != dim_c:
            raise DimensionMismatch("action matrix must map C (x) B to C")
        if coact_lift.nrows != dim_c or coact_lift.ncols != dim_c * dim_d:
            raise DimensionMismatch("coaction lift must map C into ambient C (x) D")
        if rho_action.field != source.field or coact_lift.field != source.field:
            raise FieldMismatch("morphism data over mixed fields")
        self.source = source
        self.target = target
        self.rho_action = rho_action
        self.coact_lift = coact_lift

    @cached_property
    def action_mats(self):
        """Per-basis matrices of the right action of the target base algebra."""
        dim_b = self.target.base.dim
        mats = []
        for j in range(dim_b):
            rows = [dict(self.rho_action.rows[i * dim_b + j]) for i in range(self.source.dim)]
            mats.append(Mat(self.source.field, self.source.dim, self.source.dim, rows))
        return mats

    @cached_property
    def bimodule(self):
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
        return self.coact_lift @ self.coaction_tensor.project

    def __repr__(self):
        return f"ExtMorphism({self.source!r} -> {self.target!r})"


def check_ext_morphism(m):
    """Full right-extension validation of the morphism data."""
    return right_extension_verdict(m.source, m.target, m.action_mats, m.coact_lift)


def ext_from_extension(ext):
    """Wrap a validated right extension as a morphism (C:A) -> (D:B)."""
    dim_b = ext.d.base.dim
    rows = []
    for i in range(ext.c.dim):
        for j in range(dim_b):
            rows.append(dict(ext.bimodule.right_act[j].rows[i]))
    rho = Mat(ext.c.field, ext.c.dim * dim_b, ext.c.dim, rows)
    return ExtMorphism(ext.c, ext.d, rho, ext.coact_lift)


def _initial_action(c):
    dim_a = c.base.dim
    rows = []
    for i in range(c.dim):
        for j in range(dim_a):
            rows.append(dict(c.carrier.right_act[j].rows[i]))
    return Mat(c.field, c.dim * dim_a, c.dim, rows)


def ext_identity(c):
    """Identity morphism: the initial right action and the comultiplication."""
    return ExtMorphism(c, c, _initial_action(c), c.comul_lift)


def ext_to_unit(c):
    """The morphism (C:A) -> unit coring: scalar action, identity coaction."""
    field = c.field
    ident = Mat.identity(field, c.dim)
    return ExtMorphism(c, unit_coring(field), ident.copy(), ident)


def ext_to_trivial(c):
    """The morphism (C:A) -> (A:A): initial action, coaction c -> c (x) 1."""
    from .constructions import trivial_coring

    field = c.field
    rows = []
    for i in range(c.dim):
        rows.append({i * c.base.dim + j: v for j, v in enumerate(c.base.unit) if v})
    coact = Mat(field, c.dim, c.dim * c.base.dim, rows)
    return ExtMorphism(c, trivial_coring(c.base), _initial_action(c), coact)


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
    b_dim = g.target.base.dim
    eps = g.source.counit_mat
    act_f = f.action_mats
    act_g = g.action_mats

    def act_by(e0, a_vec, out, coeff):
        # out += coeff * (e0 . a) for a coordinate vector a over A.
        for t, at in a_vec.items():
            _vadd(field, out, act_f[t].rows[e0], field.mul(coeff, at))

    rho_rows = []
    for e in range(e_dim):
        lift_e = f.coact_lift.rows[e]
        for j in range(b_dim):
            out = {}
            for idx, val in lift_e.items():
                e0, c = divmod(idx, c_dim)
                a_vec = {}
                for u, v in act_g[j].rows[c].items():
                    _vadd(field, a_vec, eps.rows[u], v)
                act_by(e0, a_vec, out, val)
            rho_rows.append(out)
    rho = Mat(field, e_dim * b_dim, e_dim, rho_rows)

    coact_rows = []
    for e in range(e_dim):
        out = {}
        for idx, val in f.coact_lift.rows[e].items():
            e0, c = divmod(idx, c_dim)
            for idx2, val2 in g.coact_lift.rows[c].items():
                c0, d = divmod(idx2, d_dim)
                coeff = field.mul(val, val2)
                if not coeff:
                    continue
                moved = {}
                act_by(e0, eps.rows[c0], moved, coeff)
                for w, wv in moved.items():
                    k = w * d_dim + d
                    s = field.add(out.get(k, field.zero), wv)
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        coact_rows.append(out)
    coact = Mat(field, e_dim, e_dim * d_dim, coact_rows)
    return ExtMorphism(f.source, g.target, rho, coact)


def ext_compose_via_cotensor(g, f):
    """Bullet coaction through the cotensor route, as an independent oracle.

    Embeds E into E box_C C along f's coaction (bijectivity verified), pushes
    through E box_C (C (x)_B D), and collapses with the counit.  The action
    component has only the explicit formula and is shared with ext_compose.
    """
    if f.target != g.source:
        raise ObjectMismatch("inner endpoints do not match")
    field = f.source.field
    e_dim = f.source.dim
    c_coring = g.source
    d_dim = g.target.dim

    explicit = ext_compose(g, f)

    carrier_e = Bimodule(
        ground_algebra(field),
        c_coring.base,
        e_dim,
        [Mat.identity(field, e_dim)],
        f.action_mats,
    )
    cm = Comodule(c_coring, RIGHT, carrier_e, f.coact_lift)
    cl = Comodule.regular(c_coring, LEFT)
    cot = cotensor(cm, cl)
    rho_mat = cm.coaction
    coords = []
    for r in rho_mat.rows:
        c = cot.subspace.coords_of(r)
        if c is None:
            raise IsoFailure("the coaction does not land in the cotensor product")
        coords.append(c)
    emb = Mat(field, e_dim, cot.dim, coords)
    emb.inverse()

    t_ec = cot.tensor
    t_cd = g.coaction_tensor
    g_rho = g.coaction
    t_r = tensor_over_alg(carrier_e, t_cd.result)
    push = induced_map_on_tensor(
        Mat.identity(field, e_dim), g_rho, t_ec, t_r
    ).map

    bim_ed = explicit.bimodule
    t_ed = explicit.coaction_tensor
    eps = c_coring.counit_mat
    act_f = f.action_mats
    c_dim = c_coring.dim
    collapse_rows = []
    for s in range(t_r.dim):
        amb = {}
        for idx, val in t_r.quot.lift.rows[s].items():
            i, u = divmod(idx, t_cd.dim)
            for idx2, val2 in t_cd.quot.lift.rows[u].items():
                c, d = divmod(idx2, d_dim)
                coeff = field.mul(val, val2)
                if not coeff:
                    continue
                moved = {}
                for t, at in eps.rows[c].items():
                    _vadd(field, moved, act_f[t].rows[i], field.mul(coeff, at))
                for w, wv in moved.items():
                    k = w * d_dim + d
                    x = field.add(amb.get(k, field.zero), wv)
                    if x:
                        amb[k] = x
                    else:
                        amb.pop(k, None)
        collapse_rows.append(t_ed.quot.project_vec(amb))
    collapse = Mat(field, t_r.dim, t_ed.dim, collapse_rows)

    oracle = rho_mat @ push @ collapse
    lift = oracle @ t_ed.quot.lift
    return ExtMorphism(f.source, g.target, explicit.rho_action, lift)


def ext_tensor_morphisms(m, m2, source=None, target=None):
    """Tensor of two morphisms: paired action and middle-swapped coaction lift."""
    if m.source.field != m2.source.field:
        raise FieldMismatch("tensor of morphisms over different fields")
    if source is None:
        source = tensor_coring(m.source, m2.source)
    if target is None:
        target = tensor_coring(m.target, m2.target)
    field = m.source.field
    dim_b = m.target.base.dim
    dim_b2 = m2.target.base.dim
    kron_acts = [r.kron(r2) for r in m.action_mats for r2 in m2.action_mats]
    cc_dim = m.source.dim * m2.source.dim
    rows = []
    for i in range(cc_dim):
        for j in range(dim_b * dim_b2):
            rows.append(dict(kron_acts[j].rows[i]))
    rho = Mat(field, cc_dim * dim_b * dim_b2, cc_dim, rows)
    swap = middle_swap(field, m.source.dim, m.target.dim, m2.source.dim, m2.target.dim)
    coact = m.coact_lift.kron(m2.coact_lift) @ swap
    return ExtMorphism(source, target, rho, coact)


def ext_morphisms_equal(a, b):
    """Equality of morphisms: exact actions, coactions compared in C (x)_B D."""
    if a.source != b.source or a.target != b.target:
        return False
    if a.rho_action != b.rho_action:
        return False
    t = a.coaction_tensor
    return a.coaction == b.coact_lift @ t.project


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


def _restricted_target_bimodule(m):
    """The target carrier as a bimodule over the source base, along varphi."""
    field = m.source.field
    dim_d = m.target.dim
    left = []
    right = []
    for i in range(m.source.base.dim):
        l = Mat.zero(field, dim_d, dim_d)
        r = Mat.zero(field, dim_d, dim_d)
        for t, v in m.varphi.map.rows[i].items():
            l = l + m.target.carrier.left_act[t].scale(v)
            r = r + m.target.carrier.right_act[t].scale(v)
        left.append(l)
        right.append(r)
    return Bimodule(m.source.base, m.source.base, dim_d, left, right,
                    m.target.carrier.labels)


def middle_base_change(t_da, target_tens):
    """The canonical surjection D (x)_A D -> D (x)_B D induced by the algebra map.

    Both are quotients of the same ambient D (x)_k D; the A-relations must be
    contained in the B-relations (DescentFailure otherwise).
    """
    for r in t_da.relations.basis.rows:
        if not target_tens.relations.contains(r):
            raise DescentFailure("base-change does not descend")
    rows = [
        target_tens.quot.project_vec(t_da.quot.lift.rows[s]) for s in range(t_da.dim)
    ]
    return Mat(t_da.field, t_da.dim, target_tens.dim, rows)


def check_corings_morphism(m):
    """Algebra map, bilinearity, counit square, and the comultiplication square."""
    from .bimodules import induced_map_on_tensor

    passed = []
    v = check_algebra_morphism(m.varphi)
    if not v.ok:
        return Verdict.failed("algebra-morphism", f"{v.law}: {v.witness}", passed)
    passed.append("algebra-morphism")

    restricted = _restricted_target_bimodule(m)
    for i in range(m.source.base.dim):
        if m.source.carrier.left_act[i] @ m.phi != m.phi @ restricted.left_act[i]:
            return Verdict.failed(
                "bilinearity",
                f"carrier map is not left-linear over {m.source.base.label(i)}",
                passed,
            )
        if m.source.carrier.right_act[i] @ m.phi != m.phi @ restricted.right_act[i]:
            return Verdict.failed(
                "bilinearity",
                f"carrier map is not right-linear over {m.source.base.label(i)}",
                passed,
            )
    passed.append("bilinearity")

    if m.source.counit_mat @ m.varphi.map != m.phi @ m.target.counit_mat:
        return Verdict.failed(
            "counit-square",
            "counit of the target after the carrier map differs from the algebra "
            "map after the source counit",
            passed,
        )
    passed.append("counit-square")

    try:
        t_da = tensor_over_alg(restricted, restricted)
        phi_phi = induced_map_on_tensor(m.phi, m.phi, m.source.tens, t_da).map
        omega = middle_base_change(t_da, m.target.tens)
    except DescentFailure as e:
        return Verdict.failed("comultiplication-square", str(e), passed)
    lhs = m.phi @ m.target.comul
    rhs = m.source.comul @ phi_phi @ omega
    if lhs != rhs:
        i = next(i for i in range(m.source.dim) if lhs.rows[i] != rhs.rows[i])
        return Verdict.failed(
            "comultiplication-square",
            f"{m.source.label(i)}: the comultiplication square does not commute",
            passed,
        )
    passed.append("comultiplication-square")
    return Verdict.passed(passed)


def corings_identity(c):
    return CoringsMorphism(
        c, c, Mat.identity(c.field, c.dim), identity_morphism(c.base)
    )


def counit_corings_morphism(c):
    """(counit, id): (C:A) -> (A:A), the trivial coring over the base."""
    from .constructions import trivial_coring

    return CoringsMorphism(
        c, trivial_coring(c.base), c.counit_mat, identity_morphism(c.base)
    )


def trivial_corings_morphism(f):
    """An algebra map A -> B as a morphism of trivial corings (A:A) -> (B:B)."""
    from .constructions import trivial_coring

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


def corings_tensor_morphisms(m, m2, source=None, target=None):
    """(phi (x) phi', varphi (x) varphi') between the tensor corings."""
    if m.source.field != m2.source.field:
        raise FieldMismatch("tensor of morphisms over different fields")
    if source is None:
        source = tensor_coring(m.source, m2.source)
    if target is None:
        target = tensor_coring(m.target, m2.target)
    varphi = AlgebraMorphism(source.base, target.base, m.varphi.map.kron(m2.varphi.map))
    return CoringsMorphism(source, target, m.phi.kron(m2.phi), varphi)


def corings_to_ext(m):
    """Base ring extension of a corings morphism, as an extension-category morphism.

    Returns (B (x)_A C (x)_A B : B) -> (D:B) with right multiplication as the
    action; the base-extension data is attached as `.base_extension`.
    """
    v = check_corings_morphism(m)
    if not v.ok:
        raise InvalidMorphism(f"{v.law}: {v.witness}")
    bre = base_ring_extension(m)
    out = ext_from_extension(bre.extension)
    out.base_extension = bre
    return out


def _composable_pairs(morphisms):
    pairs = []
    for gi, g in enumerate(morphisms):
        for fi, f in enumerate(morphisms):
            if f.target == g.source:
                pairs.append((gi, fi))
    return pairs


def _sampled(items, cap, seed):
    if cap is None or len(items) <= cap:
        return list(items)
    rng = random.Random(seed)
    picked = sorted(rng.sample(range(len(items)), cap))
    return [items[i] for i in picked]


class _TensorCache:
    def __init__(self, corings):
        self.corings = corings
        self.cache = {}

    def get(self, i, j):
        if (i, j) not in self.cache:
            self.cache[(i, j)] = tensor_coring(self.corings[i], self.corings[j])
        return self.cache[(i, j)]


def _verify_monoidal(corings, morphisms, seed, max_squares, max_triples, kind):
    """Shared four-phase monoidal verifier; `kind` picks the category."""
    is_ext = kind == "ext"
    passed = []
    vacuous = []

    def failed(law, witness):
        return Verdict.failed(law, witness, passed, vacuous)

    def held(law, instances):
        passed.append(law)
        if not instances:
            vacuous.append(law)

    if not corings:
        return failed("identity-preservation", "empty coring family")
    field = corings[0].field
    cache = _TensorCache(corings)

    identity_of = ext_identity if is_ext else corings_identity
    tensor_of = ext_tensor_morphisms if is_ext else corings_tensor_morphisms
    compose = ext_compose if is_ext else corings_compose
    check = check_ext_morphism if is_ext else check_corings_morphism

    def morphs_equal(a, b):
        if is_ext:
            return ext_morphisms_equal(a, b)
        return a == b

    for i in range(len(corings)):
        for j in range(len(corings)):
            t = cache.get(i, j)
            lhs = tensor_of(identity_of(corings[i]), identity_of(corings[j]),
                            source=t, target=t)
            rhs = identity_of(t)
            same = (
                lhs.rho_action == rhs.rho_action and lhs.coact_lift == rhs.coact_lift
                if is_ext
                else lhs == rhs
            )
            if not same:
                return failed(
                    "identity-preservation",
                    f"tensor of the identities of corings {i} and {j} is not the "
                    f"identity of their tensor",
                )
    held("identity-preservation", corings)

    pairs = _composable_pairs(morphisms)
    squares = _sampled(
        [(p, q) for p in pairs for q in pairs], max_squares, seed
    )
    for (gi, fi), (gj, fj) in squares:
        g, f = morphisms[gi], morphisms[fi]
        g2, f2 = morphisms[gj], morphisms[fj]
        comp1 = compose(g, f)
        v = check(comp1)
        if not v.ok:
            return failed(
                "interchange",
                f"composite of morphisms {gi} after {fi} is not a valid morphism "
                f"({v.law}: {v.witness})",
            )
        comp2 = compose(g2, f2)
        v = check(comp2)
        if not v.ok:
            return failed(
                "interchange",
                f"composite of morphisms {gj} after {fj} is not a valid morphism "
                f"({v.law}: {v.witness})",
            )
        lhs = tensor_of(comp1, comp2)
        rhs = compose(tensor_of(g, g2), tensor_of(f, f2))
        if not morphs_equal(lhs, rhs):
            return failed(
                "interchange",
                f"interchange fails on morphism pairs ({gi},{fi}) and ({gj},{fj})",
            )
    held("interchange", squares)

    unit = unit_coring(field)
    for i, c in enumerate(corings):
        for t in (tensor_coring(unit, c), tensor_coring(c, unit)):
            if t != c:
                return failed(
                    "unit-isomorphisms",
                    f"tensoring coring {i} with the unit does not collapse to it",
                )
            if is_ext:
                u = ExtMorphism(t, c, _initial_action(c), c.comul_lift)
                uinv = ExtMorphism(c, t, _initial_action(c), c.comul_lift)
            else:
                ident = Mat.identity(field, c.dim)
                u = CoringsMorphism(t, c, ident, identity_morphism(c.base))
                uinv = CoringsMorphism(c, t, ident.copy(), identity_morphism(c.base))
            for half in (u, uinv):
                v = check(half)
                if not v.ok:
                    return failed(
                        "unit-isomorphisms",
                        f"unitor of coring {i} is not a morphism ({v.law}: {v.witness})",
                    )
            if not morphs_equal(compose(u, uinv), identity_of(c)) or not morphs_equal(
                compose(uinv, u), identity_of(t)
            ):
                return failed(
                    "unit-isomorphisms",
                    f"unitors of coring {i} are not mutually inverse in the category",
                )
    held("unit-isomorphisms", corings)

    triples = [
        (i, j, l)
        for i in range(len(corings))
        for j in range(len(corings))
        for l in range(len(corings))
        if corings[i].dim * corings[j].dim * corings[l].dim <= 64
    ]
    triples = _sampled(triples, max_triples, seed + 1)
    for i, j, l in triples:
        left = tensor_coring(cache.get(i, j), corings[l])
        right = tensor_coring(corings[i], cache.get(j, l))
        if left.dim != right.dim:
            return failed(
                "associator", f"re-association of ({i},{j},{l}) changes dimensions"
            )
        ident = Mat.identity(field, left.dim)
        fwd = CoringsMorphism(
            left, right, ident, AlgebraMorphism(left.base, right.base,
                                                Mat.identity(field, left.base.dim))
        )
        bwd = CoringsMorphism(
            right, left, ident.copy(), AlgebraMorphism(right.base, left.base,
                                                       Mat.identity(field, left.base.dim))
        )
        for half in (fwd, bwd):
            v = check_corings_morphism(half)
            if not v.ok:
                return failed(
                    "associator",
                    f"re-association map of ({i},{j},{l}) is not a coring isomorphism "
                    f"({v.law}: {v.witness})",
                )
    held("associator", triples)
    return Verdict.passed(passed, vacuous)


def verify_ext_monoidal(corings, morphisms, seed=0, max_squares=12, max_triples=4):
    """Monoidal-category laws of the extension category on a fixture family."""
    return _verify_monoidal(corings, morphisms, seed, max_squares, max_triples, "ext")


def verify_corings_monoidal(corings, morphisms, seed=0, max_squares=24, max_triples=4):
    """Monoidal-category laws of the plain corings category on a fixture family."""
    return _verify_monoidal(corings, morphisms, seed, max_squares, max_triples, "corings")
