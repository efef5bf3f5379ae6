"""Constructions only the tests use: module-hom bases, unit embeddings, the
comparison maps of a base ring extension, the unit map of an algebra, the
tensor of algebra maps and the interchange isomorphism with its naturality
square.

They serve as independent oracles for the library: `interchange_iso` is the
route `tensor_coring`'s middle swap must agree with, the unit embeddings
invert the unit collapses of tests/reference.py (the counit laws' route
through a presented unit tensor), `base_extension_maps` relates a base ring
extension to the coring it extends, and the hom-space helpers draw random
module maps for functoriality checks.
"""

from corings.algebras import AlgebraMorphism, ground_algebra, tensor_algebra
from corings.bimodules import (
    BimoduleMorphism,
    induced_map_on_tensor,
    regular_bimodule,
    restrict_scalars,
    tensor_over_alg,
    tensor_over_k,
)
from corings.errors import (
    AlgebraMismatch,
    DescentFailure,
    DimensionMismatch,
    FieldMismatch,
)
from corings.linalg import Mat, _vadd
from corings.verdict import Verdict
from reference import (
    IsoFailure,
    contains,
    inverse,
    kernel,
    lift_mat,
    mat_add,
    scaled,
    zero_mat,
)


def unit_map(a):
    """The algebra map k -> A sending 1 to the unit of A.

    Restricting one side of a bimodule along it leaves the ground field
    acting there by scalars: a one-sided module seen as a bimodule.
    """
    return AlgebraMorphism(ground_algebra(a.field), a, Mat(a.field, 1, a.dim, [a.unit]))


def tensor_algebra_morphism(f, g):
    """(f (x) g) between the tensor algebras, matching the pair indexing."""
    return AlgebraMorphism(
        tensor_algebra(f.source, g.source),
        tensor_algebra(f.target, g.target),
        f.map.kron(g.map),
    )


def _as_mat(f):
    return f.map if isinstance(f, BimoduleMorphism) else f


def interchange_target(t1, t2):
    """Presentation of (M (x) N) (x)_{A(x)A'} (C (x) C') for the regrouping map."""
    mn = tensor_over_k(t1.left_factor, t2.left_factor)
    cc = tensor_over_k(t1.right_factor, t2.right_factor)
    return tensor_over_alg(mn, cc)


def interchange_iso(t1, t2, target=None):
    """Canonical regrouping isomorphism

        (M (x)_A C) (x)_k (N (x)_A' C')  ->  (M (x)_k N) (x)_{A(x)A'} (C (x)_k C')

    defined on pure tensors by shuffling coordinates.  Well-definedness on both
    quotient presentations is verified, as is invertibility.  The returned
    morphism carries the target presentation as `.target_tensor` and the
    inverse matrix as `.inverse_map`.
    """
    if t1.field != t2.field:
        raise FieldMismatch("factors over different fields")
    for t in (t1, t2):
        if t.right_factor.left_alg != t.over or t.right_factor.right_alg != t.over:
            raise AlgebraMismatch(
                "right factor must be a bimodule over the middle algebra on both sides"
            )
    field = t1.field
    d_m, d_c = t1.left_factor.dim, t1.right_factor.dim
    d_n, d_c2 = t2.left_factor.dim, t2.right_factor.dim
    if target is None:
        target = interchange_target(t1, t2)
    if target.quot.ambient_dim != d_m * d_c * d_n * d_c2:
        raise DimensionMismatch("target presentation has the wrong ambient dimension")

    def shuffle(idx1, idx2):
        i, c = divmod(idx1, d_c)
        j, c2 = divmod(idx2, d_c2)
        return (i * d_n + j) * (d_c * d_c2) + c * d_c2 + c2

    # Well-definedness: relations of either factor, tensored with any ambient
    # basis vector of the other, must die in the target quotient.
    for r in t1.quot.relations.basis.rows:
        for idx2 in range(d_n * d_c2):
            vec = {shuffle(idx1, idx2): v for idx1, v in r.items()}
            if not contains(target.quot.relations, vec):
                raise DescentFailure("regrouping map is not well defined (left factor)")
    for r in t2.quot.relations.basis.rows:
        for idx1 in range(d_m * d_c):
            vec = {shuffle(idx1, idx2): v for idx2, v in r.items()}
            if not contains(target.quot.relations, vec):
                raise DescentFailure("regrouping map is not well defined (right factor)")

    source = tensor_over_k(t1.result, t2.result)
    rows = []
    p = field.p
    lift2 = lift_mat(t2.quot).rows
    for w1 in lift_mat(t1.quot).rows:
        for w2 in lift2:
            amb = {}
            for idx1, v1 in w1.items():
                for idx2, v2 in w2.items():
                    coeff = v1 * v2 if p is None else (v1 * v2) % p
                    if coeff:
                        amb[shuffle(idx1, idx2)] = coeff
            rows.append(target.quot.project_vec(amb))
    mat = Mat(field, t1.dim * t2.dim, target.dim, rows)
    if mat.nrows != mat.ncols:
        raise IsoFailure(
            f"regrouping map is {mat.nrows}x{mat.ncols}, hence not invertible"
        )
    morphism = BimoduleMorphism(source, target.result, mat)
    morphism.target_tensor = target
    morphism.inverse_map = inverse(mat)
    return morphism


class InterchangeFixtures:
    """Prebuilt presentations for naturality checks of the regrouping map.

    Holds modules m -> m2 over A, n -> n2 over A', the two carriers cc, cc2,
    the four presented tensors, and the regrouping isos at both corners.
    """

    def __init__(self, m, m2, n, n2, cc, cc2):
        self.m, self.m2, self.n, self.n2 = m, m2, n, n2
        self.cc, self.cc2 = cc, cc2
        self.t_mc = tensor_over_alg(m, cc)
        self.t_m2c = tensor_over_alg(m2, cc)
        self.t_nc = tensor_over_alg(n, cc2)
        self.t_n2c = tensor_over_alg(n2, cc2)
        self.iso = interchange_iso(self.t_mc, self.t_nc)
        self.iso2 = interchange_iso(self.t_m2c, self.t_n2c)


def check_interchange_naturality(f, g, fixtures):
    """Naturality square of the regrouping iso for right-linear maps f, g.

    f: M -> M2 must be right-A-linear and g: N -> N2 right-A'-linear; violating
    maps are rejected with ValueError before any square is formed.
    """
    fx = fixtures
    fm, gm = _as_mat(f), _as_mat(g)
    for j in range(fx.m.right_alg.dim):
        if fx.m.right_act[j] @ fm != fm @ fx.m2.right_act[j]:
            raise ValueError("f is not right-linear over the first base algebra")
    for j in range(fx.n.right_alg.dim):
        if fx.n.right_act[j] @ gm != gm @ fx.n2.right_act[j]:
            raise ValueError("g is not right-linear over the second base algebra")

    ident_c = Mat.identity(fx.cc.field, fx.cc.dim)
    ident_c2 = Mat.identity(fx.cc2.field, fx.cc2.dim)
    f_tens = induced_map_on_tensor(fm, ident_c, fx.t_mc, fx.t_m2c)
    g_tens = induced_map_on_tensor(gm, ident_c2, fx.t_nc, fx.t_n2c)
    lhs = f_tens.kron(g_tens) @ fx.iso2.map

    fg = fm.kron(gm)
    ident_cc = Mat.identity(fx.cc.field, fx.cc.dim * fx.cc2.dim)
    fg_tens = induced_map_on_tensor(
        fg, ident_cc, fx.iso.target_tensor, fx.iso2.target_tensor
    )
    rhs = fx.iso.map @ fg_tens
    if lhs != rhs:
        return Verdict.failed(
            "naturality",
            "the two composites through the regrouping square differ",
        )
    return Verdict.passed(("naturality",))


def left_unit_embed(t):
    """m -> class(1 (x) m) for t = A (x)_A M."""
    field = t.field
    a = t.left_factor.left_alg
    nd = t.right_factor.dim
    rows = []
    for j in range(nd):
        vec = {i * nd + j: c for i, c in a.unit.items()}
        rows.append(t.quot.project_vec(vec))
    return Mat(field, nd, t.dim, rows)


def right_unit_embed(t):
    """m -> class(m (x) 1) for t = M (x)_A A."""
    field = t.field
    a = t.right_factor.right_alg
    nd = t.right_factor.dim
    rows = []
    for i in range(t.left_factor.dim):
        vec = {i * nd + j: c for j, c in a.unit.items()}
        rows.append(t.quot.project_vec(vec))
    return Mat(field, t.left_factor.dim, t.dim, rows)


def base_extension_maps(m):
    """The comparison maps of the base ring extension of (phi, varphi): (C:A) -> (D:B).

    Returns (collapse, embed) for X = B (x)_A C (x)_A B presented as
    `base_ring_extension` presents it: collapse sends b (x) c (x) b' to
    b phi(c) b' in D, and embed sends c to the class of 1 (x) c (x) 1.
    """
    c, d = m.source, m.target
    b_alg = d.base
    field = c.field
    b_left = restrict_scalars(regular_bimodule(b_alg), right=m.varphi)
    b_right = restrict_scalars(regular_bimodule(b_alg), left=m.varphi)
    t_bc = tensor_over_alg(b_left, c.carrier)
    t_bcb = tensor_over_alg(t_bc.result, b_right)
    dim_b, dim_c = b_alg.dim, c.dim
    collapse_rows = []
    lift_bc = lift_mat(t_bc.quot).rows
    for lift_row in lift_mat(t_bcb.quot).rows:
        row = {}
        for idx, val in lift_row.items():
            u, l = divmod(idx, dim_b)
            for bc_idx, bc_val in lift_bc[u].items():
                b_i, c_j = divmod(bc_idx, dim_c)
                coeff = field.mul(val, bc_val)
                # b_i . phi(c_j) . b_l through the bimodule structure of D
                for t, v in m.phi.rows[c_j].items():
                    for u2, uv in d.carrier.left_act[b_i].rows[t].items():
                        _vadd(field, row, d.carrier.right_act[l].rows[u2],
                              field.mul(coeff, field.mul(v, uv)))
        collapse_rows.append(row)
    collapse = Mat(field, t_bcb.dim, d.dim, collapse_rows)

    unit_b = b_alg.unit
    embed_rows = []
    for j in range(dim_c):
        bc = t_bc.quot.project_vec({i * dim_c + j: v for i, v in unit_b.items()})
        amb = {}
        for u, uv in bc.items():
            _vadd(field, amb, {u * dim_b + l: lv for l, lv in unit_b.items()}, uv)
        embed_rows.append(t_bcb.quot.project_vec(amb))
    return collapse, Mat(field, dim_c, t_bcb.dim, embed_rows)


def module_hom_space(m, n, side="right"):
    """Basis of the space of one-sided module maps m -> n (as matrices).

    `side` picks which action must be respected; the other side is ignored,
    matching how morphisms of right modules are quantified.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    acts_m = m.right_act if side == "right" else m.left_act
    acts_n = n.right_act if side == "right" else n.left_act
    alg = m.right_alg if side == "right" else m.left_alg
    alg_n = n.right_alg if side == "right" else n.left_alg
    if alg != alg_n:
        raise AlgebraMismatch("modules are not over the same algebra")
    field = m.field
    unknowns = m.dim * n.dim
    rows = []
    for t in range(alg.dim):
        R, S = acts_m[t], acts_n[t]
        for i in range(m.dim):
            for tp in range(n.dim):
                row = {}
                for u, v in R.rows[i].items():
                    row[u * n.dim + tp] = v
                _vadd(
                    field,
                    row,
                    {i * n.dim + w: S.rows[w].get(tp, field.zero) for w in range(n.dim)
                     if S.rows[w].get(tp)},
                    field.neg(field.one),
                )
                if row:
                    rows.append(row)
    constraint = Mat(field, len(rows), unknowns, rows)
    sol = kernel(constraint)
    mats = []
    for r in sol.basis.rows:
        mat_rows = [{} for _ in range(m.dim)]
        for idx, v in r.items():
            i, j = divmod(idx, n.dim)
            mat_rows[i][j] = v
        mats.append(Mat(field, m.dim, n.dim, mat_rows))
    return mats


def random_module_hom(rng, basis, field, shape):
    """Deterministic random combination of a module-hom basis."""
    out = zero_mat(field, shape[0], shape[1])
    for b in basis:
        c = field.coerce(rng.randint(-3, 3))
        if c:
            out = mat_add(out, scaled(b, c))
    return out
