"""Construction of new corings from old ones, and the laws of a right extension.

The tensor product of a coring over A and a coring over A' is a coring over
A (x) A' whose comultiplication regroups the two comultiplications through the
canonical interchange isomorphism, and a corings morphism gives rise to the
base ring extension B (x)_A C (x)_A B with its right extension by the target.
`right_extension_verdict` checks the four laws that make D a right extension
of C: a new right action making C an (A,B)-bimodule, comultiplication right
linear for it, a right D-coaction, and left C-colinearity of that coaction.

`tensor_coring` is memoized for the life of the process, like the
presentations of `bimodules.tensor_over_alg`, but keyed on the identity of
its factors; each entry holds both factors, so no id is reused, and a call
that raises stores nothing.  Corings are immutable, so sharing is safe.  It
takes exact field data as is (`tensor_algebra`): scalars are coerced once,
where they enter the program (`FinDimAlgebra`, `Mat.from_rows`).

A right extension is a morphism of the extension category and is held as a
`category.ExtMorphism`.  Constructors here check their inputs (the table of a
grouplike fixture, the algebra map of a Sweedler fixture, the morphism given to
`base_ring_extension`) but not their output.  Corings are validated by
`check_coring` and extensions by `check_ext_morphism`, once, where they enter:
on workspace load, or in the command that built them.

Fixture generators for the standard small examples live here too.
"""

from __future__ import annotations

from .algebras import check_algebra_morphism, check_group_table, ground_algebra
from .bimodules import (
    Bimodule,
    regrouped_kron,
    regular_bimodule,
    restrict_scalars,
    scalar_bimodule,
    tensor_over_alg,
    tensor_over_k,
)
from .coring import (
    Coring,
    coaction_compatibility,
    right_coaction_verdict,
)
from .errors import DimensionMismatch, FieldMismatch, InvalidMorphism, NotInjective
from .linalg import Mat, _vadd, map_kernel
from .verdict import Verdict


_TENSOR_CORINGS = {}


def tensor_coring(c, c2):
    """The coring C (x)_k C' over A (x)_k A'.

    The comultiplication lift sends c (x) c' to the two lifts' product
    regrouped into (C (x) C') (x) (C (x) C'), whose projection equals the
    regrouping iso applied after comul (x) comul'; the counit is exactly
    counit (x) counit'.  The one tensor algebra A (x) A' is the base and acts
    on both sides of the carrier.  Memoized for the life of the process on
    the identity of (c, c2); see the module docstring.
    """
    key = (id(c), id(c2))
    hit = _TENSOR_CORINGS.get(key)
    if hit is not None:
        return hit[2]
    if c.field != c2.field:
        raise FieldMismatch("tensor corings over different fields")
    carrier = tensor_over_k(c.carrier, c2.carrier)
    comul_lift = regrouped_kron(c.comul_lift, c2.comul_lift, c.dim, c2.dim)
    t = Coring(carrier.left_alg, carrier, comul_lift, c.counit_mat.kron(c2.counit_mat))
    _TENSOR_CORINGS[key] = (c, c2, t)
    return t


def _delta_right_linearity(c, bimodule):
    """Right linearity of the comultiplication for the new right action.

    The action on C (x)_A C is read off the presentation of C (x)_A M, M the
    carrier with the new action: its relations are built from the left action
    of M, which is C's, so it presents C (x)_A C in the coordinates of
    `c.comul`.  No descent check is needed once M is a bimodule: id (x) R_b
    sends (c.a) (x) c' - c (x) (a.c') to (c.a) (x) R_b c' - c (x) a.(R_b c'),
    again a relation, because the two actions on M commute.
    """
    act = tensor_over_alg(c.carrier, bimodule).result.right_act
    b_alg = bimodule.right_alg
    for j in range(b_alg.dim):
        if bimodule.right_act[j] @ c.comul != c.comul @ act[j]:
            return Verdict.failed(
                "delta-right-linear",
                f"comultiplication does not commute with the right action of "
                f"{b_alg.label(j)}",
            )
    return Verdict.passed(("delta-right-linear",))


def right_extension_verdict(c, d, right_action_mats, coact_lift):
    """All four extension conditions in order, stopping at the first failure."""
    passed = []
    if c.field != d.field:
        raise FieldMismatch("extension data over mixed fields")
    try:
        bimodule = Bimodule(
            c.base, d.base, c.dim, c.carrier.left_act, right_action_mats,
            c.carrier.labels,
        )
    except (DimensionMismatch, FieldMismatch) as e:
        return Verdict.failed("bimodule", str(e), passed)
    v = bimodule.check()
    if not v.ok:
        return Verdict.failed("bimodule", v.witness, passed)
    passed.append("bimodule")

    v = _delta_right_linearity(c, bimodule)
    if not v.ok:
        return Verdict.failed(v.law, v.witness, passed)
    passed.append("delta-right-linear")

    v = right_coaction_verdict(bimodule, d, coact_lift)
    if not v.ok:
        return Verdict.failed("coaction", f"{v.law}: {v.witness}", passed)
    passed.append("coaction")

    v = coaction_compatibility(c, d, bimodule, c.comul_lift, coact_lift)
    if not v.ok:
        return Verdict.failed("colinearity", v.witness, passed)
    passed.append("colinearity")
    return Verdict.passed(passed)


def base_ring_extension(m):
    """Base ring extension of a corings morphism (phi, varphi): (C:A) -> (D:B).

    Builds the B-coring X = B (x)_A C (x)_A B with the standard
    comultiplication and counit and the right D-coaction
    b (x) c (x) b' -> (b (x) c_(1) (x) 1) (x)_B phi(c_(2)) b', and returns
    the extension as the `category.ExtMorphism` (X:B) -> (D:B), whose action
    is right multiplication.  The morphism is checked first
    (InvalidMorphism); the extension is not.
    """
    from .category import ExtMorphism, check_corings_morphism

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

    def cls_bc(b_vec, c_idx):
        """Class in t_bc of (sum b_vec) (x) c_idx."""
        return t_bc.quot.project_vec(
            {i * dim_c + c_idx: v for i, v in b_vec.items() if v}
        )

    def cls_x(bc_vec, b_vec):
        """Class in the carrier of (element of t_bc) (x) (sum b_vec)."""
        amb = {}
        for u, uv in bc_vec.items():
            _vadd(field, amb, {u * dim_b + l: lv for l, lv in b_vec.items()}, uv)
        return t_bcb.quot.project_vec(amb)

    unit_b = {i: v for i, v in enumerate(b_alg.unit) if v}

    # Comultiplication: (b (x) c_(1) (x) 1) (x)_X (1 (x) c_(2) (x) b').
    comul_rows = []
    counit_rows = []
    coact_rows = []
    eps_phi = c.counit_mat @ varphi
    for s in range(x_dim):
        comul_row = {}
        counit_row = {}
        coact_row = {}
        outer = t_bcb.quot.lift.rows[s]
        for idx, val in outer.items():
            u, l = divmod(idx, dim_b)
            for bc_idx, bc_val in t_bc.quot.lift.rows[u].items():
                b_i, c_j = divmod(bc_idx, dim_c)
                coeff = field.mul(val, bc_val)
                if not coeff:
                    continue
                # counit: b * varphi(counit(c)) * b'
                for t, v in eps_phi.rows[c_j].items():
                    prod = b_alg.mul_vec(b_alg.table[b_i][t], b_alg.basis_vec(l))
                    _vadd(field, counit_row, {w: pv for w, pv in enumerate(prod) if pv},
                          field.mul(coeff, v))
                # comultiplication and coaction share the expansion of comul(c).
                for pair, dv in c.comul_lift.rows[c_j].items():
                    c1, c2 = divmod(pair, dim_c)
                    w = field.mul(coeff, dv)
                    if not w:
                        continue
                    z1 = cls_x(cls_bc({b_i: field.one}, c1), unit_b)
                    z2 = cls_x(cls_bc(unit_b, c2), {l: field.one})
                    for p1, v1 in z1.items():
                        _vadd(field, comul_row, {p1 * x_dim + p2: v2 for p2, v2 in z2.items()},
                              field.mul(w, v1))
                    # coaction: (b (x) c1 (x) 1) (x)_k phi(c2) . b', the product
                    # taken in the right B-module structure of D
                    d_vec = {}
                    for t, pv in phi.rows[c2].items():
                        _vadd(field, d_vec, d.carrier.right_act[l].rows[t], pv)
                    for p1, v1 in z1.items():
                        _vadd(field, coact_row, {p1 * d.dim + q: qv for q, qv in d_vec.items()},
                              field.mul(w, v1))
        comul_rows.append(comul_row)
        counit_rows.append(counit_row)
        coact_rows.append(coact_row)

    coring = Coring(
        b_alg,
        carrier,
        Mat(field, x_dim, x_dim * x_dim, comul_rows),
        Mat(field, x_dim, b_alg.dim, counit_rows),
    )
    return ExtMorphism(
        coring, d, carrier.right_act, Mat(field, x_dim, x_dim * d.dim, coact_rows)
    )


def unit_coring(field):
    """The trivial coring over the ground field: the monoidal unit."""
    return trivial_coring(ground_algebra(field))


def trivial_coring(a):
    """The algebra A as an A-coring: comul the canonical iso, counit the identity."""
    field = a.field
    carrier = regular_bimodule(a)
    rows = []
    for i in range(a.dim):
        rows.append({i * a.dim + j: v for j, v in enumerate(a.unit) if v})
    comul_lift = Mat(field, a.dim, a.dim * a.dim, rows)
    return Coring(a, carrier, comul_lift, Mat.identity(field, a.dim))


def matrix_coalgebra(n, field):
    """The n x n matrix coalgebra over k: comul(e_ij) = sum_t e_it (x) e_tj."""
    dim = n * n
    labels = [f"e_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    carrier = scalar_bimodule(field, dim, labels)
    one = field.one
    rows = []
    for i in range(n):
        for j in range(n):
            rows.append({(i * n + t) * dim + (t * n + j): one for t in range(n)})
    comul_lift = Mat(field, dim, dim * dim, rows)
    counit = Mat(
        field, dim, 1,
        [{0: one} if i == j else {} for i in range(n) for j in range(n)],
    )
    return Coring(ground_algebra(field), carrier, comul_lift, counit)


def grouplike_coalgebra(table, field, labels=None):
    """The coalgebra on a group's elements: every basis vector is grouplike."""
    check_group_table(table)
    n = len(table)
    if labels is None:
        labels = [f"g_{i}" for i in range(n)]
    carrier = scalar_bimodule(field, n, labels)
    one = field.one
    comul_lift = Mat(field, n, n * n, [{i * n + i: one} for i in range(n)])
    counit = Mat(field, n, 1, [{0: one} for _ in range(n)])
    return Coring(ground_algebra(field), carrier, comul_lift, counit)


def sweedler_coring(inclusion):
    """The canonical coring A (x)_B A attached to an algebra inclusion B -> A.

    The map is checked to be an injective algebra morphism: restricting A
    along anything else yields no bimodule to present the tensor over.
    """
    if map_kernel(inclusion.map).dim != 0:
        raise NotInjective("the algebra map has a nonzero kernel")
    v = check_algebra_morphism(inclusion)
    if not v.ok:
        raise InvalidMorphism(f"the algebra map fails {v.law}: {v.witness}")
    a_alg = inclusion.target
    field = a_alg.field
    # A as an (A,B)-bimodule and as a (B,A)-bimodule, B acting through the inclusion.
    regular = regular_bimodule(a_alg)
    t = tensor_over_alg(
        restrict_scalars(regular, right=inclusion), restrict_scalars(regular, left=inclusion)
    )
    carrier = t.result
    dim_a = a_alg.dim
    unit_a = {i: v for i, v in enumerate(a_alg.unit) if v}

    cls = t.quot.project_vec
    comul_rows = []
    counit_rows = []
    for s in range(carrier.dim):
        comul_row = {}
        counit_row = {}
        for idx, val in t.quot.lift.rows[s].items():
            i, j = divmod(idx, dim_a)
            # comul(a (x) a') = (a (x) 1) (x)_A (1 (x) a')
            z1 = cls({i * dim_a + u: v for u, v in unit_a.items()})
            z2 = cls({u * dim_a + j: v for u, v in unit_a.items()})
            for p1, v1 in z1.items():
                _vadd(field, comul_row, {p1 * carrier.dim + p2: v2 for p2, v2 in z2.items()},
                      field.mul(val, v1))
            _vadd(field, counit_row, {w: pv for w, pv in enumerate(a_alg.table[i][j]) if pv},
                  val)
        comul_rows.append(comul_row)
        counit_rows.append(counit_row)
    return Coring(
        a_alg,
        carrier,
        Mat(field, carrier.dim, carrier.dim**2, comul_rows),
        Mat(field, carrier.dim, dim_a, counit_rows),
    )
