"""Construction of new corings from old ones, and the standard small examples.

The tensor product of a coring over A and a coring over A' is a coring over
A (x) A' whose comultiplication regroups the two comultiplications through the
canonical interchange isomorphism.

`tensor_coring` is memoized for the life of the process, like the
presentations of `bimodules.tensor_over_alg`, but keyed on the identity of
its factors; each entry holds both factors, so no id is reused, and a call
that raises stores nothing.  Corings are immutable, so sharing is safe.  It
takes exact field data as is (`tensor_algebra`): scalars are coerced once,
where they enter the program (`FinDimAlgebra`, `Mat.from_rows`).
`unit_coring` returns one object per field, so tensors with the unit share
that memo too.

Constructors here check their inputs (the table of a grouplike fixture, the
algebra map of a Sweedler fixture) but not their output.  Corings are
validated by `check_coring`, once, where they enter: on workspace load, or in
the command that built them.  Right extensions, their four laws
(`check_ext_morphism`) and the base ring extension of a corings morphism
(`base_ring_extension`) live in `category`, whose morphisms they are.

Fixture generators for the standard small examples live here too.
"""

from functools import cache

from .algebras import check_algebra_morphism, check_group_table, ground_algebra
from .bimodules import (
    _kron_apply,
    regrouped_kron,
    regular_bimodule,
    restrict_scalars,
    scalar_bimodule,
    tensor_over_alg,
    tensor_over_k,
)
from .coring import Coring
from .errors import CoringsError
from .linalg import Mat, _Eliminator


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
        raise CoringsError("tensor corings over different fields")
    carrier = tensor_over_k(c.carrier, c2.carrier)
    comul_lift = regrouped_kron(c.comul_lift, c2.comul_lift, c.dim, c2.dim)
    t = Coring(carrier.left_alg, carrier, comul_lift, c.counit_mat.kron(c2.counit_mat))
    _TENSOR_CORINGS[key] = (c, c2, t)
    return t


@cache
def unit_coring(field):
    """The trivial coring over the ground field: the monoidal unit, one per field."""
    return trivial_coring(ground_algebra(field))


def trivial_coring(a):
    """The algebra A as an A-coring: comul the canonical iso, counit the identity."""
    field = a.field
    carrier = regular_bimodule(a)
    comul_lift = Mat.identity(field, a.dim).kron(Mat(field, 1, a.dim, [a.unit]))
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
    # Injective exactly when the rows of the map are independent.
    span = _Eliminator(inclusion.map.field, inclusion.map.ncols)
    for r in inclusion.map.rows:
        span.insert(dict(r))
    if len(span.pivrows) != inclusion.map.nrows:
        raise CoringsError("the algebra map has a nonzero kernel")
    v = check_algebra_morphism(inclusion)
    if not v.ok:
        raise CoringsError(f"the algebra map fails {v.law}: {v.witness}")
    a_alg = inclusion.target
    field = a_alg.field
    # A as an (A,B)-bimodule and as a (B,A)-bimodule, B acting through the inclusion.
    regular = regular_bimodule(a_alg)
    t = tensor_over_alg(
        restrict_scalars(regular, right=inclusion), restrict_scalars(regular, left=inclusion)
    )
    carrier = t.result
    one_a = Mat.identity(field, a_alg.dim)
    unit = Mat(field, 1, a_alg.dim, [a_alg.unit])
    # comul(a (x) a') = (a (x) 1) (x)_A (1 (x) a'), the two factor maps
    # a -> a (x) 1 and a' -> 1 (x) a' applied to the lift of each class, and
    # counit(a (x) a') = aa'.
    left = t.quot.project_rows(one_a.kron(unit))
    right = t.quot.project_rows(unit.kron(one_a))
    products = [v for row in a_alg.table for v in row]
    reps = t.quot.rep_columns
    return Coring(
        a_alg,
        carrier,
        Mat(field, carrier.dim, carrier.dim**2,
            [_kron_apply(left, right, {idx: field.one}) for idx in reps]),
        Mat(field, carrier.dim, a_alg.dim, [products[idx] for idx in reps]),
    )
