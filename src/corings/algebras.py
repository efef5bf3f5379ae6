"""Finite-dimensional unital associative algebras given by structure constants.

An algebra is a basis a_0..a_{n-1}, a table c with a_i * a_j = sum_t c[i][j][t] a_t,
and a unit coordinate vector.  Row-major pair indexing (i, i') -> i*dim' + i' is
fixed globally for every tensor construction in the library.
"""

from __future__ import annotations

from .errors import DimensionMismatch, FieldMismatch
from .linalg import Mat
from .verdict import checker, format_combo

ALGEBRA_LAWS = ("unit", "associativity")


class FinDimAlgebra:
    __slots__ = ("field", "dim", "table", "unit", "labels")

    def __init__(self, field, dim, table, unit, labels=None):
        if len(table) != dim or any(len(r) != dim for r in table):
            raise DimensionMismatch("structure-constant table must be dim x dim")
        if labels is not None and len(labels) != dim:
            raise DimensionMismatch(f"need {dim} labels, got {len(labels)}")
        self.field = field
        self.dim = dim
        self.table = [
            [self._coerce_vec(field, dim, table[i][j]) for j in range(dim)]
            for i in range(dim)
        ]
        self.unit = self._coerce_vec(field, dim, unit)
        self.labels = list(labels) if labels is not None else None

    @classmethod
    def _trusted(cls, field, dim, table, unit, labels):
        """An algebra from canonical field data built inside the library, taken as is."""
        a = cls.__new__(cls)
        a.field, a.dim, a.table, a.unit, a.labels = field, dim, table, unit, labels
        return a

    @staticmethod
    def _coerce_vec(field, dim, vec):
        if len(vec) != dim:
            raise DimensionMismatch(f"expected coordinate vector of length {dim}")
        return [field.coerce(x) for x in vec]

    def label(self, i):
        if self.labels is not None:
            return self.labels[i]
        return f"a_{i}"

    def mul_vec(self, x, y):
        """Product of two coordinate vectors."""
        field = self.field
        out = [field.zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                coeff = field.mul(xi, yj)
                for t, c in enumerate(row[j]):
                    if c:
                        out[t] = field.add(out[t], field.mul(coeff, c))
        return out

    def basis_vec(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def _sparse_mat(self, vecs):
        return Mat(self.field, self.dim, self.dim,
                   [{t: c for t, c in enumerate(v) if c} for v in vecs])

    def left_regular_mat(self, i):
        """Matrix of x -> a_i * x in the row-vector convention."""
        return self._sparse_mat([self.table[i][j] for j in range(self.dim)])

    def right_regular_mat(self, j):
        """Matrix of x -> x * a_j in the row-vector convention."""
        return self._sparse_mat([self.table[i][j] for i in range(self.dim)])

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FinDimAlgebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.table == other.table
            and self.unit == other.unit
        )

    __hash__ = None

    def __repr__(self):
        return f"FinDimAlgebra(dim {self.dim} over {self.field!r})"


@checker
def check_algebra(a):
    """Unit law and associativity on all basis triples; first witness wins."""
    fmt = a.field.fmt
    for i in range(a.dim):
        e = a.basis_vec(i)
        left = a.mul_vec(a.unit, e)
        right = a.mul_vec(e, a.unit)
        if left != e or right != e:
            side = left if left != e else right
            yield "unit", (
                f"index {i}: unit*{a.label(i)} or {a.label(i)}*unit = "
                f"{format_combo(side, a.label, fmt)} != {a.label(i)}"
            )
    yield "unit", None
    for i in range(a.dim):
        for j in range(a.dim):
            ij = a.table[i][j]
            for t in range(a.dim):
                lhs = a.mul_vec(ij, a.basis_vec(t))
                rhs = a.mul_vec(a.basis_vec(i), a.table[j][t])
                if lhs != rhs:
                    yield "associativity", (
                        f"({i},{j},{t}): "
                        f"({a.label(i)}*{a.label(j)})*{a.label(t)} = {format_combo(lhs, a.label, fmt)}, "
                        f"{a.label(i)}*({a.label(j)}*{a.label(t)}) = {format_combo(rhs, a.label, fmt)}"
                    )
    yield "associativity", None


def tensor_algebra(a, a2):
    """Tensor product algebra with row-major pair indexing and unit u (x) u'.

    Products of canonical field elements are canonical: nothing is re-coerced.
    """
    if a.field != a2.field:
        raise FieldMismatch("tensor factors live over different fields")
    field = a.field
    d1, d2 = a.dim, a2.dim
    dim = d1 * d2

    def pair_vec(x, y):
        out = [field.zero] * dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if yj:
                    out[i * d2 + j] = field.mul(xi, yj)
        return out

    table = [[None] * dim for _ in range(dim)]
    for i in range(d1):
        for i2 in range(d2):
            row = i * d2 + i2
            for j in range(d1):
                tij = a.table[i][j]
                for j2 in range(d2):
                    table[row][j * d2 + j2] = pair_vec(tij, a2.table[i2][j2])
    labels = None
    if a.labels is not None and a2.labels is not None:
        labels = [f"{x}(x){y}" for x in a.labels for y in a2.labels]
    return FinDimAlgebra._trusted(field, dim, table, pair_vec(a.unit, a2.unit), labels)


class AlgebraMorphism:
    __slots__ = ("source", "target", "map")

    def __init__(self, source, target, map):
        if source.field != target.field or map.field != source.field:
            raise FieldMismatch("algebra morphism data over mixed fields")
        if map.nrows != source.dim or map.ncols != target.dim:
            raise DimensionMismatch(
                f"map must be {source.dim}x{target.dim}, got {map.nrows}x{map.ncols}"
            )
        self.source = source
        self.target = target
        self.map = map

    def apply_vec(self, x):
        out = self.map.apply({i: v for i, v in enumerate(x) if v})
        dense = [self.source.field.zero] * self.target.dim
        for j, v in out.items():
            dense[j] = v
        return dense

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.map == other.map
        )

    __hash__ = None


@checker
def check_algebra_morphism(f):
    """Unit preservation and multiplicativity on all basis pairs."""
    src, tgt = f.source, f.target
    fmt = src.field.fmt
    unit_image = f.apply_vec(src.unit)
    if unit_image != tgt.unit:
        yield "unit", (
            f"unit maps to {format_combo(unit_image, tgt.label, fmt)} "
            f"!= {format_combo(tgt.unit, tgt.label, fmt)}"
        )
    yield "unit", None
    images = [f.apply_vec(src.basis_vec(i)) for i in range(src.dim)]
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = f.apply_vec(src.table[i][j])
            rhs = tgt.mul_vec(images[i], images[j])
            if lhs != rhs:
                yield "multiplicativity", (
                    f"({src.label(i)},{src.label(j)}): f(x*y) = {format_combo(lhs, tgt.label, fmt)}, "
                    f"f(x)*f(y) = {format_combo(rhs, tgt.label, fmt)}"
                )
    yield "multiplicativity", None


def identity_morphism(a):
    return AlgebraMorphism(a, a, Mat.identity(a.field, a.dim))


def ground_algebra(field):
    """The base field as a 1-dimensional algebra."""
    return FinDimAlgebra._trusted(field, 1, [[[field.one]]], [field.one], ["1"])


def dual_numbers(field):
    """k[x]/(x^2) with basis {1, x}."""
    z, o = field.zero, field.one
    table = [[[o, z], [z, o]], [[z, o], [z, z]]]
    return FinDimAlgebra._trusted(field, 2, table, [o, z], ["1", "x"])


def check_group_table(table):
    """Validate a Cayley table (index 0 the identity); raises ValueError."""
    n = len(table)
    if any(len(row) != n for row in table):
        raise ValueError("group table must be square")
    for i, row in enumerate(table):
        if sorted(row) != list(range(n)) or sorted(t[i] for t in table) != list(range(n)):
            raise ValueError(f"group table row/column {i} is not a permutation")
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            raise ValueError("index 0 must be the identity element")
    for i in range(n):
        for j in range(n):
            for t in range(n):
                if table[table[i][j]][t] != table[i][table[j][t]]:
                    raise ValueError(f"group table is not associative at ({i},{j},{t})")


def group_algebra(field, table, labels=None):
    """Group algebra k[G] from a Cayley table with identity at index 0."""
    check_group_table(table)
    n = len(table)
    z, o = field.zero, field.one
    alg_table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            vec = [z] * n
            vec[table[i][j]] = o
            alg_table[i][j] = vec
    unit = [z] * n
    unit[0] = o
    if labels is None:
        labels = [f"g_{i}" for i in range(n)]
    return FinDimAlgebra(field, n, alg_table, unit, labels)

