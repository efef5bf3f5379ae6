"""Finite-dimensional unital associative algebras given by structure constants.

An algebra is a basis a_0..a_{n-1}, a table c with a_i * a_j = sum_t c[i][j][t] a_t,
and a unit.  Every algebra element, each table entry and the unit included, is
a sparse row {t: nonzero scalar} with keys ascending, the form of a `Mat` row,
so table row i is the left regular matrix of a_i as it stands.  Only the
coercing constructor reads dense coordinate lists.  Row-major pair indexing
(i, i') -> i*dim' + i' is fixed globally for every tensor construction in the
library.
"""

from __future__ import annotations

from .errors import DimensionMismatch, FieldMismatch
from .linalg import Mat, _vadd, coerced_row
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
        """An algebra from canonical sparse data built inside the library, taken as is."""
        a = cls.__new__(cls)
        a.field, a.dim, a.table, a.unit, a.labels = field, dim, table, unit, labels
        return a

    @staticmethod
    def _coerce_vec(field, dim, vec):
        if len(vec) != dim:
            raise DimensionMismatch(f"expected coordinate vector of length {dim}")
        return coerced_row(field, vec)

    def label(self, i):
        if self.labels is not None:
            return self.labels[i]
        return f"a_{i}"

    def mul_vec(self, x, y):
        """Product of two sparse algebra elements."""
        field = self.field
        out = {}
        for i, xi in x.items():
            row = self.table[i]
            for j, yj in y.items():
                _vadd(field, out, row[j], field.mul(xi, yj))
        return out

    def basis_vec(self, i):
        return {i: self.field.one}

    def left_regular_mat(self, i):
        """Matrix of x -> a_i * x in the row-vector convention."""
        return Mat(self.field, self.dim, self.dim, list(self.table[i]))

    def right_regular_mat(self, j):
        """Matrix of x -> x * a_j in the row-vector convention."""
        return Mat(self.field, self.dim, self.dim, [row[j] for row in self.table])

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

    The table row of the basis pair (i, i') is the left regular matrix of
    a_i (x) a'_i', which is L_i (x) L'_i'.  Products of canonical field
    elements are canonical: nothing is re-coerced.
    """
    if a.field != a2.field:
        raise FieldMismatch("tensor factors live over different fields")
    field = a.field
    lefts2 = [a2.left_regular_mat(i2) for i2 in range(a2.dim)]
    table = [a.left_regular_mat(i).kron(l2).rows for i in range(a.dim) for l2 in lefts2]
    unit = {i * a2.dim + i2: field.mul(x, y)
            for i, x in a.unit.items() for i2, y in a2.unit.items()}
    labels = None
    if a.labels is not None and a2.labels is not None:
        labels = [f"{x}(x){y}" for x in a.labels for y in a2.labels]
    return FinDimAlgebra._trusted(field, a.dim * a2.dim, table, unit, labels)


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
    unit_image = f.map.apply(src.unit)
    if unit_image != tgt.unit:
        yield "unit", (
            f"unit maps to {format_combo(unit_image, tgt.label, fmt)} "
            f"!= {format_combo(tgt.unit, tgt.label, fmt)}"
        )
    yield "unit", None
    images = f.map.rows
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = f.map.apply(src.table[i][j])
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
    one = {0: field.one}
    return FinDimAlgebra._trusted(field, 1, [[one]], one, ["1"])


def dual_numbers(field):
    """k[x]/(x^2) with basis {1, x}."""
    one, x = {0: field.one}, {1: field.one}
    return FinDimAlgebra._trusted(field, 2, [[one, x], [x, {}]], one, ["1", "x"])


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
    if labels is not None and len(labels) != n:
        raise DimensionMismatch(f"need {n} labels, got {len(labels)}")
    one = field.one
    alg_table = [[{t: one} for t in row] for row in table]
    labels = [f"g_{i}" for i in range(n)] if labels is None else list(labels)
    return FinDimAlgebra._trusted(field, n, alg_table, {0: one}, labels)

