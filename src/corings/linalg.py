"""Exact linear algebra over the rationals and prime fields.

Conventions used throughout the library:

* Q scalars are `int` when integral, else `Fraction` in lowest terms (positive
  denominator, never 1); F_p scalars are canonical ints in [0, p).  Integral
  rationals stay ints because almost every value the constructions produce is
  integral, and int arithmetic costs a fraction of `Fraction` arithmetic.
  Every Q result of the arithmetic below passes through `_norm`, so a value
  has one representation whichever path computed it.
* A linear map f: k^m -> k^n is a Mat with m rows and n columns acting on row
  vectors, f(v) = v * M.  "Apply f, then g" is therefore the product F @ G.
* `kernel(m)` solves m x = 0, i.e. it returns {v : v * m^T = 0}; the kernel of
  a map stored row-convention is `kernel(m.transpose())`.
* Quotients pick the non-pivot ambient coordinates, in increasing index order,
  as representatives, so every basis choice is deterministic.

Rows are stored sparsely as {column: nonzero scalar}; every constructor and
accessor speaks dense row-major entries.  RREF is canonical for a given row
space, which is what makes reports byte-stable across runs.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import isqrt

from .errors import DimensionMismatch, FieldMismatch, IsoFailure


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    r = isqrt(p)
    while d <= r:
        if p % d == 0:
            return False
        d += 2
    return True


def _norm(x):
    """Canonical form of a Q scalar: the int when integral, else the Fraction."""
    if x.__class__ is Fraction and x.denominator == 1:
        return x.numerator
    return x


class Field:
    """Exact scalar domain: the rationals (p is None) or a prime field F_p.

    Q scalars are `int` when integral, else `Fraction` in lowest terms; F_p
    scalars are ints in [0, p).  `zero` and `one` are the ints 0 and 1 on both.
    """

    __slots__ = ("p", "zero", "one")

    def __init__(self, p=None):
        if p is not None:
            if p.__class__ is bool or not isinstance(p, int):
                raise TypeError(f"modulus must be an int, got {p!r}")
            if p >= 1 << 31:
                raise ValueError(f"modulus {p} exceeds 2^31")
            if not _is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    @classmethod
    def rationals(cls):
        return cls(None)

    @classmethod
    def prime(cls, p):
        return cls(p)

    @property
    def is_prime_field(self):
        return self.p is not None

    def add(self, a, b):
        return _norm(a + b) if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return _norm(a - b) if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return _norm(a * b) if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            return _norm(Fraction(1, a))
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n if self.p is None else n % self.p

    def coerce(self, x):
        """Canonical element for an int, a Fraction or a string such as "3/4".

        Floats (inexact) and bools (a JSON `true` is not a number) raise TypeError.
        """
        if x.__class__ is bool or not isinstance(x, (int, Fraction, str)):
            raise TypeError(
                f'not an exact scalar: {x!r} (give an integer or a string such as "3/4")'
            )
        if self.p is None:
            return x if x.__class__ is int else _norm(Fraction(x))
        if isinstance(x, str):
            if "/" in x:
                num, den = x.split("/", 1)
                return self.mul(int(num) % self.p, self.inv(int(den)))
            return int(x) % self.p
        if isinstance(x, Fraction):
            if x.denominator != 1:
                return self.mul(x.numerator % self.p, self.inv(x.denominator))
            return x.numerator % self.p
        return int(x) % self.p

    def fmt(self, x):
        return str(x)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F_{self.p}"


def _vadd(field, dst, src, coeff):
    """dst += coeff * src for sparse rows, dropping entries that become zero."""
    if not coeff:
        return
    p = field.p
    if p is None:
        for j, v in src.items():
            w = dst.get(j, 0) + coeff * v
            if w:
                dst[j] = _norm(w)
            else:
                dst.pop(j, None)
    else:
        for j, v in src.items():
            w = (dst.get(j, 0) + coeff * v) % p
            if w:
                dst[j] = w
            else:
                dst.pop(j, None)


def _vscale(field, row, coeff):
    p = field.p
    if p is None:
        return {j: _norm(coeff * v) for j, v in row.items()}
    out = {}
    for j, v in row.items():
        w = (coeff * v) % p
        if w:
            out[j] = w
    return out


class Mat:
    """A rows x cols matrix of exact field elements (row-major semantics)."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, nrows, ncols, rows):
        if len(rows) != nrows:
            raise DimensionMismatch(f"expected {nrows} rows, got {len(rows)}")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def from_rows(cls, field, entries, ncols=None):
        nrows = len(entries)
        if ncols is None:
            if nrows == 0:
                raise DimensionMismatch("cannot infer column count from no rows")
            ncols = len(entries[0])
        rows = []
        for r in entries:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            row = {}
            for j, x in enumerate(r):
                v = field.coerce(x)
                if v:
                    row[j] = v
            rows.append(row)
        return cls(field, nrows, ncols, rows)

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls(field, nrows, ncols, [{} for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls(field, n, n, [{i: one} for i in range(n)])

    def row_list(self, i):
        zero = self.field.zero
        row = self.rows[i]
        return [row.get(j, zero) for j in range(self.ncols)]

    def to_lists(self):
        return [self.row_list(i) for i in range(self.nrows)]

    def copy(self):
        return Mat(self.field, self.nrows, self.ncols, [dict(r) for r in self.rows])

    def is_identity(self):
        if self.nrows != self.ncols:
            return False
        one = self.field.one
        return all(r == {i: one} for i, r in enumerate(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    __hash__ = None

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols} over {self.field!r})"

    def _check_compatible(self, other, same_shape):
        if not isinstance(other, Mat):
            raise TypeError("expected a Mat")
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        if same_shape and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other):
        self._check_compatible(other, True)
        rows = []
        for a, b in zip(self.rows, other.rows):
            r = dict(a)
            _vadd(self.field, r, b, self.field.one)
            rows.append(r)
        return Mat(self.field, self.nrows, self.ncols, rows)

    def __sub__(self, other):
        self._check_compatible(other, True)
        minus_one = self.field.neg(self.field.one)
        rows = []
        for a, b in zip(self.rows, other.rows):
            r = dict(a)
            _vadd(self.field, r, b, minus_one)
            rows.append(r)
        return Mat(self.field, self.nrows, self.ncols, rows)

    def scale(self, c):
        return Mat(
            self.field,
            self.nrows,
            self.ncols,
            [_vscale(self.field, r, c) for r in self.rows],
        )

    def __matmul__(self, other):
        self._check_compatible(other, False)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot compose {self.nrows}x{self.ncols} with {other.nrows}x{other.ncols}"
            )
        field = self.field
        rows = []
        for a in self.rows:
            out = {}
            for k, v in a.items():
                _vadd(field, out, other.rows[k], v)
            rows.append(out)
        return Mat(field, self.nrows, other.ncols, rows)

    def apply(self, vec):
        """Row vector image vec @ self, sparse in and out."""
        out = {}
        for k, v in vec.items():
            _vadd(self.field, out, self.rows[k], v)
        return out

    def transpose(self):
        rows = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                rows[j][i] = v
        return Mat(self.field, self.ncols, self.nrows, rows)

    def kron(self, other):
        """Kronecker product with row-major pair indexing (i,j) -> i*dim' + j."""
        self._check_compatible(other, False)
        field = self.field
        p = field.p
        nr, nc = other.nrows, other.ncols
        rows = []
        for a in self.rows:
            for b in other.rows:
                out = {}
                for j1, v1 in a.items():
                    base = j1 * nc
                    if p is None:
                        for j2, v2 in b.items():
                            out[base + j2] = _norm(v1 * v2)
                    else:
                        for j2, v2 in b.items():
                            w = (v1 * v2) % p
                            if w:
                                out[base + j2] = w
                rows.append(out)
        return Mat(field, self.nrows * nr, self.ncols * nc, rows)

    def rref(self):
        """Reduced row echelon form with zero rows dropped, plus pivot columns."""
        elim = _Eliminator(self.field, self.ncols)
        for r in self.rows:
            elim.insert(dict(r))
        return elim.to_mat(), elim.pivots()

    def rank(self):
        return self.rref()[0].nrows

    def inverse(self):
        """Inverse matrix; raises IsoFailure when not square or singular."""
        n = self.nrows
        if n != self.ncols:
            raise IsoFailure(f"not square: {self.nrows}x{self.ncols}")
        elim = _Eliminator(self.field, 2 * n)
        one = self.field.one
        for i, r in enumerate(self.rows):
            aug = dict(r)
            aug[n + i] = one
            elim.insert(aug)
        pivots = elim.pivots()
        if len(pivots) < n or any(c >= n for c in pivots):
            raise IsoFailure("matrix is singular")
        rows = [
            {j - n: v for j, v in elim.pivrows[c].items() if j >= n} for c in pivots
        ]
        return Mat(self.field, n, n, rows)


class _Eliminator:
    """Incremental canonical RREF accumulator over sparse rows.

    `insert` keeps echelon form only: each pivot row is normalized and has no
    entry left of its pivot, but may hold entries in later pivot columns.  The
    first read of `pivots()` or `to_mat()` back-substitutes once, which yields
    the canonical RREF of the row space whatever the insertion order.
    """

    __slots__ = ("field", "ncols", "pivrows", "reduced")

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.pivrows = {}
        self.reduced = True

    def insert(self, row):
        """Reduce against the echelon basis and adopt the row if independent."""
        pivrows = self.pivrows
        heap = [c for c in row if c in pivrows]
        if heap:
            # Pivot rows hold only later columns, so eliminating pivot columns
            # in ascending order never revisits one; a pivot row can bring in
            # entries at later pivot columns, which join the heap.
            heapify(heap)
            p = self.field.p
            while heap:
                c = heappop(heap)
                coeff = row.get(c)
                if not coeff:
                    continue
                for j, v in pivrows[c].items():
                    w = row.get(j, 0) - coeff * v
                    w = _norm(w) if p is None else w % p
                    if w:
                        row[j] = w
                        if j in pivrows:
                            heappush(heap, j)
                    else:
                        row.pop(j, None)
        if not row:
            return
        lead = min(row)
        inv = self.field.inv(row[lead])
        if inv != self.field.one:
            row = _vscale(self.field, row, inv)
        pivrows[lead] = row
        self.reduced = False

    def _back_substitute(self):
        # In descending pivot order every later pivot row is already reduced,
        # so subtracting it brings in no pivot column: one pass per row.
        field, pivrows = self.field, self.pivrows
        for c in sorted(pivrows, reverse=True):
            row = pivrows[c]
            for j in [j for j in row if j != c and j in pivrows]:
                _vadd(field, row, pivrows[j], field.neg(row[j]))
        self.reduced = True

    def pivots(self):
        if not self.reduced:
            self._back_substitute()
        return sorted(self.pivrows)

    def to_mat(self):
        piv = self.pivots()
        return Mat(self.field, len(piv), self.ncols, [dict(self.pivrows[c]) for c in piv])


def rref(m):
    """Reduced row echelon form and pivot columns of `m`; row space preserved."""
    return m.rref()


class Subspace:
    """A subspace of k^ambient_dim held as a canonical RREF basis."""

    __slots__ = ("ambient_dim", "basis", "pivots", "_pivot_index")

    def __init__(self, ambient_dim, basis, pivots):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots
        self._pivot_index = {c: i for i, c in enumerate(pivots)}

    @classmethod
    def from_generators(cls, field, ambient_dim, gens):
        elim = _Eliminator(field, ambient_dim)
        for g in gens:
            if isinstance(g, dict):
                row = {j: v for j, v in g.items() if v}
            else:
                row = {}
                for j, x in enumerate(g):
                    v = field.coerce(x)
                    if v:
                        row[j] = v
            elim.insert(row)
        return cls(ambient_dim, elim.to_mat(), elim.pivots())

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(ambient_dim, Mat(field, 0, ambient_dim, []), [])

    @property
    def field(self):
        return self.basis.field

    @property
    def dim(self):
        return self.basis.nrows

    def reduce(self, vec):
        """Canonical coset representative: eliminate every pivot coordinate."""
        field = self.basis.field
        out = dict(vec)
        for c in [c for c in out if c in self._pivot_index]:
            coeff = out.get(c)
            if coeff:
                _vadd(field, out, self.basis.rows[self._pivot_index[c]], field.neg(coeff))
        return out

    def contains(self, vec):
        return not self.reduce(vec)

    def coords_of(self, vec):
        """Coefficients of `vec` in the RREF basis, or None if not a member."""
        coords = {}
        for i, c in enumerate(self.pivots):
            v = vec.get(c)
            if v:
                coords[i] = v
        residue = dict(vec)
        field = self.basis.field
        for i, v in coords.items():
            _vadd(field, residue, self.basis.rows[i], field.neg(v))
        if residue:
            return None
        return coords

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    __hash__ = None

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


def kernel(m):
    """Null space {v : v * m^T = 0} of `m`, i.e. the solutions of m x = 0.

    Rank-nullity holds with the domain read off the columns:
    dim kernel + rank(m) = m.ncols.
    """
    red, pivots = m.rref()
    field = m.field
    pivot_set = set(pivots)
    gens = []
    one = field.one
    for j in range(m.ncols):
        if j in pivot_set:
            continue
        v = {j: one}
        for idx, p in enumerate(pivots):
            e = red.rows[idx].get(j)
            if e:
                v[p] = field.neg(e)
        gens.append(v)
    return Subspace.from_generators(field, m.ncols, gens)


def map_kernel(f):
    """Kernel of the row-convention map v -> v @ f, inside k^f.nrows."""
    return kernel(f.transpose())


class QuotientSpace:
    """k^ambient_dim modulo a relation subspace, with explicit project and lift.

    Representatives are the non-pivot ambient coordinates in increasing order;
    project @ lift is the identity on the quotient and kernel(project) equals
    the relations.
    """

    __slots__ = ("ambient_dim", "relations", "rep_columns", "project", "lift")

    def __init__(self, ambient_dim, relations, rep_columns, project, lift):
        self.ambient_dim = ambient_dim
        self.relations = relations
        self.rep_columns = rep_columns
        self.project = project
        self.lift = lift

    @property
    def dim(self):
        return len(self.rep_columns)

    @property
    def field(self):
        return self.project.field

    def project_vec(self, vec):
        return self.project.apply(vec)

    def __repr__(self):
        return f"QuotientSpace(k^{self.ambient_dim} / dim-{self.relations.dim})"


def quotient(ambient_dim, relations):
    """Quotient of k^ambient_dim by `relations`, with canonical representatives."""
    if relations.ambient_dim != ambient_dim:
        raise DimensionMismatch(
            f"relations live in k^{relations.ambient_dim}, not k^{ambient_dim}"
        )
    field = relations.field
    pivot_set = set(relations.pivots)
    rep_columns = [j for j in range(ambient_dim) if j not in pivot_set]
    rep_index = {c: t for t, c in enumerate(rep_columns)}
    one = field.one
    proj_rows = []
    for j in range(ambient_dim):
        red = relations.reduce({j: one})
        proj_rows.append({rep_index[c]: v for c, v in red.items()})
    project = Mat(field, ambient_dim, len(rep_columns), proj_rows)
    lift = Mat(field, len(rep_columns), ambient_dim, [{c: one} for c in rep_columns])
    return QuotientSpace(ambient_dim, relations, rep_columns, project, lift)
