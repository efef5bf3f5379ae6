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
* Elimination here is `_Eliminator`, an incremental canonical RREF, and
  `quotient_by_rows`, which takes relation rows, each a sequence of
  (column, value) pairs, collapses those with one or two terms as orbits with
  a weighted union-find and hands only the rows with more terms to an
  `_Eliminator`.  A quotient picks the non-pivot ambient coordinates, in
  increasing index order, as representatives, so every basis choice is
  deterministic.

Every vector is one sparse row {index: nonzero scalar}: a matrix row and an
algebra element (a structure constant or the unit) alike.  Dense lists exist
only at the file edge: `Mat.from_rows` and the coercing `FinDimAlgebra`
constructor read them through `coerced_row`, and dumps write them
(`Mat.to_lists`).  A quotient holds
no matrix unless it has to (`QuotientSpace`): without relations it is its
dim alone, and with relations of at most two terms it is one class index and
one scale per ambient coordinate, in two flat lists.  RREF is canonical for
a given row space, which is what makes reports byte-stable across runs.  The
kernels, inverses and eliminating quotient that only the tests use are in
`tests/reference.py`.
"""

from __future__ import annotations

import re
from heapq import heapify, heappop, heappush
from itertools import chain
from math import isqrt

from .errors import DimensionMismatch, FieldMismatch


_SCALAR = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class _Unloaded:
    """`Fraction` until `_load_fractions` runs: nothing is an instance."""


Fraction = _Unloaded


def _load_fractions():
    """Bind `Fraction`.  Only a non-integral Q value is a Fraction, so
    `fractions`, with the `decimal` it imports (about 0.4 MB resident and
    2-3 ms a process), is loaded by the first one: `inv` of an integer other
    than 1 and -1 over Q, or `coerce` of a string "a/b" with b not 1 or of a
    Fraction made elsewhere.  A program over F_p, or over Q on integral data
    only, never loads it."""
    global Fraction
    from fractions import Fraction


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


def _int_str(n):
    """str(n), or its sign and digit count past the interpreter's limit on digits."""
    try:
        return str(n)
    except ValueError:
        pass
    a = abs(n)
    # a has b bits, so its digit count is floor(b log10 2) + 1 or one less.
    digits = int(a.bit_length() * 0.30102999566398120) + 1
    if 10 ** (digits - 1) > a:
        digits -= 1
    return f"{'-' if n < 0 else ''}<integer of {digits} digits>"


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
            if a == 1 or a == -1:
                return a
            if Fraction is _Unloaded:
                _load_fractions()
            return _norm(Fraction(1, a))
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def coerce(self, x):
        """Canonical element for an int, a Fraction or a scalar string.

        A string is an integer ("-3") or an integer over a positive integer
        ("3/4"), in ASCII digits with no sign on the denominator, spaces or
        exponent: one grammar on every field.  Floats (inexact) and bools (a
        JSON `true` is not a number) raise TypeError, any other string and a
        zero denominator raise ValueError.
        """
        if x.__class__ is bool or not isinstance(x, (int, Fraction, str)):
            if Fraction is _Unloaded:  # x may be a Fraction made elsewhere
                _load_fractions()
                return self.coerce(x)
            raise TypeError(
                f'not an exact scalar: {x!r} (give an integer or a string such as "3/4")'
            )
        if isinstance(x, str):
            if _SCALAR.fullmatch(x) is None:
                raise ValueError(
                    f'not an exact scalar: {x!r} (give an integer or a string such as "3/4")'
                )
            num, _, den = x.partition("/")
            try:
                num, den = int(num), int(den or 1)
            except ValueError:  # past the interpreter's limit on digits
                raise ValueError(f"scalar string of {len(x)} characters is too long")
            if den == 0 or (self.p is not None and den % self.p == 0):
                where = "" if self.p is None else f" in {self!r}"
                raise ValueError(f"zero denominator{where}: {x!r}")
            if den != 1 and self.p is not None:
                return self.mul(num % self.p, self.inv(den))
            if den != 1 and Fraction is _Unloaded:
                _load_fractions()
            x = num if den == 1 else Fraction(num, den)
        if self.p is None:
            return _norm(x)
        if x.__class__ is int:
            return x % self.p
        return self.mul(x.numerator % self.p, self.inv(x.denominator))

    def fmt(self, x):
        """str(x) for a canonical scalar x in a report, but never raises.

        An integer, or a numerator or denominator, past the interpreter's
        limit on digits (`sys.get_int_max_str_digits`) is written by its
        digit count, as in `<integer of 6001 digits>`.  That text does not
        load back, so dumps write scalars with `str` instead.
        """
        if x.__class__ is Fraction:
            return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"
        return _int_str(x)

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


def _vadd_at(field, dst, src, coeff, base, stride):
    """dst[base + stride * j] += coeff * src[j] for sparse rows, dropping zeros.

    The columns of a Kronecker factor: with stride 1 and base u * n they are
    those of row u of A (x) B, B of width n; with stride n and base j those
    of a row of A (x) id_n.
    """
    if not coeff:
        return
    p = field.p
    if p is None:
        for j, v in src.items():
            c = base + stride * j
            w = dst.get(c, 0) + coeff * v
            if w:
                dst[c] = _norm(w)
            else:
                dst.pop(c, None)
    else:
        for j, v in src.items():
            c = base + stride * j
            w = (dst.get(c, 0) + coeff * v) % p
            if w:
                dst[c] = w
            else:
                dst.pop(c, None)


def coerced_row(field, entries):
    """The sparse row of the dense `entries`, each coerced, zeros dropped."""
    row = {}
    for j, x in enumerate(entries):
        v = field.coerce(x)
        if v:
            row[j] = v
    return row


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
            rows.append(coerced_row(field, r))
        return cls(field, nrows, ncols, rows)

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

    def _check_compatible(self, other):
        if not isinstance(other, Mat):
            raise TypeError("expected a Mat")
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def __matmul__(self, other):
        self._check_compatible(other)
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

    def kron(self, other):
        """Kronecker product with row-major pair indexing (i,j) -> i*dim' + j."""
        self._check_compatible(other)
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

class _Eliminator:
    """Incremental canonical RREF accumulator over sparse rows.

    `insert` keeps echelon form only: each pivot row is normalized and has no
    entry left of its pivot, but may hold entries in later pivot columns.  The
    first read of `pivots()` back-substitutes once, which yields
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


# Kept, with `QuotientSpace.relations`, only because perfbench/tracer.py reads `relations.dim`.
class Subspace:
    """A subspace of k^ambient_dim held as its canonical RREF basis, as data."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim, basis, pivots):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @property
    def field(self):
        return self.basis.field

    @property
    def dim(self):
        return self.basis.nrows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    __hash__ = None

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


class QuotientSpace:
    """k^ambient_dim modulo a relation subspace, in one of three forms.

    Representatives are the non-pivot ambient coordinates in increasing
    order, `rep_columns`, and they are the lift: class t lifts to the ambient
    basis vector of coordinate rep_columns[t].  `project_vec` sends an
    ambient vector to its class, and its kernel is the relations.  The form
    is the cheapest that `quotient_by_rows` can give:

    * no relations: only the dim is held, `rep_columns` is a range and
      `project_vec` is the identity.  It may return its argument itself.
    * relations of one or two terms (monomial): coordinate x projects to
      scales[x] times class classes[x], or to zero where classes[x] is -1.
    * any wider relation: `project` is a matrix with a row per coordinate.

    `widened` tensors a quotient with identities on both sides and keeps its
    form.  Nothing is changed in place after construction.  `relations` is
    derived from the projection on first read, unless it was given.
    """

    __slots__ = ("field", "ambient_dim", "rep_columns", "classes", "scales", "project",
                 "_relations")

    def __init__(self, field, ambient_dim, rep_columns, classes=None, scales=None,
                 project=None, relations=None):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rep_columns = rep_columns
        self.classes = classes
        self.scales = scales
        self.project = project
        self._relations = relations

    @property
    def relations(self):
        """The relation subspace, whose RREF basis is `relation_rows`."""
        if self._relations is None:
            rows = list(self.relation_rows())
            pivots = [next(iter(row)) for row in rows]
            basis = Mat(self.field, len(rows), self.ambient_dim, rows)
            self._relations = Subspace(self.ambient_dim, basis, pivots)
        return self._relations

    def relation_rows(self):
        """The row e_c - lift(project(e_c)) of each pivot coordinate c, a
        coordinate that is no representative, in increasing order of c.

        These rows are the RREF basis of the relations, and each starts at
        its pivot.  A relation-free quotient yields none.
        """
        field = self.field
        one, neg = field.one, field.neg
        reps = self.rep_columns
        if self.classes is not None:
            scales = self.scales
            for c, t in enumerate(self.classes):
                if t < 0:
                    yield {c: one}
                elif reps[t] != c:
                    yield {c: one, reps[t]: neg(scales[c])}
        elif self.project is not None:
            is_rep = set(reps)
            for c, row in enumerate(self.project.rows):
                if c not in is_rep:
                    out = {c: one}
                    for t, v in row.items():
                        out[reps[t]] = neg(v)
                    yield out

    @property
    def dim(self):
        return len(self.rep_columns)

    def project_vec(self, vec, width=1):
        """The class of the sparse ambient vector `vec`.

        With `width` n, `vec` lies in k^ambient_dim (x) k^n instead, and the
        result is its image under project (x) id_n, read straight from the
        class and scale lists when the quotient is monomial.
        """
        classes = self.classes
        if classes is None:
            if self.project is None:
                return vec
            out = {}
            rows = self.project.rows
            for x, v in vec.items():
                i, j = divmod(x, width)
                _vadd_at(self.field, out, rows[i], v, j, width)
            return out
        p = self.field.p
        scales = self.scales
        out = {}
        for x, v in vec.items():
            i, j = divmod(x, width)
            t = classes[i]
            if t < 0:
                continue
            c = t * width + j
            w = out.get(c, 0) + v * scales[i]
            w = _norm(w) if p is None else w % p
            if w:
                out[c] = w
            else:
                out.pop(c, None)
        return out

    def widened(self, before, after):
        """k^before (x) self (x) k^after, in the same form as self.

        The quotient of k^before (x) k^ambient_dim (x) k^after, row-major, by
        k^before (x) R (x) k^after, R the relations of self.  The canonical
        RREF of that span is each RREF row of R tensored with basis vectors
        on both sides, so the representatives, classes, projection and live
        scales are those `quotient_by_rows` gives on any spanning rows:
        coordinate (u, x, y) projects as x does, into class (u, classes[x],
        y).  A dead coordinate keeps the scale of x, which nothing reads.  A
        zero-dimensional ambient space has no relation row, so it is free.
        """
        field, amb = self.field, self.ambient_dim
        ambient = before * amb * after
        if not ambient or self.classes is None and self.project is None:
            return QuotientSpace(field, ambient, range(ambient))
        reps = [(u * amb + r) * after + y
                for u in range(before) for r in self.rep_columns for y in range(after)]
        if self.project is not None:
            project = Mat.identity(field, before).kron(self.project).kron(
                Mat.identity(field, after))
            return QuotientSpace(field, ambient, reps, project=project)
        dim = self.dim
        classes = [-1 if t < 0 else (u * dim + t) * after + y
                   for u in range(before) for t in self.classes for y in range(after)]
        scales = [s for _ in range(before) for s in self.scales for _ in range(after)]
        return QuotientSpace(field, ambient, reps, classes, scales)

    def project_rows(self, m):
        """m @ project: each row of `m`, an ambient vector, sent to its class.

        A relation-free quotient returns rows of `m` themselves.
        """
        return Mat(self.field, m.nrows, self.dim, [self.project_vec(r) for r in m.rows])

    def __repr__(self):
        return f"QuotientSpace(k^{self.ambient_dim} / dim-{self.ambient_dim - self.dim})"


def quotient_by_rows(field, ambient_dim, rows):
    """The quotient of k^ambient_dim by the span of `rows`.

    `rows` is an iterable, read once, of relation rows.  Each row is a
    sequence of (column, value) pairs with distinct columns and nonzero
    values, such as `tuple(d.items())` for a sparse row `d`; the caller need
    not build a dict per row.  The result has the `rep_columns`, projection
    and `relations` that eliminating every row into an RREF gives, without
    eliminating every row, in the cheapest form of `QuotientSpace`: no rows
    give the relation-free form, rows of at most two terms the monomial one.
    Rows of `project` with equal entries may be one shared dict, so the
    result must not be changed in place.

    A one- or two-term row is an orbit relation: a weighted union-find with
    path compression keeps e_x = ratio[x] * e_root(x) modulo those rows, the
    root of a component being its largest coordinate.  A component is dead
    (all of it lies in the relations) once it meets a one-term row or a cycle
    whose ratios disagree.  Read as an RREF, every non-root coordinate of a
    live component is a pivot with row e_c - ratio[c] * e_root, every
    coordinate of a dead component is a pivot, and the live roots span the
    quotient by those rows.  Rows of three or more terms are rewritten into
    live root coordinates and eliminated by `_Eliminator` afterwards; a live
    root is a pivot of the whole span exactly when it is a pivot of that
    residual RREF, since a relation led by a root has no other coordinate of
    that root's component.  No `_Eliminator` is built when every row has at
    most two terms.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return QuotientSpace(field, ambient_dim, range(ambient_dim))
    one = field.one
    minus_one = field.neg(one)
    mul, neg = field.mul, field.neg
    parent = list(range(ambient_dim))
    ratio = [one] * ambient_dim
    dead = set()
    wide = []

    def find(x):
        """(root, w) with e_x = w * e_root modulo the orbit rows read so far."""
        r = parent[x]
        if r == x:
            return x, one
        if parent[r] == r:
            return r, ratio[x]
        path = [x]
        while parent[r] != r:
            path.append(r)
            r = parent[r]
        w = one
        for y in reversed(path):
            if w == one:
                w = ratio[y]
            else:
                w = ratio[y] = mul(ratio[y], w)
            parent[y] = r
        return r, w

    for row in chain((first,), rows):
        if len(row) > 2:
            wide.append(row)
            continue
        if len(row) == 1:
            dead.add(find(row[0][0])[0])
            continue
        (x, a), (y, b) = row
        rx, wx = find(x)
        ry, wy = find(y)
        # a * e_rx + b * e_ry lies in the relations, after weighting.
        if wx != one:
            a = mul(a, wx)
        if wy != one:
            b = mul(b, wy)
        if rx == ry:
            if field.add(a, b):
                dead.add(rx)
            continue
        if rx > ry:
            rx, ry, a, b = ry, rx, b, a
        # e_rx = -(b / a) * e_ry: the smaller root joins the larger.
        parent[rx] = ry
        if a == one:
            ratio[rx] = neg(b)
        elif a == minus_one:
            ratio[rx] = b
        else:
            ratio[rx] = neg(mul(b, field.inv(a)))
        if rx in dead:
            dead.add(ry)

    # A parent always has a larger index than its child, so in descending
    # order each parent already points at its root: one pass flattens all.
    for x in range(ambient_dim - 1, -1, -1):
        r = parent[x]
        if parent[r] != r:
            if ratio[r] != one:
                ratio[x] = mul(ratio[x], ratio[r])
            parent[x] = parent[r]
    live_roots = [x for x in range(ambient_dim) if parent[x] == x and x not in dead]

    if not wide:
        # Roots keep ratio one, so `ratio` is the scale list as it stands.
        root_class = {r: t for t, r in enumerate(live_roots)}
        classes = [root_class.get(r, -1) for r in parent]
        return QuotientSpace(field, ambient_dim, live_roots, classes, ratio)

    elim = _Eliminator(field, ambient_dim)
    for row in wide:
        out = {}
        for x, v in row:
            r = parent[x]
            if r not in dead:
                w = field.add(out.pop(r, 0), mul(v, ratio[x]))
                if w:
                    out[r] = w
        elim.insert(out)
    residual = {c: elim.pivrows[c] for c in elim.pivots()}

    rep_columns = [r for r in live_roots if r not in residual]
    rep_index = {c: t for t, c in enumerate(rep_columns)}
    root_class = {
        r: {rep_index[j]: neg(v) for j, v in residual[r].items() if j != r}
        if r in residual else {rep_index[r]: one}
        for r in live_roots
    }
    # Rows with equal entries share one dict: every dead coordinate's, and
    # those of an orbit with ratio one.
    proj_rows = []
    zero = {}
    for x in range(ambient_dim):
        r = parent[x]
        if r in dead:
            proj_rows.append(zero)
        elif ratio[x] == one:
            proj_rows.append(root_class[r])
        else:
            proj_rows.append(_vscale(field, root_class[r], ratio[x]))
    project = Mat(field, ambient_dim, len(rep_columns), proj_rows)
    return QuotientSpace(field, ambient_dim, rep_columns, project=project)
