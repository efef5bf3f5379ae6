"""Bimodules, presented tensor products, and the canonical regrouping maps.

A Bimodule stores one action matrix per basis element of each acting algebra,
in the row-vector convention of `linalg`: the image of a_i . m is m_coords @
left_act[i], so the left module law reads L[a_i a_j] = L_j @ L_i (apply j,
then i) while the right law reads R[b_i b_j] = R_i @ R_j.

M (x)_B N is realized as an explicit quotient of M (x)_k N by the span of
(m_i . b_t) (x) n_j  -  m_i (x) (b_t . n_j) over all basis pairs (i, j) and
every b_t in a set of algebra generators of B (`algebras.generators`).  For
bimodules these span all relations: the relation of a product follows from
those of its factors, and the unit's relations vanish.  Each relation row goes
to `linalg.quotient_by_rows` as a sequence of (column, value) pairs with
distinct columns, its row contract.  A generator that acts by monomial
matrices (at most one nonzero entry per row) gives rows of one or two terms,
built straight from the two action rows with no dict per row, which
`quotient_by_rows` collapses into orbits of pure tensors instead of
eliminating them.  The factors must
therefore satisfy the bimodule laws; inputs are validated where they enter
the program (workspace load, the extension and morphism checkers), not on
every build.  Maps into such a tensor are supplied as lifts into the ambient
(x)_k space, which keeps user input independent of pivot choices.  The outer
actions of a presentation (`PresentedTensor.result`) are induced on first
read, since most presentations are only projected into.

A tensor with a factor over k is presented from a smaller pair.  A bimodule
may record a factor pair (`Bimodule.factors`): (X, Y) with X an (A, k)- and Y
a (k, C)-bimodule, the bimodule being X (x)_k Y in row-major pair indexing.
Two kinds of bimodule carry one: the result of a presentation whose middle
algebra is one-dimensional, M (x)_k N with factors (M, N) (the Sweedler
carrier A (x)_k A over k), and every result of the route below, with the
factors it was built from.  An extension whose right action is its coring's
own has that carrier, record included, as its bimodule
(`category.ExtMorphism.bimodule`).  If N = X (x)_k Y, so that B acts on N
through X only, then M (x)_B N = (M (x)_B X) (x)_k Y; if M = U (x)_k V, B
acting through V only, then M (x)_B N = U (x)_k (V (x)_B N).  `_present_tensor`
presents the smaller pair through the memoized `tensor_over_alg` and widens
its quotient by an identity (`QuotientSpace.widened`), and the result is
again factored, so the square and the triple of the Sweedler coring and the
base extension B (x)_A C (x)_A B of its counit, with that coring's own checks,
stream relation rows only for A (x)_A A and its like (ambient dim 16 over
k[K4], against 1,024 for the Sweedler triple over the whole ambient space).
The answer is the one the rows of the whole ambient space give, byte for
byte: those relations are R (x) Y (or U (x) R) for the relations R of the
smaller pair, and the canonical RREF of that span is the RREF of R tensored
with basis vectors, so the representatives, classes, scales and projection
are R's widened.  The outer actions are the Kronecker products a (x) id_Y
and id_X (x) c (`_factored`).  Every record is one-sided, so B acts through
one factor of it; the carrier C (x)_k C' of a tensor coring, A (x) A' acting
on both factors, could record the same pair once the route tests which
factors B acts through.

tensor_over_alg memoizes its presentations for the life of the process, keyed
on the two factors themselves.  The hash and equality of a bimodule leave out
its labels and its factor record, so equal factors share one PresentedTensor,
whose factors carry the labels of the call that built it, and a call on equal
bimodules that record no factors reuses a presentation built by the route,
and the reverse.  A PresentedTensor and every matrix and bimodule it holds
are immutable: no caller may change them.
"""

from functools import cached_property

from .algebras import generators, ground_algebra, tensor_algebra
from .errors import CoringsError, DescentFailure
from .linalg import Mat, _vadd, quotient_by_rows
from .verdict import checker

BIMODULE_LAWS = ("left-module", "right-module", "commuting-actions")


class Bimodule:
    """An (A, C)-bimodule: one dim x dim action matrix per basis element of A and of C.

    `factors` is None or a pair (X, Y) with X an (A, k)- and Y a
    (k, C)-bimodule: then this bimodule is X (x)_k Y, row-major, A acting on
    X and C on Y (`_factored`).  It records how the bimodule was built, so
    that `_present_tensor` can present a tensor over B from its factors; it
    is no part of equality or of the hash.
    """

    __slots__ = ("left_alg", "right_alg", "dim", "left_act", "right_act", "labels", "factors",
                 "_hash")

    def __init__(self, left_alg, right_alg, dim, left_act, right_act, labels=None,
                 factors=None):
        if left_alg.field != right_alg.field:
            raise CoringsError("acting algebras live over different fields")
        if len(left_act) != left_alg.dim or len(right_act) != right_alg.dim:
            raise CoringsError("need one action matrix per algebra basis element")
        for m in list(left_act) + list(right_act):
            if m.nrows != dim or m.ncols != dim or m.field != left_alg.field:
                raise CoringsError("action matrices must be dim x dim over the field")
        if labels is not None and len(labels) != dim:
            raise CoringsError(f"need {dim} labels, got {len(labels)}")
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.dim = dim
        self.left_act = list(left_act)
        self.right_act = list(right_act)
        self.labels = list(labels) if labels is not None else None
        self.factors = factors
        self._hash = None

    @property
    def field(self):
        return self.left_alg.field

    def label(self, i):
        if self.labels is not None:
            return self.labels[i]
        return f"e_{i}"

    @checker(BIMODULE_LAWS)
    def check(self):
        """Module laws on both sides and commutation of the two actions.

        Each law is checked on the generators of the acting algebras
        (`algebras.generators`): the first index of a module law, after its
        unit law, and both indices of `commuting-actions`.
        """
        field = self.field
        ident = Mat.identity(field, self.dim)

        def law_mats(alg, acts, compose_ij):
            if _combination(field, self.dim, acts, alg.unit.items()) != ident:
                return "unit acts as a non-identity matrix"
            for i in generators(alg):
                for j in range(alg.dim):
                    combo = _combination(field, self.dim, acts, alg.table[i][j].items())
                    if combo != compose_ij(acts, i, j):
                        return (
                            f"action of {alg.label(i)}*{alg.label(j)} differs from the "
                            f"composite of the actions of {alg.label(i)} and {alg.label(j)}"
                        )
            return None

        yield "left-module", law_mats(
            self.left_alg, self.left_act, lambda acts, i, j: acts[j] @ acts[i])
        yield "right-module", law_mats(
            self.right_alg, self.right_act, lambda acts, i, j: acts[i] @ acts[j])
        for i in generators(self.left_alg):
            L = self.left_act[i]
            for j in generators(self.right_alg):
                R = self.right_act[j]
                if L @ R != R @ L:
                    yield "commuting-actions", (
                        f"left action of {self.left_alg.label(i)} does not commute with "
                        f"right action of {self.right_alg.label(j)}"
                    )
        yield "commuting-actions", None

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Bimodule)
            and self.left_alg == other.left_alg
            and self.right_alg == other.right_alg
            and self.dim == other.dim
            and self.left_act == other.left_act
            and self.right_act == other.right_act
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((
                self.left_alg, self.right_alg, self.dim,
                tuple(frozenset(r.items()) for mat in self.left_act for r in mat.rows),
                tuple(frozenset(r.items()) for mat in self.right_act for r in mat.rows),
            ))
        return self._hash

    def __repr__(self):
        return f"Bimodule(dim {self.dim} over {self.field!r})"


def _combination(field, dim, acts, coeffs):
    """sum_t c * acts[t] over the pairs (t, c) of `coeffs`, summed row by row."""
    rows = [{} for _ in range(dim)]
    for t, c in coeffs:
        for row, src in zip(rows, acts[t].rows):
            _vadd(field, row, src, c)
    return Mat(field, dim, dim, rows)


def regular_bimodule(a):
    """The algebra as a bimodule over itself by left/right multiplication."""
    left = [a.left_regular_mat(i) for i in range(a.dim)]
    right = [a.right_regular_mat(j) for j in range(a.dim)]
    return Bimodule(a, a, a.dim, left, right, a.labels)


def restrict_scalars(m, left=None, right=None):
    """M with an action pulled back along an algebra map f: A' -> A.

    `left` and `right` are algebra maps into the acting algebra of that side,
    or None to keep the side as it is.  The new action of a basis element a'
    is sum_t f(a')_t times the old action of basis element t.
    """

    def pulled_back(f, acts):
        return [_combination(m.field, m.dim, acts, img.items()) for img in f.map.rows]

    left_alg, left_act = (
        (m.left_alg, m.left_act) if left is None
        else (left.source, pulled_back(left, m.left_act))
    )
    right_alg, right_act = (
        (m.right_alg, m.right_act) if right is None
        else (right.source, pulled_back(right, m.right_act))
    )
    return Bimodule(left_alg, right_alg, m.dim, left_act, right_act, m.labels)


def scalar_bimodule(field, dim, labels=None):
    """A plain vector space seen as a (k, k)-bimodule."""
    k = ground_algebra(field)
    ident = Mat.identity(field, dim)
    return Bimodule(k, k, dim, [ident], [ident], labels)


def tensor_over_k(m, n):
    """M (x)_k N with the pairwise bi-action (a(x)a')(m(x)n)(b(x)b') = amb (x) a'nb'.

    Factors with one algebra on both sides (coring carriers) give one tensor algebra.
    """
    if m.field != n.field:
        raise CoringsError("tensor factors over different fields")
    left = [lm.kron(ln) for lm in m.left_act for ln in n.left_act]
    right = [rm.kron(rn) for rm in m.right_act for rn in n.right_act]
    labels = None
    if m.labels is not None and n.labels is not None:
        labels = [f"{x}(x){y}" for x in m.labels for y in n.labels]
    left_alg = tensor_algebra(m.left_alg, n.left_alg)
    one_alg = m.right_alg == m.left_alg and n.right_alg == n.left_alg
    right_alg = left_alg if one_alg else tensor_algebra(m.right_alg, n.right_alg)
    return Bimodule(left_alg, right_alg, m.dim * n.dim, left, right, labels)


class PresentedTensor:
    """M (x)_B N as a quotient `quot` of M (x)_k N (`linalg.QuotientSpace`).

    `factors` is None or the pair (X, Y) with M (x)_B N = X (x)_k Y, an
    (A, k)- and a (k, C)-bimodule, which `result` records.
    """

    def __init__(self, left_factor, right_factor, over, quot, factors=None):
        self.left_factor = left_factor
        self.right_factor = right_factor
        self.over = over
        self.quot = quot
        self.factors = factors

    @cached_property
    def result(self):
        """M (x)_B N as an (A, C)-bimodule, its outer actions induced on first read.

        With `factors` (X, Y) they are the Kronecker products a (x) id_Y and
        id_X (x) c (`_factored`), and the result records its factors.
        Otherwise commuting actions on the factors make a (x) id and
        id (x) c preserve the relations, so the lift rows are pushed with no
        descent check.
        """
        if self.factors is not None:
            return _factored(*self.factors)
        m, n = self.left_factor, self.right_factor
        rows = _lift_rows(self)
        left = [push(self, lambda v, a=a: _kron_apply(a, n.dim, v), rows) for a in m.left_act]
        right = [push(self, lambda v, c=c: _kron_apply(m.dim, c, v), rows) for c in n.right_act]
        return Bimodule(m.left_alg, n.right_alg, self.dim, left, right)

    @property
    def dim(self):
        return self.quot.dim

    @property
    def field(self):
        return self.left_factor.field

    def __repr__(self):
        return (
            f"PresentedTensor({self.left_factor.dim}(x){self.right_factor.dim}"
            f" over middle dim {self.over.dim}: quotient dim {self.dim})"
        )


_TENSORS = {}


def tensor_over_alg(m, n):
    """M (x)_B N for an (A,B)-bimodule M and a (B,C)-bimodule N.

    Both factors must satisfy the bimodule laws (`Bimodule.check`); inputs
    are validated where they enter the program, not here.  Memoized for the
    life of the process on the pair (m, n) itself: a call whose factors equal
    an earlier call's, labels and factor records aside, returns the same
    PresentedTensor.  A call that raises stores nothing.
    """
    t = _TENSORS.get((m, n))
    if t is None:
        t = _TENSORS[m, n] = _present_tensor(m, n)
    return t


def _present_tensor(m, n):
    """Build the presentation of M (x)_B N, uncached.

    The factors must be bimodules: the module laws make the relations of the
    algebra generators of B span all relations, which is not re-checked here.
    When N = X (x)_k Y with B acting through X, or M = U (x)_k V with B
    acting through V, the tensor is presented from the memoized presentation
    of M (x)_B X or V (x)_B N (see the module docstring).  Otherwise the
    relation rows are streamed into `quotient_by_rows`.
    """
    if m.field != n.field:
        raise CoringsError("tensor factors over different fields")
    if m.right_alg != n.left_alg:
        raise CoringsError("middle algebras differ")
    over = m.right_alg
    if over.dim > 1 and n.factors is not None:
        x, y = n.factors
        inner = tensor_over_alg(m, x)
        quot, factors = inner.quot.widened(1, y.dim), (inner.result, y)
    elif over.dim > 1 and m.factors is not None:
        u, v = m.factors
        inner = tensor_over_alg(v, n)
        quot, factors = inner.quot.widened(u.dim, 1), (u, inner.result)
    else:
        quot = quotient_by_rows(m.field, m.dim * n.dim, _relation_rows(m, n))
        # Over a one-dimensional B there is no relation: M (x)_B N is M (x)_k N.
        factors = (m, n) if over.dim == 1 else None
    return PresentedTensor(m, n, over, quot, factors)


def _factored(x, y):
    """X (x)_k Y for an (A, k)-bimodule X and a (k, C)-bimodule Y, recording its factors.

    Its actions are the Kronecker products a (x) id_Y and id_X (x) c.
    """
    id_x, id_y = Mat.identity(x.field, x.dim), Mat.identity(x.field, y.dim)
    left = [a.kron(id_y) for a in x.left_act]
    right = [id_x.kron(c) for c in y.right_act]
    return Bimodule(x.left_alg, y.right_alg, x.dim * y.dim, left, right, factors=(x, y))


def _relation_rows(m, n):
    """(m_i . b_t) (x) n_j - m_i (x) (b_t . n_j) for each algebra generator b_t
    of B and basis pair (i, j), as (column, value) pairs; zero rows are skipped.

    The terms of the two sides land on one column only at the fixed point
    i * dim N + j, when m_i . b_t involves m_i and b_t . n_j involves n_j, so
    a row is the two sides' pairs with just that column merged.  A row whose
    action rows have one entry each and which is no fixed point, as under a
    monomial action, is built as a pair of pairs directly: building it as a
    list makes the Sweedler triple presentation (2,048 such rows) half again
    as slow.
    """
    field = m.field
    sub, neg = field.sub, field.neg
    nd = n.dim
    for t in generators(m.right_alg):
        left_rows = n.left_act[t].rows
        # Row j holds the terms of -(b_t . n_j) as (w, value) pairs.
        minus_left = [[(w, neg(v)) for w, v in r.items()] for r in left_rows]
        for i, ri in enumerate(m.right_act[t].rows):
            base = i * nd
            right = [(u * nd, v) for u, v in ri.items()]
            one_right = len(right) == 1
            if one_right:
                ((col, x),) = right
            fixed_right = ri.get(i)
            for j, lj in enumerate(minus_left):
                if one_right and len(lj) == 1:
                    c = col + j
                    ((w, y),) = lj
                    w += base
                    if c != w:
                        yield ((c, x), (w, y))
                        continue
                row = [(c + j, v) for c, v in right] + [(base + w, v) for w, v in lj]
                if fixed_right is not None and j in left_rows[j]:
                    c = base + j
                    row = [(w, v) for w, v in row if w != c]
                    s = sub(fixed_right, left_rows[j][j])
                    if s:
                        row.append((c, s))
                if row:
                    yield row


def _kron_apply(f, g, vec):
    """Image of a sparse ambient vector under f (x) g without materializing it.

    Either factor may be an int n instead of a matrix: the identity of k^n.
    Each term is added into the result where it lands: `_vadd` with a base
    and a stride.
    """
    out = {}
    if f.__class__ is int:
        field, nr, nc = g.field, g.nrows, g.ncols
        for idx, val in vec.items():
            i, j = divmod(idx, nr)
            _vadd(field, out, g.rows[j], val, i * nc)
    elif g.__class__ is int:
        field = f.field
        for idx, val in vec.items():
            i, j = divmod(idx, g)
            _vadd(field, out, f.rows[i], val, j, g)
    else:
        field, nr, nc = f.field, g.nrows, g.ncols
        mul = field.mul
        for idx, val in vec.items():
            i, j = divmod(idx, nr)
            gj = g.rows[j]
            for u, fv in f.rows[i].items():
                _vadd(field, out, gj, mul(val, fv), u * nc)
    return out


def _lift_rows(t):
    """The lift of each class of t, a basis vector of its ambient space."""
    one = t.field.one
    return [{c: one} for c in t.quot.rep_columns]


def push(t_tgt, image, rows):
    """Row i is the class in t_tgt of image(rows[i]).

    Nothing is checked: the caller must know, from a law it has already
    checked, that the classes do not depend on the representatives in `rows`.
    """
    project = t_tgt.quot.project_vec
    return Mat(t_tgt.field, len(rows), t_tgt.dim, [project(image(r)) for r in rows])


def descend(t_src, t_tgt, image):
    """The map between two presented tensors induced by an ambient map.

    `image` sends a sparse vector of the ambient space of t_src to one of the
    ambient space of t_tgt.  It must send every source relation into the
    target relations, the kernel of the target's projection, or the map is
    not defined on the quotient (DescentFailure).  That is checked on the
    RREF basis of the source relations, one row per pivot, streamed from the
    source quotient (`QuotientSpace.relation_rows`): `image` is linear.  Row
    s of the returned matrix is the class in t_tgt of the image of the lift
    of class s of t_src.  A law whose map is known to descend, because an
    earlier law of its checker implies it, pushes its lift rows through
    `push` instead and skips this check.
    """
    project = t_tgt.quot.project_vec
    for r in t_src.quot.relation_rows():
        if project(image(r)):
            raise DescentFailure(
                "ambient map does not send source relations into target relations"
            )
    return push(t_tgt, image, _lift_rows(t_src))


def induced_map_on_tensor(f, g, t_src, t_tgt):
    """The map f (x)_B g between two presented tensors over the same middle algebra.

    f and g are matrices.  The ambient map must send source relations into
    target relations (DescentFailure otherwise, which signals a non-bilinear
    input pair); row s of the returned matrix is the class in t_tgt of
    (f (x) g) applied to the lift of class s of t_src.
    """
    if t_src.over != t_tgt.over:
        raise CoringsError("presented tensors have different middle algebras")
    if f.nrows != t_src.left_factor.dim or f.ncols != t_tgt.left_factor.dim:
        raise CoringsError("left map incompatible with the tensor factors")
    if g.nrows != t_src.right_factor.dim or g.ncols != t_tgt.right_factor.dim:
        raise CoringsError("right map incompatible with the tensor factors")
    return descend(t_src, t_tgt, lambda vec: _kron_apply(f, g, vec))


def regrouped_kron(f, g, b, d):
    """f (x) g regrouped from (X1 (x) X2) (x) (Y1 (x) Y2) to (X1 (x) Y1) (x) (X2 (x) Y2).

    f maps into X1 (x)_k X2 with dim X2 = b and g into Y1 (x)_k Y2 with
    dim Y2 = d, both in row-major pair indexing.  Row (i, i') holds the
    products of row i of f and row i' of g, each written straight to its
    regrouped column ((x, z), (y, w)).
    """
    field = f.field
    c = g.ncols // d
    rows = []
    for fr in f.rows:
        for gr in g.rows:
            out = {}
            for idx, v in fr.items():
                x, y = divmod(idx, b)
                for idx2, v2 in gr.items():
                    z, w = divmod(idx2, d)
                    out[((x * c + z) * b + y) * d + w] = field.mul(v, v2)
            rows.append(out)
    return Mat(field, f.nrows * g.nrows, f.ncols * g.ncols, rows)


def regrouped_image(g_lift, t_pair, t_left):
    """Ambient map of id (x) g read in (X (x) Y1) (x) Y2, with no descent check.

    g_lift lifts g: Y -> Y1 (x) Y2 into the ambient Y1 (x)_k Y2, t_pair
    presents X (x) Y1 and t_left presents t_pair.result (x) Y2.  A vector of
    X (x)_k Y goes to (project_pair (x) id)(id (x) g_lift) of it, in the
    ambient space of t_left.  Both groupings of the triple tensor present
    X (x)_k Y1 (x)_k Y2 modulo R_{X,Y1} (x) Y2 + X (x) R_{Y1,Y2}, so this is
    id (x) g followed by the re-association, without presenting
    X (x) (Y1 (x) Y2).  The projection of t_pair acts on the left leg only
    (`QuotientSpace.project_vec` with a width).
    """
    x_dim, y2_dim = t_pair.left_factor.dim, t_left.right_factor.dim
    project = t_pair.quot.project_vec
    return lambda vec: project(_kron_apply(x_dim, g_lift, vec), y2_dim)


def regrouped_id_tensor(t_src, g_lift, t_pair, t_left):
    """id (x) g: X (x) Y -> X (x) (Y1 (x) Y2), read in (X (x) Y1) (x) Y2.

    t_src presents X (x) Y and the other arguments are those of
    `regrouped_image`.  Row s is the class in t_left of the image of the
    lift of class s of t_src.  A source relation whose image is not zero
    raises DescentFailure (`descend`).
    """
    return descend(t_src, t_left, regrouped_image(g_lift, t_pair, t_left))
