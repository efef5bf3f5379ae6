"""Earlier implementations kept as references for differential tests.

`ReferenceEliminator` keeps its basis fully reduced on every insert (the
eliminator that deferred back-substitution replaced).  `reference_present_tensor`
presents M (x)_B N from the relations of every basis element of B and
re-checks that each induced outer action preserves the relation subspace (the
builder that algebra-generator relations replaced).  Both must agree with the
library exactly.  `reference_delta_right_linearity` checks that the
comultiplication commutes with a new right action by inducing that action on
C (x)_A C by hand, descent check included (the routine that reading the action
off `tensor_over_alg(C, M)` replaced).  `reference_right_extension_verdict`
runs the four extension laws on that routine and on the two coaction
references below, rebuilding the bimodule from the raw action matrices (the
checker that `check_ext_morphism` running the laws on its `ExtMorphism`
replaced); on every extension it must give the same verdict, and it calls no
law checker of the library.

`BimoduleMorphism` checks a map of bimodules against the action of every
basis element of both acting algebras, and `reference_bimodule_check` and
`reference_check_algebra_morphism` are `Bimodule.check` and
`check_algebra_morphism` with every index over the whole basis (the forms
that checking each action law on the algebra's generators,
`algebras.generators`, replaced).  The coring, extension, coaction and
corings-morphism references below quantify their linearity laws over the
whole basis too.  tests/test_generators.py requires the same verdict, law
and witness from both on single-entry corruptions.

`reference_check_coring`, `reference_right_coaction_verdict`,
`reference_coaction_compatibility` and `reference_check_corings_morphism` are
the law checkers that induced whole maps on presented tensors: each two-route
law builds the induced matrix through `descend`, with its descent check, and
multiplies it by the projected comultiplication or coaction, and each counit
law presents the unit tensor A (x)_A C, C (x)_A A or M (x)_B B, induces the
counit on it and collapses it with a verified inverse (the checkers that
evaluating each law on the rows of its lift replaced).  On inputs that meet
the library checkers' preconditions both must give the same verdict, law,
witness and passed laws.  The two coaction references are the `coaction` and
`colinearity` laws of `check_ext_morphism`, which checks them itself, so they
are compared through `reference_right_extension_verdict`.

`middle_swap` is the permutation matrix that tensor lifts were regrouped with
(`regrouped_kron` writes each product entry to its regrouped column instead).
`reference_verify_monoidal` is the monoidal verifier that checked each unitor
and the associator as morphisms, with the category's checker, and checked
every composite once per square it appears in (the verifier that compares
corings for the strict structure and checks each composite once replaced).
On a family whose corings are all valid both must give the same verdict.

`reference_tensor_coring` forms C (x)_k C' as `tensor_coring` did before it
was memoized and built from trusted data: A (x) A' is built three times (the
base and each acting algebra of the carrier), each time through the coercing
`FinDimAlgebra` constructor, and the counit is wrapped in a
`BimoduleMorphism` into the regular bimodule of the base, whose action
matrices go through the coercing `Mat.from_rows`.  Its base, carrier,
comultiplication lift and counit must equal the library's exactly.

`cotensor` presents M box_C N as the kernel of rho (x) N - M (x) lambda on
M (x)_A N, and `reference_ext_compose_via_cotensor` is the composition oracle
that built E box_C C that way and checked, on every call, that f's coaction
maps E onto it bijectively before taking its route (the oracle that starts
the route from f's coaction on E (x)_A C replaced; a valid f makes the check
hold).  On valid morphisms both oracles must give the same coaction lift
exactly.  `reference_ext_compose` is the bullet composite with its coaction
summed term by term over both lifts (the loop that `ext_compose` replaced,
first by two Kronecker applies, now by one `_counit_contraction` of f's lift
by (eps_C (x) D) o rho_g); tests/test_category.py requires the same
composite exactly.

`reference_descend` checks a map on every row of the RREF basis of the
source relations, read off the `Subspace` that `relation_space` builds whole
from the quotient; `descend` streams the same rows from the quotient without
building it, and checked the generating relation rows of the source
presentation before that.  `descend_both_ways` runs each library call through both, and
tests/test_descend.py and tests/test_law_rows.py require the same outcome,
failure message included, on every call.

`reference_parser` is the `argparse` parser the command line was read with
before `cli.parse_args` read it from a table; tests/test_parse_args.py
requires both to accept the same command lines with the same values.

`reference_sweedler_coring` and `reference_base_ring_extension` build the
Sweedler coring A (x)_B A and the base ring extension B (x)_A C (x)_A B of a
corings morphism term by term, projecting each pure tensor of each
comultiplication term on its own (the constructions that applying the
Kronecker product of two projected factor maps to each lift replaced).  They
take valid input unchecked.  Their coring, action matrices and coaction lift
must equal the library's exactly (tests/test_base_extension_reference.py).

`_vadd`, `_vadd_at` and `_vscale` are the sparse-row accumulate loops that
one `corings.linalg._vadd`, taking a base and a stride, replaced; `matmul` is
`Mat @` before it became the rows of `Mat.apply`, and `factored_actions` the
index remap `bimodules._factored` read its actions with before it took them
from `Mat.kron` with identities.  The helpers below run on these copies, and
tests/test_vadd.py compares the library with them.

The linear algebra the program no longer runs lives here too, moved out of
`corings.linalg` (and `IsoFailure` out of `corings.errors`) as functions:
`rref`, `rank`, `inverse`, `kernel`, `map_kernel`, `transpose`,
`is_identity`, `zero_mat`, `mat_add`, `mat_sub`, `scaled`, `echelon_mat`
(the former `_Eliminator.to_mat`), and on subspaces the class `Subspace` (a
canonical RREF basis held as data) with `from_generators`, `zero_subspace`,
`reduce` and `contains`.  Each looks `_Eliminator` up through
`corings.linalg` on every call, so tests/test_eliminator.py can swap in
`ReferenceEliminator` and compare `rref`, `kernel`, `from_generators` and
`inverse` on both.  `quotient`, which eliminates every relation row, is the
reference tests/test_quotient_by_rows.py compares `quotient_by_rows` with.
A `QuotientSpace` records its relations only in its projection:
`relation_space` reads them off `relation_rows` as a `Subspace`.
tests/test_linalg.py and tests/test_rationals.py test these helpers against
their laws and a dense Fraction RREF.  `pure_class` was a method of
`PresentedTensor` and `describe` one of `Verdict`.  The unit collapses
A (x)_A M -> M and M (x)_A A -> M (`left_unit_collapse`,
`right_unit_collapse`), verified invertible, moved here from
tests/oracles.py, which now imports this module's helpers.
"""

import argparse
from contextlib import contextmanager
from unittest import mock

from corings import bimodules, linalg
from corings.algebras import (
    ALGEBRA_MORPHISM_LAWS,
    AlgebraMorphism,
    FinDimAlgebra,
    identity_morphism,
)
from corings.bimodules import (
    BIMODULE_LAWS,
    Bimodule,
    PresentedTensor,
    _combination,
    _kron_apply,
    induced_map_on_tensor,
    push,
    regrouped_id_tensor,
    regrouped_kron,
    regular_bimodule,
    restrict_scalars,
    tensor_over_alg,
)
from corings.category import (
    MAX_SQUARES,
    MAX_TRIPLES,
    CoringsMorphism,
    ExtMorphism,
    _composable_pairs,
    _sampled,
    check_corings_morphism,
    check_ext_morphism,
    corings_compose,
    corings_identity,
    corings_tensor_morphisms,
    ext_compose,
    ext_identity,
    ext_morphisms_equal,
    ext_tensor_morphisms,
)
from corings.constructions import tensor_coring, unit_coring
from corings.coring import Coring, _counit_contraction
from corings.errors import CoringsError, DescentFailure
from corings.linalg import Mat, _norm
from corings.verdict import Verdict, checker, first_difference, format_combo


class IsoFailure(CoringsError):
    """A map that must be invertible turned out not to be."""


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
    """dst[base + stride * j] += coeff * src[j] for sparse rows, dropping zeros."""
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


def matmul(a, b):
    """a @ b, each row of the product accumulated term by term."""
    rows = []
    for r in a.rows:
        out = {}
        for k, v in r.items():
            _vadd(a.field, out, b.rows[k], v)
        rows.append(out)
    return Mat(a.field, a.nrows, b.ncols, rows)


def factored_actions(x, y):
    """The actions a (x) id_Y and id_X (x) c of X (x)_k Y, each row of a or c
    copied with its indices remapped."""
    field, yd = x.field, y.dim
    n = x.dim * yd
    left = [Mat(field, n, n, [{u * yd + j: v for u, v in r.items()}
                              for r in a.rows for j in range(yd)]) for a in x.left_act]
    right = [Mat(field, n, n, [{i * yd + w: v for w, v in r.items()}
                               for i in range(x.dim) for r in c.rows]) for c in y.right_act]
    return left, right


def zero_mat(field, nrows, ncols):
    return Mat(field, nrows, ncols, [{} for _ in range(nrows)])


def _plus_multiple(a, b, coeff):
    """a + coeff * b for matrices of one shape over one field."""
    if not isinstance(b, Mat):
        raise TypeError("expected a Mat")
    if a.field != b.field:
        raise CoringsError(f"{a.field!r} vs {b.field!r}")
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise CoringsError(f"{a.nrows}x{a.ncols} vs {b.nrows}x{b.ncols}")
    rows = []
    for x, y in zip(a.rows, b.rows):
        r = dict(x)
        _vadd(a.field, r, y, coeff)
        rows.append(r)
    return Mat(a.field, a.nrows, a.ncols, rows)


def mat_add(a, b):
    return _plus_multiple(a, b, a.field.one)


def mat_sub(a, b):
    return _plus_multiple(a, b, a.field.neg(a.field.one))


def scaled(m, c):
    return Mat(m.field, m.nrows, m.ncols, [_vscale(m.field, r, c) for r in m.rows])


def transpose(m):
    rows = [{} for _ in range(m.ncols)]
    for i, r in enumerate(m.rows):
        for j, v in r.items():
            rows[j][i] = v
    return Mat(m.field, m.ncols, m.nrows, rows)


def is_identity(m):
    one = m.field.one
    return m.nrows == m.ncols and all(r == {i: one} for i, r in enumerate(m.rows))


def echelon_mat(elim):
    """The canonical RREF an eliminator holds, as a matrix of its pivot rows."""
    piv = elim.pivots()
    return Mat(elim.field, len(piv), elim.ncols, [dict(elim.pivrows[c]) for c in piv])


# `linalg._Eliminator` is looked up on each call, so that a test can swap in
# `ReferenceEliminator` (tests/test_eliminator.py).
def rref(m):
    """Reduced row echelon form with zero rows dropped, plus pivot columns."""
    elim = linalg._Eliminator(m.field, m.ncols)
    for r in m.rows:
        elim.insert(dict(r))
    return echelon_mat(elim), elim.pivots()


def rank(m):
    return rref(m)[0].nrows


def inverse(m):
    """Inverse matrix; raises IsoFailure when not square or singular."""
    n = m.nrows
    if n != m.ncols:
        raise IsoFailure(f"not square: {m.nrows}x{m.ncols}")
    elim = linalg._Eliminator(m.field, 2 * n)
    one = m.field.one
    for i, r in enumerate(m.rows):
        aug = dict(r)
        aug[n + i] = one
        elim.insert(aug)
    pivots = elim.pivots()
    if len(pivots) < n or any(c >= n for c in pivots):
        raise IsoFailure("matrix is singular")
    rows = [{j - n: v for j, v in elim.pivrows[c].items() if j >= n} for c in pivots]
    return Mat(m.field, n, n, rows)


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


def relation_space(quot):
    """The relations of a `QuotientSpace` as a Subspace, read off `relation_rows`."""
    rows = list(quot.relation_rows())
    basis = Mat(quot.field, len(rows), quot.ambient_dim, rows)
    return Subspace(quot.ambient_dim, basis, [min(row) for row in rows])


def from_generators(field, ambient_dim, gens):
    """The span of `gens`, sparse rows or dense lists of scalars, as a Subspace."""
    elim = linalg._Eliminator(field, ambient_dim)
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
    return Subspace(ambient_dim, echelon_mat(elim), elim.pivots())


def zero_subspace(field, ambient_dim):
    return Subspace(ambient_dim, Mat(field, 0, ambient_dim, []), [])


def reduce(subspace, vec):
    """Canonical coset representative: eliminate every pivot coordinate."""
    field = subspace.field
    index = {c: i for i, c in enumerate(subspace.pivots)}
    out = dict(vec)
    for c in [c for c in out if c in index]:
        coeff = out.get(c)
        if coeff:
            _vadd(field, out, subspace.basis.rows[index[c]], field.neg(coeff))
    return out


def contains(subspace, vec):
    return not reduce(subspace, vec)


def kernel(m):
    """Null space {v : v * m^T = 0} of `m`, i.e. the solutions of m x = 0.

    Rank-nullity holds with the domain read off the columns:
    dim kernel + rank(m) = m.ncols.
    """
    red, pivots = rref(m)
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
    return from_generators(field, m.ncols, gens)


def map_kernel(f):
    """Kernel of the row-convention map v -> v @ f, inside k^f.nrows."""
    return kernel(transpose(f))


def quotient(ambient_dim, relations):
    """Quotient of k^ambient_dim by `relations`, with canonical representatives."""
    if relations.ambient_dim != ambient_dim:
        raise CoringsError(
            f"relations live in k^{relations.ambient_dim}, not k^{ambient_dim}"
        )
    field = relations.field
    pivot_set = set(relations.pivots)
    rep_columns = [j for j in range(ambient_dim) if j not in pivot_set]
    rep_index = {c: t for t, c in enumerate(rep_columns)}
    one = field.one
    proj_rows = []
    for j in range(ambient_dim):
        red = reduce(relations, {j: one})
        proj_rows.append({rep_index[c]: v for c, v in red.items()})
    project = Mat(field, ambient_dim, len(rep_columns), proj_rows)
    return linalg.QuotientSpace(field, ambient_dim, rep_columns, project=project)


def project_mat(quot):
    """The projection of a quotient as a matrix: row x is the class of e_x."""
    one = quot.field.one
    return Mat(quot.field, quot.ambient_dim, quot.dim,
               [quot.project_vec({x: one}) for x in range(quot.ambient_dim)])


def quotient_form(quot):
    """Which form of `QuotientSpace` `quot` takes: free, monomial or residual."""
    if quot.project is not None:
        return "residual"
    return "free" if quot.classes is None else "monomial"


def lift_mat(quot):
    """The lift of a quotient as a matrix: row t is e_(rep_columns[t])."""
    one = quot.field.one
    return Mat(quot.field, quot.dim, quot.ambient_dim, [{c: one} for c in quot.rep_columns])


def pure_class(t, i, j):
    """Quotient coordinates of the class of m_i (x) n_j in the presented tensor t."""
    return t.quot.project_vec({i * t.right_factor.dim + j: t.field.one})


def describe(verdict):
    if verdict.ok:
        return "pass"
    return f"fail [{verdict.law}] {verdict.witness}"


def reference_descend(t_src, t_tgt, image):
    """`descend` checking the rows of the RREF basis of the source relations."""
    project = t_tgt.quot.project_vec
    for r in relation_space(t_src.quot).basis.rows:
        if project(image(r)):
            raise DescentFailure(
                "ambient map does not send source relations into target relations"
            )
    return push(t_tgt, image, lift_mat(t_src.quot).rows)


def _descend_outcome(fn, t_src, t_tgt, image):
    try:
        return ("descends", fn(t_src, t_tgt, image))
    except DescentFailure as e:
        return ("fails", str(e))


@contextmanager
def descend_both_ways():
    """Run every call of `bimodules.descend` through `reference_descend` too.

    Yields a list that gains, per call, the pair (library outcome, reference
    outcome), each ("descends", matrix) or ("fails", message).  The caller
    gets the library's matrix or DescentFailure.
    """
    library = bimodules.descend
    outcomes = []

    def both(t_src, t_tgt, image):
        got = _descend_outcome(library, t_src, t_tgt, image)
        outcomes.append((got, _descend_outcome(reference_descend, t_src, t_tgt, image)))
        if got[0] == "fails":
            raise DescentFailure(got[1])
        return got[1]

    with mock.patch.object(bimodules, "descend", both):
        yield outcomes


def left_unit_collapse(t):
    """Inverse of a (x) m -> class(a (x) m) for t = A (x)_A M: sends it to a.m."""
    field = t.field
    m = t.right_factor
    nd = m.dim
    rows = []
    for lift_row in lift_mat(t.quot).rows:
        out = {}
        for idx, val in lift_row.items():
            i, j = divmod(idx, nd)
            _vadd(field, out, m.left_act[i].rows[j], val)
        rows.append(out)
    mat = Mat(field, t.dim, nd, rows)
    if t.dim != nd:
        raise IsoFailure("left unit collapse is not square")
    inverse(mat)
    return mat


def right_unit_collapse(t):
    """m (x) a -> m.a for t = M (x)_A A, verified invertible."""
    field = t.field
    m = t.left_factor
    nd = t.right_factor.dim
    rows = []
    for lift_row in lift_mat(t.quot).rows:
        out = {}
        for idx, val in lift_row.items():
            i, j = divmod(idx, nd)
            _vadd(field, out, m.right_act[j].rows[i], val)
        rows.append(out)
    mat = Mat(field, t.dim, m.dim, rows)
    if t.dim != m.dim:
        raise IsoFailure("right unit collapse is not square")
    inverse(mat)
    return mat


class ReferenceEliminator:
    """Incremental canonical RREF accumulator over sparse rows."""

    __slots__ = ("field", "ncols", "pivrows")

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.pivrows = {}

    def reduce(self, row):
        """Fully reduce a sparse row in place against the current pivots."""
        # Pivot rows hold no other pivot columns, so one pass suffices.
        for c in [c for c in row if c in self.pivrows]:
            coeff = row.get(c)
            if coeff:
                _vadd(self.field, row, self.pivrows[c], self.field.neg(coeff))
        return row

    def insert(self, row):
        """Reduce and, if independent, normalize and adopt the row; returns its pivot."""
        self.reduce(row)
        if not row:
            return None
        lead = min(row)
        inv = self.field.inv(row[lead])
        if inv != self.field.one:
            row = _vscale(self.field, row, inv)
        for pr in self.pivrows.values():
            coeff = pr.get(lead)
            if coeff:
                _vadd(self.field, pr, row, self.field.neg(coeff))
        self.pivrows[lead] = row
        return lead

    def pivots(self):
        return sorted(self.pivrows)


class GuardFired(AssertionError):
    """An induced outer action did not preserve the relation subspace."""


def reference_present_tensor(m, n):
    """M (x)_B N from the relations of all basis triples, guard included.

    Every step runs on the reference code: the relations are eliminated by
    `ReferenceEliminator`, so no part of the library's new elimination or
    relation choice is trusted.
    """
    if m.field != n.field:
        raise CoringsError("tensor factors over different fields")
    if m.right_alg != n.left_alg:
        raise CoringsError("middle algebras differ")
    field = m.field
    over = m.right_alg
    nd = n.dim
    ambient_dim = m.dim * nd

    elim = ReferenceEliminator(field, ambient_dim)
    for t in range(over.dim):
        right_rows = m.right_act[t].rows
        left_rows = n.left_act[t].rows
        for i in range(m.dim):
            ri = right_rows[i]
            for j in range(nd):
                g = {}
                for u, v in ri.items():
                    g[u * nd + j] = v
                _vadd(field, g, {i * nd + w: v for w, v in left_rows[j].items()},
                      field.neg(field.one))
                if g:
                    elim.insert(g)
    relations = Subspace(ambient_dim, echelon_mat(elim), elim.pivots())
    quot = quotient(ambient_dim, relations)

    def induce(amb_row_image):
        rows = []
        for lift_row in lift_mat(quot).rows:
            rows.append(quot.project_vec(amb_row_image(lift_row)))
        return Mat(field, quot.dim, quot.dim, rows)

    def check_preserved(amb_row_image, what):
        for r in relations.basis.rows:
            if not contains(relations, amb_row_image(r)):
                raise GuardFired(f"{what} does not preserve the relations")

    def left_image(p):
        lp = m.left_act[p].rows

        def img(vec):
            out = {}
            for idx, val in vec.items():
                i, j = divmod(idx, nd)
                _vadd(field, out, {u * nd + j: v for u, v in lp[i].items()}, val)
            return out

        return img

    def right_image(q):
        rq = n.right_act[q].rows

        def img(vec):
            out = {}
            for idx, val in vec.items():
                i, j = divmod(idx, nd)
                _vadd(field, out, {i * nd + w: v for w, v in rq[j].items()}, val)
            return out

        return img

    left_mats = []
    for p in range(m.left_alg.dim):
        img = left_image(p)
        check_preserved(img, f"left action of {m.left_alg.label(p)}")
        left_mats.append(induce(img))
    right_mats = []
    for q in range(n.right_alg.dim):
        img = right_image(q)
        check_preserved(img, f"right action of {n.right_alg.label(q)}")
        right_mats.append(induce(img))

    t = PresentedTensor(m, n, over, quot)
    t.result = Bimodule(m.left_alg, n.right_alg, quot.dim, left_mats, right_mats)
    return t


BIMODULE_MORPHISM_LAWS = ("left-linear", "right-linear")


def first_noncommuting(acts, f, acts2):
    """Index of the first i with acts[i] @ f != f @ acts2[i], or None."""
    return next((i for i, (a, b) in enumerate(zip(acts, acts2)) if a @ f != f @ b), None)


class BimoduleMorphism:
    def __init__(self, source, target, map):
        if source.field != target.field or map.field != source.field:
            raise CoringsError("morphism data over mixed fields")
        if map.nrows != source.dim or map.ncols != target.dim:
            raise CoringsError(
                f"map must be {source.dim}x{target.dim}, got {map.nrows}x{map.ncols}"
            )
        self.source = source
        self.target = target
        self.map = map

    @checker(BIMODULE_MORPHISM_LAWS)
    def check(self):
        """Equivariance for both actions on all algebra basis elements."""
        src, tgt, f = self.source, self.target, self.map
        if src.left_alg != tgt.left_alg or src.right_alg != tgt.right_alg:
            yield "left-linear", "source and target algebras differ"
        i = first_noncommuting(src.left_act, f, tgt.left_act)
        if i is not None:
            yield "left-linear", (
                f"map does not commute with the left action of {src.left_alg.label(i)}"
            )
        yield "left-linear", None
        j = first_noncommuting(src.right_act, f, tgt.right_act)
        if j is not None:
            yield "right-linear", (
                f"map does not commute with the right action of {src.right_alg.label(j)}"
            )
        yield "right-linear", None

    def __eq__(self, other):
        return (
            isinstance(other, BimoduleMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.map == other.map
        )

    __hash__ = None


@checker(BIMODULE_LAWS)
def reference_bimodule_check(m):
    """Module laws on both sides and commutation of the two actions, on every
    pair of basis elements."""
    field = m.field
    ident = Mat.identity(field, m.dim)

    def law_mats(alg, acts, compose_ij):
        if _combination(field, m.dim, acts, alg.unit.items()) != ident:
            return "unit acts as a non-identity matrix"
        for i in range(alg.dim):
            for j in range(alg.dim):
                combo = _combination(field, m.dim, acts, alg.table[i][j].items())
                if combo != compose_ij(acts, i, j):
                    return (
                        f"action of {alg.label(i)}*{alg.label(j)} differs from the "
                        f"composite of the actions of {alg.label(i)} and {alg.label(j)}"
                    )
        return None

    yield "left-module", law_mats(m.left_alg, m.left_act, lambda acts, i, j: acts[j] @ acts[i])
    yield "right-module", law_mats(m.right_alg, m.right_act, lambda acts, i, j: acts[i] @ acts[j])
    for i, L in enumerate(m.left_act):
        for j, R in enumerate(m.right_act):
            if L @ R != R @ L:
                yield "commuting-actions", (
                    f"left action of {m.left_alg.label(i)} does not commute with "
                    f"right action of {m.right_alg.label(j)}"
                )
    yield "commuting-actions", None


@checker(ALGEBRA_MORPHISM_LAWS)
def reference_check_algebra_morphism(f):
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


def reference_delta_right_linearity(c, bimodule):
    """Right linearity of the comultiplication for the new right action."""
    field = c.field
    b_alg = bimodule.right_alg
    nd = c.dim
    relations = relation_space(c.tens.quot)
    induced = []
    for j in range(b_alg.dim):
        rows_b = bimodule.right_act[j].rows

        def img(vec, rows_b=rows_b):
            out = {}
            for idx, val in vec.items():
                i, t = divmod(idx, nd)
                _vadd(field, out, {i * nd + w: v for w, v in rows_b[t].items()}, val)
            return out

        for r in relations.basis.rows:
            if not contains(relations, img(r)):
                return Verdict.failed(
                    "delta-right-linear",
                    f"the right action of {b_alg.label(j)} on the second tensor leg "
                    f"is not defined on C (x)_A C",
                )
        mat_rows = [
            c.tens.quot.project_vec(img(lift_row)) for lift_row in lift_mat(c.tens.quot).rows
        ]
        induced.append(Mat(field, c.tens.dim, c.tens.dim, mat_rows))
    for j in range(b_alg.dim):
        if bimodule.right_act[j] @ c.comul != c.comul @ induced[j]:
            return Verdict.failed(
                "delta-right-linear",
                f"comultiplication does not commute with the right action of "
                f"{b_alg.label(j)}",
            )
    return Verdict.passed(("delta-right-linear",))


def reference_right_extension_verdict(c, d, right_action_mats, coact_lift):
    """All four extension conditions in order, stopping at the first failure."""
    passed = []
    if c.field != d.field:
        raise CoringsError("extension data over mixed fields")
    try:
        bimodule = Bimodule(
            c.base, d.base, c.dim, c.carrier.left_act, right_action_mats,
            c.carrier.labels,
        )
    except CoringsError as e:
        return Verdict.failed("bimodule", str(e), passed)
    v = reference_bimodule_check(bimodule)
    if not v.ok:
        return Verdict.failed("bimodule", v.witness, passed)
    passed.append("bimodule")

    v = reference_delta_right_linearity(c, bimodule)
    if not v.ok:
        return Verdict.failed(v.law, v.witness, passed)
    passed.append("delta-right-linear")

    v = reference_right_coaction_verdict(bimodule, d, coact_lift)
    if not v.ok:
        return Verdict.failed("coaction", f"{v.law}: {v.witness}", passed)
    passed.append("coaction")

    v = reference_coaction_compatibility(c, d, bimodule, c.comul_lift, coact_lift)
    if not v.ok:
        return Verdict.failed("colinearity", v.witness, passed)
    passed.append("colinearity")
    return Verdict.passed(passed)


def _reference_counit_leg(law, what, coact, f, g, t_src, t_unit, collapse, label, passed):
    """One counit law: collapse o (f (x) g) o coact must be the identity."""
    try:
        leg = induced_map_on_tensor(f, g, t_src, t_unit) @ collapse(t_unit)
    except DescentFailure as e:
        return Verdict.failed(law, str(e), passed)
    got = coact @ leg
    i = first_difference(got, Mat.identity(got.field, got.nrows))
    if i is None:
        return None
    return Verdict.failed(
        law,
        f"{label(i)}: {what} = {format_combo(got.rows[i], label, got.field.fmt)} != {label(i)}",
        passed,
    )


def reference_check_coring(c):
    """Bilinearity, coassociativity, and both counit laws, with a witness."""
    passed = []

    v = BimoduleMorphism(c.carrier, c.tens.result, c.comul).check()
    if not v.ok:
        return Verdict.failed("bilinearity", f"comultiplication: {v.witness}", passed)
    v = BimoduleMorphism(c.carrier, regular_bimodule(c.base), c.counit_mat).check()
    if not v.ok:
        return Verdict.failed("bilinearity", f"counit: {v.witness}", passed)
    passed.append("bilinearity")

    ident = Mat.identity(c.field, c.dim)
    try:
        t_left = tensor_over_alg(c.tens.result, c.carrier)
        lhs = c.comul @ induced_map_on_tensor(c.comul, ident, c.tens, t_left)
        rhs = c.comul @ regrouped_id_tensor(c.tens, c.comul_lift, c.tens, t_left)
    except DescentFailure as e:
        return Verdict.failed("coassociativity", str(e), passed)
    i = first_difference(lhs, rhs)
    if i is not None:
        return Verdict.failed(
            "coassociativity",
            f"{c.label(i)}: the two triple coproducts differ",
            passed,
        )
    passed.append("coassociativity")

    unit_tensor_right = tensor_over_alg(c.carrier, regular_bimodule(c.base))
    v = _reference_counit_leg("right-counit", "(C (x) counit) o comul", c.comul, ident,
                              c.counit_mat, c.tens, unit_tensor_right,
                              right_unit_collapse, c.label, passed)
    if v is not None:
        return v
    passed.append("right-counit")

    unit_tensor_left = tensor_over_alg(regular_bimodule(c.base), c.carrier)
    v = _reference_counit_leg("left-counit", "(counit (x) C) o comul", c.comul,
                              c.counit_mat, ident, c.tens, unit_tensor_left,
                              left_unit_collapse, c.label, passed)
    if v is not None:
        return v
    passed.append("left-counit")
    return Verdict.passed(passed)


def reference_right_coaction_verdict(carrier, d, coact_lift):
    """Right-coaction laws for rho: M -> M (x)_B D on an (*, B)-bimodule M."""
    passed = []
    field = carrier.field
    t_md = tensor_over_alg(carrier, d.carrier)
    rho = coact_lift @ project_mat(t_md.quot)

    for j in range(carrier.right_alg.dim):
        if carrier.right_act[j] @ rho != rho @ t_md.result.right_act[j]:
            return Verdict.failed(
                "coaction-linearity",
                f"coaction does not commute with the right action of "
                f"{carrier.right_alg.label(j)}",
                passed,
            )
    passed.append("coaction-linearity")

    try:
        t_l = tensor_over_alg(t_md.result, d.carrier)
        lhs = rho @ induced_map_on_tensor(rho, Mat.identity(field, d.dim), t_md, t_l)
        rhs = rho @ regrouped_id_tensor(t_md, d.comul_lift, t_md, t_l)
    except DescentFailure as e:
        return Verdict.failed("coaction-coassociativity", str(e), passed)
    i = first_difference(lhs, rhs)
    if i is not None:
        return Verdict.failed(
            "coaction-coassociativity",
            f"{carrier.label(i)}: the coaction is not coassociative",
            passed,
        )
    passed.append("coaction-coassociativity")

    v = _reference_counit_leg("coaction-counit", "(M (x) counit) o coaction", rho,
                              Mat.identity(field, carrier.dim), d.counit_mat, t_md,
                              tensor_over_alg(carrier, regular_bimodule(d.base)),
                              right_unit_collapse, carrier.label, passed)
    if v is not None:
        return v
    passed.append("coaction-counit")
    return Verdict.passed(passed)


def reference_coaction_compatibility(c, d, carrier, left_lift, right_lift):
    """Commutation of a left C-coaction with a right D-coaction on one carrier."""
    field = carrier.field
    t_cm = tensor_over_alg(c.carrier, carrier)
    t_md = tensor_over_alg(carrier, d.carrier)
    lam = left_lift @ project_mat(t_cm.quot)
    rho = right_lift @ project_mat(t_md.quot)
    try:
        t_l = tensor_over_alg(t_cm.result, d.carrier)
        lhs = rho @ induced_map_on_tensor(lam, Mat.identity(field, d.dim), t_md, t_l)
        rhs = lam @ regrouped_id_tensor(t_cm, right_lift, t_cm, t_l)
    except DescentFailure as e:
        return Verdict.failed("colinearity", str(e))
    i = first_difference(lhs, rhs)
    if i is not None:
        return Verdict.failed(
            "colinearity",
            f"{carrier.label(i)}: the two coactions do not commute",
        )
    return Verdict.passed(("colinearity",))


def reference_check_corings_morphism(m):
    """Algebra map, bilinearity, counit square, and the comultiplication square."""
    passed = []
    v = reference_check_algebra_morphism(m.varphi)
    if not v.ok:
        return Verdict.failed("algebra-morphism", f"{v.law}: {v.witness}", passed)
    passed.append("algebra-morphism")

    restricted = restrict_scalars(m.target.carrier, left=m.varphi, right=m.varphi)
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
        phi_phi = bimodules.descend(
            m.source.tens, m.target.tens, lambda vec: _kron_apply(m.phi, m.phi, vec)
        )
    except DescentFailure as e:
        return Verdict.failed("comultiplication-square", str(e), passed)
    lhs = m.phi @ m.target.comul
    rhs = m.source.comul @ phi_phi
    i = first_difference(lhs, rhs)
    if i is not None:
        return Verdict.failed(
            "comultiplication-square",
            f"{m.source.label(i)}: the comultiplication square does not commute",
            passed,
        )
    passed.append("comultiplication-square")
    return Verdict.passed(passed)


def middle_swap(field, a, b, c, d):
    """Permutation (X1 (x) X2) (x) (Y1 (x) Y2) -> (X1 (x) Y1) (x) (X2 (x) Y2).

    Index ((x,y),(z,w)) is sent to ((x,z),(y,w)) in row-major coordinates.
    """
    one = field.one
    total = a * b * c * d
    rows = []
    for x in range(a):
        for y in range(b):
            for z in range(c):
                for w in range(d):
                    rows.append({((x * c + z) * b + y) * d + w: one})
    return Mat(field, total, total, rows)


def reference_verify_monoidal(corings, morphisms, seed, kind):
    """Four-phase monoidal verifier that checks the unitors and associator as morphisms.

    The tensor builders no longer take their ends, so identity preservation
    compares with the identity of a tensor coring formed here; the builders
    form an equal one.
    """
    is_ext = kind == "ext"
    passed = []
    vacuous = []

    def failed(law, witness):
        return Verdict.failed(law, witness, passed, vacuous)

    def held(law, instances):
        passed.append(law)
        if not instances:
            vacuous.append(law)

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
            t = tensor_coring(corings[i], corings[j])
            lhs = tensor_of(identity_of(corings[i]), identity_of(corings[j]))
            rhs = identity_of(t)
            same = (
                lhs.action_mats == rhs.action_mats and lhs.coact_lift == rhs.coact_lift
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
        [(p, q) for p in pairs for q in pairs], MAX_SQUARES[kind], seed
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

    for i, c in enumerate(corings):
        unit = unit_coring(c.field)
        for t in (tensor_coring(unit, c), tensor_coring(c, unit)):
            if t != c:
                return failed(
                    "unit-isomorphisms",
                    f"tensoring coring {i} with the unit does not collapse to it",
                )
            if is_ext:
                u = ExtMorphism(t, c, c.carrier.right_act, c.comul_lift)
                uinv = ExtMorphism(c, t, c.carrier.right_act, c.comul_lift)
            else:
                ident = Mat.identity(c.field, c.dim)
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
    triples = _sampled(triples, MAX_TRIPLES, seed + 1)
    for i, j, l in triples:
        left = tensor_coring(tensor_coring(corings[i], corings[j]), corings[l])
        right = tensor_coring(corings[i], tensor_coring(corings[j], corings[l]))
        if left.dim != right.dim:
            return failed(
                "associator", f"re-association of ({i},{j},{l}) changes dimensions"
            )
        field = left.field
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


def _dense(a, vec):
    """The sparse algebra element `vec` of `a` as a dense coordinate list."""
    return [vec.get(t, a.field.zero) for t in range(a.dim)]


def _reference_tensor_algebra(a, a2):
    """A (x) A' through the coercing constructor, from dense coordinate lists."""
    if a.field != a2.field:
        raise CoringsError("tensor factors live over different fields")
    field = a.field
    d1, d2 = a.dim, a2.dim
    dim = d1 * d2

    def pair_vec(x, y):
        out = [field.zero] * dim
        for i, xi in enumerate(_dense(a, x)):
            if not xi:
                continue
            for j, yj in enumerate(_dense(a2, y)):
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
    return FinDimAlgebra(field, dim, table, pair_vec(a.unit, a2.unit), labels)


def _reference_regular_bimodule(a):
    """The regular bimodule with its action matrices built by `Mat.from_rows`."""
    left = [Mat.from_rows(a.field, [_dense(a, a.table[i][j]) for j in range(a.dim)])
            for i in range(a.dim)]
    right = [Mat.from_rows(a.field, [_dense(a, a.table[i][j]) for i in range(a.dim)])
             for j in range(a.dim)]
    return Bimodule(a, a, a.dim, left, right, a.labels)


def reference_tensor_coring(c, c2):
    """C (x)_k C' with three coercing builds of A (x) A' and a wrapped counit."""
    if c.field != c2.field:
        raise CoringsError("tensor corings over different fields")
    m, n = c.carrier, c2.carrier
    labels = None
    if m.labels is not None and n.labels is not None:
        labels = [f"{x}(x){y}" for x in m.labels for y in n.labels]
    carrier = Bimodule(
        _reference_tensor_algebra(m.left_alg, n.left_alg),
        _reference_tensor_algebra(m.right_alg, n.right_alg),
        m.dim * n.dim,
        [lm.kron(ln) for lm in m.left_act for ln in n.left_act],
        [rm.kron(rn) for rm in m.right_act for rn in n.right_act],
        labels,
    )
    base = _reference_tensor_algebra(c.base, c2.base)
    comul_lift = regrouped_kron(c.comul_lift, c2.comul_lift, c.dim, c2.dim)
    counit = BimoduleMorphism(
        carrier, _reference_regular_bimodule(base), c.counit_mat.kron(c2.counit_mat)
    )
    return Coring(base, carrier, comul_lift, counit.map)


class CotensorSpace:
    """M box_C N inside the presented M (x)_A N, with its inclusion."""

    def __init__(self, tensor, subspace, include):
        self.tensor = tensor
        self.subspace = subspace
        self.include = include

    @property
    def dim(self):
        return self.subspace.dim


def cotensor(m, rho_lift, c, n, lam_lift):
    """Kernel presentation of M box_C N for a right and a left C-comodule.

    M is an (*, A)-bimodule with coaction lift `rho_lift` into M (x)_k C, and
    N an (A, *)-bimodule with coaction lift `lam_lift` into C (x)_k N, A the
    base of the coring `c`.  The cotensor product is the kernel of
    rho (x) N - M (x) lambda on the presented M (x)_A N.
    """
    t_mn = tensor_over_alg(m, n)
    t_mc = tensor_over_alg(m, c.carrier)
    t_l = tensor_over_alg(t_mc.result, n)
    rho_side = induced_map_on_tensor(
        rho_lift @ project_mat(t_mc.quot), Mat.identity(c.field, n.dim), t_mn, t_l
    )
    lam_side = regrouped_id_tensor(t_mn, lam_lift, t_mc, t_l)
    subspace = map_kernel(mat_sub(rho_side, lam_side))
    include = Mat(c.field, subspace.dim, t_mn.dim, [dict(r) for r in subspace.basis.rows])
    return CotensorSpace(t_mn, subspace, include)


def _coords_of(subspace, vec):
    """Coefficients of `vec` in the RREF basis of `subspace`, or None if not a member."""
    coords = {}
    for i, c in enumerate(subspace.pivots):
        v = vec.get(c)
        if v:
            coords[i] = v
    residue = dict(vec)
    field = subspace.field
    for i, v in coords.items():
        _vadd(field, residue, subspace.basis.rows[i], field.neg(v))
    if residue:
        return None
    return coords


def reference_ext_compose_via_cotensor(g, f):
    """Bullet coaction through the cotensor route, as an independent oracle.

    Embeds E into E box_C C along f's coaction (bijectivity verified), pushes
    through E box_C (C (x)_B D), and collapses with the counit.  The action
    component has only the explicit formula and is shared with ext_compose.
    """
    if f.target != g.source:
        raise CoringsError("inner endpoints do not match")
    field = f.source.field
    e_dim = f.source.dim
    c_coring = g.source
    d_dim = g.target.dim

    explicit = ext_compose(g, f)

    cot = cotensor(f.bimodule, f.coact_lift, c_coring, c_coring.carrier,
                   c_coring.comul_lift)
    rho_mat = f.coaction
    coords = []
    for r in rho_mat.rows:
        c = _coords_of(cot.subspace, r)
        if c is None:
            raise IsoFailure("the coaction does not land in the cotensor product")
        coords.append(c)
    inverse(Mat(field, e_dim, cot.dim, coords))

    t_ec = cot.tensor
    t_cd = g.coaction_tensor
    g_rho = g.coaction
    t_r = tensor_over_alg(f.bimodule, t_cd.result)
    through_d = induced_map_on_tensor(Mat.identity(field, e_dim), g_rho, t_ec, t_r)

    t_ed = explicit.coaction_tensor
    eps = c_coring.counit_mat
    act_f = f.action_mats
    collapse_rows = []
    lift_cd = lift_mat(t_cd.quot).rows
    for lift_row in lift_mat(t_r.quot).rows:
        amb = {}
        for idx, val in lift_row.items():
            i, u = divmod(idx, t_cd.dim)
            for idx2, val2 in lift_cd[u].items():
                c, d = divmod(idx2, d_dim)
                coeff = field.mul(val, val2)
                if not coeff:
                    continue
                moved = {}
                for t, at in eps.rows[c].items():
                    _vadd(field, moved, act_f[t].rows[i], field.mul(coeff, at))
                _vadd(field, amb, {w * d_dim + d: wv for w, wv in moved.items()}, field.one)
        collapse_rows.append(t_ed.quot.project_vec(amb))
    collapse = Mat(field, t_r.dim, t_ed.dim, collapse_rows)

    oracle = rho_mat @ through_d @ collapse
    lift = oracle @ lift_mat(t_ed.quot)
    return ExtMorphism(f.source, g.target, explicit.action_mats, lift)


def reference_ext_compose(g, f):
    """Bullet composition of f: (E:C0) -> (C:A) and g: (C:A) -> (D:B), with
    the coaction summed term by term over e0 (x) c of f's lift and c0 (x) d
    of g's: each term adds eps_C(c0) acting on e0, tensored with d."""
    if f.target != g.source:
        raise CoringsError("inner endpoints do not match")
    field = f.source.field
    e_dim = f.source.dim
    c_dim = g.source.dim
    d_dim = g.target.dim
    eps = g.source.counit_mat
    act_f = f.action_mats
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


def reference_parser():
    """The `argparse` parser of the command line, as `cli.build_parser` built it."""
    parser = argparse.ArgumentParser(
        prog="corings",
        description="Exact computations with corings, coring extensions, and "
        "their monoidal categories.",
    )
    parser.add_argument("--workspace", required=True, help="workspace JSON file")
    parser.add_argument(
        "--json-report", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomized property commands"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the validator of a named object")
    p.add_argument("name")

    p = sub.add_parser("dims", help="report the dimensions of a named object")
    p.add_argument("name")

    p = sub.add_parser("tensor", help="tensor two corings and check the result")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out", default=None)
    p.add_argument("--dump", default=None, help="write the result as a workspace file")

    p = sub.add_parser("extend-tensor", help="tensor two right extensions")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out", default=None)
    p.add_argument("--dump", default=None)

    p = sub.add_parser("compose", help="compose two morphisms (second, then first)")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", default=None)
    p.add_argument("--dump", default=None)

    p = sub.add_parser("base-extend", help="base ring extension of a corings morphism")
    p.add_argument("morphism")
    p.add_argument("--out", default=None)
    p.add_argument("--dump", default=None)

    p = sub.add_parser("verify-monoidal", help="monoidal-category laws on the workspace")
    p.add_argument("category", choices=["ext", "corings"])
    return parser


def reference_sweedler_coring(inclusion):
    """The Sweedler coring A (x)_B A of an injective algebra map B -> A, unchecked."""
    a_alg = inclusion.target
    field = a_alg.field
    regular = regular_bimodule(a_alg)
    t = tensor_over_alg(
        restrict_scalars(regular, right=inclusion), restrict_scalars(regular, left=inclusion)
    )
    carrier = t.result
    dim_a = a_alg.dim

    cls = t.quot.project_vec
    comul_rows = []
    counit_rows = []
    # Class s of the carrier lifts to e_i (x) e_j.
    for idx in t.quot.rep_columns:
        i, j = divmod(idx, dim_a)
        # comul(a (x) a') = (a (x) 1) (x)_A (1 (x) a')
        z1 = cls({i * dim_a + u: v for u, v in a_alg.unit.items()})
        z2 = cls({u * dim_a + j: v for u, v in a_alg.unit.items()})
        comul_row = {}
        for p1, v1 in z1.items():
            _vadd_at(field, comul_row, z2, v1, p1 * carrier.dim, 1)
        comul_rows.append(comul_row)
        counit_rows.append(a_alg.table[i][j])
    return Coring(
        a_alg,
        carrier,
        Mat(field, carrier.dim, carrier.dim**2, comul_rows),
        Mat(field, carrier.dim, dim_a, counit_rows),
    )


def reference_base_ring_extension(m):
    """The base ring extension of a valid corings morphism, as an `ExtMorphism`, unchecked."""
    c, d = m.source, m.target
    b_alg = d.base
    field = c.field
    phi, varphi = m.phi, m.varphi.map

    b_left = restrict_scalars(regular_bimodule(b_alg), right=m.varphi)
    b_right = restrict_scalars(regular_bimodule(b_alg), left=m.varphi)

    t_bc = tensor_over_alg(b_left, c.carrier)
    t_bcb = tensor_over_alg(t_bc.result, b_right)
    carrier = t_bcb.result
    dim_b, dim_c = b_alg.dim, c.dim
    x_dim = carrier.dim

    def cls_bc(b_vec, c_idx):
        """Class in t_bc of (sum b_vec) (x) c_idx."""
        return t_bc.quot.project_vec({i * dim_c + c_idx: v for i, v in b_vec.items()})

    def cls_x(bc_vec, b_vec):
        """Class in the carrier of (element of t_bc) (x) (sum b_vec)."""
        amb = {}
        for u, uv in bc_vec.items():
            _vadd_at(field, amb, b_vec, uv, u * dim_b, 1)
        return t_bcb.quot.project_vec(amb)

    # Comultiplication: (b (x) c_(1) (x) 1) (x)_X (1 (x) c_(2) (x) b').
    comul_rows = []
    counit_rows = []
    coact_rows = []
    eps_phi = c.counit_mat @ varphi
    for idx in t_bcb.quot.rep_columns:
        comul_row = {}
        counit_row = {}
        coact_row = {}
        # Class s of the carrier lifts to (class u of t_bc) (x) e_l, and class u
        # to e_(b_i) (x) e_(c_j).
        u, l = divmod(idx, dim_b)
        b_i, c_j = divmod(t_bc.quot.rep_columns[u], dim_c)
        # counit: b * varphi(counit(c)) * b'
        for t, v in eps_phi.rows[c_j].items():
            _vadd(field, counit_row, b_alg.mul_vec(b_alg.table[b_i][t], b_alg.basis_vec(l)), v)
        # comultiplication and coaction share the expansion of comul(c).
        for pair, w in c.comul_lift.rows[c_j].items():
            c1, c2 = divmod(pair, dim_c)
            z1 = cls_x(cls_bc({b_i: field.one}, c1), b_alg.unit)
            z2 = cls_x(cls_bc(b_alg.unit, c2), {l: field.one})
            for p1, v1 in z1.items():
                _vadd_at(field, comul_row, z2, field.mul(w, v1), p1 * x_dim, 1)
            # coaction: (b (x) c1 (x) 1) (x)_k phi(c2) . b', the product
            # taken in the right B-module structure of D
            d_vec = {}
            for t, pv in phi.rows[c2].items():
                _vadd(field, d_vec, d.carrier.right_act[l].rows[t], pv)
            for p1, v1 in z1.items():
                _vadd_at(field, coact_row, d_vec, field.mul(w, v1), p1 * d.dim, 1)
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
