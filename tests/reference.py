"""Earlier implementations kept as references for differential tests.

`ReferenceEliminator` keeps its basis fully reduced on every insert (the
eliminator that deferred back-substitution replaced).  `reference_present_tensor`
presents M (x)_B N from the relations of every basis element of B and
re-checks that each induced outer action preserves the relation subspace (the
builder that algebra-generator relations replaced).  Both must agree with the
library exactly.  `reference_delta_right_linearity` checks that the
comultiplication commutes with a new right action by inducing that action on
C (x)_A C by hand, descent check included (the routine that reading the action
off `tensor_over_alg(C, M)` replaced); swapped in for the library's, it must
leave every extension verdict unchanged.
"""

from corings.bimodules import Bimodule, PresentedTensor
from corings.errors import AlgebraMismatch, FieldMismatch
from corings.linalg import Mat, Subspace, _vadd, _vscale, quotient
from corings.verdict import Verdict


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

    def to_mat(self):
        piv = self.pivots()
        return Mat(self.field, len(piv), self.ncols, [dict(self.pivrows[c]) for c in piv])


class GuardFired(AssertionError):
    """An induced outer action did not preserve the relation subspace."""


def reference_present_tensor(m, n):
    """M (x)_B N from the relations of all basis triples, guard included.

    Every step runs on the reference code: the relations are eliminated by
    `ReferenceEliminator`, so no part of the library's new elimination or
    relation choice is trusted.
    """
    if m.field != n.field:
        raise FieldMismatch("tensor factors over different fields")
    if m.right_alg != n.left_alg:
        raise AlgebraMismatch("middle algebras differ")
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
    relations = Subspace(ambient_dim, elim.to_mat(), elim.pivots())
    quot = quotient(ambient_dim, relations)

    def induce(amb_row_image):
        rows = []
        for s in range(quot.dim):
            img = amb_row_image(quot.lift.rows[s])
            rows.append(quot.project_vec(img))
        return Mat(field, quot.dim, quot.dim, rows)

    def check_preserved(amb_row_image, what):
        for r in relations.basis.rows:
            if not relations.contains(amb_row_image(r)):
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

    result = Bimodule(m.left_alg, n.right_alg, quot.dim, left_mats, right_mats)
    return PresentedTensor(m, n, over, quot, result)


def reference_delta_right_linearity(c, bimodule):
    """Right linearity of the comultiplication for the new right action."""
    field = c.field
    b_alg = bimodule.right_alg
    nd = c.dim
    induced = []
    for j in range(b_alg.dim):
        rows_b = bimodule.right_act[j].rows

        def img(vec, rows_b=rows_b):
            out = {}
            for idx, val in vec.items():
                i, t = divmod(idx, nd)
                _vadd(field, out, {i * nd + w: v for w, v in rows_b[t].items()}, val)
            return out

        for r in c.tens.relations.basis.rows:
            if not c.tens.relations.contains(img(r)):
                return Verdict.failed(
                    "delta-right-linear",
                    f"the right action of {b_alg.label(j)} on the second tensor leg "
                    f"is not defined on C (x)_A C",
                )
        mat_rows = [
            c.tens.quot.project_vec(img(c.tens.quot.lift.rows[s]))
            for s in range(c.tens.dim)
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
