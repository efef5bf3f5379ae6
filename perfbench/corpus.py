"""The benchmark's workspace corpus, and what theory says about it.

`python3 perfbench/corpus.py` rewrites every file under perfbench/workspaces/
byte for byte; `run.py` refuses to measure when the committed files differ
from what this module generates.  The Q and F_5 cli workspaces hold the same
objects.  Next to each workspace this module models the objects by hand:
carrier dims from closed forms and morphism endpoints up to the structural
equalities the program uses (for instance, the trivial coring over k is the
unit coring).  The output checks and the monoidal instance counts are computed
from this model, never from the program.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKSPACE_DIR = HERE / "workspaces"

Q = {"kind": "rationals"}
F5 = {"kind": "prime", "p": 5}

C2_TABLE = [[0, 1], [1, 0]]
K4_TABLE = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]

ALGEBRAS = {
    "k": {"fixture": {"kind": "ground"}},
    "dual": {"fixture": {"kind": "dual_numbers"}},
    "k4": {"fixture": {"kind": "group_algebra", "table": K4_TABLE}},
}
ALGEBRA_DIMS = {"k": 1, "dual": 2, "k4": 4}


class CoringModel:
    """A coring as theory sees it: carrier dim, base algebra, structural key.

    Two models with the same `key` are the same coring for the program's
    structural equality (the endpoint test of composition).
    """

    def __init__(self, key, dim, base):
        self.key = key
        self.dim = dim
        self.base = base


def unit_model():
    return CoringModel("trivial(k)", 1, "k")


def coring_model(spec):
    """Closed-form carrier dim and base of a coring fixture."""
    fx = spec["fixture"]
    kind = fx["kind"]
    if kind == "unit":
        return unit_model()
    if kind == "trivial":
        a = fx["algebra"]
        return CoringModel(f"trivial({a})", ALGEBRA_DIMS[a], a)
    if kind == "matrix_coalgebra":
        n = fx["n"]
        return CoringModel(f"matrix({n})", n * n, "k")
    if kind == "grouplike":
        return CoringModel(f"grouplike({fx['table']})", len(fx["table"]), "k")
    if kind == "sweedler":
        # A (x)_B A with B = k: dim A squared, over A.
        a = fx["target"]
        assert fx["source"] == "k"
        return CoringModel(f"sweedler({a})", ALGEBRA_DIMS[a] ** 2, a)
    raise ValueError(kind)


def endpoints(corings, spec):
    """(source key, target key) of a morphism spec, by theory."""
    if "fixture" not in spec:
        return corings[spec["source"]].key, corings[spec["target"]].key
    fx = spec["fixture"]
    kind = fx["kind"]
    if kind == "trivial":
        return f"trivial({fx['source']})", f"trivial({fx['target']})"
    if kind == "grouplike":
        return corings[fx["source"]].key, corings[fx["target"]].key
    c = corings[fx["coring"]]
    if kind == "identity":
        return c.key, c.key
    if kind == "to-unit":
        return c.key, unit_model().key
    # to-trivial (ext) and counit (corings) both land in the trivial coring
    # over the base algebra.
    return c.key, f"trivial({c.base})"


def extension_model(corings, spec):
    """(coring, extending coring) models of an extension fixture."""
    fx = spec["fixture"]
    c = corings[fx["coring"]]
    if fx["kind"] == "regular":
        return c, c
    if fx["kind"] == "unit":
        return c, unit_model()
    return c, CoringModel(f"trivial({c.base})", ALGEBRA_DIMS[c.base], c.base)


def _fix(kind, **kw):
    return {"fixture": {"kind": kind, **kw}}


def _morph(kind, fixture, **kw):
    return {"kind": kind, "fixture": {"kind": fixture, **kw}}


# The ROADMAP corpus: every cli command of the cli workloads runs on it.
CLI_CORINGS = {
    "unit": _fix("unit"),
    "dual_regular": _fix("trivial", algebra="dual"),
    "m2": _fix("matrix_coalgebra", n=2),
    "m3": _fix("matrix_coalgebra", n=3),
    "c2": _fix("grouplike", table=C2_TABLE),
    "sw": _fix("sweedler", source="k", target="k4", map=[[1, 0, 0, 0]]),
}
CLI_EXTENSIONS = {
    "regular_dual": _fix("regular", coring="dual_regular"),
    "unit_m2": _fix("unit", coring="m2"),
}
CLI_MORPHISMS = {
    "id_m2": _morph("ext", "identity", coring="m2"),
    "to_unit_m2": _morph("ext", "to-unit", coring="m2"),
    "id_dual": _morph("ext", "identity", coring="dual_regular"),
    "to_trivial_dual": _morph("ext", "to-trivial", coring="dual_regular"),
    "cid_m2": _morph("corings", "identity", coring="m2"),
    "counit_m2": _morph("corings", "counit", coring="m2"),
    "counit_sw": _morph("corings", "counit", coring="sw"),
}

# Two corings of equal size, so that every re-association triple (dim
# product 64) and every interchange square costs about the same and the seed,
# which picks the checked instances, barely moves the work.  No Sweedler
# coring (see the README).
MONOIDAL_CORINGS = {
    "m2": _fix("matrix_coalgebra", n=2),
    "g4": _fix("grouplike", table=K4_TABLE),
}


def _monoidal_morphisms():
    out = {}
    for name in MONOIDAL_CORINGS:
        out[f"id_{name}"] = _morph("ext", "identity", coring=name)
        out[f"to_unit_{name}"] = _morph("ext", "to-unit", coring=name)
        out[f"to_trivial_{name}"] = _morph("ext", "to-trivial", coring=name)
    for name in MONOIDAL_CORINGS:
        out[f"cid_{name}"] = _morph("corings", "identity", coring=name)
        out[f"counit_{name}"] = _morph("corings", "counit", coring=name)
    out["swap_g4"] = _morph("corings", "grouplike", source="g4", target="g4",
                            mapping=[1, 0, 3, 2])
    # e_11 -> g_1, e_22 -> g_2, off-diagonal units -> 0: a coalgebra map,
    # since each e_ii is sent to a grouplike and each e_ij (i != j) to 0.
    out["m2_to_g4"] = {
        "kind": "corings", "source": "m2", "target": "g4",
        "phi": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
        "alg_map": [[1]],
    }
    return out


MONOIDAL_MORPHISMS = _monoidal_morphisms()


def cli_workspace(field):
    return {
        "field": field,
        "algebras": ALGEBRAS,
        "corings": CLI_CORINGS,
        "extensions": CLI_EXTENSIONS,
        "morphisms": CLI_MORPHISMS,
    }


def monoidal_workspace(field):
    return {
        "field": field,
        "algebras": ALGEBRAS,
        "corings": MONOIDAL_CORINGS,
        "morphisms": MONOIDAL_MORPHISMS,
    }


def corrupted_matrix2(field):
    """matrix 2 written out by hand with the counit of e_11 set to 0.

    By hand: the base is k, so bilinearity holds for any linear map; the
    comultiplication is untouched, so coassociativity holds; and
    (C (x) counit)(comul e_11) = e_11 counit(e_11) + e_12 counit(e_21) = 0,
    which is not e_11.  So loading fails at right-counit, witness e_11.
    """
    labels = ["e_11", "e_12", "e_21", "e_22"]
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    comul = [[0] * 16 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for t in range(2):
                comul[i * 2 + j][(i * 2 + t) * 4 + (t * 2 + j)] = 1
    return {
        "field": field,
        "algebras": {"k": ALGEBRAS["k"]},
        "corings": {
            "m2_bad": {
                "base": "k",
                "carrier": {
                    "left": "k", "right": "k", "dim": 4,
                    "left_action": [ident], "right_action": [ident],
                    "labels": labels,
                },
                "comul_lift": comul,
                "counit": [[0], [0], [0], [1]],
            }
        },
    }


def unknown_key(field):
    return {"field": field, "algebras": {"k": ALGEBRAS["k"]}, "coalgebras": {}}


FILES = {
    "cli-q.json": cli_workspace(Q),
    "cli-f5.json": cli_workspace(F5),
    "monoidal-f5.json": monoidal_workspace(F5),
    "bad-matrix2-q.json": corrupted_matrix2(Q),
    "bad-matrix2-f5.json": corrupted_matrix2(F5),
    "unknown-key.json": unknown_key(F5),
}


def render(doc):
    return json.dumps(doc, indent=1) + "\n"


def stale_files():
    """Names of committed workspace files that differ from the generator."""
    stale = []
    for name, doc in FILES.items():
        path = WORKSPACE_DIR / name
        if not path.is_file() or path.read_text(encoding="utf-8") != render(doc):
            stale.append(name)
    return stale


def write_all():
    WORKSPACE_DIR.mkdir(exist_ok=True)
    for name, doc in FILES.items():
        (WORKSPACE_DIR / name).write_text(render(doc), encoding="utf-8")


if __name__ == "__main__":
    write_all()
    print(f"wrote {len(FILES)} files to {WORKSPACE_DIR}")
