"""The model finder's exact results, locked against a recorded file.

Countermodels are stored per attempt and their text feeds the run's
digests, so which model `find_model` returns is a contract, not only
whether it finds one.  `golden/models.json` holds, for seeded random
clause sets over constants, unary and binary functions, equality and
predicates of arity 0 to 2, the `model_to_text` that `find_model`
returned at domain caps 1, 2 and 3 (1 and 2 for sets with the binary
function), `null` where it found none, or the
`ResourceError` it raised.

Re-record (only for a deliberate change of the finder's search) with
`PYTHONPATH=src python3 tests/test_models_golden.py --record`.
"""
from __future__ import annotations

import json
import os
import random
import sys

from proofbench.fol import App, Atom, Eq, Literal, Var, make_clause
from proofbench.models import ResourceError, find_model, model_to_text

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "models.json")

PREDS = {"p": 1, "q": 2, "r": 0}
FUNCS = {"c": 0, "d": 0, "f": 1, "g": 2}


def _term(rng: random.Random, variables, depth: int):
    kind = rng.choice(["var", "var", "const", "fun"] if depth else ["var", "const"])
    if kind == "var":
        return Var(rng.choice(variables))
    if kind == "const":
        return App(rng.choice(["c", "d"]), ())
    sym = rng.choice(["f", "f", "g"])
    return App(sym, tuple(_term(rng, variables, depth - 1)
                          for _ in range(FUNCS[sym])))


def _literal(rng: random.Random, variables, symbols) -> Literal:
    if rng.random() < 0.2:
        atom = Eq(_term(rng, variables, 1), _term(rng, variables, 1))
    else:
        pred = rng.choice(symbols)
        atom = Atom(pred, tuple(_term(rng, variables, 1)
                                for _ in range(PREDS[pred])))
    return Literal(rng.random() < 0.5, atom)


def random_clause_set(rng: random.Random, distinct: bool) -> list:
    """1-6 clauses of width 1-3 over a random share of the signature;
    with `distinct`, after unit clauses that make c, d and e distinct, so
    that no model has fewer than three elements."""
    symbols = rng.sample(sorted(PREDS), rng.randint(1, len(PREDS)))
    out = []
    if distinct:
        for i, (a, b) in enumerate([("c", "d"), ("c", "e"), ("d", "e")]):
            atom = Eq(App(a, ()), App(b, ()))
            out.append(make_clause([Literal(False, atom)], f"ne{i}", f"ne{i}_0"))
    for i in range(rng.randint(1, 6)):
        variables = ["X", "Y", "Z"][:rng.randint(1, 3)]
        lits = [_literal(rng, variables, symbols) for _ in range(rng.randint(1, 3))]
        out.append(make_clause(lits, origin=f"ax{i}", clause_id=f"ax{i}_0"))
    return out


def _wide_set() -> list:
    # unsatisfiable at domain 1; its grounding passes the guard at domain 2
    wide = Atom("w", tuple(Var(f"X{i}") for i in range(20)))
    ground = Atom("w", tuple(App("c", ()) for _ in range(20)))
    return [make_clause([Literal(True, wide)], "w0", "w0_0"),
            make_clause([Literal(False, ground)], "w1", "w1_0")]


def _result(clauses, cap: int):
    try:
        m = find_model(clauses, cap)
    except ResourceError as exc:
        return f"ResourceError: {exc}"
    if m is None:
        return None
    m.provenance = f"cap{cap}"
    return model_to_text(m)


def _caps(clauses) -> tuple:
    # a domain-3 table of g has 3^9 fillings, and chronological
    # backtracking may try them all before an unsatisfiable set fails
    uses_g = any(s[0] == "g" for c in clauses for s in c.signature)
    return (1, 2) if uses_g else (1, 2, 3)


def results() -> dict:
    rng = random.Random(29)
    sets = [random_clause_set(rng, i % 3 == 2) for i in range(120)]
    out = {f"random{i}:cap{cap}": _result(clauses, cap)
           for i, clauses in enumerate(sets) for cap in _caps(clauses)}
    out["wide:cap2"] = _result(_wide_set(), 2)
    return out


def test_find_model_matches_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert results() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_models_golden.py --record")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(results(), fh, indent=1, sort_keys=True)
        fh.write("\n")
