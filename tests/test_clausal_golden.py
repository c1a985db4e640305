"""The clausifier's exact output, locked against a recorded file.

Clause ids, skolem and definitional names and literal order feed every
proof, feature and benchmark digest, so `cnf`'s output is a contract.
`golden/clausal.json` holds the sha256 of `cnf`'s output (each clause's
id and printed literals, and the equality flag) in both polarities at
definitional thresholds 2 and 64, for: every formula of
`corpora/mixed30`; every formula each generator family writes at a
fixed size; and the seeded random formulas that `cnf` is checked
against the reference pipeline on, in blocks of 100.  The reference
pipeline shares the distributor and the printer with `cnf`, so only a
recorded file catches a name or text that drifts on both sides at once.

Re-record (only for a deliberate change of the clausal form) with
`PYTHONPATH=src python3 tests/test_clausal_golden.py --record`.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from proofbench.clausify import cnf  # noqa: E402
from proofbench.generator import generate_corpus  # noqa: E402
from proofbench.parser import parse_problem_file, print_literal  # noqa: E402

from helpers import seeded_random_formulas  # noqa: E402

GOLDEN = os.path.join(HERE, "golden", "clausal.json")
MIXED30 = os.path.join(os.path.dirname(HERE), "corpora", "mixed30")
FAMILY_SIZES = {"chain": 12, "group": 8, "mixed": 12, "neardup": 10}
BLOCK = 100


def _digest(named_formulas) -> str:
    """sha256 of the clausal forms of (name, formula) pairs, in order."""
    lines = []
    for name, f in named_formulas:
        for negate in (False, True):
            for threshold in (2, 64):
                form = cnf(f, name, threshold, negate)
                lines.append(f"{name} {negate} {threshold} {form.equality}")
                lines += [f"{c.clause_id}: " + " | ".join(
                    print_literal(l) for l in c.literals) for c in form.clauses]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _files(root: str, tag: str) -> dict:
    """One digest per `.p` file under `root`, keyed `tag/relative path`."""
    out = {}
    for dirpath, dirs, files in os.walk(root):
        dirs.sort()
        for fn in sorted(files):
            if fn.endswith(".p"):
                path = os.path.join(dirpath, fn)
                formulas = parse_problem_file(path).formulas
                key = f"{tag}/{os.path.relpath(path, root)}".replace(os.sep, "/")
                out[key] = _digest((af.name, af.formula) for af in formulas)
    return out


def digests(tmp_dir: str) -> dict:
    out = _files(MIXED30, "mixed30")
    for family, size in FAMILY_SIZES.items():
        root = os.path.join(tmp_dir, family)
        generate_corpus(family, size, root, verify=False)
        out.update(_files(root, family))
    formulas = seeded_random_formulas()
    for start in range(0, len(formulas), BLOCK):
        block = formulas[start:start + BLOCK]
        out[f"random/{start:04d}"] = _digest(
            (f"r{start + i}", f) for i, f in enumerate(block))
    return out


def test_clausal_forms_match_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = digests(str(tmp_path))
    assert sorted(got) == sorted(golden)
    assert [k for k in golden if got[k] != golden[k]] == []


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_clausal_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        data = digests(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
