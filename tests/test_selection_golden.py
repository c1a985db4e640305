"""Premise selection's exact results, locked against a recorded file.

Each library configuration ranks premises (recency, cold-start symbol
overlap, then the naive-Bayes learner) and extends its feature table by
countermodel columns as models are stored.  Which premises each attempt
is given, the final feature table and the final learner are a contract:
they decide every proof and model a run stores.  `golden/selection.json`
holds, for `corpora/mixed30` under a pruning ladder and for a generated
library of a few hundred items, per configuration: the sha256 of the
final feature table, extended to the final model store and written as
`helpers.feature_table_text` writes it (the key `features.cache`), and
of `learner/final.json`, and every attempt's `(iteration, item, rung,
premises_given)`.

Re-record (only for a deliberate change of selection) with
`PYTHONPATH=src python3 tests/test_selection_golden.py --record`.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import tempfile
from unittest import mock

from proofbench import harness
from proofbench.corpus import write_manifest
from proofbench.harness import ExperimentSpec, run_library
from proofbench.loop import LoopConfig, refresh_features

from helpers import feature_table_text

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "selection.json")
MIXED30 = os.path.join(HERE, os.pardir, "corpora", "mixed30")

# the ladders of tests/test_loop.py (PRUNING_CONFIG) and of a library
# selection run: small rungs prune needed premises, so models are stored
PRUNING_CONFIG = LoopConfig(axiom_ladder=(1, 2, 4), max_depth=6)
LIBRARY_CONFIG = LoopConfig(axiom_ladder=(4, 8, 16), attempt_budgets=(500,))


def write_library(root: str) -> None:
    """379 items: 40 short chains over disjoint signatures, three
    wide theorems needing ten premises and two needing eighteen (more
    than the top rung, so the learner ranks them in a later iteration),
    equational items, an item whose only symbol is `=` and a symbol-free
    one, in a seeded interleaving.  It opens with a theorem proved from
    a fact that shares no symbol with it, and ends with a second such
    theorem that eighteen decoy rules keep from the fact until the
    learner has the first proof."""
    rng = random.Random(17)
    streams = []
    for f in (f"f{j:02d}" for j in range(40)):
        stream = [(f"{f}_base", "axiom", f"{f}p0({f}c)", [])]
        for k in range(1, 4):
            prev = f"{f}_th{k - 1}" if k > 1 else f"{f}_base"
            stream.append((f"{f}_rule{k}", "axiom",
                           f"![X]: ({f}p{k - 1}(X) => {f}p{k}(X))", []))
            stream.append((f"{f}_th{k}", "conjecture", f"{f}p{k}({f}c)",
                           [prev, f"{f}_rule{k}"]))
        streams.append(stream)
    for w, width in (("wa", 9), ("wb", 9), ("wc", 9), ("wx", 17), ("wy", 17)):
        facts = [(f"{w}_f{i}", "axiom", f"{w}a{i}({w}c)", [])
                 for i in range(width)]
        body = " & ".join(f"{w}a{i}(X)" for i in range(width))
        rule = (f"{w}_rule", "axiom", f"![X]: (({body}) => {w}goal(X))", [])
        streams.append([rule] + facts + [
            (f"{w}_th", "conjecture", f"{w}goal({w}c)",
             [rule[0]] + [name for name, *_ in facts])])
    streams.append([("eq_ident", "axiom", "![X]: mult(e,X) = X", []),
                    ("eq_th1", "conjecture", "mult(e,ec) = ec", ["eq_ident"]),
                    ("eq_th2", "conjecture", "mult(e,mult(e,ec)) = mult(e,ec)",
                     ["eq_ident"])])
    streams.append([("refl", "axiom", "![X]: X = X", []),
                    ("truth", "axiom", "$true", []),
                    ("refl_th", "conjecture", "![X]: X = X", ["refl"])])
    streams.append([(f"hdecoy{i}", "axiom", f"![X]: (hd{i}(X) => hgoal(X))", [])
                    for i in range(18)])
    entries = [("hfact", "axiom", "![X]: hmid(X)", []),
               ("hrule", "axiom", "![X]: (hmid(X) => hgoal(X))", []),
               ("ha_th", "conjecture", "hgoal(ha)", ["hfact", "hrule"])]
    while streams:
        stream = rng.choice(streams)
        entries.append(stream.pop(0))
        if not stream:
            streams.remove(stream)
    entries.append(("hb_th", "conjecture", "hgoal(hb)", ["hfact", "hrule"]))
    records = []
    for name, role, formula, refs in entries:
        with open(os.path.join(root, f"{name}.p"), "w", encoding="utf-8") as fh:
            fh.write(f"fof({name}, {role}, {formula}).\n")
        records.append((name, f"{name}.p", refs))
    write_manifest(root, records)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _selection(corpus: str, config: LoopConfig, out: str) -> dict:
    final = {}          # config name -> its final feature table
    run_loop = harness.run_loop

    def capture(corpus, cfg, writer, name, build):
        state = run_loop(corpus, cfg, writer, name, build)
        final[name] = refresh_features(state, corpus, cfg)
        return state

    with mock.patch.object(harness, "run_loop", capture):
        run_library(ExperimentSpec(mode="library", corpus=corpus, out_dir=out,
                                   loop=config, baseline=True))
    blob = {}
    for name in ("learning", "recency"):
        sub = os.path.join(out, name)
        with open(os.path.join(sub, "results.jsonl"), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        table = feature_table_text(final[name]).encode("utf-8")
        blob[name] = {
            "features.cache": hashlib.sha256(table).hexdigest(),
            "learner/final.json": _sha256(os.path.join(sub, "learner",
                                                       "final.json")),
            "attempts": [[r["iteration"], r["item"], r["rung"],
                          r["premises_given"]] for r in records],
        }
    return blob


def results(root: str) -> dict:
    library = os.path.join(root, "library")
    os.makedirs(library)
    write_library(library)
    return {"mixed30": _selection(MIXED30, PRUNING_CONFIG,
                                  os.path.join(root, "mixed30-run")),
            "library": _selection(library, LIBRARY_CONFIG,
                                  os.path.join(root, "library-run"))}


def test_selection_matches_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = results(str(tmp_path))
    for corpus in golden:
        for config in golden[corpus]:
            expected, actual = golden[corpus][config], got[corpus][config]
            assert actual["attempts"] == expected["attempts"], (corpus, config)
            assert actual == expected, (corpus, config)
    assert got == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_selection_golden.py --record")
    with tempfile.TemporaryDirectory() as root:
        blob = results(root)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True)
        fh.write("\n")
