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
premises_given)`.  It holds as well every attempt's `(config,
iteration, item, rung, premises_given, status, inferences)` of a
challenge batch, learning and fixed order, and of a traintest run on
`corpora/mixed30` with its split: a learner that ranks one problem's
axioms from the proofs of earlier ones, and one frozen on a train split.

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
from dataclasses import replace
from unittest import mock

from proofbench import harness
from proofbench.corpus import write_manifest
from proofbench.generator import generate_corpus
from proofbench.harness import (
    ExperimentSpec, run_challenge, run_library, run_traintest,
)
from proofbench.loop import LoopConfig, refresh_features

from helpers import feature_table_text

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "selection.json")
MIXED30 = os.path.join(HERE, os.pardir, "corpora", "mixed30")

# the ladders of tests/test_loop.py (PRUNING_CONFIG) and of a library
# selection run: small rungs prune needed premises, so models are stored
PRUNING_CONFIG = LoopConfig(axiom_ladder=(1, 2, 4), max_depth=6)
LIBRARY_CONFIG = LoopConfig(axiom_ladder=(4, 8, 16), attempt_budgets=(500,))
# the first rung proves a problem only from its five needed axioms, so
# only a learned ranking proves a neardup problem there; the shared
# budget runs out in the fixed-order run's last rung
CHALLENGE_CONFIG = LoopConfig(axiom_ladder=(6, 16), attempt_budgets=(2000,),
                              total_inference_budget=900)
# the shared budget runs out in the last rung
TRAINTEST_CONFIG = LoopConfig(axiom_ladder=(1, 2, 4, 8), max_depth=6,
                              total_inference_budget=25)


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


def write_challenge(root: str) -> None:
    """A neardup batch of 20 problems led by two problems, `first_a` of
    kind a and `first_b` of kind b, each listing first the five axioms
    its proof needs.  File order proves these two at the first rung, and
    no other problem.  Once the learner has `first_a`'s proof, it ranks
    kind a's axioms first for every later problem, `first_b` included, so
    learning proves every kind a problem at the first rung."""
    generate_corpus("neardup", 20, root, verify=False)
    with open(os.path.join(root, "prob_000.p"), encoding="utf-8") as fh:
        rules = fh.read().splitlines()[:9]
    for kind, route in (("a", 1), ("b", 2)):
        c = f"cx_{kind}"
        own = [rules[0 if kind == "a" else 1], rules[3 if kind == "a" else 4],
               rules[5 + route],
               f"fof(route_fact, axiom, route_{route}({c})).",
               f"fof(flag_fact, axiom, flag_{kind}({c}))."]
        lines = own + [r for r in rules if r not in own] + [
            f"fof(goal_{kind}, conjecture, top({c}))."]
        with open(os.path.join(root, f"first_{kind}.p"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _attempts(out: str) -> dict:
    """Every attempt's (config, iteration, item, rung, premises_given,
    status, inferences) in the results.jsonl of run directory `out`."""
    with open(os.path.join(out, "results.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return {"attempts": [[r["config"], r["iteration"], r["item"], r["rung"],
                          r["premises_given"], r["status"], r["inferences"]]
                         for r in records]}


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
    problems = os.path.join(root, "neardup")
    write_challenge(problems)
    challenge = {}
    for name, learning in (("learning", True), ("fixed-order", False)):
        out = os.path.join(root, f"challenge-{name}")
        run_challenge(ExperimentSpec(
            mode="challenge", problems=problems, out_dir=out,
            loop=replace(CHALLENGE_CONFIG, learning=learning)))
        challenge[name] = _attempts(out)
    traintest = os.path.join(root, "traintest-run")
    run_traintest(ExperimentSpec(mode="traintest", corpus=MIXED30,
                                 split=os.path.join(MIXED30, "split.txt"),
                                 out_dir=traintest, loop=TRAINTEST_CONFIG))
    return {"mixed30": _selection(MIXED30, PRUNING_CONFIG,
                                  os.path.join(root, "mixed30-run")),
            "library": _selection(library, LIBRARY_CONFIG,
                                  os.path.join(root, "library-run")),
            "challenge": challenge,
            "traintest": {"traintest": _attempts(traintest)}}


def test_selection_matches_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = results(str(tmp_path))
    for run in golden:
        for config in golden[run]:
            expected, actual = golden[run][config], got[run][config]
            assert actual["attempts"] == expected["attempts"], (run, config)
            assert actual == expected, (run, config)
    assert got == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_selection_golden.py --record")
    with tempfile.TemporaryDirectory() as root:
        blob = results(root)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True)
        fh.write("\n")
