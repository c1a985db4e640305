"""Checks of the benchmark's input generator.

    python3 -m pytest perfbench/test_gen.py
"""
from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
from proofbench.checker import check_proof  # noqa: E402
from proofbench.clausify import clausal_problem  # noqa: E402
from proofbench.corpus import load_corpus  # noqa: E402
from proofbench.fol import make_problem  # noqa: E402
from proofbench.parser import parse_problem_file  # noqa: E402
from proofbench.prover import COUNTER_SATISFIABLE, PROVED, Limits, prove  # noqa: E402

DEFAULT_SEED = 0
LIMITS = Limits(inference_budget=200000, max_depth=8)
CORPORA = (gen.library_search, gen.library_select)
PROBLEM_DIRS = (gen.challenge_batch, gen.guided_speedup)


def _assert_proves(cs, what: str) -> None:
    res = prove(cs, LIMITS)
    assert res.status == PROVED, f"{what}: {res.status}"
    assert check_proof(res.proof, cs), f"{what}: proof failed checking"


def _problems(root: str) -> list:
    return [parse_problem_file(os.path.join(root, fn))
            for fn in sorted(os.listdir(root)) if fn.endswith(".p")]


def test_corpus_theorems_follow_from_their_reference_premises(tmp_path):
    for make in CORPORA:
        root = str(tmp_path / make.__name__)
        make(root, DEFAULT_SEED)
        corpus = load_corpus(root)
        by_name = {item.name: item for item in corpus.items}
        for _i, item in corpus.theorems():
            premises = [by_name[r].as_axiom() for r in item.reference_premises]
            _assert_proves(clausal_problem(make_problem(premises + [item.as_conjecture()])),
                           item.name)


def test_every_standalone_problem_is_provable(tmp_path):
    for make in PROBLEM_DIRS:
        root = str(tmp_path / make.__name__)
        make(root, DEFAULT_SEED)
        for problem in _problems(root):
            _assert_proves(clausal_problem(problem), problem.conjecture.name)


def test_pruned_challenge_attempts_end_in_a_small_model(tmp_path):
    """The first rung sees four axioms; the model finder must answer fast."""
    root = str(tmp_path / "challenge")
    gen.challenge_batch(root, DEFAULT_SEED)
    for problem in _problems(root):
        axioms = [af for af in problem.formulas if af.role != "conjecture"]
        cs = clausal_problem(make_problem(axioms[:4] + [problem.conjecture]))
        res = prove(cs, LIMITS, model_max_domain=1)
        assert res.status == COUNTER_SATISFIABLE, problem.conjecture.name


def test_seed_changes_names_but_not_counts(tmp_path):
    for make in CORPORA + PROBLEM_DIRS:
        listings = []
        for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
            root = tmp_path / f"{make.__name__}{seed}"
            count = make(str(root), seed)
            listings.append((count, sorted(os.listdir(root)),
                             [(root / fn).read_text() for fn in sorted(os.listdir(root))]))
        (n0, files0, texts0), (n1, files1, texts1) = listings
        assert n0 == n1 and len(files0) == len(files1), make.__name__
        assert texts0 != texts1, f"{make.__name__} ignores its seed"
