import os

import pytest

from proofbench.checker import check_proof
from proofbench.corpus import load_corpus, write_manifest
from proofbench.generator import generate_corpus
from proofbench.harness import ExperimentSpec, run_library
from proofbench.loop import (
    ClausalCache, LoopConfig, assemble_problem, fixpoint_report, run_loop,
)


def _write_corpus(root, entries):
    records = []
    for name, role, formula, refs in entries:
        with open(os.path.join(root, f"{name}.p"), "w", encoding="utf-8") as fh:
            fh.write(f"fof({name}, {role}, {formula}).\n")
        records.append((name, f"{name}.p", refs))
    write_manifest(str(root), records)
    return load_corpus(str(root))


SMALL_CONFIG = LoopConfig(axiom_ladder=(2, 4), attempt_budgets=(300, 600),
                          max_depth=6, max_iterations=4)


def test_tautology_solved_first_iteration(tmp_path):
    corpus = _write_corpus(tmp_path, [
        ("ax", "axiom", "p(c)", []),
        ("t", "conjecture", "![X]: (q(X) => q(X))", []),
    ])
    state = run_loop(corpus, SMALL_CONFIG)
    assert "t" in state.solved
    assert state.solved["t"].iteration == 1


def test_config_validation():
    with pytest.raises(ValueError):
        LoopConfig(axiom_ladder=())
    with pytest.raises(ValueError):
        LoopConfig(axiom_ladder=(8, 4))
    with pytest.raises(ValueError):
        LoopConfig(attempt_budgets=(100, 100))


def test_symbol_match_brings_premise_in_by_iteration_two(tmp_path):
    # item b needs exactly item a's theorem; a's symbols match b's.
    # distractors fill the smallest rung for a recency ranking, but symbol
    # overlap ranks a first from the start.
    entries = [("ax_a", "axiom", "![X]: (s0(X) => s1(X))", []),
               ("base", "axiom", "s0(k)", [])]
    for i in range(6):
        entries.append((f"pad{i}", "axiom", f"pp{i}(m{i})", []))
    entries.append(("a", "conjecture", "s1(k)", ["base", "ax_a"]))
    for i in range(6, 12):
        entries.append((f"pad{i}", "axiom", f"pp{i}(m{i})", []))
    entries.append(("rule_b", "axiom", "![X]: (s1(X) => s2(X))", []))
    for i in range(12, 18):
        entries.append((f"pad{i}", "axiom", f"pp{i}(m{i})", []))
    entries.append(("b", "conjecture", "s2(k)", ["a", "rule_b"]))
    corpus = _write_corpus(tmp_path, entries)
    state = run_loop(corpus, SMALL_CONFIG)
    assert "a" in state.solved and "b" in state.solved
    assert state.solved["b"].iteration <= 2
    assert set(state.solved["b"].premises_used) == {"a", "rule_b"}


def test_solved_items_never_revert_and_proofs_check(tmp_path):
    generate_corpus("mixed", 30, 0, str(tmp_path / "c"), verify=False)
    corpus = load_corpus(str(tmp_path / "c"))
    cfg = LoopConfig(axiom_ladder=(4, 8, 16), attempt_budgets=(500, 1000, 2000),
                     max_depth=8, max_iterations=6,
                     total_inference_budget=60000)
    state = run_loop(corpus, cfg)
    assert state.solved
    by_name = {item.name: item for item in corpus.items}
    cache = ClausalCache(cfg.definitional_threshold)
    for name, solved in state.solved.items():
        i = corpus.index_of(name)
        eligible = {p.name for p in corpus.eligible(i)}
        assert set(solved.premises_used) <= eligible
        premise_items = [p for p in corpus.eligible(i)
                         if p.name in set(solved.premises_given)]
        cs = assemble_problem(by_name[name], premise_items, cache)
        assert check_proof(solved.proof, cs)


def test_budget_accounting(tmp_path):
    generate_corpus("mixed", 30, 0, str(tmp_path / "c"), verify=False)
    corpus = load_corpus(str(tmp_path / "c"))
    cfg = LoopConfig(axiom_ladder=(4, 8), attempt_budgets=(200, 400),
                     max_depth=8, max_iterations=3,
                     total_inference_budget=1500, learning=False)
    state = run_loop(corpus, cfg)
    assert state.inferences_used <= 1500
    assert state.inferences_used == sum(a.inferences for a in state.attempts)


def test_learning_beats_recency_on_mixed(tmp_path):
    generate_corpus("mixed", 30, 0, str(tmp_path / "c"), verify=False)
    corpus = load_corpus(str(tmp_path / "c"))
    kw = dict(axiom_ladder=(4, 8, 16), attempt_budgets=(500, 1000, 2000),
              max_depth=8, max_iterations=6, total_inference_budget=60000)
    learn = run_loop(corpus, LoopConfig(**kw))
    recency = run_loop(corpus, LoopConfig(**kw, learning=False, semantic=False))
    assert len(learn.solved) >= len(recency.solved)


def test_countermodels_harvested_from_pruned_problems(tmp_path):
    # rung 1 prunes away the needed premise; the pruned set has a model
    entries = [("noise0", "axiom", "zz(w)", []),
               ("rule", "axiom", "![X]: (p0(X) => p1(X))", []),
               ("base", "axiom", "p0(c)", []),
               ("noise1", "axiom", "yy(w)", []),
               ("t", "conjecture", "p1(c)", ["base", "rule"])]
    corpus = _write_corpus(tmp_path, entries)
    cfg = LoopConfig(axiom_ladder=(1, 4), attempt_budgets=(300,), max_depth=6,
                     max_iterations=3, learning=False)
    state = run_loop(corpus, cfg)
    assert "t" in state.solved            # solved once the rung includes both
    assert len(state.store) >= 1          # pruned attempt left a countermodel


def test_fixpoint_report_shape(tmp_path):
    corpus = _write_corpus(tmp_path, [
        ("t", "conjecture", "![X]: (q(X) => q(X))", []),
    ])
    state = run_loop(corpus, SMALL_CONFIG)
    rep = fixpoint_report(state, corpus)
    assert rep["cumulative"] == {
        "proved": 1, "counter_satisfiable": 0,
        "timeout_or_inference_out": 0, "total": 1,
    }
    assert rep["iterations"][0]["proved"] == 1


def test_fixpoint_report_empty_state(tmp_path):
    (tmp_path / "e").mkdir()
    corpus = _write_corpus(tmp_path / "e", [])
    state = run_loop(corpus, SMALL_CONFIG)
    rep = fixpoint_report(state, corpus)
    assert rep["cumulative"] == {
        "proved": 0, "counter_satisfiable": 0,
        "timeout_or_inference_out": 0, "total": 0,
    }


def test_shortening_recount_matches_stored_proofs(tmp_path):
    generate_corpus("mixed", 30, 0, str(tmp_path / "c"), verify=False)
    corpus = load_corpus(str(tmp_path / "c"))
    cfg = LoopConfig(axiom_ladder=(4, 8, 16), attempt_budgets=(500, 1000, 2000),
                     max_depth=8, max_iterations=6)
    state = run_loop(corpus, cfg)
    rep = fixpoint_report(state, corpus)
    expected = []
    for _i, item in corpus.theorems():
        s = state.solved.get(item.name)
        if s and item.reference_premises and \
                len(s.premises_used) < len(item.reference_premises):
            expected.append(item.name)
    assert [s["item"] for s in rep["shortening"]] == expected
    assert any(s["item"] == "fa_th3" for s in rep["shortening"])


def test_deterministic_states(tmp_path):
    generate_corpus("mixed", 30, 0, str(tmp_path / "c"), verify=False)
    corpus = load_corpus(str(tmp_path / "c"))
    cfg = LoopConfig(axiom_ladder=(4, 8), attempt_budgets=(300, 600),
                     max_depth=8, max_iterations=3)
    s1 = run_loop(corpus, cfg)
    s2 = run_loop(corpus, cfg)
    assert s1.attempts == s2.attempts
    assert sorted(s1.solved) == sorted(s2.solved)
    assert s1.inferences_used == s2.inferences_used


def test_loop_with_guidance_stays_sound(tmp_path):
    generate_corpus("mixed", 30, 0, str(tmp_path / "c"), verify=False)
    corpus = load_corpus(str(tmp_path / "c"))
    cfg = LoopConfig(axiom_ladder=(4, 8, 16), attempt_budgets=(500, 1000, 2000),
                     max_depth=8, max_iterations=6, guidance=True)
    state = run_loop(corpus, cfg)
    assert state.solved
    s2 = run_loop(corpus, cfg)
    assert sorted(state.solved) == sorted(s2.solved)
    assert state.inferences_used == s2.inferences_used


def test_run_dir_layout(tmp_path):
    generate_corpus("chain", 7, 0, str(tmp_path / "c"), verify=False)
    results = run_library(ExperimentSpec(
        mode="library", corpus=str(tmp_path / "c"), out_dir=str(tmp_path / "run"),
        loop=SMALL_CONFIG, baseline=False))
    run_dir = str(tmp_path / "run" / "learning")
    assert os.path.exists(os.path.join(run_dir, "config.json"))
    assert os.path.exists(os.path.join(run_dir, "results.jsonl"))
    assert os.path.exists(os.path.join(run_dir, "learner", "final.json"))
    assert os.path.exists(os.path.join(run_dir, "features.cache"))
    proofs = os.listdir(os.path.join(run_dir, "proofs"))
    assert len(proofs) == len(results["solved"]["learning"])
    # artifacts live per configuration only
    assert sorted(os.listdir(str(tmp_path / "run"))) == [
        "config.json", "learning", "report.json", "report.txt", "results.jsonl"]
