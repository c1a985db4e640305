import os

import pytest

from proofbench.checker import check_proof
from proofbench.corpus import load_corpus, write_manifest
from proofbench.generator import generate_corpus
from proofbench import loop, models
from proofbench.harness import ExperimentSpec, run_library
from proofbench.loop import (
    ClausalCache, LoopConfig, LoopState, assemble_problem, fixpoint_report,
    rank_eligible, refresh_features, run_loop,
)

from helpers import index_of, read_stream

MIXED30 = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "corpora", "mixed30")
# rungs of one and two premises prune needed ones, so countermodels are
# stored and each theorem is attempted at several rungs per iteration
PRUNING_CONFIG = LoopConfig(axiom_ladder=(1, 2, 4), max_depth=6)


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
    cache = ClausalCache()
    for name, solved in state.solved.items():
        i = index_of(corpus, name)
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
    proofs = read_stream(os.path.join(run_dir, "proofs.txt"))
    assert len(proofs) == len(results["solved"]["learning"])
    # artifacts live per configuration only
    assert sorted(os.listdir(str(tmp_path / "run"))) == [
        "config.json", "learning", "report.json", "report.txt", "results.jsonl"]


def test_feature_table_extended_per_model_matches_fresh_vectors():
    corpus = load_corpus(MIXED30)
    models = list(run_loop(corpus, PRUNING_CONFIG).store)
    assert len(models) >= 2
    state = LoopState()
    refresh_features(state, corpus, PRUNING_CONFIG)
    for m in models:
        state.store.add(m)
        table = refresh_features(state, corpus, PRUNING_CONFIG)
        for item in corpus.items:
            fresh = loop.item_features(item, PRUNING_CONFIG, state.store)
            assert list(table[item.name].items()) == list(fresh.items())
    assert any(f.startswith("MOD:") for vec in table.values() for f in vec)


def test_each_theorem_ranked_once_per_iteration(monkeypatch):
    corpus = load_corpus(MIXED30)
    ranked = []
    real = loop.rank_eligible

    def counted(item, eligible, state, config):
        ranked.append((item.name, state.iterations_run + 1))
        return real(item, eligible, state, config)

    monkeypatch.setattr(loop, "rank_eligible", counted)
    state = run_loop(corpus, PRUNING_CONFIG)
    given: dict = {}
    for a in state.attempts:
        given.setdefault((a.item, a.iteration), []).append(a.premises_given)
    assert sorted(ranked) == sorted(given)
    assert state.iterations_run >= 2
    assert any(len(rungs) > 1 for rungs in given.values())
    for rungs in given.values():
        for smaller, larger in zip(rungs, rungs[1:]):
            assert larger[:len(smaller)] == smaller


def _jaccard_reference(item, eligible, features):
    """Cold-start order by brute force: every eligible name's Jaccard
    overlap of SYM: sets with the item, ties latest first."""
    def syms(name):
        return {f for f in features[name] if f.startswith("SYM:")}

    query = syms(item.name)

    def overlap(name):
        other = syms(name)
        if not query or not other:
            return 0.0
        common = len(query & other)
        return common / (len(query) + len(other) - common)

    latest_first = [p.name for p in reversed(eligible)]
    return sorted(latest_first, key=overlap, reverse=True)


def _cold_start_orders_match(corpus):
    config = LoopConfig()
    state = LoopState()
    features = refresh_features(state, corpus, config)
    assert state.model.total_examples == 0
    for i, item in enumerate(corpus.items):
        eligible = corpus.eligible(i)
        assert rank_eligible(item, eligible, state, config) == \
            _jaccard_reference(item, eligible, features), item.name


def test_cold_start_ranking_matches_brute_force_jaccard(tmp_path):
    _cold_start_orders_match(load_corpus(MIXED30))
    # ties in overlap, names sharing nothing, equality as a symbol, and
    # items with no SYM: features at all
    _cold_start_orders_match(_write_corpus(tmp_path, [
        ("none0", "axiom", "$true", []),
        ("a", "axiom", "p(c)", []),
        ("b", "axiom", "~p(c)", []),
        ("c", "axiom", "q(d)", []),
        ("d", "axiom", "p(c) | q(d)", []),
        ("e", "axiom", "c = d", []),
        ("none1", "axiom", "$false | $true", []),
        ("f", "axiom", "p(d) & q(c)", []),
        ("t1", "conjecture", "p(c) & q(d)", []),
        ("t2", "conjecture", "$true", []),
        ("t3", "conjecture", "c = d | r(e)", []),
    ]))


def test_mod_columns_walk_each_formula_once_per_refresh(monkeypatch, tmp_path):
    # the signature walk is per formula, not per (formula, model) pair
    walks = []          # (signature walks, models evaluated) per call
    real_symbols = models.symbols_of
    real_semantic = loop.semantic_features
    calls = [0]

    def counted_symbols(f):
        calls[0] += 1
        return real_symbols(f)

    def counted_semantic(f, store, start=0):
        before = calls[0]
        vec = real_semantic(f, store, start)
        walks.append((calls[0] - before, len(store) - start))
        return vec

    monkeypatch.setattr(models, "symbols_of", counted_symbols)
    monkeypatch.setattr(loop, "semantic_features", counted_semantic)
    run_library(ExperimentSpec(
        mode="library", corpus=MIXED30, out_dir=str(tmp_path / "run"),
        loop=PRUNING_CONFIG, baseline=False))
    assert max(batch for _w, batch in walks) > 1
    assert all(w == 1 for w, _batch in walks)
