import os
from collections import Counter
from dataclasses import replace
from functools import cached_property

import pytest

from proofbench.checker import check_proof
from proofbench.corpus import load_corpus, write_manifest
from proofbench.generator import generate_corpus
from proofbench import clausify, fol, learner, loop
from proofbench.harness import ExperimentSpec, run_challenge, run_library
from proofbench.learner import rank_premises
from proofbench.loop import (
    LoopConfig, LoopState, clause_set_builder, fixpoint_report, rank_eligible,
    refresh_features, retrain, run_loop,
)
from proofbench.models import FiniteModel
from proofbench.parser import parse_problem_dir
from proofbench.prover import PROVED

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



def test_builder_clausifies_each_content_key_once(tmp_path, monkeypatch):
    # `ax` and `goal` are one statement text, parsed once through the
    # directory's table; `f1` is an equal formula written with other spacing
    shared = "fof(ax, axiom, ![X]: (p(X) => q(X))).\n"
    goal = "fof(goal, conjecture, q(c)).\n"
    (tmp_path / "a.p").write_text(shared + "fof(f1, axiom, p(c)).\n" + goal)
    (tmp_path / "b.p").write_text(shared + "fof(f1, axiom,  p( c )).\n" + goal)
    problems = dict(parse_problem_dir(str(tmp_path)))
    a, b = problems["a"], problems["b"]
    assert a.by_name("ax") is b.by_name("ax") and a.conjecture is b.conjecture
    assert a.by_name("f1") == b.by_name("f1")
    assert a.by_name("f1") is not b.by_name("f1")
    calls = Counter()

    def counted_cnf(f, name, negate):
        calls[name, f, negate] += 1
        return clausify.cnf(f, name=name, negate=negate)
    given = []      # (statement, negated, form) of each of the builder's lookups
    lookups = []    # the builder's lookup
    assemble = loop.assemble_problem

    def recording(item, premise_items, form):
        lookups.append(form)

        def looked_up(af, negate):
            given.append((af, negate, form(af, negate)))
            return given[-1][2]
        return assemble(item, premise_items, looked_up)
    monkeypatch.setattr(loop, "cnf", counted_cnf)
    monkeypatch.setattr(loop, "assemble_problem", recording)
    build = clause_set_builder("challenge", problems.__getitem__)
    for pid in ("a", "b"):
        build(pid, ["ax", "f1"])
    # the second time round, every statement is one met before: its form
    # is found without hashing a formula
    hashed = []
    with monkeypatch.context() as m:
        for cls in (fol.Forall, fol.Atom):
            m.setattr(cls, "__hash__",
                      lambda self, real=cls.__hash__: hashed.append(self) or real(self))
        for pid in ("a", "b"):
            build(pid, ["ax", "f1"])
    assert hashed == []
    forms: dict = {}        # content key -> each form the builder gave for it
    for af, negate, got in given:
        forms.setdefault((af.name, af.formula, negate), []).append(got)
    assert len(forms) == 3 and set(calls) == set(forms)
    assert set(calls.values()) == {1}
    for key, got in forms.items():
        assert len(got) == 4 and all(g is got[0] for g in got), key
    # a statement met before, asked for its other polarity, is a new key
    ax = a.by_name("ax")
    negated = lookups[0](ax, True)
    assert negated is lookups[0](ax, True)
    assert negated is not forms["ax", ax.formula, False][0]
    assert calls["ax", ax.formula, True] == 1


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


class _ProofKeeper:
    """A run writer that keeps each stored proof in memory, by its name."""

    def __init__(self):
        self.proofs: dict = {}

    def store_proof(self, item, proof, premises_given) -> str:
        name = f"proofs.txt#{item}"
        self.proofs[name] = proof
        return name

    def store_model(self, item, model, premises_given) -> str:
        return ""

    def write(self, record) -> None:
        pass


def test_solved_items_never_revert_and_proofs_check(tmp_path):
    generate_corpus("mixed", 30, str(tmp_path / "c"), verify=False)
    corpus = load_corpus(str(tmp_path / "c"))
    cfg = LoopConfig(axiom_ladder=(4, 8, 16), attempt_budgets=(500, 1000, 2000),
                     max_depth=8, max_iterations=6,
                     total_inference_budget=60000)
    keeper = _ProofKeeper()
    state = run_loop(corpus, cfg, keeper)
    assert state.solved
    build = clause_set_builder("library", corpus)
    for name, solved in state.solved.items():
        i = index_of(corpus, name)
        eligible = {p.name for p in corpus.eligible(i)}
        assert set(solved.premises_used) <= eligible
        cs = build(name, solved.premises_given)
        assert check_proof(keeper.proofs[solved.proof_file], cs)


def test_solved_map_holds_each_items_proving_attempt():
    state = run_loop(load_corpus(MIXED30), PRUNING_CONFIG)
    proving = {a.item: a for a in state.attempts if a.status == PROVED}
    assert state.solved and sorted(state.solved) == sorted(proving)
    for name, record in state.solved.items():
        assert record is proving[name]
        assert record.status == PROVED


def test_budget_accounting(tmp_path):
    generate_corpus("mixed", 30, str(tmp_path / "c"), verify=False)
    corpus = load_corpus(str(tmp_path / "c"))
    cfg = LoopConfig(axiom_ladder=(4, 8), attempt_budgets=(200, 400),
                     max_depth=8, max_iterations=3,
                     total_inference_budget=1500, learning=False)
    state = run_loop(corpus, cfg)
    assert state.inferences_used <= 1500
    assert state.inferences_used == sum(a.inferences for a in state.attempts)


def test_an_empty_budget_stops_the_walk_before_the_next_attempt():
    corpus = load_corpus(MIXED30)
    cfg = LoopConfig(axiom_ladder=(1, 2, 4), max_depth=6, max_iterations=1,
                     learning=False)
    free = run_loop(corpus, cfg)
    assert (len(free.attempts), free.inferences_used, free.stopped_because) \
        == (35, 32002, "iteration cap")
    # a budget of exactly what the run spends stops it before the last two
    # attempts, which would have cost nothing
    spent = run_loop(corpus, replace(cfg, total_inference_budget=32002))
    assert spent.stopped_because == "budget exhausted"
    assert spent.attempts == free.attempts[:33]
    assert [(a.status, a.inferences) for a in free.attempts[33:]] \
        == [("counter_satisfiable", 0)] * 2
    none = run_loop(corpus, replace(cfg, total_inference_budget=0))
    assert (none.attempts, none.stopped_because) == ([], "budget exhausted")

    # an empty budget chooses no premises and builds no clause set
    def refuse(*_args):
        raise AssertionError("no attempt is made on an empty budget")

    state = LoopState()
    loop.walk_ladder([("t", None)], replace(cfg, total_inference_budget=0),
                     refuse, refuse, state, name="t")
    assert (state.attempts, state.stopped_because) == ([], "budget exhausted")


def test_learning_beats_recency_on_mixed(tmp_path):
    generate_corpus("mixed", 30, str(tmp_path / "c"), verify=False)
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
    generate_corpus("mixed", 30, str(tmp_path / "c"), verify=False)
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
    generate_corpus("mixed", 30, str(tmp_path / "c"), verify=False)
    corpus = load_corpus(str(tmp_path / "c"))
    cfg = LoopConfig(axiom_ladder=(4, 8), attempt_budgets=(300, 600),
                     max_depth=8, max_iterations=3)
    s1 = run_loop(corpus, cfg)
    s2 = run_loop(corpus, cfg)
    assert s1.attempts == s2.attempts
    assert sorted(s1.solved) == sorted(s2.solved)
    assert s1.inferences_used == s2.inferences_used


def test_loop_with_guidance_stays_sound(tmp_path):
    generate_corpus("mixed", 30, str(tmp_path / "c"), verify=False)
    corpus = load_corpus(str(tmp_path / "c"))
    cfg = LoopConfig(axiom_ladder=(4, 8, 16), attempt_budgets=(500, 1000, 2000),
                     max_depth=8, max_iterations=6, guidance=True)
    state = run_loop(corpus, cfg)
    assert state.solved
    s2 = run_loop(corpus, cfg)
    assert sorted(state.solved) == sorted(s2.solved)
    assert state.inferences_used == s2.inferences_used


def test_run_dir_layout(tmp_path):
    generate_corpus("chain", 7, str(tmp_path / "c"), verify=False)
    results = run_library(ExperimentSpec(
        mode="library", corpus=str(tmp_path / "c"), out_dir=str(tmp_path / "run"),
        loop=SMALL_CONFIG, baseline=False))
    run_dir = str(tmp_path / "run" / "learning")
    assert os.path.exists(os.path.join(run_dir, "config.json"))
    assert os.path.exists(os.path.join(run_dir, "results.jsonl"))
    assert os.path.exists(os.path.join(run_dir, "learner", "final.json"))
    assert not os.path.exists(os.path.join(run_dir, "features.cache"))
    proofs = read_stream(os.path.join(run_dir, "proofs.txt"))
    assert len(proofs) == len(results["solved"]["learning"])
    # records and artifacts live per configuration only
    assert sorted(os.listdir(str(tmp_path / "run"))) == [
        "config.json", "learning", "report.json", "report.txt"]


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
            fresh = loop.item_features(item, state.store,
                                       columns=range(len(state.store)))
            assert list(table[item.name].items()) == list(fresh.items())
    assert any(f.startswith("MOD:") for vec in table.values() for f in vec)


def test_mod_columns_reach_exactly_the_items_a_model_defines(tmp_path):
    corpus = _write_corpus(tmp_path, [
        ("none0", "axiom", "$true", []),
        ("refl", "axiom", "![X]: X = X", []),
        ("a", "axiom", "p(c)", []),
        ("b", "axiom", "![X]: (p(X) => q(X))", []),
        ("e", "axiom", "c = d", []),
        ("f", "axiom", "r(c,d)", []),
        ("g", "axiom", "q(f(c))", []),
        ("t1", "conjecture", "q(c)", []),
        ("t2", "conjecture", "~r(d,c) | p(d)", []),
    ])
    one, two = {(0,): 0, (1,): 1}, {(0,): 1, (1,): 0}
    batches = [
        [FiniteModel(1, {"c": {(): 0}}, {"p": {(0,): True}})],
        [FiniteModel(2, {"c": {(): 0}, "d": {(): 1}, "f": two},
                     {"p": {(0,): True, (1,): False},
                      "q": {(0,): False, (1,): True}}),
         # r at arity 1, where the corpus has it at arity 2
         FiniteModel(2, {"c": {(): 0}, "d": {(): 1}},
                     {"r": {(0,): True, (1,): False}})],
        # only symbols no item uses
        [FiniteModel(1, {"k": {(): 0}}, {"zz": {(0,): True}})],
        [FiniteModel(1, {}, {}),
         FiniteModel(2, {"c": {(): 1}, "d": {(): 0}, "f": one},
                     {"p": {(0, 0): True, (0, 1): False, (1, 0): False,
                            (1, 1): True},
                      "q": {(0,): True, (1,): True},
                      "r": {(0, 0): False, (0, 1): True, (1, 0): True,
                            (1, 1): False}})],
    ]
    state = LoopState()
    for batch in [[]] + batches + [[]]:
        for m in batch:
            assert state.store.add(m) is not None
        table = refresh_features(state, corpus, PRUNING_CONFIG)
        for item in corpus.items:
            fresh = loop.item_features(item, state.store,
                                       columns=range(len(state.store)))
            assert list(table[item.name].items()) == list(fresh.items()), \
                (item.name, len(state.store))

    def columns(name):
        return [f for f in table[name] if f.startswith("MOD:")]

    assert columns("none0") == [f"MOD:{i}:T" for i in range(6)]
    assert columns("refl") == [f"MOD:{i}:T" for i in range(6)]
    assert columns("f") == ["MOD:5:T"]
    assert columns("t2") == []          # p is binary in model 5
    assert columns("a") == ["MOD:0:T", "MOD:1:T"]
    assert columns("e") == ["MOD:1:F", "MOD:2:F", "MOD:5:F"]


def test_each_theorem_ranked_once_per_iteration(monkeypatch):
    corpus = load_corpus(MIXED30)
    ranked = []
    real = loop.rank_eligible

    def counted(position, k, state, config):
        assert k == config.axiom_ladder[-1]
        ranked.append((corpus.items[position].name, state.iterations_run + 1))
        return real(position, k, state, config)

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


def _prefixes_match(state, config, corpus, reference):
    """`rank_eligible` at k = 1, at each rung and at k = i (every eligible
    name) is the prefix of the brute-force `reference(item, eligible)`."""
    for i, item in enumerate(corpus.items):
        expected = reference(item, corpus.eligible(i))
        assert len(expected) == i
        for k in sorted({1, *config.axiom_ladder, i}):
            assert rank_eligible(i, k, state, config) == expected[:k], \
                (item.name, k)


def _cold_start_orders_match(corpus):
    config = LoopConfig()
    state = LoopState()
    features = refresh_features(state, corpus, config)
    assert state.model.total_examples == 0
    _prefixes_match(state, config, corpus, lambda item, eligible:
                    _jaccard_reference(item, eligible, features))


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


def test_recency_ranking_is_latest_first():
    corpus = load_corpus(MIXED30)
    config = LoopConfig(learning=False)
    state = LoopState()
    refresh_features(state, corpus, config)
    _prefixes_match(state, config, corpus, lambda _item, eligible:
                    [p.name for p in reversed(eligible)])


def _learned_state(corpus, used: dict) -> LoopState:
    """A state whose learner is trained on proofs of the theorems in
    `used` from the premises listed there, theorems in corpus order, as
    the library loop trains it."""
    state = LoopState()
    refresh_features(state, corpus, LoopConfig())
    retrain(state, [(item.name, tuple(used[item.name]))
                    for _i, item in corpus.theorems() if item.name in used])
    assert state.model.total_examples == len(used)
    return state


def _learned_reference(state):
    """The learner's order by brute force: every eligible name scored."""
    def reference(item, eligible):
        ranking = rank_premises(state.model, state.features[item.name],
                                [p.name for p in eligible])
        return [n for n, _s in ranking]
    return reference


# labeled premises that tie (same proofs), premises sharing no symbol
# with later theorems, and labels that score below the prior that every
# unlabeled name shares (trained on theorems of another signature)
LEARNED_CORPUS = [
    ("none0", "axiom", "$true", []),
    ("a", "axiom", "p(c)", []),
    ("r", "axiom", "![X]: (p(X) => q(X))", []),
    ("u", "axiom", "s(k)", []),
    ("v", "axiom", "![X]: (s(X) => w(X))", []),
    ("t1", "conjecture", "q(c)", ["a", "r"]),
    ("z0", "axiom", "zz(k)", []),
    ("t2", "conjecture", "w(k)", ["u", "v"]),
    ("e", "axiom", "c = d", []),
    ("z1", "axiom", "zz(d)", []),
    ("t3", "conjecture", "q(d)", []),
    ("t4", "conjecture", "w(c) | zz(c)", []),
    ("t5", "conjecture", "$true", []),
]


def test_learned_ranking_matches_brute_force(tmp_path):
    corpus = _write_corpus(tmp_path, LEARNED_CORPUS)
    state = _learned_state(corpus, {"t1": ["a", "r"], "t2": ["u", "v"]})
    config = LoopConfig()
    _prefixes_match(state, config, corpus, _learned_reference(state))
    # below the prior: t3 is t1's kind, so t2's premises score below the
    # names with no label
    scores = dict(rank_premises(state.model, state.features["t3"],
                                ["e", "u", "a", "v"]))
    assert scores["u"] < scores["e"] < scores["a"]
    assert scores["u"] == scores["v"]
    # mixed30, trained on the proofs of a run
    corpus = load_corpus(MIXED30)
    solved = run_loop(corpus, PRUNING_CONFIG).solved
    state = _learned_state(corpus, {n: s.premises_used for n, s in solved.items()})
    _prefixes_match(state, config, corpus, _learned_reference(state))


def test_learned_ranking_places_labels_that_tie_the_prior(tmp_path, monkeypatch):
    # a labeled name that scores exactly the prior ties every unlabeled
    # name and takes its corpus place among them
    corpus = _write_corpus(tmp_path, LEARNED_CORPUS)
    state = _learned_state(corpus, {"t1": ["a", "r"], "t2": ["u", "v"]})
    real = learner.ScoreTable.score
    prior = real(learner.score_table(state.model), (), "none0")

    def score(table, query, name):
        if name in ("r", "u"):
            return prior
        return real(table, query, name)

    monkeypatch.setattr(learner.ScoreTable, "score", score)
    reference = _learned_reference(state)
    tied = reference(corpus.items[10], corpus.eligible(10))
    assert tied.index("r") < tied.index("u") < tied.index("e")
    assert tied.index("a") < tied.index("none0") < tied.index("r")
    assert tied.index("v") == len(tied) - 1
    _prefixes_match(state, LoopConfig(), corpus, reference)


def _count_computations(monkeypatch, cls, attr) -> Counter:
    """Patch `cls.attr`, a cached property, to count its computations by
    value: equal objects share a count."""
    counts: Counter = Counter()
    real = cls.__dict__[attr].func

    def counted(obj):
        counts[obj] += 1
        return real(obj)

    prop = cached_property(counted)
    prop.__set_name__(cls, attr)
    monkeypatch.setattr(cls, attr, prop)
    return counts


def test_each_formula_and_clause_is_walked_once_per_run(monkeypatch, tmp_path):
    # a formula keeps its signature, and equal statements parse to one
    # object, so each formula is walked once per run whoever reads it: the
    # arity checks, the countermodel columns and the equality test.  A
    # clause keeps its signature and its variables, which the equality
    # axioms, the model finder and the finder's own check read
    formulas = _count_computations(monkeypatch, fol._Formula, "signature")
    batches = []            # models per semantic_features call
    real_semantic = loop.semantic_features

    def counted_semantic(f, store, indices=None):
        batches.append(len(store) if indices is None else len(indices))
        return real_semantic(f, store, indices)

    monkeypatch.setattr(loop, "semantic_features", counted_semantic)
    corpus = load_corpus(MIXED30)
    assert len(run_loop(corpus, PRUNING_CONFIG).store) > 0
    # a formula meets all of a refresh's new models in one batch
    assert max(batches) > 1
    assert set(formulas) == {item.formula for item in corpus.items}
    assert max(formulas.values()) == 1

    formulas.clear()
    signatures = _count_computations(monkeypatch, fol.Clause, "signature")
    variables = _count_computations(monkeypatch, fol.Clause, "variables")
    problems = str(tmp_path / "neardup")
    generate_corpus("neardup", 10, problems, verify=False)
    run_challenge(ExperimentSpec(mode="challenge", problems=problems,
                                 out_dir=str(tmp_path / "ch"),
                                 loop=LoopConfig(axiom_ladder=(2, 4, 16))))
    assert formulas and max(formulas.values()) == 1
    assert variables, "the model finder ran"
    assert max(signatures.values()) == max(variables.values()) == 1
