import inspect
import math
import random
import weakref

import pytest

from proofbench import loop
from proofbench.clausify import clausal_problem
from proofbench.features import branch_features
from proofbench.fol import App, Atom, Eq, Literal, Var, make_clause
from proofbench.guidance import (
    CONSULT_MAX_DEPTH, MIN_CANDIDATES, Advisor, advise,
    measure_speedup, throttle_policy,
)
from proofbench.learner import SIGMA, BayesModel, train_incremental
from proofbench.parser import parse_problem
from proofbench.prover import (
    _Cell, _symbols, ExtensionStep, INFERENCE_LIMIT, Limits, PROVED, prove,
)

from helpers import (
    cell_literal, goals_of, resolved_branch_features, score, unify_terms,
    with_cells,
)


def test_advise_empty_model_preserves_order():
    ranking = advise(BayesModel(), (), ["c1", "c2", "c3"], {})
    assert [cid for cid, _s in ranking] == ["c1", "c2", "c3"]


def test_advise_single_candidate():
    model = BayesModel()
    train_incremental(model, {"SYM:p": 1.0}, {"ax"})
    ranking = advise(model, (), ["only"], {"only": "ax"})
    assert [cid for cid, _s in ranking] == ["only"]


def test_advise_prefers_cooccurring_origin():
    # c2's origin co-occurs with branch symbol p; branch contains p
    model = BayesModel()
    train_incremental(model, {"SYM:p": 1.0}, {"ax2"})
    train_incremental(model, {"SYM:q": 1.0}, {"ax1"})
    query = (("SYM:p", 1.0),)
    ranking = advise(model, query, ["c1", "c2"], {"c1": "ax1", "c2": "ax2"})
    assert ranking[0][0] == "c2"
    # hand-recompute both scores with the learner's formula
    s = SIGMA
    t = model.total_examples
    expect_ax2 = math.log((1 + s) / (t + s)) + 1.0 * math.log((1 + s) / (1 + 2 * s))
    expect_ax1 = math.log((1 + s) / (t + s)) + 1.0 * math.log((0 + s) / (1 + 2 * s))
    got = dict(ranking)
    assert abs(got["c2"] - expect_ax2) < 1e-9
    assert abs(got["c1"] - expect_ax1) < 1e-9


def test_advice_is_permutation():
    model = BayesModel()
    train_incremental(model, {"SYM:p": 2.0}, {"a"})
    cands = ["x", "y", "z", "w"]
    ranking = advise(model, (("SYM:p", 1.0),), cands, {"x": "a"})
    assert sorted(cid for cid, _s in ranking) == sorted(cands)


def _random_example(rng, fids, labels):
    feats = {fid: rng.choice([1.0, 2.0, 3.0, rng.uniform(0.1, 5.0)])
             for fid in rng.sample(fids, rng.randint(1, len(fids)))}
    return feats, set(rng.sample(labels, rng.randint(1, 2)))


def _reference_scores(model, query, candidates, origins):
    return {cid: score(model, dict(query), origins.get(cid, cid))
            for cid in candidates}


def test_advise_scores_equal_the_reference_scores_exactly():
    # labels ax0..ax3 are trained, ax4 never; features s6, s7 never; the
    # clause ids differ from their origins, clause `ax0` has origin ax3,
    # and `c9` has no origin, so its id is its label
    rng = random.Random(35)
    labels = [f"ax{i}" for i in range(5)]
    fids = [f"SYM:s{i}" for i in range(8)]
    origins = {**{f"c{i}": label for i, label in enumerate(labels)}, "ax0": "ax3"}
    candidates = list(origins) + ["c9"]
    unlabeled = untrained = 0
    for _trial in range(300):
        model = BayesModel()
        for _ in range(rng.randint(1, 10)):
            train_incremental(model, *_random_example(rng, fids[:6], labels[:4]))
        rng.shuffle(candidates)
        for _query in range(3):
            query = tuple(sorted({
                fid: rng.choice([1.0, 2.0, rng.uniform(0.1, 5.0)])
                for fid in rng.sample(fids, rng.randint(0, len(fids)))}.items()))
            got = advise(model, query, candidates, origins)
            want = _reference_scores(model, query, candidates, origins)
            assert dict(got) == want
            assert [cid for cid, _s in got] == sorted(
                candidates, key=lambda cid: -want[cid])
            unlabeled += any(model.label_count.get(origins.get(c, c), 0.0) == 0.0
                             for c in candidates)
            untrained += any(fid not in model.feature_totals for fid, _w in query)
        # a table kept past its snapshot gives the old scores
        train_incremental(model, *_random_example(rng, fids[:6], labels[:4]))
        assert dict(advise(model, query, candidates, origins)) == \
            _reference_scores(model, query, candidates, origins)
    assert unlabeled and untrained


def test_throttle_policy_examples():
    assert throttle_policy(1, 5) is True
    assert throttle_policy(9, 5) is False
    assert throttle_policy(3, 3) is True
    assert throttle_policy(3, 2) is False


def test_choice_log_matches_policy_pointwise():
    cs = clausal_problem(parse_problem("""
    fof(r1, axiom, ![X]: (a(X) => g(X))).
    fof(r2, axiom, ![X]: (b(X) => g(X))).
    fof(r3, axiom, ![X]: (m(X) => g(X))).
    fof(f1, axiom, m(c)).
    fof(goal, conjecture, g(c)).
    """))
    class LoggingAdvisor(Advisor):
        def __init__(self, model, clauses):
            super().__init__(model, clauses)
            self.choice_log = []    # (depth, n_candidates, consulted)

        def consult(self, symbols, depth, candidate_ids):
            order, token = super().consult(symbols, depth, candidate_ids)
            self.choice_log.append((depth, len(candidate_ids), token is not None))
            return order, token

    advisor = LoggingAdvisor(BayesModel(), cs.clauses)
    res = prove(cs, Limits(max_depth=6), advisor=advisor)
    assert res.status == PROVED
    assert res.stats.advisor_errors == 0
    assert advisor.choice_log
    for depth, n, consulted in advisor.choice_log:
        assert consulted == throttle_policy(depth, n)


# ---------------------------------------------------------------------------
# The branch's symbols, read in place from the cells


def _random_term(rng, depth):
    kind = rng.random()
    if depth == 0 or kind < 0.3:
        return Var(rng.choice("XYZW")) if kind < 0.15 else App(rng.choice("ab"), ())
    if kind < 0.7:
        return App("f", (_random_term(rng, depth - 1),))
    return App("g", (_random_term(rng, depth - 1), _random_term(rng, depth - 1)))


def _random_literal(rng):
    args = (_random_term(rng, 3), _random_term(rng, 3))
    # the predicate `f` shares its name with the function symbol `f`
    return Literal(rng.random() < 0.5,
                   Eq(*args) if rng.random() < 0.3 else
                   Atom(rng.choice(["p", "f"]), args[:rng.randint(0, 2)]))


def _signed(features: dict) -> str:
    # repr keeps the float weights apart from equal ints
    return repr(sorted(features.items()))


def test_branch_symbols_count_what_the_resolved_literals_count():
    rng = random.Random(13)
    bound_later = 0
    for trial in range(300):
        cells: dict = {}
        lits = [cell_literal(_random_literal(rng), cells, f"_{trial}")
                for _ in range(rng.randint(1, CONSULT_MAX_DEPTH + 1))]
        goals = goals_of(lits)
        assert _signed(branch_features(_symbols(goals))) == \
            _signed(resolved_branch_features(lits))
        # later extensions bind cells of literals already on the path
        trail: list = []
        for cell in list(cells.values()):
            if rng.random() < 0.6:
                unify_terms(cell, with_cells(_random_term(rng, 2), cells, f"_{trial}"),
                            trail)
        bound_later += bool(trail)
        assert _signed(branch_features(_symbols(goals))) == \
            _signed(resolved_branch_features(lits))
    assert bound_later > 100


def test_branch_symbols_of_a_3000_deep_goal():
    # a 3 000-deep term, then a chain of 3 000 bound cells below it
    chain = [_Cell(f"C{i}") for i in range(3001)]
    for cell, below in zip(chain, chain[1:]):
        cell.ref = App("g", (below,))
    term = chain[0]
    for _ in range(3000):
        term = App("f", (term,))
    lit = Literal(True, Atom("p", (term, App("a", ()))))
    assert branch_features(_symbols(goals_of([lit]))) == \
        {"SYM:p": 1.0, "SYM:f": 3000.0, "SYM:g": 3000.0, "SYM:a": 1.0}


class _Unreadable:
    def __iter__(self):
        raise AssertionError("the symbol stream was read")


def test_declined_consult_reads_no_symbols():
    advisor = Advisor(BayesModel(), ())
    many = [f"c{i}" for i in range(MIN_CANDIDATES)]
    assert advisor.consult(_Unreadable(), CONSULT_MAX_DEPTH + 1, many) == (None, None)
    assert advisor.consult(_Unreadable(), 0, many[1:]) == (None, None)
    with pytest.raises(AssertionError, match="symbol stream"):
        advisor.consult(_Unreadable(), CONSULT_MAX_DEPTH, many)


def test_search_walks_the_branch_only_for_consults_the_throttle_passes():
    # q0 .. q5 have three rules each, q6 two facts: consults above depth 3
    # and at q6 are declined
    text = "".join(
        f"fof(r{i}a, axiom, ![X]: (z{i}(X) => q{i}(X))).\n"
        f"fof(r{i}b, axiom, ![X]: (y{i}(X) => q{i}(X))).\n"
        f"fof(r{i}c, axiom, ![X]: (q{i + 1}(X) => q{i}(X))).\n" for i in range(6))
    cs = clausal_problem(parse_problem(
        text + "fof(f1, axiom, q6(d)).\nfof(f2, axiom, q6(c)).\n"
        "fof(goal, conjecture, q0(c)).\n"))

    class Watching(Advisor):
        def __init__(self, model, clauses):
            super().__init__(model, clauses)
            self.log = []       # (passed the throttle, walked the branch)

        def consult(self, symbols, depth, candidate_ids):
            out = super().consult(symbols, depth, candidate_ids)
            self.log.append((throttle_policy(depth, len(candidate_ids)),
                             inspect.getgeneratorstate(symbols) != "GEN_CREATED"))
            return out

    advisor = Watching(BayesModel(), cs.clauses)
    res = prove(cs, Limits(max_depth=10), advisor=advisor)
    assert res.status == PROVED
    assert res.stats.consults == len(advisor.log)
    assert {passed for passed, _walked in advisor.log} == {True, False}
    assert all(passed == walked for passed, walked in advisor.log)


def test_record_and_flush_counts():
    advisor = Advisor(BayesModel(), [make_clause([], "ax1", "c1")])
    assert advisor.origins == {"c1": "ax1"}
    advisor.outcome((("SYM:p", 2.0),), "c1")
    advisor.outcome((("SYM:q", 1.0),), "c2")     # no origin: its own label
    target = BayesModel()
    trained = advisor.flush_to(target)
    assert trained == 2
    assert target.label_count == {"ax1": 1.0, "c2": 1.0}
    assert target.cooccurrence == {("ax1", "SYM:p"): 2.0, ("c2", "SYM:q"): 1.0}
    assert advisor.buffer == []
    assert advisor.flush_to(target) == 0


def test_advisor_failure_degrades_to_input_order():
    cs = clausal_problem(parse_problem("""
    fof(r1, axiom, ![X]: (a(X) => g(X))).
    fof(r2, axiom, ![X]: (b(X) => g(X))).
    fof(r3, axiom, ![X]: (m(X) => g(X))).
    fof(f1, axiom, m(c)).
    fof(goal, conjecture, g(c)).
    """))

    class Exploding:
        def consult(self, **kw):
            raise RuntimeError("advisor down")

        def outcome(self, *a):
            raise RuntimeError("advisor down")

    plain = prove(cs, Limits(max_depth=6))
    broken = prove(cs, Limits(max_depth=6), advisor=Exploding())
    assert broken.status == PROVED
    assert broken.stats.inferences == plain.stats.inferences
    assert broken.stats.advisor_errors > 0


def test_no_mid_search_training():
    cs = clausal_problem(parse_problem("""
    fof(r3, axiom, ![X]: (m(X) => g(X))).
    fof(r1, axiom, ![X]: (a(X) => g(X))).
    fof(r2, axiom, ![X]: (b(X) => g(X))).
    fof(f1, axiom, m(c)).
    fof(goal, conjecture, g(c)).
    """))
    model = BayesModel()
    train_incremental(model, {"SYM:g": 1.0}, {"r3"})
    before = (dict(model.label_count), dict(model.cooccurrence),
              model.total_examples)
    advisor = Advisor(model, cs.clauses)
    res = prove(cs, Limits(max_depth=6), advisor=advisor)
    assert res.status == PROVED
    assert res.stats.advisor_errors == 0
    after = (dict(model.label_count), dict(model.cooccurrence),
             model.total_examples)
    assert before == after


def test_advisor_over_an_empty_model_keeps_search_identical():
    cs1 = clausal_problem(parse_problem("""
    fof(r1, axiom, ![X]: (a(X) => g(X))).
    fof(r2, axiom, ![X]: (b(X) => g(X))).
    fof(r3, axiom, ![X]: (m(X) => g(X))).
    fof(f1, axiom, m(c)).
    fof(goal, conjecture, g(c)).
    """))
    plain = prove(cs1, Limits(max_depth=6))
    recorder = Advisor(BayesModel(), cs1.clauses)
    recorded = prove(cs1, Limits(max_depth=6), advisor=recorder)
    assert recorded.stats.inferences == plain.stats.inferences
    assert recorded.proof == plain.proof
    assert recorder.buffer


def _neardup_problems(tmp_path, size):
    import os

    from proofbench.generator import generate_corpus
    from proofbench.parser import parse_problem_file

    root = str(tmp_path / "neardup")
    generate_corpus("neardup", size, root, verify=False)
    out = []
    for fn in sorted(os.listdir(root)):
        if fn.endswith(".p"):
            out.append((fn[:-2],
                        clausal_problem(parse_problem_file(os.path.join(root, fn)))))
    return out


def test_advisor_learns_only_the_returned_proofs_choices(tmp_path):
    # r1 and r2 are tried at g(c) and fail before r3 closes it; a search
    # cut short by its budget returns no proof, so it teaches nothing
    problems = [("g", clausal_problem(parse_problem("""
    fof(r1, axiom, ![X]: (a(X) => g(X))).
    fof(r2, axiom, ![X]: (b(X) => g(X))).
    fof(r3, axiom, ![X]: (m(X) => g(X))).
    fof(f1, axiom, m(c)).
    fof(goal, conjecture, g(c)).
    """)))] + _neardup_problems(tmp_path, 6)
    for _pid, cs in problems:
        recorder = Advisor(BayesModel(), cs.clauses)
        res = prove(cs, Limits(inference_budget=50000, max_depth=10),
                    advisor=recorder)
        assert res.status == PROVED
        taken = [s.clause_id for s in res.proof.steps
                 if isinstance(s, ExtensionStep)]
        assert recorder.buffer
        assert len(recorder.buffer) <= len(taken)
        assert all(chosen in taken for _query, chosen in recorder.buffer)

        cut = Advisor(BayesModel(), cs.clauses)
        short = prove(cs, Limits(inference_budget=res.stats.inferences - 1,
                                 max_depth=10), advisor=cut)
        assert short.status == INFERENCE_LIMIT
        assert cut.flush_to(BayesModel()) == 0


def test_measure_speedup_trains_only_on_checked_proofs(tmp_path, monkeypatch):
    problems = _neardup_problems(tmp_path, 4)
    monkeypatch.setattr(loop, "check_proof", lambda proof, cs: False)
    with pytest.raises(loop.LoopInvariantError, match="failed independent checking"):
        measure_speedup(problems, Limits(inference_budget=50000, max_depth=10))


def test_measure_speedup_checks_every_guided_proof(tmp_path, monkeypatch):
    problems = _neardup_problems(tmp_path, 4)
    check_proof = loop.check_proof
    seen = set()

    def rejects_guided(proof, cs):
        # phase one proves each clause set first: a second proof is guided
        guided = id(cs) in seen
        seen.add(id(cs))
        return check_proof(proof, cs) and not guided

    monkeypatch.setattr(loop, "check_proof", rejects_guided)
    with pytest.raises(loop.LoopInvariantError, match="failed independent checking"):
        measure_speedup(problems, Limits(inference_budget=50000, max_depth=10))


def test_measure_speedup_keeps_no_phase_one_result(tmp_path, monkeypatch):
    # phase one keeps (proved?, inferences) of each result, so no proof
    # outlives its check into phase two
    problems = _neardup_problems(tmp_path, 6)
    prove_checked = loop.prove_checked
    results = []            # a weak reference to each result, both phases
    alive = []              # the phase-one results alive at phase two's start

    def watched(cs, limits, max_domain, pid, advisor=None):
        if len(results) == len(problems):
            alive.extend(r for r in results if r() is not None)
        res = prove_checked(cs, limits, max_domain, pid, advisor)
        results.append(weakref.ref(res))
        return res

    monkeypatch.setattr(loop, "prove_checked", watched)
    out = measure_speedup(problems, Limits(inference_budget=50000, max_depth=10))
    assert len(results) == 2 * len(problems)
    assert alive == []
    assert out["solved_both"] == len(problems)


def test_measure_speedup_records_only_the_problems_it_trains_on(tmp_path,
                                                              monkeypatch):
    problems = _neardup_problems(tmp_path, 8)
    limits = Limits(inference_budget=50000, max_depth=10)
    prove_checked = loop.prove_checked
    calls = []      # (pid, advisor) of each call, both phases

    def logged(cs, limits, max_domain, pid, advisor=None):
        calls.append((pid, advisor))
        return prove_checked(cs, limits, max_domain, pid, advisor)

    def phase_one() -> dict:
        advisors = dict(calls[:len(problems)])
        calls.clear()
        return advisors

    def recording_all(cs, limits, max_domain, pid, advisor=None):
        if advisor is None:
            advisor = Advisor(BayesModel(), cs.clauses)
        return prove_checked(cs, limits, max_domain, pid, advisor)

    monkeypatch.setattr(loop, "prove_checked", logged)
    out = measure_speedup(problems, limits, train_count=3)
    advisors = phase_one()
    assert [advisors[pid] is not None for pid, _cs in problems] \
        == [True] * 3 + [False] * 5
    assert all(advisors[pid].model.total_examples == 0
               for pid, _cs in problems[:3])
    measure_speedup(problems, limits, train_count=0)
    assert all(a is None for a in phase_one().values())

    # an advisor over an empty model on every problem, as phase one once ran
    monkeypatch.setattr(loop, "prove_checked", recording_all)
    everywhere = measure_speedup(problems, limits, train_count=3)
    assert out["rows"] == everywhere["rows"]
    assert out["trained_examples"] == everywhere["trained_examples"]


def test_measure_speedup_reports_and_disabled_training_is_exact_unity(tmp_path):
    problems = _neardup_problems(tmp_path, 12)
    limits = Limits(inference_budget=50000, max_depth=10)
    out = measure_speedup(problems, limits, train_count=6)
    assert len(out["rows"]) == 12
    assert out["solved_both"] == 12
    assert out["geometric_mean_ratio"] is not None
    disabled = measure_speedup(problems, limits, train_count=0)
    for row in disabled["rows"]:
        assert row.ratio == 1.0
    assert disabled["geometric_mean_ratio"] == 1.0


def test_unsolved_problems_excluded_from_ratio(tmp_path):
    problems = _neardup_problems(tmp_path, 4)
    # starve the budget so nothing is solved
    out = measure_speedup(problems, Limits(inference_budget=2, max_depth=10),
                          train_count=2)
    assert out["solved_both"] == 0
    assert out["geometric_mean_ratio"] is None
    assert all(r.ratio is None for r in out["rows"])


def test_guided_proofs_remain_checkable(tmp_path):
    # guidance may reorder the search but never its soundness gate
    from proofbench.checker import check_proof

    problems = _neardup_problems(tmp_path, 8)
    limits = Limits(inference_budget=50000, max_depth=10)
    guide = BayesModel()
    for _pid, cs in problems[:4]:
        rec = Advisor(BayesModel(), cs.clauses)
        res = prove(cs, limits, advisor=rec)
        assert res.status == PROVED
        rec.flush_to(guide)
    for _pid, cs in problems:
        advisor = Advisor(guide, cs.clauses)
        res = prove(cs, limits, advisor=advisor)
        assert res.status == PROVED
        assert res.stats.advisor_errors == 0
        assert check_proof(res.proof, cs)
