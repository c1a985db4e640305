import math

import pytest

from proofbench import guidance
from proofbench.clausify import ClauseSet, clausal_problem
from proofbench.fol import Atom, Literal, Var, atom, const, make_clause
from proofbench.guidance import (
    Advisor, ON_CLOSED_BRANCH, ON_FAILED_BRANCH,
    StateQuery, advise, measure_speedup, throttle_policy,
)
from proofbench.learner import BayesModel, train_incremental
from proofbench.parser import parse_problem
from proofbench.prover import Limits, PROVED, prove


def _query(feats=()):
    return StateQuery(tuple(feats))


def test_advise_empty_model_preserves_order():
    adv = advise(BayesModel(), _query(), ["c1", "c2", "c3"], {})
    assert [cid for cid, _s in adv.ranking] == ["c1", "c2", "c3"]


def test_advise_single_candidate():
    model = BayesModel()
    train_incremental(model, {"SYM:p": 1.0}, {"ax"})
    adv = advise(model, _query(), ["only"], {"only": "ax"})
    assert [cid for cid, _s in adv.ranking] == ["only"]


def test_advise_prefers_cooccurring_origin():
    # c2's origin co-occurs with branch symbol p; branch contains p
    model = BayesModel()
    train_incremental(model, {"SYM:p": 1.0}, {"ax2"})
    train_incremental(model, {"SYM:q": 1.0}, {"ax1"})
    query = _query([("SYM:p", 1.0)])
    adv = advise(model, query, ["c1", "c2"], {"c1": "ax1", "c2": "ax2"})
    assert adv.ranking[0][0] == "c2"
    # hand-recompute both scores with the learner's formula
    s = model.sigma
    t = model.total_examples
    expect_ax2 = math.log((1 + s) / (t + s)) + 1.0 * math.log((1 + s) / (1 + 2 * s))
    expect_ax1 = math.log((1 + s) / (t + s)) + 1.0 * math.log((0 + s) / (1 + 2 * s))
    got = dict(adv.ranking)
    assert abs(got["c2"] - expect_ax2) < 1e-9
    assert abs(got["c1"] - expect_ax1) < 1e-9


def test_advice_is_permutation():
    model = BayesModel()
    train_incremental(model, {"SYM:p": 2.0}, {"a"})
    cands = ["x", "y", "z", "w"]
    adv = advise(model, _query([("SYM:p", 1.0)]), cands, {"x": "a"})
    assert sorted(cid for cid, _s in adv.ranking) == sorted(cands)


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
        def __init__(self, model):
            super().__init__(model)
            self.choice_log = []    # (depth, n_candidates, consulted)

        def consult(self, branch, goal, depth, candidate_ids):
            order, token = super().consult(branch, goal, depth, candidate_ids)
            self.choice_log.append((depth, len(candidate_ids), token is not None))
            return order, token

    advisor = LoggingAdvisor(BayesModel())
    advisor.register_clauses(cs.clauses)
    res = prove(cs, Limits(max_depth=6), advisor=advisor)
    assert res.status == PROVED
    assert res.stats.advisor_errors == 0
    assert advisor.choice_log
    for depth, n, consulted in advisor.choice_log:
        assert consulted == throttle_policy(depth, n)


def test_record_and_flush_counts():
    advisor = Advisor(BayesModel())
    advisor.origins = {"c1": "ax1"}
    q = _query([("SYM:p", 2.0)])
    advisor.record(q, "c1", ON_CLOSED_BRANCH)
    advisor.record(q, "c1", ON_FAILED_BRANCH)
    target = BayesModel()
    trained = advisor.flush_to(target)
    assert trained == 1
    assert target.label_count == {"ax1": 1.0}
    assert target.cooccurrence == {("ax1", "SYM:p"): 2.0}
    assert advisor.buffer == []
    assert advisor.flush_to(target) == 0


def test_buffer_overflow_drops_oldest(monkeypatch):
    monkeypatch.setattr(guidance, "BUFFER_CAPACITY", 2)
    advisor = Advisor(BayesModel())
    for i in range(4):
        advisor.record(_query(), f"c{i}", ON_CLOSED_BRANCH)
    assert [r.chosen for r in advisor.buffer] == ["c2", "c3"]


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
    advisor = Advisor(model)
    advisor.register_clauses(cs.clauses)
    res = prove(cs, Limits(max_depth=6), advisor=advisor)
    assert res.status == PROVED
    assert res.stats.advisor_errors == 0
    after = (dict(model.label_count), dict(model.cooccurrence),
             model.total_examples)
    assert before == after


def test_record_only_advisor_keeps_search_identical():
    cs1 = clausal_problem(parse_problem("""
    fof(r1, axiom, ![X]: (a(X) => g(X))).
    fof(r2, axiom, ![X]: (b(X) => g(X))).
    fof(r3, axiom, ![X]: (m(X) => g(X))).
    fof(f1, axiom, m(c)).
    fof(goal, conjecture, g(c)).
    """))
    plain = prove(cs1, Limits(max_depth=6))
    recorder = Advisor(BayesModel(), record_only=True)
    recorder.register_clauses(cs1.clauses)
    recorded = prove(cs1, Limits(max_depth=6), advisor=recorder)
    assert recorded.stats.inferences == plain.stats.inferences
    assert recorded.proof == plain.proof
    assert any(r.outcome == ON_CLOSED_BRANCH for r in recorder.buffer)


def _neardup_problems(tmp_path, size):
    import os

    from proofbench.generator import generate_corpus
    from proofbench.parser import parse_problem_file

    root = str(tmp_path / "neardup")
    generate_corpus("neardup", size, 0, root, verify=False)
    out = []
    for fn in sorted(os.listdir(root)):
        if fn.endswith(".p"):
            out.append((fn[:-2],
                        clausal_problem(parse_problem_file(os.path.join(root, fn)))))
    return out


def test_measure_speedup_reports_and_disabled_training_is_exact_unity(tmp_path):
    problems = _neardup_problems(tmp_path, 12)
    limits = Limits(inference_budget=50000, max_depth=10)
    out = measure_speedup(problems, limits, train_count=6)
    assert len(out["rows"]) == 12
    assert out["solved_both"] == 12
    assert out["geometric_mean_ratio"] is not None
    disabled = measure_speedup(problems, limits, train_count=6,
                               training_enabled=False)
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
        rec = Advisor(BayesModel(), record_only=True)
        rec.register_clauses(cs.clauses)
        res = prove(cs, limits, advisor=rec)
        assert res.status == PROVED
        rec.flush_to(guide)
    for _pid, cs in problems:
        advisor = Advisor(guide)
        advisor.register_clauses(cs.clauses)
        res = prove(cs, limits, advisor=advisor)
        assert res.status == PROVED
        assert res.stats.advisor_errors == 0
        assert check_proof(res.proof, cs)
