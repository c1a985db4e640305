import random

import pytest

from proofbench.checker import check_proof
from proofbench.clausify import ClauseSet, clausal_problem
from proofbench.fol import (
    App, Atom, Clause, Exists, Literal, Not, Var, atom, const, make_clause,
)
from proofbench.models import find_model
from proofbench.parser import parse_problem
from proofbench.prover import (
    COUNTER_SATISFIABLE, INFERENCE_LIMIT, ExtensionStep, Limits, PROVED,
    ProofObject, ProverError, RunResult, StartStep, TIMEOUT, normalize_proof,
    occurs, proof_from_text, proof_to_text, prove, resolve_term, walk,
)

from helpers import (
    prop_clause_satisfiable, random_prop_clauses, resolve_literal, unify_terms,
)


def _cl(lits, cid, origin=None):
    return make_clause(lits, origin=origin or cid, clause_id=cid)


def _clause_set(clauses, start_ids=None):
    if start_ids is None:
        start_ids = {c.clause_id for c in clauses if c.is_negative()}
    return ClauseSet(tuple(clauses), frozenset(start_ids))


def modus_ponens_set():
    p, q = Atom("p", ()), Atom("q", ())
    return _clause_set([
        _cl([Literal(True, p)], "ax1_0", "ax1"),
        _cl([Literal(False, p), Literal(True, q)], "ax2_0", "ax2"),
        _cl([Literal(False, q)], "goal_0", "goal"),
    ], start_ids={"goal_0"})


def test_modus_ponens_proved():
    res = prove(modus_ponens_set(), Limits(max_depth=4))
    assert res.status == PROVED
    assert res.stats.depth_reached <= 2
    assert res.proof is not None
    assert set(res.proof.used_premises) == {"ax1", "ax2", "goal"}


def test_existential_unifier():
    # {p(c)} with negated conjecture ~p(X) from ?[Y]: p(Y)
    cs = _clause_set([
        _cl([Literal(True, atom("p", const("c")))], "ax_0", "ax"),
        _cl([Literal(False, atom("p", Var("X")))], "goal_0", "goal"),
    ], start_ids={"goal_0"})
    res = prove(cs, Limits(max_depth=3))
    assert res.status == PROVED
    ext = res.proof.steps[1]
    assert ext.clause_id == "ax_0"
    # the unifier binds the goal variable to c
    assert any(t == App("c", ()) for _n, t in ext.bindings)


def test_proof_checks_and_corruption_detected():
    res = prove(modus_ponens_set(), Limits(max_depth=4))
    cs = modus_ponens_set()
    assert check_proof(res.proof, cs) is True
    steps = list(res.proof.steps)
    for i, s in enumerate(steps):
        if isinstance(s, ExtensionStep) and s.clause_id == "ax1_0":
            # swap the extension to an unrelated clause
            steps[i] = ExtensionStep(s.goal, "goal_0", 0, s.bindings)
    bad = ProofObject(tuple(steps), res.proof.used_premises)
    assert check_proof(bad, cs) is False


def test_checker_rejects_wrong_used_premises():
    res = prove(modus_ponens_set(), Limits(max_depth=4))
    bad = ProofObject(res.proof.steps, frozenset({"ax1", "goal"}))
    assert check_proof(bad, modus_ponens_set()) is False


def test_checker_unknown_clause_id_is_error():
    res = prove(modus_ponens_set(), Limits(max_depth=4))
    from proofbench.checker import CheckError
    bad = ProofObject((StartStep("nonexistent"),) + res.proof.steps[1:],
                      res.proof.used_premises)
    with pytest.raises(CheckError):
        check_proof(bad, modus_ponens_set())


def test_prover_oracle_agreement_100_random_sets():
    rng = random.Random(41)
    for trial in range(100):
        clauses = random_prop_clauses(rng)
        cs = _clause_set(clauses)
        sat = prop_clause_satisfiable(clauses)
        if not cs.start_ids:
            # no all-negative clause: satisfiable by the all-true valuation
            assert sat
            continue
        res = prove(cs, Limits(max_depth=12, inference_budget=200000),
                    model_max_domain=1)
        if sat:
            assert res.status == COUNTER_SATISFIABLE, f"trial {trial}"
            assert res.model is not None
        else:
            assert res.status == PROVED, f"trial {trial}"
            assert check_proof(res.proof, cs)


def test_determinism_of_stats():
    cs1 = modus_ponens_set()
    cs2 = modus_ponens_set()
    r1 = prove(cs1, Limits(max_depth=6))
    r2 = prove(cs2, Limits(max_depth=6))
    assert r1.stats.inferences == r2.stats.inferences
    assert r1.stats.depth_reached == r2.stats.depth_reached
    assert r1.proof == r2.proof


def test_inference_budget_respected():
    # an unsatisfiable-but-deep problem under a tiny budget stops early
    f = lambda t: App("f", (t,))
    cs = _clause_set([
        _cl([Literal(True, atom("p", const("c")))], "a_0", "a"),
        _cl([Literal(False, atom("p", Var("X"))),
             Literal(True, atom("p", f(Var("X"))))], "b_0", "b"),
        _cl([Literal(False, atom("p", f(f(f(f(const("c")))))))], "g_0", "g"),
    ], start_ids={"g_0"})
    res = prove(cs, Limits(max_depth=3, inference_budget=5))
    assert res.status == INFERENCE_LIMIT
    assert res.stats.inferences <= 6


def test_saturation_yields_countermodel():
    # satisfiable set: saturates, model finder supplies the witness
    cs = _clause_set([
        _cl([Literal(True, atom("p", const("c")))], "a_0", "a"),
        _cl([Literal(False, atom("q", const("c")))], "g_0", "g"),
    ], start_ids={"g_0"})
    res = prove(cs, Limits(max_depth=8))
    assert res.status == COUNTER_SATISFIABLE
    assert res.model is not None and res.model.size == 1
    assert res.model.preds["p"][(0,)] is True
    assert res.model.preds["q"][(0,)] is False


def test_counter_satisfiable_helper():
    cs = _clause_set([
        _cl([Literal(True, atom("p", const("c")))], "a_0", "a"),
        _cl([Literal(False, atom("q", const("c")))], "g_0", "g"),
    ])
    m = find_model(cs.clauses, 2)
    assert m is not None
    unsat = modus_ponens_set()
    assert find_model(unsat.clauses, 3) is None


def test_completeness_at_depth():
    # propositional unsat set with a closed tableau of small depth
    rng = random.Random(13)
    found = 0
    for _ in range(200):
        clauses = random_prop_clauses(rng)
        cs = _clause_set(clauses)
        if not cs.start_ids or prop_clause_satisfiable(clauses):
            continue
        found += 1
        res = prove(cs, Limits(max_depth=12, inference_budget=500000))
        assert res.status == PROVED
    assert found >= 20


def _assert_regular(proof, cs):
    # replay the proof, asserting no literal repeats on any branch
    from proofbench.prover import (
        ExtensionStep, ReductionStep, StartStep, rename_literal, unify_args,
    )
    by_id = {c.clause_id: c for c in cs.clauses}
    subst, trail = {}, []
    agenda = []
    counter = 0
    for step in proof.steps:
        if isinstance(step, StartStep):
            counter += 1
            agenda = [(rename_literal(l, counter, "_i"), ())
                      for l in by_id[step.clause_id].literals]
            continue
        goal, path = agenda.pop(0)
        if isinstance(step, ExtensionStep):
            counter += 1
            lits = [rename_literal(l, counter, "_i")
                    for l in by_id[step.clause_id].literals]
            assert unify_args(goal.args, lits[step.lit_index].args, subst, trail)
            branch = [resolve_literal(l, subst) for l in path + (goal,)]
            assert len(branch) == len(set(branch)), "repeated literal on branch"
            rest = lits[:step.lit_index] + lits[step.lit_index + 1:]
            for g in rest:
                assert resolve_literal(g, subst) not in branch
            agenda = [(l, path + (goal,)) for l in rest] + agenda
        elif isinstance(step, ReductionStep):
            assert unify_args(goal.args, path[step.path_index].args, subst, trail)


def test_regularity_on_traces():
    rng = random.Random(4)
    checked = 0
    for _ in range(60):
        clauses = random_prop_clauses(rng)
        cs = _clause_set(clauses)
        if not cs.start_ids or prop_clause_satisfiable(clauses):
            continue
        res = prove(cs, Limits(max_depth=12, inference_budget=500000))
        assert res.status == PROVED
        _assert_regular(res.proof, cs)
        checked += 1
    assert checked > 10


def test_malformed_clause_set_rejected():
    cs = ClauseSet((_cl([Literal(True, Atom("p", ()))], "a_0", "a"),), frozenset())
    with pytest.raises(ProverError):
        prove(cs, Limits())


def test_problem_level_prove_from_parse():
    text = """
    fof(ax, axiom, ![X]: (p(X) => q(X))).
    fof(fact, axiom, p(c)).
    fof(goal, conjecture, ?[Y]: q(Y)).
    """
    cs = clausal_problem(parse_problem(text))
    res = prove(cs, Limits(max_depth=6))
    assert res.status == PROVED
    assert check_proof(res.proof, cs)
    assert set(res.proof.used_premises) == {"ax", "fact", "goal"}


def test_equality_problem_proved():
    text = """
    fof(ident, axiom, ![X]: mult(e,X) = X).
    fof(goal, conjecture, mult(e,c) = c).
    """
    cs = clausal_problem(parse_problem(text))
    res = prove(cs, Limits(max_depth=6))
    assert res.status == PROVED
    assert check_proof(res.proof, cs)


def test_proof_text_roundtrip():
    cs = clausal_problem(parse_problem("""
    fof(ax, axiom, ![X]: (p(X) => q(X))).
    fof(fact, axiom, p(c)).
    fof(goal, conjecture, q(c)).
    """))
    res = prove(cs, Limits(max_depth=6))
    text = proof_to_text(res.proof)
    back = proof_from_text(text)
    assert back == res.proof
    assert check_proof(back, cs)



def _wide_set(n):
    # ~p_0(a) | ... | ~p_{n-1}(a), closed goal by goal by the units p_i(X)
    clauses = [_cl([Literal(False, atom(f"p_{i}", const("a"))) for i in range(n)],
                   "goal_0", "goal")]
    clauses += [_cl([Literal(True, atom(f"p_{i}", Var("X")))], f"unit{i}_0", f"unit{i}")
                for i in range(n)]
    return _clause_set(clauses, start_ids={"goal_0"})


def test_wide_start_clause_proves_without_recursion_error():
    res = prove(_wide_set(10000), Limits(max_depth=2))
    assert res.status == PROVED
    assert res.stats.inferences == 10000


def test_wide_start_clause_proof_checks():
    cs = _wide_set(10000)
    res = prove(cs, Limits(max_depth=2))
    assert res.status == PROVED
    assert check_proof(res.proof, cs)


def test_wide_literal_proof_checks():
    n = 10000
    goal = _cl([Literal(False, atom("p", *(const(f"c{i}") for i in range(n))))],
               "goal_0", "goal")
    unit = _cl([Literal(True, atom("p", *(Var(f"X{i}") for i in range(n))))],
               "unit_0", "unit")
    cs = _clause_set([goal, unit], start_ids={"goal_0"})
    res = prove(cs, Limits(max_depth=2))
    assert res.status == PROVED
    assert check_proof(res.proof, cs)


def _tower(depth, leaf):
    t = leaf
    for _ in range(depth):
        t = App("s", (t,))
    return t


def _tower_height(t, subst):
    height = 0
    t = walk(t, subst)
    while isinstance(t, App) and t.symbol == "s":
        height += 1
        t = walk(t.args[0], subst)
    return height, t


def test_unifier_on_deep_terms():
    n = 10000
    deep = _tower(n, const("a"))
    # a chain of n variable bindings ending in the deep term
    chain = {f"V{i}": Var(f"V{i + 1}") for i in range(n)}
    chain[f"V{n}"] = deep
    assert walk(Var("V0"), chain) is deep
    assert _tower_height(resolve_term(App("f", (Var("V0"),)), chain).args[0], {}) \
        == (n, const("a"))
    assert occurs("Z", _tower(n, Var("Z")), {})
    assert not occurs("W", _tower(n, Var("Z")), {})
    subst, trail = {}, []
    assert unify_terms(deep, _tower(n, const("a")), subst, trail)
    assert subst == {}
    assert unify_terms(_tower(n, Var("Y")), deep, subst, trail)
    assert subst == {"Y": const("a")}
    # X = s(...s(X)...) fails the occurs check
    assert not unify_terms(Var("X"), _tower(n, Var("X")), {}, [])
    assert not unify_terms(_tower(n, Var("X")), Var("X"), {}, [])


def _deep_set(n):
    """{p(s^n(X)), ~p(s^n(a))}, built without make_clause, whose literal
    hashing recurses on deep terms."""
    return _clause_set([
        Clause((Literal(True, atom("p", _tower(n, Var("X")))),), "ax", "ax_0"),
        Clause((Literal(False, atom("p", _tower(n, const("a")))),), "goal",
               "goal_0"),
    ], start_ids={"goal_0"})


def _deep_goal(n, leaf):
    return Literal(False, atom("p", _tower(n, const(leaf))))


def test_deep_term_proofs_check():
    cs = _deep_set(300)
    res = prove(cs, Limits(max_depth=3))
    assert res.status == PROVED
    assert check_proof(res.proof, cs)
    # the prover's clause compilation recurses at this depth, so the
    # one-extension proof it finds at depth 300 is written out
    proof = ProofObject((StartStep("goal_0"),
                         ExtensionStep(_deep_goal(3000, "a"), "ax_0", 0)),
                        frozenset({"ax", "goal"}))
    assert check_proof(proof, _deep_set(3000))


def test_goal_differing_deep_inside_is_rejected():
    cs = _deep_set(300)
    res = prove(cs, Limits(max_depth=3))
    start, ext = res.proof.steps
    assert isinstance(ext, ExtensionStep)
    bad = ExtensionStep(_deep_goal(300, "b"), ext.clause_id, ext.lit_index,
                        ext.bindings)
    assert not check_proof(ProofObject((start, bad), res.proof.used_premises),
                           cs)
