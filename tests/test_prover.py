import os
import pickle
import random

import pytest

from proofbench.checker import check_proof
from proofbench.clausify import ClauseSet, clausal_problem
from proofbench.corpus import load_corpus
from proofbench.fol import (
    App, Atom, Clause, Literal, Var, make_clause,
)
from proofbench.generator import generate_corpus
from proofbench.loop import clause_set_builder
from proofbench.models import find_model
from proofbench.parser import parse_problem, parse_problem_dir, parse_problem_file
from proofbench import prover
from proofbench.prover import (
    COUNTER_SATISFIABLE, INFERENCE_LIMIT, ExtensionStep, Limits, PROVED,
    ProofObject, ProverError, ReductionStep, StartStep, TIMEOUT, _Cell,
    _clashes, _compile, _deref, _identical, _Lit, _occurs, _on_branch,
    _unify_args, proof_from_text, proof_to_text, prove, resolve_term,
)

from helpers import (
    atom, cell_literal, const, finder_blowup_clauses, prop_clause_satisfiable,
    random_prop_clauses, random_term, reference_unify, resolve_literal,
    unify_terms, with_cells,
)

MIXED30 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "corpora", "mixed30")


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


def test_saturation_past_the_finders_decision_guard_is_a_timeout():
    # the start clause ~r saturates at once; the model finder gives up
    cs = _clause_set(finder_blowup_clauses(), start_ids={"c2"})
    res = prove(cs, Limits(max_depth=8))
    assert res.status == TIMEOUT and res.model is None
    assert res.stats.stop_reason == "saturated"


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
    by_id = {c.clause_id: c for c in cs.clauses}
    trail = []
    agenda = []
    counter = 0
    for step in proof.steps:
        if isinstance(step, StartStep):
            counter += 1
            cells = {}
            agenda = [(cell_literal(l, cells, f"_i{counter}"), ())
                      for l in by_id[step.clause_id].literals]
            continue
        goal, path = agenda.pop(0)
        if isinstance(step, ExtensionStep):
            counter += 1
            cells = {}
            lits = [cell_literal(l, cells, f"_i{counter}")
                    for l in by_id[step.clause_id].literals]
            assert _unify_args(goal.args, lits[step.lit_index].args, trail)
            branch = [resolve_literal(l) for l in path + (goal,)]
            assert len(branch) == len(set(branch)), "repeated literal on branch"
            rest = lits[:step.lit_index] + lits[step.lit_index + 1:]
            for g in rest:
                assert resolve_literal(g) not in branch
            agenda = [(l, path + (goal,)) for l in rest] + agenda
        elif isinstance(step, ReductionStep):
            assert _unify_args(goal.args, path[step.path_index].args, trail)


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


def _tower_height(t):
    height = 0
    t = _deref(t)
    while isinstance(t, App) and t.symbol == "s":
        height += 1
        t = _deref(t.args[0])
    return height, t


def test_unifier_on_deep_terms():
    n = 10000
    deep = _tower(n, const("a"))
    # a chain of n bound cells ending in the deep term
    chain = [_Cell(f"V{i}") for i in range(n + 1)]
    for cell, nxt in zip(chain, chain[1:]):
        cell.ref = nxt
    chain[n].ref = deep
    assert _deref(chain[0]) is deep
    assert _tower_height(resolve_term(App("f", (chain[0],))).args[0]) \
        == (n, const("a"))
    z, w = _Cell("Z"), _Cell("W")
    assert _occurs(z, _tower(n, z))
    assert not _occurs(w, _tower(n, z))
    trail = []
    assert unify_terms(deep, _tower(n, const("a")), trail)
    assert trail == []
    y = _Cell("Y")
    assert unify_terms(_tower(n, y), deep, trail)
    assert trail == [y] and y.ref == const("a")
    # X = s(...s(X)...) fails the occurs check
    x = _Cell("X")
    assert not unify_terms(x, _tower(n, x), [])
    assert not unify_terms(_tower(n, x), x, [])
    assert x.ref is None


def _small_term(rng, names, depth=3):
    """A random term over variables `names`, with f/1, g/2 and constants."""
    r = rng.random()
    if depth == 0 or r < 0.4:
        return Var(rng.choice(names)) if rng.random() < 0.75 else const(rng.choice("ab"))
    if r < 0.7:
        return App("f", (_small_term(rng, names, depth - 1),))
    return App("g", (_small_term(rng, names, depth - 1),
                     _small_term(rng, names, depth - 1)))


def _unify_with_template(goal_args, template_args, prebound, unify):
    """Unify goal arguments, over variables A, B, ... with the bindings
    `prebound` made beforehand, with a template literal's arguments.  With
    `unify` None this is the search's extension: the template is compiled
    as the search compiles it and its slots follow the goal's cells in the
    pool.  Otherwise `unify(pairs, trail)` gets the template instantiated
    up front.  Returns whether it succeeded and every variable's cell."""
    goal_cells: dict = {}
    args = tuple(with_cells(a, goal_cells) for a in goal_args)
    for name, term in prebound:
        with_cells(Var(name), goal_cells).ref = with_cells(term, goal_cells)
    trail: list = []
    if unify is None:
        clause = Clause((Literal(True, atom("p", *template_args)),), "t", "t_0")
        (names, (lit,)), = _compile([clause], [0])[0]
        pool = list(goal_cells.values()) + [_Cell(name) for name in names]
        ok = _unify_args(args, lit.args, trail, pool, len(goal_cells))
        cells = pool
    else:
        slot_cells: dict = {}
        targs = tuple(with_cells(a, slot_cells) for a in template_args)
        ok = unify(list(zip(args, targs)), trail)
        cells = list(goal_cells.values()) + list(slot_cells.values())
    return ok, cells


def _agrees_with_reference(goal_args, template_args, prebound=()):
    ok, cells = _unify_with_template(goal_args, template_args, prebound, None)
    ref_ok, ref_cells = _unify_with_template(goal_args, template_args, prebound,
                                             reference_unify)
    # compared before anything is resolved: a binding cycle never resolves
    assert ok == ref_ok
    if ok:
        assert {c.name: resolve_term(c) for c in cells} \
            == {c.name: resolve_term(c) for c in ref_cells}
    return ok


def test_unifier_agrees_with_an_always_checking_reference():
    A, X = Var("A"), Var("X")
    f = lambda t: App("f", (t,))
    # a goal-side cell bound during the unification leads back to a slot
    assert not _agrees_with_reference((A, f(A)), (X, X))
    assert not _agrees_with_reference((f(A), A), (X, X))
    assert not _agrees_with_reference((A, A), (X, f(X)))
    assert _agrees_with_reference((f(A), f(A)), (X, X))
    rng = random.Random(20)
    goal_names, template_names = ("A", "B", "C"), ("X", "Y", "Z")
    outcomes = set()
    for _ in range(3000):
        arity = rng.randint(1, 3)
        goal_args = [_small_term(rng, goal_names) for _ in range(arity)]
        template_args = [_small_term(rng, template_names) for _ in range(arity)]
        # each of A, B may be bound beforehand, to a term over later names
        prebound = [(name, _small_term(rng, goal_names[i + 1:], 2))
                    for i, name in enumerate(goal_names[:-1]) if rng.random() < 0.3]
        outcomes.add(_agrees_with_reference(goal_args, template_args, prebound))
    assert outcomes == {True, False}


def _goal(key, args):
    return (_Lit(True, None, key, (), ()), tuple(args))


def _brute_on_branch(goal, path):
    lit, args = goal
    return any(plit.key == lit.key and _identical(args, pargs)
               for plit, pargs in path)


def test_regularity_filter_agrees_with_a_brute_force_scan():
    a, b = const("a"), const("b")
    f = lambda *ts: App("f", ts)
    X, Y, Z = _Cell("X"), _Cell("Y"), _Cell("Z")
    X.ref, Z.ref = f(a), Y
    cases = [
        # nullary predicates: only `key` tells them apart
        (_goal(0, ()), [_goal(1, ()), _goal(0, ())], True),
        (_goal(0, ()), [_goal(1, ())], False),
        # equal first arguments that differ deeper
        (_goal(1, (f(a), a)), [_goal(1, (f(a), b))], False),
        (_goal(1, (f(f(a)), a)), [_goal(1, (f(f(b)), a))], False),
        (_goal(1, (f(f(a)), a)), [_goal(1, (f(f(b)), a)), _goal(1, (f(f(a)), a))],
         True),
        # one symbol, two arities
        (_goal(1, (f(a), a)), [_goal(1, (f(a, a), a))], False),
        # bound cells on either side, and cells reached through a chain
        (_goal(1, (X, a)), [_goal(1, (f(a), a))], True),
        (_goal(1, (f(a), a)), [_goal(1, (X, a))], True),
        (_goal(1, (Y, a)), [_goal(1, (Z, a))], True),
        (_goal(1, (Y, a)), [_goal(1, (X, a)), _goal(2, (Y, a))], False),
        (_goal(1, (Y, a)), [_goal(1, (Y, b))], False),
    ]
    for goal, path, expected in cases:
        assert _on_branch(goal, path) is expected
        assert _brute_on_branch(goal, path) is expected

    rng = random.Random(21)
    names = ("A", "B", "C", "D")
    hits = 0
    for _ in range(1500):
        cells: dict = {}
        for i, name in enumerate(names[:-2]):       # bind some, acyclically
            cell = cells.setdefault(name, _Cell(name))
            if rng.random() < 0.5:
                cell.ref = with_cells(_small_term(rng, names[i + 1:], 2), cells)

        def literal():
            key = rng.randint(0, 2)
            return _goal(key, [with_cells(_small_term(rng, names, 2), cells)
                               for _ in range(key)])

        path = [literal() for _ in range(rng.randint(0, 6))]
        goal = literal()
        if path and rng.random() < 0.3:         # a repeat, read through cells
            plit, pargs = rng.choice(path)
            goal = (plit, tuple(with_cells(resolve_term(t), cells) for t in pargs))
        expected = _brute_on_branch(goal, path)
        assert _on_branch(goal, path) is expected
        hits += expected
    assert 100 < hits < 1400


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
    cs = _deep_set(3000)
    res = prove(cs, Limits(max_depth=3))
    assert res.status == PROVED
    assert check_proof(res.proof, cs)


def test_goal_differing_deep_inside_is_rejected():
    cs = _deep_set(300)
    res = prove(cs, Limits(max_depth=3))
    start, ext = res.proof.steps
    assert isinstance(ext, ExtensionStep)
    bad = ExtensionStep(_deep_goal(300, "b"), ext.clause_id, ext.lit_index,
                        ext.bindings)
    assert not check_proof(ProofObject((start, bad), res.proof.used_premises),
                           cs)


def _spy_attempts(monkeypatch):
    """Record the search's attempts: a clash, or the outcome of the
    unification the attempt went on to.  Proof normalization's own
    unifications are left out."""
    log = []
    normalize = prover.normalize_proof

    def normalize_proof(*args):
        monkeypatch.undo()
        return normalize(*args)

    def clashes(args, tops):
        out = _clashes(args, tops)
        if out:
            log.append(("clash", tops))
        return out

    def unify_args(args, targs, trail, pool=None, base=0):
        out = _unify_args(args, targs, trail, pool, base)
        log.append(("unify", out))
        return out

    monkeypatch.setattr(prover, "_clashes", clashes)
    monkeypatch.setattr(prover, "_unify_args", unify_args)
    monkeypatch.setattr(prover, "normalize_proof", normalize_proof)
    return log


def _chain_set():
    # ~p(X) binds X to Y, ~r(Y) binds Y to W, ~s(W) binds W to b: the goal
    # ~q(X) then reaches b through three cells and clashes with q(a)
    X, Y, W = Var("X"), Var("Y"), Var("W")
    return _clause_set([
        _cl([Literal(False, atom("p", X)), Literal(False, atom("q", X))], "g_0", "g"),
        _cl([Literal(True, atom("p", Y)), Literal(False, atom("r", Y))], "c1_0", "c1"),
        _cl([Literal(True, atom("r", W)), Literal(False, atom("s", W))], "c2_0", "c2"),
        _cl([Literal(True, atom("s", const("b")))], "c3_0", "c3"),
        _cl([Literal(True, atom("q", const("a")))], "c4_0", "c4"),
        _cl([Literal(True, atom("q", const("b")))], "c5_0", "c5"),
    ], start_ids={"g_0"})


def test_clash_through_a_cell_chain_is_skipped_and_charged(monkeypatch):
    b = App("b", ())
    chain = [_Cell(f"V{i}") for i in range(3)]
    chain[0].ref, chain[1].ref, chain[2].ref = chain[1], chain[2], b
    assert _clashes((chain[0],), ((0, "a", 0),))
    assert not _clashes((chain[0],), ((0, "b", 0),))
    assert not _clashes((_Cell("U"),), ((0, "a", 0),))

    log = _spy_attempts(monkeypatch)
    res = prove(_chain_set(), Limits(max_depth=4))
    assert res.status == PROVED
    assert ("clash", ((0, "a", 0),)) in log
    # every charged attempt either clashed or unified, never both
    assert res.stats.inferences == len(log)
    assert [s.clause_id for s in res.proof.steps[1:]] == \
        ["c1_0", "c2_0", "c3_0", "c5_0"]


def test_clash_below_the_top_symbol_falls_through_to_unification(monkeypatch):
    fa, fb = App("f", (const("a"),)), App("f", (const("b"),))
    assert not _clashes((fa,), ((0, "f", 1),))
    cs = _clause_set([
        _cl([Literal(False, atom("p", fa))], "g_0", "g"),
        _cl([Literal(True, atom("p", fb))], "u1_0", "u1"),
        _cl([Literal(True, atom("p", App("f", (Var("X"),))))], "u2_0", "u2"),
    ], start_ids={"g_0"})
    log = _spy_attempts(monkeypatch)
    res = prove(cs, Limits(max_depth=2))
    assert res.status == PROVED
    assert res.stats.inferences == 2
    assert log == [("unify", False), ("unify", True)]


def test_budget_ending_on_a_clash():
    cs = _clause_set([
        _cl([Literal(False, atom("p", const("a")))], "g_0", "g"),
        _cl([Literal(True, atom("p", const("b")))], "u1_0", "u1"),
        _cl([Literal(True, atom("p", const("c")))], "u2_0", "u2"),
        _cl([Literal(True, atom("p", const("a")))], "u3_0", "u3"),
    ], start_ids={"g_0"})
    for k in (1, 2):        # the k-th attempt is a clash
        res = prove(cs, Limits(max_depth=2, inference_budget=k))
        assert res.status == INFERENCE_LIMIT
        assert res.stats.inferences == k
    res = prove(cs, Limits(max_depth=2, inference_budget=3))
    assert res.status == PROVED and res.stats.inferences == 3


def _depth_refuted_set():
    # at depth 1, c1's goal ~q(a) fails at the depth limit and cuts the
    # pass off; c2 and c3 would then each add a goal ~r(.) that fails
    # there too, with no path literal r(.) to reduce against
    X = Var("X")
    return _clause_set([
        _cl([Literal(False, atom("p", const("a")))], "g_0", "g"),
        _cl([Literal(True, atom("p", X)), Literal(False, atom("q", X))], "c1_0", "c1"),
        _cl([Literal(True, atom("p", const("b"))),
             Literal(False, atom("r", const("b")))], "c2_0", "c2"),
        _cl([Literal(True, atom("p", X)), Literal(False, atom("r", X))], "c3_0", "c3"),
        _cl([Literal(True, atom("q", const("a")))], "c4_0", "c4"),
    ], start_ids={"g_0"})


def test_depth_refuted_extension_is_charged_without_search(monkeypatch):
    log = _spy_attempts(monkeypatch)
    res = prove(_depth_refuted_set(), Limits(max_depth=4))
    assert res.status == PROVED
    assert res.stats.inferences == 5 and res.stats.depth_reached == 2
    # c2 (which would clash) and c3 (which would unify) reach neither
    # `_clashes` nor `_unify_args`: depth 1 unifies c1 only, depth 2 c1, c4
    assert log == [("unify", True)] * 3
    assert proof_to_text(res.proof) == (
        "start g_0\n"
        "ext c1_0 0 | ~ p(a) | X_i2=a\n"
        "ext c4_0 0 | ~ q(X_i2) | -\n"
        "premises c1 c4 g\n")


def test_budget_ending_on_a_depth_refuted_extension():
    cs = _depth_refuted_set()
    for k in (2, 3):        # the k-th attempt is refuted by the depth bound
        res = prove(cs, Limits(max_depth=4, inference_budget=k))
        assert res.status == INFERENCE_LIMIT
        assert res.stats.inferences == k
    res = prove(cs, Limits(max_depth=4, inference_budget=5))
    assert res.status == PROVED and res.stats.inferences == 5


@pytest.mark.parametrize("unit", [False, True])
def test_first_extension_to_reach_the_depth_limit_cuts_the_pass_off(unit):
    # ~p(a) and p(X) | ~p(f(X)) never saturate: each pass's one extension
    # to reach the depth limit is the first the pass tries, and only its
    # success tells the pass it was cut off.  With p(f(f(a))) the set is
    # refutable at depth 3; without, it has a model.
    X = Var("X")
    clauses = [
        _cl([Literal(False, atom("p", const("a")))], "g_0", "g"),
        _cl([Literal(True, atom("p", X)),
             Literal(False, atom("p", App("f", (X,))))], "c1_0", "c1"),
    ]
    if unit:
        clauses.append(_cl([Literal(True, atom(
            "p", App("f", (App("f", (const("a"),)),))))], "c2_0", "c2"))
    cs = _clause_set(clauses, start_ids={"g_0"})
    for depth, inferences in ((1, 1 + unit), (2, 3 + 3 * unit)):
        res = prove(cs, Limits(max_depth=depth))
        assert res.status == INFERENCE_LIMIT and res.model is None
        assert res.stats.stop_reason == "depth exhausted"
        assert res.stats.inferences == inferences
    if unit:
        res = prove(cs, Limits(max_depth=3))
        assert res.status == PROVED and res.stats.inferences == 10


@pytest.mark.parametrize("case", ["proved", "counter_satisfiable",
                                  "inference_limit"])
def test_no_pool_cell_left_bound(monkeypatch, case):
    searches = []

    class Recorded(prover._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(prover, "_Search", Recorded)
    X = Var("X")
    if case == "proved":
        cs, limits = _chain_set(), Limits(max_depth=4)
    elif case == "counter_satisfiable":
        cs, limits = _clause_set([
            _cl([Literal(False, atom("p", X)), Literal(False, atom("q", X))],
                "g_0", "g"),
            _cl([Literal(True, atom("p", X))], "a_0", "a"),
        ], start_ids={"g_0"}), Limits(max_depth=4)
    else:
        f = lambda t: App("f", (t,))
        cs, limits = _clause_set([
            _cl([Literal(True, atom("p", const("c")))], "a_0", "a"),
            _cl([Literal(False, atom("p", X)), Literal(True, atom("p", f(X)))],
                "b_0", "b"),
            _cl([Literal(False, atom("p", f(f(f(f(const("c")))))))], "g_0", "g"),
        ], start_ids={"g_0"}), Limits(max_depth=6, inference_budget=7)
    res = prove(cs, limits)
    assert res.status == case
    (search,) = searches
    assert search.pool and search.trail == []
    assert all(cell.ref is None for cell in search.pool)


# ---------------------------------------------------------------------------
# Only the clauses a start clause reaches are compiled


def test_unreached_clause_gets_no_template_and_no_index_entry():
    X = Var("X")
    clauses = [
        _cl([Literal(True, atom("s", X)), Literal(True, atom("t"))], "u1_0"),
        _cl([Literal(True, atom("p", const("a"))), Literal(True, atom("q", X))],
            "r1_0"),
        _cl([Literal(False, atom("t"))], "u2_0"),
        _cl([Literal(False, atom("q", const("b"))), Literal(True, atom("r"))],
            "r2_0"),
        _cl([Literal(False, atom("p", X))], "g_0"),
    ]
    compiled, index = _compile(clauses, [4])
    assert [ci for ci, entry in enumerate(compiled) if entry is None] == [0, 2]
    indexed = [e[2] for entries in index.values() for e in entries]
    assert sorted(indexed) == ["g_0", "r1_0", "r1_0", "r2_0", "r2_0"]
    # a reached literal has the candidates a compile of every clause gives
    _compiled, full = _compile(clauses, range(len(clauses)))
    for _names, lits in (compiled[1], compiled[3], compiled[4]):
        for lit in lits:
            assert ([e[2] for e in index.get(lit.complement, ())]
                    == [e[2] for e in full.get(lit.complement, ())])
    res = prove(_clause_set(clauses, {"g_0"}), Limits(max_depth=4))
    assert res.status == COUNTER_SATISFIABLE


def _outcome(cs: ClauseSet, limits: Limits) -> tuple:
    res = prove(cs, limits, model_max_domain=1)
    return (res.status, res.stats.inferences, res.stats.depth_reached,
            res.stats.stop_reason, res.proof and proof_to_text(res.proof))


def _random_first_order_set(rng: random.Random) -> ClauseSet:
    signature = [("p", 1), ("q", 1), ("r", 2), ("s", 0), ("t", 1)]
    clauses = []
    for i in range(rng.randint(2, 8)):
        lits = []
        for _ in range(rng.randint(1, 3)):
            pred, arity = rng.choice(signature)
            args = tuple(random_term(rng, ["X", "Y"], 1) for _ in range(arity))
            lits.append(Literal(rng.random() < 0.5, Atom(pred, args)))
        clauses.append(_cl(lits, f"c{i}_0", f"c{i}"))
    negative = [c.clause_id for c in clauses if c.is_negative()]
    return _clause_set(clauses, {rng.choice(negative or [clauses[-1].clause_id])})


def _pruning_sets(tmp_path) -> list:
    """Seeded random clause sets; every mixed30 theorem from its latest 2,
    4 and 8 eligible premises and from all of them; and every neardup
    problem with each suffix of its axioms, as a challenge rung takes."""
    rng = random.Random(25)
    sets = [_random_first_order_set(rng) for _ in range(300)]
    corpus = load_corpus(MIXED30)
    build = clause_set_builder("library", corpus)
    for i, item in corpus.theorems():
        eligible = [e.name for e in corpus.eligible(i)]
        sets += [build(item.name, premises) for premises in
                 (eligible[-2:], eligible[-4:], eligible[-8:], eligible)]
    root = str(tmp_path / "neardup")
    generate_corpus("neardup", 10, root, verify=False)
    problems = dict(parse_problem_dir(root))
    build = clause_set_builder("challenge", problems.__getitem__)
    for pid, problem in problems.items():
        axioms = [af.name for af in problem.formulas if af.role != "conjecture"]
        sets += [build(pid, axioms[k:]) for k in range(len(axioms))]
    return sets


def test_pruned_compile_matches_compiling_every_clause(monkeypatch, tmp_path):
    limits = Limits(max_depth=6, inference_budget=3000)
    sets = _pruning_sets(tmp_path)
    real = prover._compile
    unreached = []

    def recorded(clauses, starts):
        compiled, index = real(clauses, starts)
        unreached.append(compiled.count(None))
        return compiled, index

    monkeypatch.setattr(prover, "_compile", recorded)
    got = [_outcome(cs, limits) for cs in sets]
    monkeypatch.setattr(prover, "_compile",
                        lambda clauses, _starts: real(clauses, range(len(clauses))))
    assert got == [_outcome(cs, limits) for cs in sets]
    # the sets do leave clauses out, and end both ways
    assert sum(1 for n in unreached[:300] if n) >= 100
    assert sum(1 for n in unreached[300:] if n) >= 100
    assert {PROVED, COUNTER_SATISFIABLE} <= {o[0] for o in got}


# ---------------------------------------------------------------------------
# Each clause is compiled once per process, and equal clauses share a code


def _codes_of(sets) -> list:
    return [getattr(c, "code", None) for cs in sets for c in cs.clauses]


def test_kept_and_shared_codes_prove_as_codes_built_afresh(monkeypatch, tmp_path):
    # cold: the searches build every code, in tables of their own; warm: a
    # second builder's equal sets meet the codes the cold run interned, and
    # the first builder's sets read the codes their clauses kept
    for table in ("_PRED_KEYS", "_CODES", "_INTERNED"):
        monkeypatch.setattr(prover, table, {})
    limits = Limits(max_depth=6, inference_budget=3000)
    first = _pruning_sets(tmp_path / "first")
    assert not any(_codes_of(first))
    cold = [_outcome(cs, limits) for cs in first]
    second = _pruning_sets(tmp_path / "second")
    assert not any(_codes_of(second))
    assert [_outcome(cs, limits) for cs in second] == cold
    assert [_outcome(cs, limits) for cs in first] == cold
    pairs = [(a, b) for cs1, cs2 in zip(first, second)
             for a, b in zip(cs1.clauses, cs2.clauses)]
    assert all(a == b for a, b in pairs)
    flat = [(a, b) for a, b in pairs if prover._shape(a) is not None]
    assert all(a.code is b.code for a, b in flat)
    # compound arguments are never hashed, so those codes are not shared
    assert 0 < len(flat) < len(pairs)
    assert not any(a.code is b.code for a, b in pairs if prover._shape(a) is None)


def test_equal_clauses_of_a_batch_share_one_code(tmp_path):
    # each problem clausified on its own, as the benchmark's speedup set-up
    # does: equal statements give equal, not identical, clauses
    root = tmp_path / "neardup"
    generate_corpus("neardup", 20, str(root), verify=False)
    sets = [clausal_problem(parse_problem_file(str(path)))
            for path in sorted(root.glob("*.p"))]
    for cs in sets:
        assert prove(cs, Limits(inference_budget=50000, max_depth=10)).status == PROVED
    clauses = [c for cs in sets for c in cs.clauses]
    codes: dict = {}        # shape -> the ids of its clauses' codes
    for c in clauses:
        codes.setdefault(prover._shape(c), set()).add(id(c.code))
    assert None not in codes
    assert all(len(ids) == 1 for ids in codes.values())
    assert len({id(c.code) for c in clauses}) == len(codes) < len(clauses)
    seen: dict = {}         # clause content -> (problem index, clause)
    shared = 0
    for i, cs in enumerate(sets):
        for c in cs.clauses:
            j, other = seen.setdefault(c.literals, (i, c))
            if j != i:
                assert c.code is other.code
                shared += 1
    assert shared


def test_a_pickled_clause_carries_no_code():
    # a code's keys are numbered per process, so no code crosses a process
    # boundary: an unpickled clause set compiles again and proves alike
    limits = Limits(max_depth=6, inference_budget=3000)
    rng = random.Random(7)
    sets = [modus_ponens_set(), _deep_set(50)] + [
        _random_first_order_set(rng) for _ in range(30)]
    before = [_outcome(cs, limits) for cs in sets]
    assert all(_codes_of(sets))
    copies = pickle.loads(pickle.dumps(sets))
    assert not any(_codes_of(copies))
    assert [c.signature for cs in copies for c in cs.clauses] == \
        [c.signature for cs in sets for c in cs.clauses]
    assert [_outcome(cs, limits) for cs in copies] == before


def test_a_repeated_literal_is_a_goal_of_its_own():
    # `Clause` keeps a repeated literal that `make_clause` would drop; each
    # position is a goal of its own, so the proof closes both copies
    a, X = const("a"), Var("X")
    cs = _clause_set([
        Clause((Literal(False, atom("q", a)), Literal(False, atom("q", a))), "g", "g_0"),
        Clause((Literal(True, atom("q", X)), Literal(False, atom("p", X)),
                Literal(False, atom("p", X))), "r", "r_0"),
        Clause((Literal(True, atom("p", X)), Literal(True, atom("p", X))), "s", "s_0"),
    ], start_ids={"g_0"})
    res = prove(cs, Limits(max_depth=6))
    assert check_proof(res.proof, cs)
    assert _outcome(cs, Limits(max_depth=6)) == (
        PROVED, 11, 2, "proved",
        "start g_0\n"
        "ext r_0 0 | ~ q(a) | X_i2=a\n"
        "ext s_0 0 | ~ p(X_i2) | X_i3=a\n"
        "red 1 | p(X_i3) | -\n"
        "ext s_0 0 | ~ p(X_i2) | X_i4=a\n"
        "red 1 | p(X_i4) | -\n"
        "ext r_0 0 | ~ q(a) | X_i5=a\n"
        "ext s_0 0 | ~ p(X_i5) | X_i6=a\n"
        "red 1 | p(X_i6) | -\n"
        "ext s_0 0 | ~ p(X_i5) | X_i7=a\n"
        "red 1 | p(X_i7) | -\n"
        "premises g r s\n")
