import itertools
import random

import pytest

from proofbench import models
from proofbench.fol import (
    App, Atom, Eq, Forall, Literal, Var, atom, const, make_clause,
)
from proofbench.models import (
    UNDEFINED, FiniteModel, ModelCheckError, ModelStore, ResourceError, evaluate,
    evaluate_corpus, find_model, model_from_text, model_to_text,
)

from helpers import (
    all_interpretations, brute_clause_eval, brute_eval, random_closed_formula,
)


def _cl(lits, cid="c0"):
    return make_clause(lits, origin=cid, clause_id=cid)


def test_find_model_single_fact():
    m = find_model([_cl([Literal(True, atom("p", const("c")))])], 3)
    assert m is not None and m.size == 1
    assert m.funcs["c"][()] == 0
    assert m.preds["p"][(0,)] is True


def test_found_model_checked_by_explicit_error(monkeypatch):
    # an explicit check, unlike an assert, still runs under python -O
    monkeypatch.setattr(models, "evaluate", lambda _f, _m: False)
    with pytest.raises(ModelCheckError):
        find_model([_cl([Literal(True, atom("p", const("c")))])], 3)


def test_find_model_contradiction():
    clauses = [
        _cl([Literal(True, atom("p", Var("X")))], "c0"),
        _cl([Literal(False, atom("p", const("c")))], "c1"),
    ]
    assert find_model(clauses, 4) is None


def test_find_model_unsat_chain_all_domains():
    # {~p(X) | p(f(X)), p(c), ~p(f(f(c)))} has no model at any domain <= 4
    f_of = lambda t: App("f", (t,))
    clauses = [
        _cl([Literal(False, atom("p", Var("X"))),
             Literal(True, atom("p", f_of(Var("X"))))], "c0"),
        _cl([Literal(True, atom("p", const("c")))], "c1"),
        _cl([Literal(False, atom("p", f_of(f_of(const("c")))))], "c2"),
    ]
    assert find_model(clauses, 4) is None
    # brute-force confirmation on domains 1..2 (cheap slice of the claim)
    funcs = {"c": 0, "f": 1}
    preds = {"p": 1}
    for n in (1, 2):
        for funcs_t, preds_t in all_interpretations(funcs, preds, n):
            assert not all(brute_clause_eval(c, funcs_t, preds_t, n) for c in clauses)


def test_find_model_completeness_tiny_signatures():
    # signatures with <= 2 unary predicates + 1 constant, domains <= 3
    rng = random.Random(3)
    funcs = {"c": 0}
    preds = {"p": 1, "q": 1}
    for trial in range(60):
        clauses = []
        n_clauses = rng.randint(1, 4)
        for i in range(n_clauses):
            lits = []
            for _ in range(rng.randint(1, 3)):
                pred = rng.choice(["p", "q"])
                term = Var("X") if rng.random() < 0.5 else const("c")
                lits.append(Literal(rng.random() < 0.5, atom(pred, term)))
            clauses.append(_cl(lits, f"c{i}"))
        got = find_model(clauses, 3)
        brute = False
        for n in (1, 2, 3):
            for funcs_t, preds_t in all_interpretations(funcs, preds, n):
                if all(brute_clause_eval(c, funcs_t, preds_t, n) for c in clauses):
                    brute = True
                    break
            if brute:
                break
        assert (got is not None) == brute, f"trial {trial}"
        if got is not None:
            assert all(evaluate(c, got) is True for c in clauses)


def test_smallest_domain_returned():
    # p(c) & ~p(d) forces two elements
    clauses = [
        _cl([Literal(True, atom("p", const("c")))], "c0"),
        _cl([Literal(False, atom("p", const("d")))], "c1"),
    ]
    m = find_model(clauses, 4)
    assert m is not None and m.size == 2


def test_evaluate_forall_true():
    m = FiniteModel(2, {}, {"p": {(0,): True, (1,): True}})
    assert evaluate(Forall("X", atom("p", Var("X"))), m) is True


def test_evaluate_partial_signature_undefined():
    m = FiniteModel(2, {}, {"p": {(0,): True, (1,): True}})
    assert evaluate(atom("q", Var("X")), m) is UNDEFINED


def test_evaluate_equality_built_in():
    m = FiniteModel(2, {"c": {(): 0}, "d": {(): 1}}, {})
    assert evaluate(Eq(const("c"), const("c")), m) is True
    assert evaluate(Eq(const("c"), const("d")), m) is False


def test_evaluate_matches_brute_force_on_random_pairs():
    rng = random.Random(17)
    funcs = {"c": 0, "f": 1}
    preds = {"p": 1, "q": 1}
    interps = []
    for funcs_t, preds_t in all_interpretations(funcs, preds, 2):
        interps.append(FiniteModel(2, funcs_t, preds_t))
    rng.shuffle(interps)
    for i in range(150):
        f = random_closed_formula(rng, depth=3, allow_eq=True, unary_only=True)
        m = interps[i % len(interps)]
        assert evaluate(f, m) == brute_eval(f, m.funcs, m.preds, m.size)


def test_evaluate_alpha_invariant():
    m = FiniteModel(2, {}, {"p": {(0,): True, (1,): False}})
    f = Forall("X", atom("p", Var("X")))
    g = Forall("Y", atom("p", Var("Y")))
    assert evaluate(f, m) == evaluate(g, m)


def test_evaluate_corpus_matrix():
    store = ModelStore()
    assert evaluate_corpus(store, [atom("p", const("c"))]) == [[]]
    m = find_model([_cl([Literal(True, atom("p", const("c")))])], 2)
    store.add(m)
    formulas = [
        atom("p", const("c")),
        Forall("X", atom("p", Var("X"))),
        atom("q", const("c")),
    ]
    matrix = evaluate_corpus(store, formulas)
    assert matrix == [[evaluate(f, m)] for f in formulas]
    assert matrix[2] == [UNDEFINED]


def test_model_store_dedup_and_stable_indices():
    store = ModelStore()
    m = FiniteModel(1, {"c": {(): 0}}, {"p": {(0,): True}})
    m2 = FiniteModel(1, {"c": {(): 0}}, {"p": {(0,): True}})
    m3 = FiniteModel(1, {"c": {(): 0}}, {"p": {(0,): False}})
    assert store.add(m) == 0
    assert store.add(m2) is None
    assert store.add(m3) == 1
    assert len(store) == 2


def test_grounding_guard():
    # unsatisfiable at domain 1, grounding blows past the guard at domain 2
    wide = Atom("r", tuple(Var(f"X{i}") for i in range(20)))
    ground = Atom("r", tuple(const("c") for _ in range(20)))
    clauses = [
        _cl([Literal(True, wide)], "c0"),
        _cl([Literal(False, ground)], "c1"),
    ]
    with pytest.raises(ResourceError):
        find_model(clauses, 2)


def test_model_dump_roundtrip():
    m = find_model([
        _cl([Literal(True, atom("p", const("c")))], "c0"),
        _cl([Literal(False, atom("p", App("f", (const("c"),))))], "c1"),
    ], 3)
    text = model_to_text(m)
    back = model_from_text(text)
    assert back.size == m.size
    assert back.funcs == m.funcs
    assert back.preds == m.preds
