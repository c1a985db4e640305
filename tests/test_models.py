import itertools
import json
import os
import random

import pytest

from proofbench import models
from proofbench.fol import (
    FALSE, TRUE, And, App, Atom, Clause, Eq, Exists, Forall, Literal, Not, Or,
    Var, make_clause,
)
from proofbench.models import (
    UNDEFINED, FiniteModel, ModelCheckError, ModelStore, ResourceError, evaluate,
    evaluate_models, find_model, model_from_text, model_to_text,
)

from helpers import (
    all_interpretations, atom, brute_clause_eval, brute_eval, const,
    finder_blowup_clauses, random_closed_formula,
)


def _cl(lits, cid="c0"):
    return make_clause(lits, origin=cid, clause_id=cid)


def test_find_model_single_fact():
    m = find_model([_cl([Literal(True, atom("p", const("c")))])], 3)
    assert m is not None and m.size == 1
    assert m.funcs["c"][()] == 0
    assert m.preds["p"][(0,)] is True


def test_found_model_checked_by_explicit_error(monkeypatch):
    # every clause goes through the Tarskian `evaluate`, and a failed check
    # raises explicitly: unlike an assert, it still runs under python -O
    clauses = [_cl([Literal(True, atom("p", const("c")))], "c0"),
               _cl([Literal(False, atom("q", Var("X"), const("c")))], "c1")]
    checked = []
    real = models.evaluate

    def counted(f, m):
        checked.append(f)
        return real(f, m)

    monkeypatch.setattr(models, "evaluate", counted)
    assert find_model(clauses, 3) is not None
    assert checked == clauses
    monkeypatch.setattr(models, "evaluate", lambda _f, _m: False)
    with pytest.raises(ModelCheckError):
        find_model(clauses, 3)


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


def test_evaluate_symbol_at_another_arity_undefined():
    # the model's f is unary; f(X,X) has no table, so no truth value
    m = FiniteModel(2, {"f": {(0,): 1, (1,): 0}}, {"p": {(0,): True, (1,): False}})
    f_xx = App("f", (Var("X"), Var("X")))
    assert evaluate(Forall("X", atom("p", f_xx)), m) is UNDEFINED
    assert evaluate(_cl([Literal(True, atom("p", f_xx))]), m) is UNDEFINED
    assert evaluate(_cl([Literal(True, atom("p", Var("X"), Var("X")))]), m) is UNDEFINED
    assert evaluate(_cl([Literal(True, atom("p", App("f", (Var("X"),))))]), m) is False


def test_evaluate_empty_clause_false_in_every_model():
    for m in (FiniteModel(1, {}, {}), FiniteModel(2, {}, {"p": {(0,): True, (1,): True}})):
        assert evaluate(Clause(()), m) is False


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
    # one row per formula, one column per stored model
    store = ModelStore()
    assert [evaluate_models(f, store) for f in [atom("p", const("c"))]] == [[]]
    m = find_model([_cl([Literal(True, atom("p", const("c")))])], 2)
    store.add(m)
    formulas = [
        atom("p", const("c")),
        Forall("X", atom("p", Var("X"))),
        atom("q", const("c")),
    ]
    matrix = [evaluate_models(f, store) for f in formulas]
    assert matrix == [[evaluate(f, m)] for f in formulas]
    assert matrix[2] == [UNDEFINED]


def test_evaluate_models_equals_evaluate_per_model():
    # models over full, partial and differently sized signatures, so each
    # batch mixes defined and UNDEFINED columns
    models_ = [FiniteModel(1, funcs, preds) for funcs, preds in
               all_interpretations({"c": 0, "f": 1}, {"p": 1, "q": 1}, 1)]
    models_ += [FiniteModel(2, funcs, preds) for funcs, preds in
                itertools.islice(all_interpretations(
                    {"c": 0, "f": 1}, {"p": 1, "q": 1}, 2), 0, None, 7)]
    models_ += [FiniteModel(2, funcs, preds) for funcs, preds in
                all_interpretations({"c": 0}, {"p": 1}, 2)]
    rng = random.Random(5)
    formulas = [random_closed_formula(rng, depth=3, allow_eq=True,
                                      unary_only=True) for _ in range(60)]
    formulas += [
        TRUE, FALSE, Eq(const("c"), const("c")),
        Exists("X", And(atom("p", Var("X")), Not(FALSE))),
        Forall("X", Or(Eq(Var("X"), const("c")), atom("q", Var("X")))),
        _cl([Literal(True, atom("p", Var("X"))),
             Literal(False, atom("q", App("f", (Var("X"),))))]),
    ]
    seen = set()
    for f in formulas:
        assert evaluate_models(f, []) == []
        row = evaluate_models(f, models_)
        assert row == [evaluate(f, m) for m in models_]
        seen.update(v if v is UNDEFINED else type(v) for v in row)
        if not isinstance(f, Clause):
            assert [v for v in row if v is not UNDEFINED] == [
                brute_eval(f, m.funcs, m.preds, m.size) for m, v in
                zip(models_, row) if v is not UNDEFINED]
    assert seen == {UNDEFINED, bool}


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


def test_every_golden_model_reads_back_as_written():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "models.json"), encoding="utf-8") as fh:
        texts = [t for t in json.load(fh).values()
                 if t and not t.startswith("ResourceError")]
    assert len(texts) > 100
    for text in texts:
        assert model_to_text(model_from_text(text)) == text


WRITTEN_MODEL = ("domain 2\nprovenance x\nfun c() = 1\nfun f(1) = 0\n"
                 "pred p(0) = true\npred r() = false\n")


@pytest.mark.parametrize("old, new", [
    ("domain 2\n", ""),                    # once read as a domain of size 0
    ("domain 2\n", "domain 2\ndomain 3\n"),
    ("domain 2", "domain 0"),
    ("domain 2", "domain \uff12"),          # a fullwidth 2
    ("fun f(1)", "fun f(1_0)"),             # once read as f(10)
    ("fun f(1)", "fun f(2)"),
    ("fun c() = 1", "fun c() = 2"),
    ("p(0) = true", "p(0) = yes"),          # once read as false
    ("p(0) = true", "p(0) = True"),
    ("pred r()", "prd r()"),                # once read as a predicate
    ("fun c() = 1\n", "fun c() = 1\nfun c() = 0\n"),  # once the last won
])
def test_a_malformed_model_text_is_refused(old, new):
    assert model_to_text(model_from_text(WRITTEN_MODEL)) == WRITTEN_MODEL
    with pytest.raises(ValueError):
        model_from_text(WRITTEN_MODEL.replace(old, new, 1))


def test_wide_clause_set_finds_its_model_without_recursion():
    # one decision per cell: a search that recursed per decision would
    # exhaust Python's recursion limit here
    clauses = [_cl([Literal(True, atom(f"p{i}")), Literal(True, atom(f"q{i}"))],
                   f"c{i}") for i in range(1500)]
    m = find_model(clauses, 1)
    assert m is not None and m.size == 1
    assert all(evaluate(c, m) is True for c in clauses)


def test_decision_guard():
    clauses = finder_blowup_clauses()
    assert find_model(clauses, 2) is None
    with pytest.raises(ResourceError, match="decisions at domain 3"):
        find_model(clauses, 3)
