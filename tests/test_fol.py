import random
from collections import Counter

import pytest

from proofbench.fol import (
    And, AnnotatedFormula, App, ArityError, Atom, DuplicateNameError, Eq,
    Exists, Forall, Implies, Literal, MultipleConjecturesError, Or, Var,
    alpha_normal, free_vars_ordered, make_clause, make_problem, occurs_free,
    symbols_of, universal_closure,
)

from helpers import (
    alpha_equivalent, app, atom, complement, const, random_formula,
    rename_bound_vars, subst_formula,
)


def test_symbols_of_simple():
    f = Atom("p", (App("f", (const("c"),)),))
    assert symbols_of(f) == Counter({
        ("p", "predicate", 1): 1,
        ("f", "function", 1): 1,
        ("c", "function", 0): 1,
    })


def test_symbols_of_counts_occurrences():
    f = And(atom("p", Var("X")), atom("p", Var("X")))
    assert symbols_of(f) == Counter({("p", "predicate", 1): 2})


def test_symbols_of_mixed_hand_count():
    # ![X]: (q(X,c) | q(c,X))  ->  q/2 x2, c/0 x2
    f = Forall("X", Or(atom("q", Var("X"), const("c")),
                       atom("q", const("c"), Var("X"))))
    assert symbols_of(f) == Counter({
        ("q", "predicate", 2): 2,
        ("c", "function", 0): 2,
    })


def test_symbols_of_counts_equality():
    f = Eq(const("a"), const("b"))
    assert symbols_of(f)[("=", "predicate", 2)] == 1


def test_universal_closure_orders_by_first_occurrence():
    f = Or(atom("q", Var("Y"), Var("X")), atom("p", Var("X")))
    closed, names = universal_closure(f)
    assert names == ["Y", "X"]
    assert closed == Forall("Y", Forall("X", f))


def test_closure_idempotent():
    f = Forall("X", atom("p", Var("X")))
    closed, names = universal_closure(f)
    assert names == []
    assert closed == f


def test_free_vars_respect_scopes():
    f = And(Forall("X", atom("p", Var("X"))), atom("p", Var("X")))
    assert free_vars_ordered(f) == ["X"]


def test_occurs_free_answers_what_the_free_variable_list_answers():
    rng = random.Random(35)
    seen = set()
    for _ in range(2000):
        f = random_formula(rng, ["X", "Y"], depth=rng.randint(0, 5))
        free = free_vars_ordered(f)
        for v in ("X", "Y", "Z", "W"):
            assert occurs_free(v, f) == (v in free)
            seen.add(v in free)
    assert seen == {True, False}
    # bound below a quantifier, free beside it
    assert not occurs_free("X", Forall("X", atom("p", Var("X"))))
    assert occurs_free("X", Or(Forall("X", atom("p", Var("X"))), atom("p", Var("X"))))


def test_alpha_equivalence():
    f = Forall("X", Exists("Y", atom("q", Var("X"), Var("Y"))))
    g = Forall("A", Exists("B", atom("q", Var("A"), Var("B"))))
    h = Forall("A", Exists("B", atom("q", Var("B"), Var("A"))))
    assert alpha_equivalent(f, g)
    assert not alpha_equivalent(f, h)


def test_alpha_normal_leaves_free_vars():
    f = Forall("X", atom("q", Var("X"), Var("Z")))
    n = alpha_normal(f)
    assert n == Forall("V1", atom("q", Var("V1"), Var("Z")))


def test_alpha_normal_avoids_free_name_collision():
    f = Forall("X", atom("q", Var("X"), Var("V1")))
    n = alpha_normal(f)
    assert free_vars_ordered(n) == ["V1"]
    assert alpha_equivalent(n, f)


def test_rename_bound_vars_is_alpha_equivalent():
    f = Forall("X", Implies(atom("p", Var("X")), Exists("Y", atom("q", Var("X"), Var("Y")))))
    assert alpha_equivalent(f, rename_bound_vars(f))


def test_subst_formula_avoids_capture():
    # replacing X by f(U) under a binder of U must rename the binder
    f = Forall("U", atom("q", Var("X"), Var("U")))
    g = subst_formula(f, {"X": App("f", (Var("U"),))})
    assert isinstance(g, Forall)
    assert g.var != "U"
    assert g.body == Atom("q", (App("f", (Var("U"),)), Var(g.var)))


def test_make_clause_deduplicates():
    lit = Literal(True, atom("p", const("c")))
    c = make_clause([lit, lit, complement(lit)])
    assert c.literals == (lit, complement(lit))


def test_problem_duplicate_name_rejected():
    af = AnnotatedFormula("a", "axiom", atom("p", const("c")))
    with pytest.raises(DuplicateNameError):
        make_problem([af, af])


def test_problem_arity_clash_rejected():
    a1 = AnnotatedFormula("a1", "axiom", atom("p", const("c")))
    a2 = AnnotatedFormula("a2", "axiom", atom("p", const("c"), const("d")))
    with pytest.raises(ArityError):
        make_problem([a1, a2])


def test_problem_predicate_function_clash_rejected():
    a1 = AnnotatedFormula("a1", "axiom", atom("p", const("c")))
    a2 = AnnotatedFormula("a2", "axiom", atom("q", app("p", const("c"))))
    with pytest.raises(ArityError):
        make_problem([a1, a2])


def test_problem_single_conjecture_enforced():
    a1 = AnnotatedFormula("t1", "conjecture", atom("p", const("c")))
    a2 = AnnotatedFormula("t2", "conjecture", atom("p", const("d")))
    with pytest.raises(MultipleConjecturesError):
        make_problem([a1, a2])
