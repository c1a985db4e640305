import glob
import os
import random
from collections import Counter

import pytest

from proofbench.fol import (
    And, AnnotatedFormula, App, ArityError, Atom, DuplicateNameError, Eq,
    Exists, Forall, Implies, Literal, MultipleConjecturesError, Not, Or, Var,
    alpha_normal, free_vars_ordered, make_clause, make_problem, occurs_free,
    symbols_of, universal_closure,
)
from proofbench.generator import FAMILIES, generate_corpus
from proofbench.parser import parse_problem_file

from helpers import (
    alpha_equivalent, app, atom, complement, const, random_formula,
    ref_free_vars_ordered, ref_symbols_of, ref_universal_closure,
    rename_bound_vars, seeded_random_formulas, subformulas, subst_formula,
)

MIXED30 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "corpora", "mixed30")


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


def test_walks_equal_their_recursive_references(tmp_path):
    paths = glob.glob(os.path.join(MIXED30, "**", "*.p"), recursive=True)
    for family in FAMILIES:
        generate_corpus(family, 12, str(tmp_path / family), verify=False)
        paths += glob.glob(str(tmp_path / family / "**" / "*.p"), recursive=True)
    formulas = seeded_random_formulas() + [
        af.formula for path in sorted(paths)
        for af in parse_problem_file(path).formulas]
    opened = 0
    for f in formulas:
        want = ref_symbols_of(f)
        got = symbols_of(f)
        assert list(got.items()) == list(want.items()), f
        assert f.signature == tuple(want), f
        for g in subformulas(f):    # open ones too, as under a binder
            names = ref_free_vars_ordered(g)
            opened += bool(names)
            assert free_vars_ordered(g) == names, g
            assert universal_closure(g) == ref_universal_closure(g), g
    assert opened > 1000


def _deep_formula(levels: int):
    """`levels` nested connectives and quantifiers over `p(f^levels(Y), X)`:
    ~, ![X]:, q(W) | and ?[Z]:, in turn from the inside."""
    t = Var("Y")
    for _ in range(levels):
        t = App("f", (t,))
    g = Atom("p", (t, Var("X")))
    wrap = [Not, lambda g: Forall("X", g), lambda g: Or(atom("q", Var("W")), g),
            lambda g: Exists("Z", g)]
    for i in range(levels):
        g = wrap[i % 4](g)
    return g


def test_walks_take_a_formula_past_the_recursion_limit():
    f = _deep_formula(5000)
    with pytest.raises(RecursionError):
        ref_symbols_of(f)
    with pytest.raises(RecursionError):
        ref_free_vars_ordered(f)
    want = [(("q", "predicate", 1), 1250), (("p", "predicate", 2), 1),
            (("f", "function", 1), 5000)]
    assert list(symbols_of(f).items()) == want
    assert f.signature == tuple(key for key, _n in want)
    assert free_vars_ordered(f) == ["W", "Y"]
    closed, names = universal_closure(f)
    assert names == ["W", "Y"]
    assert (closed.var, closed.body.var) == ("W", "Y") and closed.body.body is f


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
