import random

from proofbench.fol import And, Eq, Forall, Var
from proofbench.features import (
    branch_features, combine, semantic_features, structural_features,
    symbol_features,
)
from proofbench.models import FiniteModel, ModelStore, UNDEFINED, evaluate
from proofbench.parser import parse_problem

from helpers import (
    alpha_equivalent, app, atom, cell_literal, const, goals_of,
    random_closed_formula, rename_bound_vars,
)


def test_symbol_features_simple():
    assert symbol_features(atom("p", const("c"))) == {"SYM:p": 1.0, "SYM:c": 1.0}
    # a quoted name keeps its space: one symbol, one feature
    quoted = parse_problem("fof(t, conjecture, p('a b')).").conjecture.formula
    assert combine(symbol_features(quoted), structural_features(quoted)) == \
        {"SYM:p": 1.0, "SYM:a b": 1.0, "STR:p>a b": 1.0}


def test_symbol_features_weights_count_occurrences():
    f = And(atom("p", Var("X")), atom("p", Var("X")))
    assert symbol_features(f) == {"SYM:p": 2.0}


def test_symbol_features_complex_arith_schema():
    # re(plus(a, times(i,b))) = a  &  im(plus(a, times(i,b))) = b
    a, b, i = const("a"), const("b"), const("i")
    lhs1 = app("re", app("plus", a, app("times", i, b)))
    lhs2 = app("im", app("plus", a, app("times", i, b)))
    f = And(Eq(lhs1, a), Eq(lhs2, b))
    assert symbol_features(f) == {
        "SYM:re": 1.0, "SYM:im": 1.0, "SYM:plus": 2.0, "SYM:times": 2.0,
        "SYM:i": 2.0, "SYM:a": 3.0, "SYM:b": 3.0, "SYM:=": 2.0,
    }


def test_structural_paths_depth2():
    f = atom("p", app("f", const("c")))
    assert structural_features(f) == {"STR:p>f": 1.0, "STR:f>c": 1.0}


def test_structural_variable_abstraction():
    assert structural_features(atom("p", Var("X"))) == {"STR:p>VAR": 1.0}


def test_structural_hand_enumeration():
    f = atom("q", app("f", Var("X")), app("f", const("c")))
    assert structural_features(f) == {
        "STR:q>f": 2.0, "STR:f>VAR": 1.0, "STR:f>c": 1.0,
    }
    # preorder: a node's pairs before its children's
    assert list(structural_features(f)) == ["STR:q>f", "STR:f>VAR", "STR:f>c"]


def test_structural_features_of_deep_terms_and_long_conjunctions():
    t = const("c")
    for _ in range(10_000):
        t = app("f", t)
    assert structural_features(Eq(t, Var("X"))) == {
        "STR:=>f": 1.0, "STR:=>VAR": 1.0, "STR:f>f": 9_999.0, "STR:f>c": 1.0}
    f = atom("p", const("c"))
    for _ in range(9_999):          # 10 000 conjuncts, nested to the left
        f = And(f, Forall("X", atom("q", Var("X"))))
    assert structural_features(f) == {"STR:p>c": 1.0, "STR:q>VAR": 9_999.0}


def test_semantic_features_skip_undefined():
    store = ModelStore()
    assert semantic_features(atom("p", const("c")), store) == {}
    m0 = FiniteModel(1, {"c": {(): 0}}, {"p": {(0,): True}})
    m1 = FiniteModel(1, {"c": {(): 0}}, {"q": {(0,): True}})
    store.add(m0)
    store.add(m1)
    f = atom("p", const("c"))
    assert evaluate(f, m1) is UNDEFINED
    assert semantic_features(f, store) == {"MOD:0:T": 1.0}


def test_semantic_features_false_token():
    store = ModelStore()
    store.add(FiniteModel(1, {"c": {(): 0}}, {"p": {(0,): False}}))
    assert semantic_features(atom("p", const("c")), store) == {"MOD:0:F": 1.0}


def test_combine_disjoint_union_and_weights():
    v1 = {"SYM:p": 1.0}
    v2 = {"STR:p>c": 2.0}
    assert combine(v1, v2) == {"SYM:p": 1.0, "STR:p>c": 2.0}
    assert combine(v1, {}) == v1
    assert combine(v1, v1) == {"SYM:p": 2.0}


def test_combined_entry_count_for_one_formula():
    f = Forall("X", atom("q", Var("X"), const("c")))
    store = ModelStore()
    store.add(FiniteModel(1, {"c": {(): 0}}, {"q": {(0, 0): True}}))
    sym = symbol_features(f)
    st = structural_features(f)
    se = semantic_features(f, store)
    full = combine(sym, st, se)
    assert len(full) == len(sym) + len(st) + len(se)


def test_alpha_invariance_all_namespaces():
    rng = random.Random(23)
    store = ModelStore()
    store.add(FiniteModel(2, {"c": {(): 0}, "f": {(0,): 1, (1,): 0}},
                          {"p": {(0,): True, (1,): False},
                           "q": {(0,): False, (1,): True}}))
    for _ in range(50):
        f = random_closed_formula(rng, depth=3, unary_only=True)
        g = rename_bound_vars(f)
        assert alpha_equivalent(f, g)
        assert symbol_features(f) == symbol_features(g)
        assert structural_features(f) == structural_features(g)
        assert semantic_features(f, store) == semantic_features(g, store)


def test_mod_features_monotone_under_store_growth():
    f = atom("p", const("c"))
    store = ModelStore()
    store.add(FiniteModel(1, {"c": {(): 0}}, {"p": {(0,): True}}))
    before = semantic_features(f, store)
    store.add(FiniteModel(1, {"c": {(): 0}}, {"p": {(0,): False}}))
    after = semantic_features(f, store)
    for fid, w in before.items():
        assert after[fid] == w
    assert "MOD:1:F" in after


def test_branch_features_sum_literal_symbols():
    from proofbench.fol import Literal
    from proofbench.prover import _symbols
    lits = [cell_literal(Literal(True, atom("p", const("c"))), {}),
            cell_literal(Literal(False, atom("p", Var("X"))), {})]
    assert branch_features(_symbols(goals_of(lits))) == {"SYM:p": 2.0, "SYM:c": 1.0}
