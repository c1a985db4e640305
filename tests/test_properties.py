from hypothesis import given, settings, strategies as st

from proofbench.clausify import nnf
from proofbench.features import combine, symbol_features
from proofbench.fol import (
    And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or, Var, alpha_normal,
    app, atom, const, universal_closure,
)
from proofbench.parser import parse_formula, print_formula
from proofbench.prover import resolve_term

from helpers import alpha_equivalent, prop_equivalent, unify_terms, with_cells

SETTINGS = settings(max_examples=150, derandomize=True)

variables = st.sampled_from(["X", "Y", "Z"])

terms = st.recursive(
    st.sampled_from([Var("X"), Var("Y"), const("c"), const("d")]),
    lambda child: st.builds(lambda t: app("f", t), child),
    max_leaves=4)

atoms = st.one_of(
    st.builds(lambda t: atom("p", t), terms),
    st.builds(lambda a, b: atom("q", a, b), terms, terms),
    st.builds(Eq, terms, terms),
)

formulas = st.recursive(
    atoms,
    lambda child: st.one_of(
        st.builds(Not, child),
        st.builds(And, child, child),
        st.builds(Or, child, child),
        st.builds(Implies, child, child),
        st.builds(Iff, child, child),
        st.builds(Forall, variables, child),
        st.builds(Exists, variables, child),
    ),
    max_leaves=8)

closed_formulas = formulas.map(lambda f: universal_closure(f)[0])

prop_atoms = st.sampled_from([Atom("p", ()), Atom("q", ()), Atom("r", ())])
prop_formulas = st.recursive(
    prop_atoms,
    lambda child: st.one_of(
        st.builds(Not, child),
        st.builds(And, child, child),
        st.builds(Or, child, child),
        st.builds(Implies, child, child),
        st.builds(Iff, child, child),
    ),
    max_leaves=8)


@SETTINGS
@given(closed_formulas)
def test_print_parse_roundtrip(f):
    assert alpha_equivalent(parse_formula(print_formula(f)), f)


@SETTINGS
@given(formulas)
def test_auto_closure_idempotent(f):
    closed, _ = universal_closure(f)
    again, extra = universal_closure(closed)
    assert again == closed
    assert extra == []


@SETTINGS
@given(closed_formulas)
def test_alpha_normal_idempotent(f):
    n = alpha_normal(f)
    assert alpha_normal(n) == n
    assert alpha_equivalent(f, n)


@SETTINGS
@given(closed_formulas)
def test_symbols_stable_under_alpha_renaming(f):
    from proofbench.fol import symbols_of
    assert symbols_of(f) == symbols_of(alpha_normal(f))
    assert symbol_features(f) == symbol_features(alpha_normal(f))


@SETTINGS
@given(prop_formulas)
def test_nnf_equivalence_propositional(f):
    assert prop_equivalent(f, nnf(f))


@SETTINGS
@given(st.dictionaries(st.sampled_from(["SYM:a", "SYM:b", "STR:a>b"]),
                       st.floats(0.5, 4.0), max_size=3),
       st.dictionaries(st.sampled_from(["SYM:a", "MOD:0:T"]),
                       st.floats(0.5, 4.0), max_size=2))
def test_combine_commutes(v1, v2):
    assert combine(v1, v2) == combine(v2, v1)


@SETTINGS
@given(terms, terms)
def test_unifier_actually_unifies(t1, t2):
    cells: dict = {}
    t1, t2 = with_cells(t1, cells), with_cells(t2, cells)
    if unify_terms(t1, t2, []):
        assert resolve_term(t1) == resolve_term(t2)
