import random

from hypothesis import given, settings, strategies as st

from proofbench.clausify import nnf
from proofbench.features import combine, symbol_features
from proofbench.fol import (
    And, Atom, Eq, Exists, Forall, Iff, Implies, Literal, Not, Or, Var,
    alpha_normal, make_clause, symbols_of, universal_closure,
)
from proofbench.models import UNDEFINED, FiniteModel, evaluate
from proofbench.parser import parse_formula, print_formula
from proofbench.prover import resolve_term

from helpers import (
    all_interpretations, alpha_equivalent, app, atom, brute_clause_eval,
    clause_as_formula, const, prop_equivalent, unify_terms, with_cells,
)

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

clauses = st.lists(st.builds(Literal, st.booleans(), atoms), max_size=3).map(
    make_clause)


def _models() -> list:
    """Interpretations of c, d, f/1, p/1 and q/2 at domains 1 and 2, each
    also without one of its tables, and one with f at arity 2."""
    rng = random.Random(7)
    sig = ({"c": 0, "d": 0, "f": 1}, {"p": 1, "q": 2})
    full = [FiniteModel(1, f, p) for f, p in all_interpretations(*sig, 1)]
    full += [FiniteModel(2, f, p) for f, p in
             rng.sample(list(all_interpretations(*sig, 2)), 12)]
    out = list(full)
    for m in full[::3]:
        out += [FiniteModel(m.size, {s: t for s, t in m.funcs.items() if s != gone},
                            {s: t for s, t in m.preds.items() if s != gone})
                for gone in ("c", "d", "f", "p", "q")]
    binary_f = {(a, b): (a + b) % 2 for a in range(2) for b in range(2)}
    out.append(FiniteModel(2, {**full[-1].funcs, "f": binary_f}, full[-1].preds))
    return out


MODELS = _models()

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


def _covers(m, f) -> bool:
    """Whether m has a table, at the arity f uses, for each symbol of f."""
    for name, kind, arity in symbols_of(f):
        if name == "=":
            continue
        table = (m.funcs if kind == "function" else m.preds).get(name, {})
        if not table or any(len(args) != arity for args in table):
            return False
    return True


@SETTINGS
@given(clauses, st.sampled_from(MODELS))
def test_clause_evaluation_agrees_with_its_formula_and_brute_force(c, m):
    # the direct clause check, the Tarskian evaluator on the clause's
    # closed formula, and the independent oracle give one truth value
    value = evaluate(c, m)
    assert value is evaluate(clause_as_formula(c), m)
    if _covers(m, clause_as_formula(c)):
        assert value is brute_clause_eval(c, m.funcs, m.preds, m.size)
    else:
        assert value is UNDEFINED
