import glob
import os
import random

from proofbench.clausify import (
    clausal_problem, clause_count_estimate, cnf, equality_axioms, join_forms,
    nnf, skolemize,
)
from proofbench.fol import (
    And, App, Atom, Eq, Exists, FALSE, Forall, Iff, Implies, Literal, Not, Or,
    TRUE, Var, symbols_of, universal_closure,
)
from proofbench.generator import FAMILIES, generate_corpus
from proofbench.models import evaluate, find_model
from proofbench.parser import (
    parse_formula, parse_problem, parse_problem_dir, parse_problem_file,
)

from helpers import (
    alpha_equivalent, atom, brute_clauses_have_model, brute_has_model,
    clause_as_formula, clause_by_id, disj, print_clause,
    prop_clause_satisfiable, prop_equivalent, random_closed_formula,
    reference_cnf, rename_bound_vars, seeded_random_formulas, subformulas,
)

MIXED30 = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "corpora", "mixed30")


P, Q = Atom("p", ()), Atom("q", ())


def test_nnf_de_morgan():
    assert nnf(Not(And(P, Q))) == Or(Not(P), Not(Q))


def test_nnf_quantifier_negation():
    f = Not(Forall("X", atom("p", Var("X"))))
    assert nnf(f) == Exists("X", Not(atom("p", Var("X"))))


def test_nnf_iff_truth_table():
    f = Iff(P, Q)
    expected = And(Or(Not(P), Q), Or(Not(Q), P))
    assert nnf(f) == expected
    assert prop_equivalent(f, nnf(f))


def test_nnf_preserves_equivalence_random():
    rng = random.Random(7)
    for _ in range(200):
        f = _random_prop_formula(rng, 3)
        assert prop_equivalent(f, nnf(f))


def _random_prop_formula(rng, depth):
    if depth == 0:
        return rng.choice([P, Q, Atom("r", ())])
    k = rng.choice(["not", "and", "or", "implies", "iff", "leaf"])
    if k == "leaf":
        return rng.choice([P, Q, Atom("r", ())])
    if k == "not":
        return Not(_random_prop_formula(rng, depth - 1))
    cls = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[k]
    return cls(_random_prop_formula(rng, depth - 1), _random_prop_formula(rng, depth - 1))


def test_skolemize_ground_constant():
    f = Exists("X", atom("p", Var("X")))
    out = skolemize(f)
    assert isinstance(out, Atom)
    (arg,) = out.args
    assert isinstance(arg, App) and arg.args == () and arg.symbol.startswith("sk_")


def test_skolemize_one_dependency():
    f = Forall("X", Exists("Y", atom("q", Var("X"), Var("Y"))))
    out = skolemize(f)
    assert isinstance(out, Atom)
    assert out.args[0] == Var("X")
    sk = out.args[1]
    assert sk.symbol.startswith("sk_") and sk.args == (Var("X"),)


def _skolems(f) -> set:
    """The skolem symbols that occur in `f`."""
    return {name for name, _kind, _arity in symbols_of(f)
            if name.startswith("sk_")}


def test_skolem_names_shared_across_alpha_variants():
    f = Forall("X", Exists("Y", And(atom("q", Var("X"), Var("Y")),
                                    Exists("Z", atom("p", Var("Z"))))))
    g = rename_bound_vars(f)
    s1 = skolemize(nnf(f))
    s2 = skolemize(nnf(g))
    assert len(_skolems(s1)) == 2
    assert _skolems(s1) == _skolems(s2)
    assert alpha_equivalent(universal_closure(s1)[0], universal_closure(s2)[0])


def test_skolem_names_differ_for_different_content():
    s1 = skolemize(Exists("X", atom("p", Var("X"))))
    s2 = skolemize(Exists("X", atom("r", Var("X"))))
    assert _skolems(s1) != _skolems(s2)


def test_skolem_argument_stays_apart_from_a_rebound_universal():
    # the inner X is not the outer X that Y's skolem term depends on
    f = parse_formula("![X]: ?[Y]: (p(X,Y) & ![X]: q(X,Y))")
    out = skolemize(nnf(f))
    p, q = out.parts
    x, sk = p.args
    assert isinstance(x, Var) and sk.args == (x,)
    assert q.args[1] == sk
    assert isinstance(q.args[0], Var) and q.args[0] != x


def _clause_vars(form) -> list:
    return [[t.name for lit in c.literals for t in lit.args] for c in form.clauses]


def test_a_universal_is_renamed_apart_only_where_it_shares_a_clause():
    # the second X under `|` shares the clause with the first and takes X_1;
    # under `&` the two go to different clauses and keep their name
    shared = cnf(parse_formula("(![X]: p(X)) | (![X]: q(X))"))
    assert _clause_vars(shared) == [["X", "X_1"]]
    apart = cnf(parse_formula("(![X]: p(X)) & (![X]: q(X))"))
    assert _clause_vars(apart) == [["X"], ["X"]]
    nested = cnf(parse_formula("![X]: (r(X) | (s(X) & ![X]: t(X)))"))
    assert _clause_vars(nested) == [["X", "X"], ["X", "X_1"]]


def test_a_model_of_a_clausal_form_satisfies_its_source(tmp_path):
    # the clauses of a formula imply it: no model of them (domains 1-2)
    # makes it false
    paths = sorted(glob.glob(os.path.join(MIXED30, "**", "*.p"), recursive=True))
    for family in FAMILIES:
        generate_corpus(family, 12, str(tmp_path / family), verify=False)
        paths += sorted(glob.glob(str(tmp_path / family / "**" / "*.p"),
                                  recursive=True))
    formulas = [af.formula for path in paths
                for af in parse_problem_file(path).formulas]
    formulas += [parse_formula(text) for text in (
        "(![X]: p(X)) | (![X]: q(X))",
        "((![X]: p(X)) | (![X]: q(X))) & ~p(a) & ~q(b)")]
    rng = random.Random(14)
    formulas += [random_closed_formula(rng, depth=rng.choice([3, 4]))
                 for _ in range(200)]
    satisfied = 0
    for f in formulas:
        for negate in (False, True):
            clauses = join_forms([cnf(f, negate=negate)], None).clauses
            model = find_model(clauses, max_domain=2)
            if model is not None:
                assert evaluate(Not(f) if negate else f, model) is not False, \
                    (f, negate)
                satisfied += 1
    assert satisfied > len(formulas)


def test_cnf_simple_distribution():
    f = And(P, Or(Q, Atom("r", ())))
    form = cnf(f, name="a")
    lits = [tuple((l.positive, l.atom.pred) for l in c.literals) for c in form.clauses]
    assert lits == [((True, "p"),), ((True, "q"), (True, "r"))]


def test_cnf_refutation_matches_truth_tables():
    # axioms + cnf(~g) unsatisfiable iff axioms entail g
    rng = random.Random(99)
    for _ in range(50):
        axioms = _random_prop_formula(rng, 2)
        goal = _random_prop_formula(rng, 2)
        clauses = list(cnf(axioms, name="ax").clauses)
        clauses += list(cnf(goal, name="goal", negate=True).clauses)
        unsat = not prop_clause_satisfiable(clauses)
        assert unsat == _tautology(Implies(axioms, goal))


def _tautology(f):
    from helpers import prop_eval, prop_formula_atoms
    import itertools
    atoms = prop_formula_atoms(f)
    return all(prop_eval(f, dict(zip(atoms, bits)))
               for bits in itertools.product([False, True], repeat=len(atoms)))


def test_cnf_equals_reference_pipeline():
    # cnf's two walks before distribution give exactly the clauses, ids,
    # skolem names and equality flag of the one-walk-per-step pipeline
    formulas = [af.formula for _name, problem in parse_problem_dir(MIXED30)
                for af in problem.formulas] + seeded_random_formulas()
    assert any(g in (TRUE, FALSE) for f in formulas for g in subformulas(f))
    for f in formulas:
        for negate in (False, True):
            for threshold in (2, 64):
                got = cnf(f, "x", threshold, negate)
                want = reference_cnf(f, "x", threshold, negate)
                assert got == want, (f, negate, threshold)


def test_definitional_bound_on_wide_disjunction():
    parts = [And(Atom(f"a{i}", ()), Atom(f"b{i}", ())) for i in range(1, 7)]
    f = disj(parts)
    assert clause_count_estimate(nnf(f)) == 64
    naive = cnf(f, name="w", threshold=64)
    assert len(naive.clauses) == 64 and not _definitions(naive)
    named = cnf(f, name="w", threshold=32)
    assert _definitions(named)
    assert len(named.clauses) <= 19


def _definitions(form):
    return {l.atom.pred for c in form.clauses for l in c.literals
            if l.atom.pred.startswith("df_")}


def test_definitional_preserves_satisfiability():
    parts = [And(Atom(f"a{i}", ()), Atom(f"b{i}", ())) for i in range(1, 7)]
    f = disj(parts)
    for form in (cnf(f, name="w", threshold=64), cnf(f, name="w", threshold=4)):
        assert prop_clause_satisfiable(form.clauses)
    g = And(f, Not(f))
    for thr in (64, 4):
        assert not prop_clause_satisfiable(cnf(g, name="w", threshold=thr).clauses)


def test_clause_count_linear_in_connectives():
    rng = random.Random(5)
    thr = 8
    for _ in range(100):
        f = random_closed_formula(rng, depth=4, allow_eq=False)
        n_conn = sum(_connectives(f))
        form = cnf(f, name="x", threshold=thr)
        assert len(form.clauses) <= thr * (1 + n_conn)


def _connectives(f):
    """The connective count of each subformula: one for `~`, one less than
    the operands for the others."""
    from proofbench.fol import BINARY
    for g in subformulas(f):
        if isinstance(g, (BINARY, Not)):
            yield len(g.parts) - 1 if isinstance(g, BINARY) else 1


def test_equality_axioms_textbook_set():
    axs = equality_axioms([("f", "function", 1)])
    by_id = {c.clause_id: c for c in axs}
    assert set(by_id) == {"eq_refl", "eq_sym", "eq_trans", "eq_cong_f_f"}
    X, Y = Var("X"), Var("Y")
    refl = by_id["eq_refl"]
    assert refl.literals == (Literal(True, Eq(X, X)),)
    cong = by_id["eq_cong_f_f"]
    assert cong.literals == (
        Literal(False, Eq(Var("X1"), Var("Y1"))),
        Literal(True, Eq(App("f", (Var("X1"),)), App("f", (Var("Y1"),)))),
    )


def test_equality_axioms_predicate_congruence():
    axs = equality_axioms([("p", "predicate", 2)])
    cong = next(c for c in axs if c.clause_id == "eq_cong_p_p")
    assert cong.literals == (
        Literal(False, Eq(Var("X1"), Var("Y1"))),
        Literal(False, Eq(Var("X2"), Var("Y2"))),
        Literal(False, Atom("p", (Var("X1"), Var("X2")))),
        Literal(True, Atom("p", (Var("Y1"), Var("Y2")))),
    )


def test_no_equality_no_axioms():
    p = parse_problem("fof(a, axiom, p(c)). fof(t, conjecture, p(c)).")
    cs = clausal_problem(p)
    assert all(c.origin != "$equality" for c in cs.clauses)
    p2 = parse_problem("fof(a, axiom, c = d). fof(t, conjecture, c = c).")
    cs2 = clausal_problem(p2)
    assert any(c.clause_id == "eq_refl" for c in cs2.clauses)


def test_equisatisfiability_against_brute_force():
    # model at domain <= 2 agrees between a formula and its CNF
    rng = random.Random(11)
    funcs = {"c": 0, "f": 1}
    preds = {"p": 1, "q": 1}
    for i in range(40):
        f = random_closed_formula(rng, depth=3, allow_eq=False, unary_only=True)
        form = cnf(f, name="x")
        cfuncs = dict(funcs)
        for (sym, kind, ar) in _clause_symbols(form.clauses):
            if kind == "function":
                cfuncs.setdefault(sym, ar)
        direct = brute_has_model(f, funcs, preds, 2)
        clausal = brute_clauses_have_model(form.clauses, cfuncs, preds, 2)
        assert direct == clausal, f"mismatch at {i}"


def _clause_symbols(clauses):
    out = set()
    for c in clauses:
        out |= set(symbols_of(clause_as_formula(c)))
    return out


def test_clause_dump_format():
    p = parse_problem("fof(a, axiom, (p | ~ q)).")
    form = cnf(p.formulas[0].formula, name="a")
    assert print_clause(form.clauses[0]) == "cnf(a_0, axiom, (p | ~ q))."


def test_conjecture_start_clauses_marked():
    p = parse_problem("fof(a, axiom, p(c)). fof(t, conjecture, p(c)).")
    cs = clausal_problem(p)
    starts = {clause_by_id(cs, cid).origin for cid in cs.start_ids}
    assert starts == {"t"}
