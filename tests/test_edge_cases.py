import random
import subprocess
import sys

import pytest

from proofbench.checker import check_proof
from proofbench.clausify import clausal_problem, nnf, skolemize
from proofbench.fol import Exists, Forall, free_vars_ordered
from proofbench.parser import IncludeError, parse_problem, parse_problem_file
from proofbench.prover import Limits, PROVED, StartStep, prove

from helpers import (
    all_interpretations, atom, brute_eval, random_closed_formula, subformulas,
)


def test_miniscope_preserves_equivalence():
    # nnf's miniscoping must not change truth in any interpretation
    rng = random.Random(31)
    funcs = {"c": 0, "f": 1}
    preds = {"p": 1, "q": 1}
    for _ in range(120):
        f = random_closed_formula(rng, depth=3, allow_eq=False,
                                  unary_only=True)
        g = nnf(f)
        for n in (1, 2):
            for ft, pt in all_interpretations(funcs, preds, n):
                assert brute_eval(f, ft, pt, n) == brute_eval(g, ft, pt, n)


def test_miniscope_reduces_skolem_arity():
    # ![X]: ?[Y]: (p(Y) | q(X)) -- after miniscoping, X no longer governs Y,
    # so Y's skolem term must be a constant rather than sk(X)
    from proofbench.fol import App, Atom, Or, Var
    f = Forall("X", Exists("Y", Or(atom("p", Var("Y")), atom("q", Var("X")))))
    out = skolemize(nnf(f))
    sk_args = [t.args for g in subformulas(out) if isinstance(g, Atom)
               for t in g.args if isinstance(t, App) and t.symbol.startswith("sk_")]
    assert sk_args and all(args == () for args in sk_args)


def test_equality_proofs_check(tmp_path):
    from proofbench.generator import generate_corpus
    from proofbench.corpus import load_corpus
    from proofbench.fol import make_problem

    generate_corpus("group", 12, str(tmp_path / "g"), verify=False)
    corpus = load_corpus(str(tmp_path / "g"))
    by_name = {i.name: i for i in corpus.items}
    for _i, item in corpus.theorems():
        premises = [by_name[r].as_axiom() for r in item.reference_premises]
        cs = clausal_problem(make_problem(premises + [item.as_conjecture()]))
        res = prove(cs, Limits(inference_budget=200000, max_depth=8))
        assert res.status == PROVED, item.name
        assert check_proof(res.proof, cs), item.name


def test_include_cycle_rejected(tmp_path):
    a = tmp_path / "a.p"
    b = tmp_path / "b.p"
    a.write_text("include('b.p').\nfof(x, axiom, p).\n")
    b.write_text("include('a.p').\n")
    with pytest.raises(IncludeError, match="circular"):
        parse_problem_file(str(a))


def test_include_missing_rejected(tmp_path):
    a = tmp_path / "a.p"
    a.write_text("include('ghost.p').\n")
    with pytest.raises(IncludeError, match="resolve"):
        parse_problem_file(str(a))


def test_empty_problem_parses():
    p = parse_problem("% nothing here\n")
    assert p.formulas == ()


def test_true_conjecture_immediately_proved():
    # negating $true yields the empty clause: the tableau is closed at start
    cs = clausal_problem(parse_problem(
        "fof(a, axiom, p(c)). fof(t, conjecture, $true)."))
    res = prove(cs, Limits(max_depth=4))
    assert res.status == PROVED
    assert len(res.proof.steps) == 1
    assert isinstance(res.proof.steps[0], StartStep)
    assert check_proof(res.proof, cs)


def test_false_axiom_cannot_produce_a_countermodel():
    # an empty axiom clause falsifies every interpretation: it is the start
    # clause, and closes the tableau at once
    cs = clausal_problem(parse_problem(
        "fof(bad, axiom, $false). fof(t, conjecture, q(c))."))
    assert cs.start_ids == {"bad_0"}
    res = prove(cs, Limits(max_depth=6))
    assert res.status == PROVED and res.stats.inferences == 0
    assert res.model is None
    assert check_proof(res.proof, cs)


def test_console_script_invocation():
    out = subprocess.run([sys.executable, "-m", "proofbench.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "generate" in out.stdout
    script = subprocess.run(["proofbench", "--help"],
                            capture_output=True, text=True)
    assert script.returncode == 0


def test_deep_formula_parses_without_blowup():
    text = "p(" + "f(" * 40 + "c" + ")" * 40 + ")"
    from proofbench.parser import parse_formula, print_formula
    f = parse_formula(text)
    assert print_formula(f) == text


def test_variable_shadowing_round_trip():
    from proofbench.parser import parse_formula, print_formula
    from helpers import alpha_equivalent
    f = parse_formula("![X]: (p(X) & ![X]: q(X,X))")
    g = parse_formula(print_formula(f))
    assert alpha_equivalent(f, g)
    assert free_vars_ordered(f) == []
