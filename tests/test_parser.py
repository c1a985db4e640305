import os
import random

import pytest

from proofbench.fol import (
    And, Atom, Forall, Implies, Not, Or, Var, atom, const,
)
from proofbench.parser import (
    ParseError, _TOKEN_RE, parse_formula, parse_problem, parse_problem_file,
    print_formula, tokenize,
)
from proofbench.fol import ArityError, DuplicateNameError, MultipleConjecturesError

from helpers import alpha_equivalent, print_problem, random_closed_formula


def test_smallest_statement():
    p = parse_problem("fof(a1, axiom, p(c)).")
    assert len(p.formulas) == 1
    af = p.formulas[0]
    assert (af.name, af.role) == ("a1", "axiom")
    assert af.formula == atom("p", const("c"))


def test_conjecture_tautology():
    p = parse_problem("fof(t, conjecture, ![X]: (p(X) => p(X))).")
    af = p.conjecture
    assert af is not None
    assert af.formula == Forall("X", Implies(atom("p", Var("X")), atom("p", Var("X"))))


def test_auto_closure_warns_and_prints_closed():
    p = parse_problem("fof(a, axiom, p(X)).")
    af = p.formulas[0]
    assert af.formula == Forall("X", atom("p", Var("X")))
    assert len(p.warnings) == 1 and "auto-closed" in p.warnings[0]
    assert print_formula(af.formula) == "![X]: p(X)"


def test_print_examples():
    assert print_formula(And(Atom("p", ()), Atom("q", ()))) == "(p & q)"
    assert print_formula(Forall("X", atom("p", Var("X")))) == "![X]: p(X)"


def test_equality_and_disequality():
    f = parse_formula("a = b")
    g = parse_formula("a != b")
    assert print_formula(f) == "a = b"
    assert print_formula(g) == "a != b"
    assert g == Not(f)


def test_quoted_atoms_normalized():
    p = parse_problem("fof('a1', axiom, 'p'(c)).")
    assert p.formulas[0].name == "a1"
    assert p.formulas[0].formula == atom("p", const("c"))


def test_mixed_connectives_need_parens():
    with pytest.raises(ParseError):
        parse_formula("p & q | r")
    with pytest.raises(ParseError):
        parse_formula("p => q => r")
    assert parse_formula("(p & q) | r") == Or(And(Atom("p", ()), Atom("q", ())),
                                              Atom("r", ()))


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_problem("fof(a, axiom,\n p( ).")
    assert ":2:" in str(err.value)


def test_distinct_error_values():
    with pytest.raises(DuplicateNameError):
        parse_problem("fof(a, axiom, p). fof(a, axiom, q).")
    with pytest.raises(ArityError):
        parse_problem("fof(a, axiom, p(c)). fof(b, axiom, p(c,c)).")
    with pytest.raises(MultipleConjecturesError):
        parse_problem("fof(a, conjecture, p). fof(b, conjecture, q).")


def test_include_resolution(tmp_path):
    (tmp_path / "ax.ax").write_text("fof(base, axiom, p(c)).\n")
    main = tmp_path / "main.p"
    main.write_text("include('ax.ax').\nfof(goal, conjecture, p(c)).\n")
    p = parse_problem_file(str(main))
    assert [af.name for af in p.formulas] == ["base", "goal"]


def test_comments_ignored():
    p = parse_problem("% a comment\nfof(a, axiom, p). % trailing\n")
    assert len(p.formulas) == 1


def test_roundtrip_property_bulk():
    # parse(print(f)) alpha-equivalent to f over >= 1000 generated formulas
    rng = random.Random(20240817)
    for i in range(1000):
        f = random_closed_formula(rng, depth=3)
        printed = print_formula(f)
        back = parse_formula(printed)
        assert alpha_equivalent(back, f), f"roundtrip failed at {i}: {printed}"


def test_problem_print_reparses():
    text = """
    fof(a1, axiom, ![X]: (p(X) => q(X,c))).
    fof(a2, axiom, ?[Y]: (p(Y) & c = d)).
    fof(t, conjecture, q(c,c)).
    """
    p = parse_problem(text)
    p2 = parse_problem(print_problem(p))
    assert [af.name for af in p2.formulas] == [af.name for af in p.formulas]
    for af, bf in zip(p.formulas, p2.formulas):
        assert alpha_equivalent(af.formula, bf.formula)


def _tokenize_per_match(text: str, source: str = "") -> list:
    """Reference tokenizer: one anchored match at each position."""
    tokens = []
    pos, line, linestart = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - linestart + 1, source)
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            tokens.append((kind, tok, line, m.start() - linestart + 1))
        line += tok.count("\n")
        if "\n" in tok:
            linestart = m.start() + tok.rindex("\n") + 1
        pos = m.end()
    tokens.append(("eof", "", line, pos - linestart + 1))
    return tokens


CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "corpora", "mixed30")


@pytest.mark.parametrize("text", [
    "% a comment\n\n\nfof(a, axiom, p(c)). % trailing\n\n% last",
    "fof(a, axiom, p(c)).\r\nfof(b, axiom,\r\n  q(c)).\r\n",
    "fof('two\nlines', axiom, p('x\ny', c)).\nfof(b, axiom, q(c)).",
    "% comment\nfof(a, axiom, p(c)).",
    "",
    " \n\t",
    "fof(a, conjecture, ![X, Y]: ((p(X) & $true) <=> ~ (X != Y))).",
])
def test_tokenize_matches_per_match_reference(text):
    assert [tuple(t) for t in tokenize(text)] == _tokenize_per_match(text)


def test_tokenize_matches_reference_on_corpus_files():
    for fn in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, fn), encoding="utf-8") as fh:
            text = fh.read()
        assert [tuple(t) for t in tokenize(text)] == _tokenize_per_match(text)


@pytest.mark.parametrize("text, where", [
    ("fof(a, axiom, p(c)).\n  fof(b, axiom, q(c) # r).", (2, 22)),
    ("fof(a, axiom,\r\n p(c) @ q).", (2, 7)),
    ("% c\nfof('x\ny', axiom, p(c)). 'open", (3, 19)),
    ("#", (1, 1)),
])
def test_tokenize_error_location_matches_reference(text, where):
    with pytest.raises(ParseError) as ref:
        _tokenize_per_match(text, "s.p")
    with pytest.raises(ParseError) as got:
        tokenize(text, "s.p")
    assert (got.value.line, got.value.col) == (ref.value.line, ref.value.col) == where
    assert str(got.value) == str(ref.value)
