import importlib.util
import itertools
import os
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from proofbench.clausify import equality_axioms
from proofbench.fol import (
    And, App, Atom, Eq, Forall, Implies, Literal, Not, Or, ProblemError, Var,
)
from proofbench.generator import generate_corpus
from proofbench.parser import (
    MAX_DEPTH, ParseError, _fail, parse_formula, parse_problem,
    parse_problem_dir, parse_problem_file, print_formula, print_name,
    read_names, tokenize,
)
from proofbench.prover import proof_from_text
from proofbench.fol import (
    AnnotatedFormula, ArityError, DuplicateNameError, MultipleConjecturesError,
    check_arities,
)

from helpers import (
    NESTING_SHAPES, alpha_equivalent, atom, const, nested_formula,
    print_problem, random_closed_formula,
)


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


def test_auto_closure_prints_closed():
    p = parse_problem("fof(a, axiom, p(X)).")
    af = p.formulas[0]
    assert af.formula == Forall("X", atom("p", Var("X")))
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


# The tokenizer's pattern as it stood when each token was a
# `Token(kind, text, line, col)`: the reference keeps its own copy, so
# that it does not move with the code under test.
_REFERENCE_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<op><=>|<~>|=>|<=|!=|=|&|\||~|!|\?|\(|\)|\[|\]|,|\.|:)
  | (?P<dollar>\$[a-z][a-zA-Z0-9_]*)
  | (?P<upper>[A-Z][a-zA-Z0-9_]*)
  | (?P<lower>[a-z0-9][a-zA-Z0-9_]*)
  | (?P<quoted>'(?:[^'\\\n\r]|\\[^\n\r])*')
""", re.VERBOSE)


def _tokenize_per_match(text: str, source: str = "<input>") -> list:
    """Reference tokenizer: one anchored match at each position; each
    token's (text, line, col), the last one "" at the end of the text, or
    the `ParseError` of the first character that starts no token."""
    tokens = []
    pos, line, linestart = 0, 1, 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"{source}:{line}:{pos - linestart + 1}: "
                             f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            tokens.append((tok, line, m.start() - linestart + 1))
        line += tok.count("\n")
        if "\n" in tok:
            linestart = m.start() + tok.rindex("\n") + 1
        pos = m.end()
    tokens.append(("", line, pos - linestart + 1))
    return tokens


def _assert_tokens_are_the_reference(text: str) -> None:
    """`tokenize` gives the reference's texts, and an error at each token,
    the end of the text included, is placed where the reference puts it."""
    ref = _tokenize_per_match(text)
    assert tokenize(text) == [t for t, _line, _col in ref[:-1]]
    for i, (_t, line, col) in enumerate(ref):
        with pytest.raises(ParseError) as err:
            _fail(text, i, "m", "s.p")
        assert str(err.value) == f"s.p:{line}:{col}: m"


CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "corpora", "mixed30")


@pytest.mark.parametrize("text", [
    "% a comment\n\n\nfof(a, axiom, p(c)). % trailing\n\n% last",
    "fof(a, axiom, p(c)).\r\nfof(b, axiom,\r\n  q(c)).\r\n",
    "% comment\nfof(a, axiom, p(c)).",
    "",
    " \n\t",
    "fof(a, conjecture, ![X, Y]: ((p(X) & $true) <=> ~ (X != Y))).",
])
def test_tokenize_matches_per_match_reference(text):
    _assert_tokens_are_the_reference(text)


def test_tokenize_matches_reference_on_corpus_files():
    for fn in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, fn), encoding="utf-8") as fh:
            _assert_tokens_are_the_reference(fh.read())


@pytest.mark.parametrize("text, where", [
    ("fof(a, axiom, p(c)).\n  fof(b, axiom, q(c) # r).", (2, 22)),
    ("fof(a, axiom,\r\n p(c) @ q).", (2, 7)),
    # this case and the last two: a quoted atom ends on its line
    ("% c\nfof('x\ny', axiom, p(c)). 'open", (2, 5)),
    ("#", (1, 1)),
    ("fof('two\nlines', axiom, p('x\ny', c)).\nfof(b, axiom, q(c)).", (1, 5)),
    ("fof(a, axiom, p('x\r\ny')).", (1, 17)),
    # a lone quote or dollar reads as no name, path or defined constant
    ("fof(a, axiom, p(')).", (1, 17)),
    ("fof(', axiom, p).", (1, 5)),
    ("include(').", (1, 9)),
    ("fof(a, axiom, $).", (1, 15)),
])
def test_tokenize_error_location_matches_reference(text, where):
    with pytest.raises(ParseError) as ref:
        _tokenize_per_match(text)
    with pytest.raises(ParseError) as got:
        tokenize(text)
    line, col = where
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith(f"<input>:{line}:{col}: unexpected character ")
    # the parser refuses the character at the same place, whatever precedes it
    with pytest.raises(ParseError) as parsed:
        parse_problem(text, source="s.p")
    assert str(parsed.value) == "s.p" + str(ref.value)[len("<input>"):]


# pieces of random texts: tokens, blanks and comments, characters that
# start no token, and whole statements; pieces written next to each other
# may fuse into one token
_PIECES = st.sampled_from([
    "fof(", "fof", "(", ")", ",", ".", "axiom", "conjecture", "p", "q(c)",
    "f(X)", "X", "Y", "c", "12", "&", "|", "=>", "<=>", "<~>", "~", "!", "?",
    "[", "]", ":", "=", "!=", "$true", "$false", "'a b'", "'x.y'", "'",
    "'q\\'s'", "%", "% c.'\n", "\r\n", "\n", " ", "  ", "\t", "#", "$", "<",
    "\u00b2", "-",
])
_STATEMENTS = st.sampled_from([
    "fof(a, axiom, p(c)).", "fof(g, conjecture, ![X]: (p(X) => q(X))).\n",
    "fof('h.1', axiom, c != 'd e' % c.'\n).\r\n", "fof(b, axiom, ~ q(Y)). ",
    "fof(d, axiom, p(c) & $true | q(c)).", "\n% a comment\n",
    "fof(e, axiom, p(')).\n", "include(').\n",
])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(st.one_of(_PIECES, _STATEMENTS), max_size=16))
def test_random_texts_read_as_the_reference_reads_them(pieces):
    """Each text gives the reference's tokens or its error; the problem it
    parses to, or the error it raises at a token, is the one its tokens
    give laid out one space apart, the error placed at the same token."""
    text = "".join(pieces)
    try:
        ref = _tokenize_per_match(text)
    except ParseError as exc:
        for read in (tokenize, lambda t: parse_problem(t, source="<input>")):
            with pytest.raises(ParseError) as err:
                read(text)
            assert str(err.value) == str(exc)
        return
    tokens = [t for t, _line, _col in ref[:-1]]
    assert tokenize(text) == tokens
    spaced = " ".join(tokens)
    # where each token of `spaced`, and its end, stands: line 1, `cols`
    cols = list(itertools.accumulate([len(t) + 1 for t in tokens], initial=1))
    cols[-1] = len(spaced) + 1
    moved = {f"s.p:1:{c}:": f"s.p:{line}:{col}:"
             for c, (_t, line, col) in zip(cols, ref)}
    outcomes = []
    for source in (text, spaced):
        try:
            outcomes.append(parse_problem(source, source="s.p"))
        except ProblemError as exc:
            outcomes.append((type(exc), str(exc)))
    got, want = outcomes
    if isinstance(want, tuple) and want[0] is ParseError:
        where, message = want[1].split(" ", 1)
        want = (ParseError, f"{moved[where]} {message}")
    assert got == want


# ---------------------------------------------------------------------------
# One statement table per batch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _challenge_batch(root: str) -> str:
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.challenge_batch(root, 1)
    return root


@pytest.mark.parametrize("batch", ["neardup50", "challenge-batch"])
def test_batch_problems_equal_their_lone_parses(batch, tmp_path):
    root = str(tmp_path / batch)
    if batch == "neardup50":
        generate_corpus("neardup", 50, root, verify=False)
    else:
        _challenge_batch(root)
    names = sorted(fn for fn in os.listdir(root) if fn.endswith(".p"))
    parsed = parse_problem_dir(root)
    assert [pid for pid, _p in parsed] == [fn[:-2] for fn in names]
    for pid, problem in parsed:
        assert problem == parse_problem_file(os.path.join(root, f"{pid}.p")), pid


def test_equal_statements_of_a_batch_are_one_object(tmp_path):
    (tmp_path / "a.p").write_text("fof(ax, axiom, ![X]: p(X)).\nfof(g, conjecture, p(a)).\n")
    (tmp_path / "b.p").write_text("% other\nfof(ax, axiom, ![X]: p(X)).\n"
                                  "fof(g, conjecture, p(b)).\n")
    (_a, first), (_b, second) = parse_problem_dir(str(tmp_path))
    assert first.formulas[0] is second.formulas[0]
    assert first.formulas[1] != second.formulas[1]
    assert parse_problem_dir(str(tmp_path))[0][1].formulas[0] is not first.formulas[0]


ARITY_CLASHES = [
    ("q(f(c,c))", "symbol 'f' used with arity 1 in 'ax' but arity 2 in 'h'"),
    ("![X]: (f(X) | p(X))", "symbol 'f' used as both predicate and function (seen in 'h')"),
]


@pytest.mark.parametrize("clash, message", ARITY_CLASHES, ids=["arity", "namespace"])
def test_batch_arity_errors_are_the_formula_walk_errors(clash, message, tmp_path):
    # a batch checks arities from the signatures its shared statements
    # keep; the error is the one `check_arities` gives on fresh formulas
    shared = "fof(ax, axiom, ![X]: p(f(X))).\n"
    (tmp_path / "a.p").write_text(shared + "fof(g, conjecture, p(c)).\n")
    (tmp_path / "b.p").write_text(shared + f"fof(h, axiom, {clash}).\n"
                                  "fof(g, conjecture, p(c)).\n")
    with pytest.raises(ArityError) as err:
        parse_problem_dir(str(tmp_path))
    assert str(err.value) == message
    formulas = [AnnotatedFormula(name, "axiom", parse_formula(text))
                for name, text in [("ax", "![X]: p(f(X))"), ("h", clash)]]
    with pytest.raises(ArityError) as walked:
        check_arities(formulas)
    assert str(walked.value) == message


ERRORS = [
    # a syntax error in the second of three statements
    ("fof(a, axiom, p(c)).\nfof(b, axiom,\n  q(c) & ).\nfof(c, axiom, r(c)).\n",
     "expected term, found ')'", 3, 10),
    # the lexical error is found first, though a syntax error precedes it
    ("fof(a, axiom, p(c)).\nfof(b, axiom, p( )).\nfof(c, axiom, q(c) # r).\n",
     "unexpected character '#'", 3, 20),
    ("fof(a, axiom, p(c)).\nfof(b, axiom, 'p(c)).\n", "unexpected character \"'\"", 2, 15),
    ("fof(a, axiom, p(c)).\nfof(b, axiom, q(c))\n", "expected '.', found ''", 3, 1),
    ("fof(a, axiom, p(c)).\nfof(b, axiom, p('a\nb')).\n", "unexpected character \"'\"",
     2, 17),
    # a predicate named '=' would be taken for equality: the prover let it
    # close c != d, and the model finder failed on the nullary one
    ("fof(a, axiom, '='(c, d)).\nfof(g, conjecture, c = d).\n",
     "equality is written infix, not as a predicate '='", 1, 15),
    ("fof(a, axiom, '=' | q).\nfof(g, conjecture, q).\n",
     "equality is written infix, not as a predicate '='", 1, 15),
]
ERROR_IDS = ["syntax", "lexical-after-syntax", "unterminated-quote", "no-final-dot",
             "line-break-in-quote", "predicate-named-eq", "nullary-predicate-named-eq"]


@pytest.mark.parametrize("text, message, line, col", ERRORS, ids=ERROR_IDS)
def test_parse_errors_are_the_whole_text_errors(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_problem(text, source="s.p")
    assert str(err.value) == f"s.p:{line}:{col}: {message}"


@pytest.mark.parametrize("text, message, line, col", ERRORS, ids=ERROR_IDS)
def test_parse_errors_in_a_warm_batch_are_the_whole_text_errors(
        text, message, line, col, tmp_path):
    good = "fof(a, axiom, p(c)).\nfof(b, axiom, q(c)).\nfof(c, axiom, r(c)).\n"
    (tmp_path / "p1.p").write_text(good)
    (tmp_path / "p2.p").write_text(text)
    with pytest.raises(ParseError) as err:
        parse_problem_dir(str(tmp_path))
    path = str(tmp_path / "p2.p")
    assert str(err.value) == f"{path}:{line}:{col}: {message}"


def test_a_function_named_eq_still_parses():
    p = parse_problem("fof(a, axiom, p('='(c))). fof(g, conjecture, ~ q('='(d))).")
    assert [af.formula for af in p.formulas] == [
        atom("p", App("=", (const("c"),))),
        Not(atom("q", App("=", (const("d"),))))]


def test_dots_and_percents_in_quotes_and_comments_split_correctly():
    p = parse_problem("fof('a.1%', axiom, 'p.q'(c)). % a '. comment\n"
                      "fof(b, axiom, p(c) % a comment. inside\n  & 'x%y.'(c)).\n"
                      "% trailing . comment")
    assert [af.name for af in p.formulas] == ["a.1%", "b"]
    assert p.formulas[0].formula == atom("p.q", const("c"))
    assert p.formulas[1].formula == And(atom("p", const("c")), atom("x%y.", const("c")))


def _deep_term(depth: int) -> str:
    return "f(" * depth + "c" + ")" * depth


@pytest.mark.parametrize("formula", [
    f"p({_deep_term(2000)})",
    "~ " * 3000 + "p(c)",
    "(" * 3000 + "p(c)" + ")" * 3000,
], ids=["term-2000", "negation-3000", "parentheses-3000"])
def test_a_too_deep_statement_is_a_located_parse_error(formula):
    with pytest.raises(ParseError) as err:
        parse_problem(f"fof(a, axiom, p(c)).\n  fof(deep, axiom, {formula}).\n",
                      source="s.p")
    assert str(err.value).startswith("s.p:2:3: statement nested too deeply")


@pytest.mark.parametrize("shape", NESTING_SHAPES)
def test_the_nesting_cap_admits_its_depth_and_refuses_one_more(shape):
    p = parse_problem(f"fof(deep, axiom, {nested_formula(shape, MAX_DEPTH)}).")
    assert p.formulas[0].name == "deep"
    with pytest.raises(ParseError) as err:
        parse_problem(f"fof(a, axiom, p(c)).\n  fof(deep, axiom, "
                      f"{nested_formula(shape, MAX_DEPTH + 1)}).\n")
    assert str(err.value) == (f"<string>:2:3: statement nested too deeply "
                              f"(more than {MAX_DEPTH} levels)")


def test_a_chain_is_one_node_and_one_level_however_wide():
    text = " | ".join(f"p{i}(c)" for i in range(5000))
    f = parse_problem(f"fof(wide, axiom, {text}).").formulas[0].formula
    assert isinstance(f, Or) and len(f.parts) == 5000
    assert print_formula(f) == f"({text})"
    # a first operand of the same connective joins the chain, a later nests
    p, q, r = (Atom(name, ()) for name in "pqr")
    assert parse_formula("p & q & r") == And(And(p, q), r) == And(p, q, r)
    assert parse_formula("p & (q & r)") == And(p, And(q, r)) != And(p, q, r)
    assert print_formula(And(p, And(q, r))) == "(p & (q & r))"


def test_missing_problems_directory_is_named(tmp_path):
    missing = str(tmp_path / "missing")
    with pytest.raises(ProblemError, match=re.escape(missing)):
        parse_problem_dir(missing)
    assert parse_problem_dir(str(tmp_path)) == []


def test_an_equation_is_the_atom_named_equals_wherever_it_is_made():
    a, b, X = const("a"), const("b"), Var("X")
    eq = Atom("=", (a, b))
    assert Eq(a, b) == eq
    assert parse_problem("fof(g, conjecture, a = b).").conjecture.formula == eq
    assert equality_axioms([])[0].literals == (Literal(True, Atom("=", (X, X))),)
    proof = proof_from_text("start g_0\next eq_refl 0 | a != b | -\npremises g\n")
    assert proof.steps[1].goal == Literal(False, eq)
    assert parse_formula("a != b") == Not(eq)
    for text in ("a = b", "a != b"):
        assert print_formula(parse_formula(text)) == text
    # the proof reader, like the problem reader, refuses the prefix form
    with pytest.raises(ParseError, match="written infix"):
        proof_from_text("start g_0\next eq_refl 0 | ~ '='(a, b) | -\n")


@pytest.mark.parametrize("name", ["²", "٣", "１", "1²", "12", "0"])
def test_a_name_is_printed_bare_only_when_it_reads_back(name):
    # `str.isdigit` holds for the superscript two, the Arabic-Indic three
    # and the fullwidth one, which the tokenizer does not read as a name
    assert read_names(print_name(name)) == [name]
    f = Atom("p", (App(name, ()),))
    assert parse_formula(print_formula(f)) == f
    assert print_name(name) == (name if name.isascii() else f"'{name}'")
