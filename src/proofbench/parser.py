"""Parser and printer for a TPTP-style untyped FOF problem format.

Accepted statements:

    fof(name, role, formula).
    include('relative/path').
    % line comments

Formula grammar is the plain FOF core: quantifiers `![X]:`/`?[X]:`,
connectives `~ & | => <= <=> <~>`, equality `= !=`, `$true`/`$false`,
parentheses.  An `&` or `|` chain is one `And` or `Or` node over its
operands; mixing distinct binary connectives without parentheses is a
syntax error, as in TPTP.

A statement nests at most `MAX_DEPTH` levels: each term level,
negation, quantified or auto-closed variable and parenthesized formula
or chain is one level, so a whole chain is one.  A deeper statement is a
`ParseError` at its start, before any walk of it can exhaust Python's
recursion limit.

Free variables in a formula are universally closed rather than
rejected.  Quoted atoms ('foo') are normalized to bare identifiers when
the quoted text already is one.
"""
from __future__ import annotations

import os
import re
from typing import NamedTuple

from .fol import (
    BINARY, And, AnnotatedFormula, App, Atom, Eq, Exists, FALSE,
    Forall, Formula, Iff, Implies, Literal, Not, Or, Problem, ProblemError,
    ROLES, TRUE, TrueF, FalseF, Term, Var, make_problem, universal_closure,
)


class ParseError(ProblemError):
    def __init__(self, message: str, line: int = 0, col: int = 0, source: str = ""):
        where = f"{source or '<input>'}:{line}:{col}" if line else (source or "<input>")
        super().__init__(f"{where}: {message}")
        self.line = line
        self.col = col
        self.source = source


class IncludeError(ProblemError):
    pass


# at this many levels, every walk from parsing to proof checking stays
# within about 600 of the 1 000 frames Python allows by default
MAX_DEPTH = 256


# ---------------------------------------------------------------------------
# Tokenizer

# a quoted atom ends on its line: TPTP's `sq_char` holds no line break
_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<op><=>|<~>|=>|<=|!=|=|&|\||~|!|\?|\(|\)|\[|\]|,|\.|:)
  | (?P<dollar>\$[a-z][a-zA-Z0-9_]*)
  | (?P<upper>[A-Z][a-zA-Z0-9_]*)
  | (?P<lower>[a-z0-9][a-zA-Z0-9_]*)
  | (?P<quoted>'(?:[^'\\\n\r]|\\[^\n\r])*')
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str, source: str = "") -> list:
    tokens, new = [], tuple.__new__
    pos, line, linestart = 0, 1, 0
    for m in _TOKEN_RE.finditer(text):
        start, end = m.span()
        if start != pos:        # no token starts at pos
            break
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":        # Token(...) without its Python-level __new__
            tokens.append(new(Token, (kind, tok, line, start - linestart + 1)))
        if "\n" in tok:
            line += tok.count("\n")
            linestart = start + tok.rindex("\n") + 1
        pos = end
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}",
                         line, pos - linestart + 1, source)
    tokens.append(Token("eof", "", line, pos - linestart + 1))
    return tokens


def _unquote(text: str) -> str:
    return text[1:-1].replace("\\'", "'").replace("\\\\", "\\")


_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def normalize_name(text: str) -> str:
    """Quoted atoms collapse to bare identifiers when possible."""
    return _unquote(text) if text.startswith("'") else text


def read_names(text: str) -> list:
    """The names `text` lists, each written as `print_name` writes it."""
    tokens = tokenize(text)[:-1]
    for t in tokens:
        if t.kind not in ("lower", "quoted", "dollar"):
            raise ParseError(f"expected name, found {t.text!r}", t.line, t.col)
    return [normalize_name(t.text) for t in tokens]


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, tokens, source="", cap=MAX_DEPTH):
        self.tokens = tokens
        self.pos = 0
        self.cur = tokens[0]
        self.source = source
        self.cap = cap
        self.start = tokens[0]  # the first token of the statement being read
        self.deepest = 0        # the most levels that statement has reached

    def error(self, msg: str, t=None):
        t = t or self.cur
        raise ParseError(msg, t.line, t.col, self.source)

    def eat(self, text: str) -> Token:
        if self.cur.text != text:
            self.error(f"expected {text!r}, found {self.cur.text!r}")
        return self.take()

    def take(self) -> Token:
        t = self.cur
        self.pos += 1
        self.cur = self.tokens[self.pos]
        return t

    def nest(self, depth: int) -> int:
        """`depth` + 1, refused past the cap at the statement's start."""
        depth += 1
        if depth > self.cap:
            self.error(f"statement nested too deeply (more than {self.cap} "
                       f"levels)", self.start)
        self.deepest = max(self.deepest, depth)
        return depth

    # -- formulas ----------------------------------------------------------

    def formula(self, depth: int = 0) -> Formula:
        depth = self.nest(depth)
        lhs = self.unitary(depth)
        op = self.cur.text
        if op in ("&", "|"):
            parts = [lhs]
            while self.cur.text == op:
                self.take()
                parts.append(self.unitary(depth))
            if self.cur.text in ("&", "|", "=>", "<=", "<=>", "<~>"):
                self.error(f"cannot mix {op!r} with {self.cur.text!r} without parentheses")
            return (And if op == "&" else Or)(*parts)
        if op in ("=>", "<=", "<=>", "<~>"):
            self.take()
            rhs = self.unitary(depth)
            if self.cur.text in ("&", "|", "=>", "<=", "<=>", "<~>"):
                self.error(f"{op!r} is non-associative; use parentheses")
            if op == "=>":
                return Implies(lhs, rhs)
            if op == "<=":
                return Implies(rhs, lhs)
            if op == "<=>":
                return Iff(lhs, rhs)
            return Not(Iff(lhs, rhs))
        return lhs

    def unitary(self, depth: int) -> Formula:
        t = self.cur
        if t.text == "(":
            self.take()
            f = self.formula(depth)
            self.eat(")")
            return f
        if t.text == "~":
            self.take()
            return Not(self.unitary(self.nest(depth)))
        if t.text in ("!", "?"):
            quant = Forall if t.text == "!" else Exists
            self.take()
            self.eat("[")
            names = [self.variable()]
            while self.cur.text == ",":
                self.take()
                names.append(self.variable())
            self.eat("]")
            self.eat(":")
            body = self.unitary(self.nest(depth + len(names) - 1))
            for name in reversed(names):
                body = quant(name, body)
            return body
        if t.kind == "dollar":
            self.take()
            if t.text == "$true":
                return TRUE
            if t.text == "$false":
                return FALSE
            self.error(f"unknown defined constant {t.text!r}")
        return self.atomic(depth)

    def variable(self) -> str:
        t = self.cur
        if t.kind != "upper":
            self.error(f"expected variable, found {t.text!r}")
        self.take()
        return t.text

    def atomic(self, depth: int) -> Formula:
        start = self.cur
        lhs = self.term(depth)
        if self.cur.text == "=":
            self.take()
            return Eq(lhs, self.term(depth))
        if self.cur.text == "!=":
            self.take()
            return Not(Eq(lhs, self.term(depth)))
        if isinstance(lhs, Var):
            self.error(f"variable {lhs.name!r} cannot stand as a formula")
        if lhs.symbol == "=":
            self.error("equality is written infix, not as a predicate '='", start)
        return Atom(lhs.symbol, lhs.args)

    def term(self, depth: int = 0) -> Term:
        depth = self.nest(depth)
        t = self.cur
        if t.kind == "upper":
            self.take()
            return Var(t.text)
        if t.kind in ("lower", "quoted"):
            self.take()
            name = normalize_name(t.text)
            args = []
            if self.cur.text == "(":
                self.take()
                args.append(self.term(depth))
                while self.cur.text == ",":
                    self.take()
                    args.append(self.term(depth))
                self.eat(")")
            return App(name, tuple(args))
        self.error(f"expected term, found {t.text!r}")

    # -- statements ---------------------------------------------------------

    def name(self) -> str:
        t = self.cur
        if t.kind in ("lower", "quoted"):
            self.take()
            return normalize_name(t.text)
        self.error(f"expected name, found {t.text!r}")

    def statement(self):
        t = self.start = self.cur
        self.deepest = 0
        if t.text == "fof":
            self.take()
            self.eat("(")
            name = self.name()
            self.eat(",")
            role = self.name()
            if role not in ROLES:
                self.error(f"unknown role {role!r} (expected one of {', '.join(ROLES)})")
            self.eat(",")
            f = self.formula()
            self.eat(")")
            self.eat(".")
            closed, closed_vars = universal_closure(f)
            # each auto-closed variable is one more level
            self.nest(self.deepest + len(closed_vars) - 1)
            return ("fof", AnnotatedFormula(name, role, closed))
        if t.text == "include":
            self.take()
            self.eat("(")
            path = self.cur
            if path.kind != "quoted":
                self.error("include path must be quoted")
            self.take()
            self.eat(")")
            self.eat(".")
            return ("include", _unquote(path.text))
        self.error(f"expected fof or include, found {t.text!r}")

    def statements(self):
        out = []
        while self.cur.kind != "eof":
            out.append(self.statement())
        return out


# Blanks and comments, then one statement: the text up to the first `.`
# outside a quoted atom and a comment (or else the end of the text).  Each
# alternative starts on a character the others cannot, and a comment runs
# to its line's end, so a failing match backtracks in linear time.
_STATEMENT_RE = re.compile(
    r"\s*(?:%[^\n]*(?=\n|\Z)\s*)*"
    r"(?:(?=[^\s%])([^.'%]*(?:(?:'[^'\\]*(?:\\.[^'\\]*)*'|%[^\n]*(?=\n|\Z))"
    r"[^.'%]*)*\.)|\Z)")


def _statements(text: str, source: str, table: dict) -> list:
    """`text`'s statements in order, each distinct statement tokenized and
    parsed once per `table`, which maps its text to its parse.  A tail that
    does not split is parsed whole.  On a `ParseError` the whole text is
    parsed again, so the error raised is the whole-text parse's."""
    out, pos = [], 0
    try:
        while pos < len(text):
            m = _STATEMENT_RE.match(text, pos)
            if m and m.start(1) < 0:        # nothing but blanks and comments left
                break
            start, pos = m.span(1) if m else (pos, len(text))
            key = text[start:pos]
            if key not in table:
                table[key] = _Parser(tokenize(key, source), source).statements()
            out += table[key]
        return out
    except ParseError as exc:
        error = exc
    _Parser(tokenize(text, source), source).statements()
    raise error


def parse_problem(text: str, include_dirs=(), source: str = "<string>",
                  table=None) -> Problem:
    """Parse a problem, resolving includes and auto-closing free variables;
    problems parsed with one statement `table` parse a shared statement
    once, and share its formula object."""
    table = {} if table is None else table
    formulas, seen_files = [], set()

    def ingest(text, source, current_dir):
        for entry in _statements(text, source, table):
            if entry[0] == "include":
                rel = entry[1]
                for d in [current_dir] + list(include_dirs):
                    if d is None:
                        continue
                    cand = os.path.join(d, rel)
                    if os.path.exists(cand):
                        real = os.path.realpath(cand)
                        if real in seen_files:
                            raise IncludeError(f"circular include of {rel!r}")
                        seen_files.add(real)
                        with open(cand, encoding="utf-8") as fh:
                            ingest(fh.read(), cand, os.path.dirname(cand))
                        break
                else:
                    raise IncludeError(f"cannot resolve include {rel!r}")
            else:
                formulas.append(entry[1])

    ingest(text, source, None)
    return make_problem(formulas)


def parse_problem_file(path: str, table=None) -> Problem:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_problem(text, [os.path.dirname(path)], source=path, table=table)


def parse_problem_dir(root: str) -> list:
    """(name, problem) for each `*.p` file of `root`, in name order, all
    parsed with one statement table."""
    if not os.path.isdir(root):
        raise ProblemError(f"no problems directory {root!r}")
    table: dict = {}
    return [(fn[:-2], parse_problem_file(os.path.join(root, fn), table=table))
            for fn in sorted(os.listdir(root)) if fn.endswith(".p")]


def parse_formula(text: str) -> Formula:
    """Parse a bare formula (no fof wrapper), free variables left open and
    no nesting cap: like `parse_bindings`, it reads proof steps written."""
    p = _Parser(tokenize(text), "<formula>", cap=float("inf"))
    f = p.formula()
    if p.cur.kind != "eof":
        p.error(f"trailing input {p.cur.text!r}")
    return f


def parse_bindings(text: str) -> tuple:
    """The (variable, term) pairs of a `X=term,...` list."""
    p = _Parser(tokenize(text), "<bindings>", cap=float("inf"))
    bindings: list = []
    while p.cur.kind != "eof":
        if bindings:
            p.eat(",")
        name = p.variable()
        p.eat("=")
        bindings.append((name, p.term()))
    return tuple(bindings)


# ---------------------------------------------------------------------------
# Printer

def _print_symbol(name: str) -> str:
    if _IDENT_RE.match(name) or name.isdigit():
        return name
    body = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{body}'"


def print_name(name: str) -> str:
    """`name` as `read_names` reads it back: written as a symbol, except
    that a `$word` name (the equality axioms' origin) stays bare."""
    if name[:1] == "$" and _IDENT_RE.match(name, 1):
        return name
    return _print_symbol(name)


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return _print_symbol(t.symbol)
    return f"{_print_symbol(t.symbol)}({','.join(map(print_term, t.args))})"


def print_formula(f: Formula) -> str:
    """Emit text that reparses to an alpha-equivalent formula.

    Every connective is parenthesized, an `&` or `|` chain once around
    the whole chain.
    """
    if isinstance(f, Atom):
        if f.pred == "=":
            return " = ".join(map(print_term, f.args))
        if not f.args:
            return _print_symbol(f.pred)
        return f"{_print_symbol(f.pred)}({','.join(map(print_term, f.args))})"
    if isinstance(f, TrueF):
        return "$true"
    if isinstance(f, FalseF):
        return "$false"
    if isinstance(f, Not):
        if isinstance(f.sub, Atom) and f.sub.pred == "=":
            return " != ".join(map(print_term, f.sub.args))
        return f"~ {print_formula(f.sub)}"
    if isinstance(f, BINARY):
        op = {And: " & ", Or: " | ", Implies: " => ", Iff: " <=> "}[type(f)]
        return "(" + op.join(map(print_formula, f.parts)) + ")"
    if isinstance(f, Forall):
        return f"![{f.var}]: {print_formula(f.body)}"
    if isinstance(f, Exists):
        return f"?[{f.var}]: {print_formula(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


def print_literal(lit: Literal) -> str:
    return print_formula(lit.atom if lit.positive else Not(lit.atom))

