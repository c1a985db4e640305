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

from .fol import (
    BINARY, And, AnnotatedFormula, App, Atom, Eq, Exists, FALSE,
    Forall, Formula, Iff, Implies, Literal, Not, Or, Problem, ProblemError,
    ROLES, TRUE, TrueF, FalseF, Term, Var, make_problem, universal_closure,
)


class ParseError(ProblemError):
    """A text that does not read, named `source:line:column: message`."""


class IncludeError(ProblemError):
    pass


# at this many levels, every walk from parsing to proof checking stays
# within about 600 of the 1 000 frames Python allows by default
MAX_DEPTH = 256


# ---------------------------------------------------------------------------
# Tokenizer

# Blanks and comments, then one token, or one character that starts no
# token, or the end of the text: the token "", found twice after trailing
# blanks.  A token is a string whose first character tells its kind.  A
# quoted atom ends on its line: TPTP's `sq_char` holds no line break.
_TOKEN_RE = re.compile(r"""(?:\s+|%[^\n]*)*(
    [a-zA-Z0-9][a-zA-Z0-9_]*
  | <=>|<~>|=>|<=|!=|[=&|~!?()\[\],.:]
  | '(?:[^'\\\n\r]|\\[^\n\r])*'
  | \$[a-z][a-zA-Z0-9_]*
  | .|\Z)""", re.VERBOSE | re.DOTALL)

_UPPER = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_LOWER = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")
# every token of one character; any other is a character that starts none
_SINGLES = _UPPER | _LOWER | frozenset("=&|~!?()[],.:")
_CONNECTIVES = frozenset(("&", "|", "=>", "<=", "<=>", "<~>"))
_EQUALS = frozenset(("=", "!="))


def _fail(text: str, index: int, message: str, source: str):
    """Raise `message` at the `index`th token of `text`, unless a character
    that starts no token stands anywhere in `text`: the first one is
    refused instead, so a lexical error wins over a syntax error."""
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        t = m.group(1)
        if len(t) == 1 and t not in _SINGLES:
            at, message = m.start(1), f"unexpected character {t!r}"
            break
        if i == index:
            at = m.start(1)
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    raise ParseError(f"{source}:{line}:{col}: {message}")


def tokenize(text: str) -> list:
    """The tokens of `text`; a character that starts no token is refused."""
    tokens = _TOKEN_RE.findall(text)
    for i, t in enumerate(tokens):
        if len(t) == 1 and t not in _SINGLES:
            _fail(text, i, f"unexpected character {t!r}", "<input>")
    return tokens[:tokens.index("")]


def _unquote(text: str) -> str:
    return text[1:-1].replace("\\'", "'").replace("\\\\", "\\")


_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def normalize_name(text: str) -> str:
    """Quoted atoms collapse to bare identifiers when possible."""
    return _unquote(text) if text.startswith("'") else text


def _name(t: str):
    """The name the token `t` reads as, or None if `t` is no name."""
    c = t[:1]
    if c in _LOWER:
        return t
    if c == "'" and len(t) > 1:
        return _unquote(t)
    return None


def read_names(text: str) -> list:
    """The names `text` lists, each written as `print_name` writes it."""
    tokens = tokenize(text)
    for i, t in enumerate(tokens):
        if _name(t) is None and t[0] != "$":      # a name, or `$word`
            _fail(text, i, f"expected name, found {t!r}", "<input>")
    return [normalize_name(t) for t in tokens]


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    """A reader of `text`'s tokens, walked by index; a token's place in the
    text is found only for an error.  `cur` is the token at `pos`.  The
    formula productions move through the tokens inline, a term with an
    explicit stack, and count levels as they go; a statement's deepest
    level is recorded only at its leaves (a term without arguments,
    `$true`, `$false`), since every level ends in one."""

    def __init__(self, text, source, cap=MAX_DEPTH):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.pos = 0
        self.cur = self.tokens[0]
        self.source = source
        self.cap = cap
        self.start = 0          # the index of the statement's first token
        self.deepest = 0        # the most levels that statement has reached

    def error(self, msg: str, at=None):
        _fail(self.text, self.pos if at is None else at, msg, self.source)

    def too_deep(self):
        self.error(f"statement nested too deeply (more than {self.cap} "
                   f"levels)", self.start)

    def eat(self, text: str) -> str:
        if self.cur != text:
            self.error(f"expected {text!r}, found {self.cur!r}")
        return self.take()

    def take(self) -> str:
        t = self.cur
        self.pos += 1
        self.cur = self.tokens[self.pos]
        return t

    # -- formulas ----------------------------------------------------------

    def formula(self, depth: int = 0) -> Formula:
        depth += 1
        if depth > self.cap:
            self.too_deep()
        lhs = self.unitary(depth)
        op = self.cur
        if op == "&" or op == "|":
            tokens, parts = self.tokens, [lhs]
            while self.cur == op:
                self.pos += 1
                self.cur = tokens[self.pos]
                parts.append(self.unitary(depth))
            if self.cur in _CONNECTIVES:
                self.error(f"cannot mix {op!r} with {self.cur!r} without parentheses")
            return (And if op == "&" else Or)(*parts)
        if op in _CONNECTIVES:
            self.pos += 1
            self.cur = self.tokens[self.pos]
            rhs = self.unitary(depth)
            if self.cur in _CONNECTIVES:
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
        tokens, t = self.tokens, self.cur
        if t == "(":
            self.pos += 1
            self.cur = tokens[self.pos]
            f = self.formula(depth)
            if self.cur != ")":
                self.error(f"expected ')', found {self.cur!r}")
            self.pos += 1
            self.cur = tokens[self.pos]
            return f
        if t == "~":
            self.pos += 1
            self.cur = tokens[self.pos]
            depth += 1
            if depth > self.cap:
                self.too_deep()
            return Not(self.unitary(depth))
        if t == "!" or t == "?":
            quant = Forall if t == "!" else Exists
            pos = self.pos + 1
            if tokens[pos] != "[":
                self.error(f"expected '[', found {tokens[pos]!r}", pos)
            names = []
            while True:             # each variable after `[` or `,`
                pos += 1
                t = tokens[pos]
                if t[:1] not in _UPPER:
                    self.error(f"expected variable, found {t!r}", pos)
                names.append(t)
                pos += 1
                if tokens[pos] != ",":
                    break
            for text in "]:":
                if tokens[pos] != text:
                    self.error(f"expected {text!r}, found {tokens[pos]!r}", pos)
                pos += 1
            self.pos, self.cur = pos, tokens[pos]
            depth += len(names)         # each variable is one level
            if depth > self.cap:
                self.too_deep()
            body = self.unitary(depth)
            for name in reversed(names):
                body = quant(name, body)
            return body
        if t[:1] == "$":
            self.pos += 1
            self.cur = tokens[self.pos]
            if depth > self.deepest:
                self.deepest = depth
            if t == "$true":
                return TRUE
            if t == "$false":
                return FALSE
            self.error(f"unknown defined constant {t!r}")
        return self.atomic(depth)

    def variable(self) -> str:
        t = self.cur
        if t[:1] not in _UPPER:
            self.error(f"expected variable, found {t!r}")
        return self.take()

    def atomic(self, depth: int) -> Formula:
        start = self.pos
        lhs = self.term(depth, formula=True)
        if type(lhs) is Atom:
            if lhs.pred == "=":
                self.error("equality is written infix, not as a predicate '='", start)
            return lhs
        op = self.cur
        if op == "=" or op == "!=":
            self.pos += 1
            self.cur = self.tokens[self.pos]
            eq = Eq(lhs, self.term(depth))
            return eq if op == "=" else Not(eq)
        self.error(f"variable {lhs.name!r} cannot stand as a formula")

    def term(self, depth: int = 0, formula: bool = False) -> Term:
        """A term one level below `depth`, each argument one level below
        its application.  With `formula` set, an outermost application that
        `=` or `!=` does not follow is built as the `Atom` it reads as."""
        tokens, pos, cap, deepest = self.tokens, self.pos, self.cap, self.deepest
        open_apps = []      # (name, args so far, level) of each unclosed application
        while True:
            depth += 1
            if depth > cap:
                self.too_deep()
            t = tokens[pos]
            if t[:1] in _UPPER:
                node = Var(t)
            else:
                name = _name(t)
                if name is None:
                    self.error(f"expected term, found {t!r}", pos)
                if tokens[pos + 1] == "(":
                    open_apps.append((name, [], depth))
                    pos += 2
                    continue
                cls = App if open_apps or not formula or tokens[pos + 1] in _EQUALS else Atom
                node = cls(name, ())
            pos += 1
            if depth > deepest:
                deepest = depth
            while open_apps:        # `node` ends an argument list, or not
                name, args, depth = open_apps[-1]
                args.append(node)
                t = tokens[pos]
                if t == ",":
                    pos += 1
                    break
                if t != ")":
                    self.error(f"expected ')', found {t!r}", pos)
                pos += 1
                open_apps.pop()
                cls = App if open_apps or not formula or tokens[pos] in _EQUALS else Atom
                node = cls(name, tuple(args))
            else:
                self.pos, self.cur, self.deepest = pos, tokens[pos], deepest
                return node

    # -- statements ---------------------------------------------------------

    def name(self) -> str:
        name = _name(self.cur)
        if name is None:
            self.error(f"expected name, found {self.cur!r}")
        self.take()
        return name

    def statement(self):
        self.start = self.pos
        self.deepest = 0
        t = self.cur
        if t == "fof":
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
            if self.deepest + len(closed_vars) > self.cap:
                self.too_deep()
            return ("fof", AnnotatedFormula(name, role, closed))
        if t == "include":
            self.take()
            self.eat("(")
            path = self.cur
            if path[:1] != "'" or path == "'":
                self.error("include path must be quoted")
            self.take()
            self.eat(")")
            self.eat(".")
            return ("include", _unquote(path))
        self.error(f"expected fof or include, found {t!r}")

    def statements(self):
        out = []
        while self.cur:
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
                table[key] = _Parser(key, source).statements()
            out += table[key]
        return out
    except ParseError as exc:
        error = exc
    _Parser(text, source).statements()
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
    p = _Parser(text, "<formula>", cap=float("inf"))
    f = p.formula()
    if p.cur:
        p.error(f"trailing input {p.cur!r}")
    return f


def parse_bindings(text: str) -> tuple:
    """The (variable, term) pairs of a `X=term,...` list."""
    p = _Parser(text, "<bindings>", cap=float("inf"))
    bindings: list = []
    while p.cur:
        if bindings:
            p.eat(",")
        name = p.variable()
        p.eat("=")
        bindings.append((name, p.term()))
    return tuple(bindings)


# ---------------------------------------------------------------------------
# Printer

def _print_symbol(name: str) -> str:
    if _IDENT_RE.match(name) or (name.isascii() and name.isdigit()):
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

