"""First-order syntax objects shared by every other module.

Terms, formulas, literals and clauses are frozen dataclasses: construction
is the only mutation point, so values can be shared freely between workers
and caches.  Variables are plain names bound by the enclosing quantifier;
the lexical convention (variables start uppercase) is enforced by the
parser, not here.  Substitution works on terms only (`subst_term`):
`alpha_normal` replaces a formula's free variables by given terms in the
walk that renames its bound ones, so no binder can capture them.

A formula keeps its `signature` and a clause its `signature` and
`variables`: each is walked on first read and kept by the object, however
many readers ask.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union


class ProblemError(Exception):
    """Base class for problem construction and ingestion errors."""


class DuplicateNameError(ProblemError):
    pass


class ArityError(ProblemError):
    pass


class MultipleConjecturesError(ProblemError):
    pass


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple = ()


Term = Union[Var, App]


# ---------------------------------------------------------------------------
# Formulas


class _Formula:
    """Base of the formula classes."""

    @cached_property
    def signature(self) -> tuple:
        """The distinct `symbols_of` keys in first-occurrence order."""
        return tuple(symbols_of(self))


@dataclass(frozen=True)
class Atom(_Formula):
    pred: str
    args: tuple = ()


def Eq(lhs: Term, rhs: Term) -> Atom:
    """The equation `lhs = rhs`: the atom of the built-in predicate `=`,
    a name the parser reserves, so no input can name it."""
    return Atom("=", (lhs, rhs))


@dataclass(frozen=True)
class Not(_Formula):
    sub: "Formula"


class _Chain(_Formula):
    """An `&` or `|` chain of two or more `parts`; a first operand of the
    same connective joins it (`And(And(a, b), c)` is `And(a, b, c)`)."""

    def __init__(self, *parts):
        if type(parts[0]) is type(self):
            parts = parts[0].parts + parts[1:]
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True, init=False)
class And(_Chain):
    parts: tuple


@dataclass(frozen=True, init=False)
class Or(_Chain):
    parts: tuple


class _Pair(_Formula):      # `=>` and `<=>`, read through `parts` like a chain
    parts = property(lambda self: (self.lhs, self.rhs))


@dataclass(frozen=True)
class Implies(_Pair):
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Iff(_Pair):
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Forall(_Formula):
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists(_Formula):
    var: str
    body: "Formula"


@dataclass(frozen=True)
class TrueF(_Formula):
    pass


@dataclass(frozen=True)
class FalseF(_Formula):
    pass


TRUE = TrueF()
FALSE = FalseF()

Formula = Union[Atom, Not, And, Or, Implies, Iff, Forall, Exists, TrueF, FalseF]

BINARY = (And, Or, Implies, Iff)
QUANT = (Forall, Exists)


# ---------------------------------------------------------------------------
# Traversals (recursive; a formula's signature is kept, see `_Formula`)


def term_vars(t: Term) -> Iterator[str]:
    if isinstance(t, Var):
        yield t.name
    else:
        for a in t.args:
            yield from term_vars(a)


def free_vars_ordered(f: Formula) -> list:
    """Free variable names in first-occurrence order (auto-closure order)."""
    seen: list = []

    def collect(t, scope):
        if isinstance(t, Var):
            if t.name not in scope and t.name not in seen:
                seen.append(t.name)
        else:
            for a in t.args:
                collect(a, scope)

    def walk(g, scope):
        if isinstance(g, Atom):
            for a in g.args:
                collect(a, scope)
        elif isinstance(g, Not):
            walk(g.sub, scope)
        elif isinstance(g, BINARY):
            for p in g.parts:
                walk(p, scope)
        elif isinstance(g, QUANT):
            walk(g.body, scope | {g.var})

    walk(f, set())
    return seen


def universal_closure(f: Formula) -> tuple:
    """Close free variables universally; returns (closed formula, names closed)."""
    names = free_vars_ordered(f)
    g = f
    for name in reversed(names):
        g = Forall(name, g)
    return g, names


def symbols_of(f: Formula) -> Counter:
    """Multiset of (identifier, kind, arity) occurrences; variables excluded.

    An equation counts as the predicate "=" of arity 2.
    """
    out: Counter = Counter()

    def walk_term(t):
        if isinstance(t, Var):
            return
        out[(t.symbol, "function", len(t.args))] += 1
        for a in t.args:
            walk_term(a)

    def walk(g):
        if isinstance(g, Atom):
            out[(g.pred, "predicate", len(g.args))] += 1
            for a in g.args:
                walk_term(a)
        elif isinstance(g, Not):
            walk(g.sub)
        elif isinstance(g, BINARY):
            for p in g.parts:
                walk(p)
        elif isinstance(g, QUANT):
            walk(g.body)

    walk(f)
    return out


# ---------------------------------------------------------------------------
# Substitution and alpha normalization


def subst_term(t: Term, mapping: dict) -> Term:
    """Apply name->Term mapping to a term."""
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if not t.args:
        return t
    return App(t.symbol, tuple(subst_term(a, mapping) for a in t.args))


def alpha_normal(f: Formula, images=None) -> Formula:
    """Rename bound variables canonically (V1, V2, ... in traversal order)
    and replace each free variable named in `images` (name -> Term) by its
    image, in one walk.

    Two formulas are alpha-equivalent iff their normal forms are equal.
    The canonical base is extended until it cannot collide with the free
    names of the result.
    """
    images = images or {}
    free = {v for n in free_vars_ordered(f)
            for v in term_vars(images.get(n, Var(n)))}
    base = "V"
    while any(n.startswith(base) and n[len(base):].isdigit() for n in free):
        base += "V"
    counter = [0]

    def walk(g, env):
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(subst_term(a, env) for a in g.args))
        if isinstance(g, Not):
            return Not(walk(g.sub, env))
        if isinstance(g, BINARY):
            return type(g)(*[walk(p, env) for p in g.parts])
        if isinstance(g, QUANT):
            counter[0] += 1
            new = f"{base}{counter[0]}"
            return type(g)(new, walk(g.body, {**env, g.var: Var(new)}))
        return g

    return walk(f, images)


# ---------------------------------------------------------------------------
# Literals and clauses


@dataclass(frozen=True)
class Literal:
    positive: bool
    atom: Atom

    @property
    def args(self) -> tuple:
        return self.atom.args


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals; variables implicitly universal."""
    literals: tuple
    origin: str = ""
    clause_id: str = ""

    def is_negative(self) -> bool:
        return all(not l.positive for l in self.literals)

    @cached_property
    def signature(self) -> tuple:
        """The distinct (symbol, kind, arity) of its predicates and functions
        in first-occurrence order; equality is built in and not listed."""
        sig: dict = {}          # ordered set
        for lit in self.literals:
            if lit.atom.pred != "=":
                sig[(lit.atom.pred, "predicate", len(lit.args))] = None
            for t in _subterms(lit):
                if type(t) is not Var:
                    sig[(t.symbol, "function", len(t.args))] = None
        return tuple(sig)

    @cached_property
    def variables(self) -> tuple:
        """The distinct variable names in first-occurrence order."""
        return tuple({t.name: None for lit in self.literals
                      for t in _subterms(lit) if type(t) is Var})


def _subterms(lit: Literal) -> Iterator[Term]:
    """The literal's terms in preorder, walked with an explicit stack."""
    todo = list(reversed(lit.args))
    while todo:
        t = todo.pop()
        yield t
        if type(t) is not Var:
            todo.extend(reversed(t.args))


def make_clause(literals, origin: str = "", clause_id: str = "") -> Clause:
    """Normalize: drop duplicate literals, keep first-occurrence order."""
    seen = set()
    out = []
    for l in literals:
        if l not in seen:
            seen.add(l)
            out.append(l)
    return Clause(tuple(out), origin, clause_id)


# ---------------------------------------------------------------------------
# Annotated formulas and problems

ROLES = ("axiom", "definition", "hypothesis", "conjecture")


@dataclass(frozen=True)
class AnnotatedFormula:
    name: str
    role: str
    formula: Formula


@dataclass(frozen=True)
class Problem:
    formulas: tuple

    @property
    def conjecture(self):
        for af in self.formulas:
            if af.role == "conjecture":
                return af
        return None

    def by_name(self, name: str) -> AnnotatedFormula:
        for af in self.formulas:
            if af.name == name:
                return af
        raise KeyError(name)


def check_arities(formulas) -> None:
    """Enforce one arity per symbol, per namespace, across the given formulas.

    A name used both as a predicate and as a function is rejected: mixed use
    is always a mistake in the corpora this package handles.
    """
    funcs: dict = {}
    preds: dict = {}
    for af in formulas:
        for (name, kind, arity) in af.formula.signature:
            table, other = (funcs, preds) if kind == "function" else (preds, funcs)
            if name in other:
                raise ArityError(
                    f"symbol {name!r} used as both predicate and function "
                    f"(seen in {af.name!r})")
            prev = table.setdefault(name, (arity, af.name))
            if prev[0] != arity:
                raise ArityError(
                    f"symbol {name!r} used with arity {prev[0]} in {prev[1]!r} "
                    f"but arity {arity} in {af.name!r}")


def make_problem(formulas) -> Problem:
    """Validate name uniqueness, conjecture uniqueness and arity consistency."""
    names = set()
    conjectures = 0
    for af in formulas:
        if af.name in names:
            raise DuplicateNameError(f"duplicate formula name {af.name!r}")
        names.add(af.name)
        if af.role == "conjecture":
            conjectures += 1
    if conjectures > 1:
        raise MultipleConjecturesError(f"{conjectures} conjectures in one problem")
    check_arities(formulas)
    return Problem(tuple(formulas))
