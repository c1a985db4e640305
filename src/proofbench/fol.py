"""First-order syntax objects shared by every other module.

Terms, formulas, literals and clauses are frozen dataclasses: construction
is the only mutation point, so values can be shared freely between workers
and caches.  Variables are plain names bound by the enclosing quantifier;
the lexical convention (variables start uppercase) is enforced by the
parser, not here.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
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


def app(symbol: str, *args: Term) -> App:
    return App(symbol, tuple(args))


def const(symbol: str) -> App:
    return App(symbol, ())


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()


@dataclass(frozen=True)
class Eq:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Iff:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class FalseF:
    pass


TRUE = TrueF()
FALSE = FalseF()

Formula = Union[Atom, Eq, Not, And, Or, Implies, Iff, Forall, Exists, TrueF, FalseF]

BINARY = (And, Or, Implies, Iff)
QUANT = (Forall, Exists)


def atom(pred: str, *args: Term) -> Atom:
    return Atom(pred, tuple(args))


def conj(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


# ---------------------------------------------------------------------------
# Traversals


def term_vars(t: Term) -> Iterator[str]:
    if isinstance(t, Var):
        yield t.name
    else:
        for a in t.args:
            yield from term_vars(a)


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.sub)
    elif isinstance(f, BINARY):
        yield from subformulas(f.lhs)
        yield from subformulas(f.rhs)
    elif isinstance(f, QUANT):
        yield from subformulas(f.body)


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
        elif isinstance(g, Eq):
            collect(g.lhs, scope)
            collect(g.rhs, scope)
        elif isinstance(g, Not):
            walk(g.sub, scope)
        elif isinstance(g, BINARY):
            walk(g.lhs, scope)
            walk(g.rhs, scope)
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

    Equality counts as the built-in predicate "=" of arity 2.
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
        elif isinstance(g, Eq):
            out[("=", "predicate", 2)] += 1
            walk_term(g.lhs)
            walk_term(g.rhs)
        elif isinstance(g, Not):
            walk(g.sub)
        elif isinstance(g, BINARY):
            walk(g.lhs)
            walk(g.rhs)
        elif isinstance(g, QUANT):
            walk(g.body)

    walk(f)
    return out


# ---------------------------------------------------------------------------
# Substitution


def subst_term(t: Term, mapping: dict) -> Term:
    """Apply name->Term mapping to a term."""
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if not t.args:
        return t
    return App(t.symbol, tuple(subst_term(a, mapping) for a in t.args))


def _fresh_name(base: str, used: set) -> str:
    i = 0
    name = base
    while name in used:
        i += 1
        name = f"{base}_{i}"
    used.add(name)
    return name


def subst_formula(f: Formula, mapping: dict) -> Formula:
    """Capture-avoiding substitution of free variables by terms."""
    if not mapping:
        return f
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(subst_term(a, mapping) for a in f.args))
    if isinstance(f, Eq):
        return Eq(subst_term(f.lhs, mapping), subst_term(f.rhs, mapping))
    if isinstance(f, Not):
        return Not(subst_formula(f.sub, mapping))
    if isinstance(f, BINARY):
        return type(f)(subst_formula(f.lhs, mapping), subst_formula(f.rhs, mapping))
    if isinstance(f, QUANT):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        if not inner:
            return f
        # rename the binder if it would capture a variable of an image term
        clash = any(f.var in term_vars(v) for v in inner.values())
        var, body = f.var, f.body
        if clash:
            used = set(free_vars_ordered(body))
            for v in inner.values():
                used.update(term_vars(v))
            used.add(var)
            new = _fresh_name(var, used)
            body = subst_formula(body, {var: Var(new)})
            var = new
        return type(f)(var, subst_formula(body, inner))
    return f


# ---------------------------------------------------------------------------
# Alpha normalization / equivalence


def alpha_normal(f: Formula) -> Formula:
    """Rename bound variables canonically (V1, V2, ... in traversal order).

    Two formulas are alpha-equivalent iff their normal forms are equal.
    The canonical base is extended until it cannot collide with free names.
    """
    free = set(free_vars_ordered(f))
    base = "V"
    while any(n.startswith(base) and n[len(base):].isdigit() for n in free):
        base += "V"
    counter = [0]

    def walk(g, env):
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(walk_term(a, env) for a in g.args))
        if isinstance(g, Eq):
            return Eq(walk_term(g.lhs, env), walk_term(g.rhs, env))
        if isinstance(g, Not):
            return Not(walk(g.sub, env))
        if isinstance(g, BINARY):
            return type(g)(walk(g.lhs, env), walk(g.rhs, env))
        if isinstance(g, QUANT):
            counter[0] += 1
            new = f"{base}{counter[0]}"
            return type(g)(new, walk(g.body, {**env, g.var: new}))
        return g

    def walk_term(t, env):
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        return App(t.symbol, tuple(walk_term(a, env) for a in t.args))

    return walk(f, {})


def alpha_equivalent(f: Formula, g: Formula) -> bool:
    return alpha_normal(f) == alpha_normal(g)


# ---------------------------------------------------------------------------
# Literals and clauses


@dataclass(frozen=True)
class Literal:
    positive: bool
    atom: Union[Atom, Eq]

    def complement(self) -> "Literal":
        return Literal(not self.positive, self.atom)

    @property
    def pred_key(self) -> tuple:
        """(predicate, arity) key; equality keys as ("=", 2)."""
        if isinstance(self.atom, Eq):
            return ("=", 2)
        return (self.atom.pred, len(self.atom.args))

    @property
    def args(self) -> tuple:
        if isinstance(self.atom, Eq):
            return (self.atom.lhs, self.atom.rhs)
        return self.atom.args


def literal_vars(lit: Literal) -> Iterator[str]:
    for a in lit.args:
        yield from term_vars(a)


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals; variables implicitly universal."""
    literals: tuple
    origin: str = ""
    clause_id: str = ""

    def is_negative(self) -> bool:
        return all(not l.positive for l in self.literals)


def make_clause(literals, origin: str = "", clause_id: str = "") -> Clause:
    """Normalize: drop duplicate literals, keep first-occurrence order."""
    seen = set()
    out = []
    for l in literals:
        if l not in seen:
            seen.add(l)
            out.append(l)
    return Clause(tuple(out), origin, clause_id)


def literal_as_formula(lit: Literal) -> Formula:
    return lit.atom if lit.positive else Not(lit.atom)


def clause_as_formula(c: Clause) -> Formula:
    if not c.literals:
        return FALSE
    body = disj([literal_as_formula(l) for l in c.literals])
    closed, _ = universal_closure(body)
    return closed


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
    warnings: tuple = ()

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
        for (name, kind, arity) in symbols_of(af.formula):
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


def make_problem(formulas, warnings=()) -> Problem:
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
    return Problem(tuple(formulas), tuple(warnings))
