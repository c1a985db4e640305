"""Clausal normal form with canonical, content-based skolem naming.

Fresh skolem names make alpha-variant formulas look different after
clausification, which poisons symbol-level learning and blocks evaluating
clauses in models found for differently named skolem functions.  Names
here are derived from a stable 64-bit fingerprint of the alpha-normalized
existential subformula plus the positional roles of its governing
universal variables, so equal content gets equal names in any problem.

Pipeline: nnf -> simplify -> miniscope -> skolemize -> distribute.
Distribution is naive while the estimated clause count stays within a
threshold, then switches to definitional naming of offending disjuncts
(definitional predicates are fingerprint-named too).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .fol import (
    And, AnnotatedFormula, App, Atom, BINARY, Clause, Eq, Exists, FALSE,
    FalseF, Forall, Formula, Iff, Implies, Literal, Not, Or, Problem, QUANT,
    TRUE, TrueF, Var, alpha_normal, free_vars_ordered, make_clause,
    subst_formula, symbols_of,
)
from .parser import print_formula

DEFAULT_DEFINITIONAL_THRESHOLD = 64


@dataclass
class ClausalForm:
    """Clauses for one source formula plus the naming it introduced."""
    clauses: tuple
    skolem_map: dict = field(default_factory=dict)
    defined: dict = field(default_factory=dict)
    source: str = ""


# ---------------------------------------------------------------------------
# Negation normal form


def nnf(f: Formula) -> Formula:
    """Push negations to atoms, eliminating => and <=>."""
    return _nnf(f, True)


def _nnf(f: Formula, positive: bool) -> Formula:
    if isinstance(f, (Atom, Eq)):
        return f if positive else Not(f)
    if isinstance(f, TrueF):
        return TRUE if positive else FALSE
    if isinstance(f, FalseF):
        return FALSE if positive else TRUE
    if isinstance(f, Not):
        return _nnf(f.sub, not positive)
    if isinstance(f, And):
        cls = And if positive else Or
        return cls(_nnf(f.lhs, positive), _nnf(f.rhs, positive))
    if isinstance(f, Or):
        cls = Or if positive else And
        return cls(_nnf(f.lhs, positive), _nnf(f.rhs, positive))
    if isinstance(f, Implies):
        if positive:
            return Or(_nnf(f.lhs, False), _nnf(f.rhs, True))
        return And(_nnf(f.lhs, True), _nnf(f.rhs, False))
    if isinstance(f, Iff):
        if positive:
            return And(Or(_nnf(f.lhs, False), _nnf(f.rhs, True)),
                       Or(_nnf(f.rhs, False), _nnf(f.lhs, True)))
        return And(Or(_nnf(f.lhs, True), _nnf(f.rhs, True)),
                   Or(_nnf(f.lhs, False), _nnf(f.rhs, False)))
    if isinstance(f, Forall):
        cls = Forall if positive else Exists
        return cls(f.var, _nnf(f.body, positive))
    if isinstance(f, Exists):
        cls = Exists if positive else Forall
        return cls(f.var, _nnf(f.body, positive))
    raise TypeError(f"not a formula: {f!r}")


def simplify(f: Formula) -> Formula:
    """Fold boolean constants; equivalence-preserving."""
    if isinstance(f, (And, Or)):
        l, r = simplify(f.lhs), simplify(f.rhs)
        unit, absorb = (TRUE, FALSE) if isinstance(f, And) else (FALSE, TRUE)
        if l == absorb or r == absorb:
            return absorb
        if l == unit:
            return r
        if r == unit:
            return l
        return type(f)(l, r)
    if isinstance(f, Not):
        s = simplify(f.sub)
        if isinstance(s, TrueF):
            return FALSE
        if isinstance(s, FalseF):
            return TRUE
        return Not(s)
    if isinstance(f, QUANT):
        b = simplify(f.body)
        if isinstance(b, (TrueF, FalseF)):
            return b
        return type(f)(f.var, b)
    if isinstance(f, (Implies, Iff)):
        return type(f)(simplify(f.lhs), simplify(f.rhs))
    return f


# ---------------------------------------------------------------------------
# Miniscoping (on NNF): shrink quantifier scopes to cut skolem arity.


def miniscope(f: Formula) -> Formula:
    if isinstance(f, (And, Or)):
        return type(f)(miniscope(f.lhs), miniscope(f.rhs))
    if isinstance(f, QUANT):
        body = miniscope(f.body)
        v = f.var
        if v not in free_vars_ordered(body):
            return body
        dist = And if isinstance(f, Forall) else Or
        if isinstance(body, dist):
            return type(body)(miniscope(type(f)(v, body.lhs)),
                              miniscope(type(f)(v, body.rhs)))
        if isinstance(body, (And, Or)):
            in_l = v in free_vars_ordered(body.lhs)
            in_r = v in free_vars_ordered(body.rhs)
            if in_l and not in_r:
                return type(body)(miniscope(type(f)(v, body.lhs)), body.rhs)
            if in_r and not in_l:
                return type(body)(body.lhs, miniscope(type(f)(v, body.rhs)))
        return type(f)(v, body)
    return f


# ---------------------------------------------------------------------------
# Canonical fingerprints


def _fingerprint(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def _positional(f: Formula, outer_vars) -> str:
    """Canonical text of f with the given outer variables renamed by position."""
    ren = {u: Var(f"U{i + 1}") for i, u in enumerate(outer_vars)}
    return print_formula(alpha_normal(subst_formula(f, ren)))


def skolem_fingerprint(existential: Formula, governing) -> str:
    return _fingerprint("sk|" + _positional(existential, governing))


# ---------------------------------------------------------------------------
# Skolemization


def skolemize(f: Formula, skolem_map: dict | None = None) -> Formula:
    """Remove existentials from a closed NNF formula.

    The skolem symbol for an occurrence depends only on the alpha-class of
    the existential subformula and the positions of the governing
    universals, so alpha-variant inputs produce identical symbols.
    """
    if skolem_map is None:
        skolem_map = {}

    def walk(g, universals):
        if isinstance(g, Forall):
            return Forall(g.var, walk(g.body, universals + [g.var]))
        if isinstance(g, Exists):
            deps = [u for u in universals if u in free_vars_ordered(g.body)]
            fp = skolem_fingerprint(g, deps)
            name = f"sk_{fp}"
            skolem_map[name] = fp
            term = App(name, tuple(Var(u) for u in deps))
            return walk(subst_formula(g.body, {g.var: term}), universals)
        if isinstance(g, (And, Or)):
            return type(g)(walk(g.lhs, universals), walk(g.rhs, universals))
        return g

    return walk(f, [])


# ---------------------------------------------------------------------------
# Distribution to clauses


def _strip_universals(f: Formula) -> Formula:
    while isinstance(f, Forall):
        f = f.body
    if isinstance(f, (And, Or)):
        return type(f)(_strip_universals(f.lhs), _strip_universals(f.rhs))
    return f


def clause_count_estimate(f: Formula) -> int:
    """Clause count of naive distribution for a quantifier-free NNF matrix."""
    if isinstance(f, And):
        return clause_count_estimate(f.lhs) + clause_count_estimate(f.rhs)
    if isinstance(f, Or):
        return clause_count_estimate(f.lhs) * clause_count_estimate(f.rhs)
    return 1


def _as_literal(f: Formula) -> Literal:
    if isinstance(f, Not):
        return Literal(False, f.sub)
    return Literal(True, f)


class _Distributor:
    def __init__(self, threshold: int):
        self.threshold = threshold
        self.defined: dict = {}
        self.extra_clauses: list = []

    def name_subformula(self, f: Formula) -> Formula:
        """Replace f by a fingerprint-named predicate over its free variables."""
        fvs = free_vars_ordered(f)
        fp = _fingerprint("df|" + _positional(f, fvs))
        name = f"df_{fp}"
        head = Atom(name, tuple(Var(v) for v in fvs))
        if name not in self.defined:
            self.defined[name] = fp
            # one-sided definition suffices in NNF: def -> f
            for cl in self.clauses(f):
                self.extra_clauses.append([Literal(False, head)] + cl)
        return head

    def clauses(self, f: Formula) -> list:
        if isinstance(f, TrueF):
            return []
        if isinstance(f, FalseF):
            return [[]]
        if isinstance(f, And):
            return self.clauses(f.lhs) + self.clauses(f.rhs)
        if isinstance(f, Or):
            parts = _flatten_or(f)
            counts = [clause_count_estimate(p) for p in parts]
            if _product(counts) > self.threshold:
                # definitional mode: name every multi-clause disjunct
                parts = [self.name_subformula(p) if c > 1 else p
                         for p, c in zip(parts, counts)]
            result = [[]]
            for p in parts:
                result = [rc + pc for rc in result for pc in self.clauses(p)]
            return result
        return [[_as_literal(f)]]


def _flatten_or(f: Formula) -> list:
    if isinstance(f, Or):
        return _flatten_or(f.lhs) + _flatten_or(f.rhs)
    return [f]


def _product(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def _is_tautology(literals) -> bool:
    pos = {l.atom for l in literals if l.positive}
    return any(not l.positive and l.atom in pos for l in literals)


def cnf(f: Formula, name: str = "f",
        threshold: int = DEFAULT_DEFINITIONAL_THRESHOLD,
        negate: bool = False) -> ClausalForm:
    """Clausify a closed formula (optionally its negation) under one origin.

    Clause ids are `{name}_{i}` in emission order; satisfiability is
    preserved, clause count stays within the definitional threshold rule.
    """
    g = Not(f) if negate else f
    matrix = simplify(nnf(g))
    matrix = miniscope(matrix)
    skolem_map: dict = {}
    matrix = skolemize(matrix, skolem_map)
    matrix = _strip_universals(matrix)
    dist = _Distributor(threshold)
    raw = dist.clauses(matrix) + dist.extra_clauses
    clauses = []
    for lits in raw:
        cl = make_clause(lits, origin=name)
        if _is_tautology(cl.literals):
            continue
        clauses.append(cl)
    # dedup identical clauses, then freeze ids
    seen = set()
    unique = []
    for cl in clauses:
        if cl.literals not in seen:
            seen.add(cl.literals)
            unique.append(cl)
    final = tuple(Clause(cl.literals, name, f"{name}_{i}")
                  for i, cl in enumerate(unique))
    return ClausalForm(final, skolem_map, dist.defined, name)


# ---------------------------------------------------------------------------
# Equality axiomatization (the prover has no built-in equality)


def uses_equality(f: Formula) -> bool:
    return any((s[0], s[1]) == ("=", "predicate") for s in symbols_of(f))


def equality_axioms(signature) -> list:
    """Reflexivity, symmetry, transitivity and congruence clauses.

    `signature` is an iterable of (symbol, kind, arity); congruence is
    emitted for every function and predicate of arity >= 1.  The caller
    decides whether equality occurs at all (return [] when it does not).
    """
    X, Y, Z = Var("X"), Var("Y"), Var("Z")
    out = [
        make_clause([Literal(True, Eq(X, X))], "$equality", "eq_refl"),
        make_clause([Literal(False, Eq(X, Y)), Literal(True, Eq(Y, X))],
                    "$equality", "eq_sym"),
        make_clause([Literal(False, Eq(X, Y)), Literal(False, Eq(Y, Z)),
                     Literal(True, Eq(X, Z))], "$equality", "eq_trans"),
    ]
    done = set()
    for (sym, kind, arity) in sorted(set(signature)):
        if arity == 0 or sym == "=" or (sym, kind) in done:
            continue
        done.add((sym, kind))
        xs = tuple(Var(f"X{i + 1}") for i in range(arity))
        ys = tuple(Var(f"Y{i + 1}") for i in range(arity))
        lits = [Literal(False, Eq(x, y)) for x, y in zip(xs, ys)]
        if kind == "function":
            lits.append(Literal(True, Eq(App(sym, xs), App(sym, ys))))
            cid = f"eq_cong_f_{sym}"
        else:
            lits.append(Literal(False, Atom(sym, xs)))
            lits.append(Literal(True, Atom(sym, ys)))
            cid = f"eq_cong_p_{sym}"
        out.append(make_clause(lits, "$equality", cid))
    return out


# ---------------------------------------------------------------------------
# Whole-problem clausification


@dataclass
class ClauseSet:
    """Prover input: clauses plus which clause ids are start candidates."""
    clauses: tuple
    start_ids: frozenset
    forms: dict = field(default_factory=dict)

    def by_id(self, cid: str) -> Clause:
        for c in self.clauses:
            if c.clause_id == cid:
                return c
        raise KeyError(cid)


def clausal_problem(problem: Problem,
                    threshold: int = DEFAULT_DEFINITIONAL_THRESHOLD) -> ClauseSet:
    """Clausify a whole problem for refutation.

    The conjecture is negated; equality axioms are appended when any
    formula (or any clause produced for one) mentions equality, with
    congruence covering skolem and definitional symbols too.
    """
    clauses: list = []
    forms: dict = {}
    start_ids: set = set()
    any_eq = False
    for af in problem.formulas:
        negate = af.role == "conjecture"
        form = cnf(af.formula, name=af.name, threshold=threshold, negate=negate)
        forms[af.name] = form
        clauses.extend(form.clauses)
        if negate:
            start_ids.update(c.clause_id for c in form.clauses)
        any_eq = any_eq or uses_equality(af.formula)
    if any_eq:
        clauses.extend(equality_axioms(clause_signature(clauses)))
    if not start_ids:
        # no conjecture: all-negative clauses are the start candidates
        start_ids = {c.clause_id for c in clauses if c.is_negative()}
    return ClauseSet(tuple(clauses), frozenset(start_ids), forms)


def clause_signature(clauses) -> set:
    """(symbol, kind, arity) of every predicate and function in `clauses`."""
    sig = set()
    for c in clauses:
        for lit in c.literals:
            if isinstance(lit.atom, Atom):
                sig.add((lit.atom.pred, "predicate", len(lit.atom.args)))
            for t in lit.args:
                sig.update(_term_signature(t))
    return sig


def _term_signature(t) -> set:
    if isinstance(t, Var):
        return set()
    out = {(t.symbol, "function", len(t.args))}
    for a in t.args:
        out |= _term_signature(a)
    return out
