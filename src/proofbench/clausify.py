"""Clausal normal form with canonical, content-based skolem naming.

Fresh skolem names make alpha-variant formulas look different after
clausification, which poisons symbol-level learning and blocks evaluating
clauses in models found for differently named skolem functions.  Names
here are derived from a stable 64-bit fingerprint of the alpha-normalized
existential subformula plus the positional roles of its governing
universal variables, so equal content gets equal names in any problem.

Pipeline: nnf (with constant folding and miniscoping) -> skolemize (one
walk, which also drops the universals and renames them apart) -> distribute.
Distribution is naive while the estimated clause count stays within a
threshold, then switches to definitional naming of offending disjuncts
(definitional predicates are fingerprint-named too).
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .fol import (
    And, App, Atom, Clause, Eq, Exists, FALSE, FalseF, Forall, Formula, Iff,
    Implies, Literal, Not, Or, Problem, TRUE, TrueF, Var, alpha_normal,
    free_vars_ordered, make_clause, occurs_free, subst_term, term_vars,
)
from .parser import print_formula

DEFAULT_DEFINITIONAL_THRESHOLD = 64


@dataclass
class ClausalForm:
    """Clauses for one source formula, and whether the source formula
    uses equality."""
    clauses: tuple
    equality: bool = False


# ---------------------------------------------------------------------------
# Negation normal form, constant folding and miniscoping in one walk


def nnf(f: Formula) -> Formula:
    """Negation normal form, built bottom-up: => and <=> are eliminated,
    negations pushed to atoms, boolean constants folded (`$true` or
    `$false` is left only as the whole result) and every quantifier
    scope shrunk to cut skolem arity (miniscoping).  Equivalence-
    preserving."""
    return _nnf(f, True)


def _nnf(f: Formula, positive: bool) -> Formula:
    cls = type(f)
    if cls is Atom:
        return f if positive else Not(f)
    if cls is Not:
        return _nnf(f.sub, not positive)
    if cls is And or cls is Or:
        return _junction(And if (cls is And) == positive else Or,
                         [_nnf(p, positive) for p in f.parts])
    if cls is Forall or cls is Exists:
        universal = (cls is Forall) == positive
        return _scope(Forall if universal else Exists, f.var,
                      _nnf(f.body, positive))
    if cls is Implies:      # l => r is ~l | r
        return _junction(Or if positive else And,
                         [_nnf(f.lhs, not positive), _nnf(f.rhs, positive)])
    if cls is Iff:      # ~(l <=> r) is (l | r) & ~(l & r)
        l, r = f.lhs, f.rhs
        return _nnf(And(Implies(l, r), Implies(r, l)) if positive
                    else And(Or(l, r), Not(And(l, r))), True)
    if cls is TrueF:
        return TRUE if positive else FALSE
    if cls is FalseF:
        return FALSE if positive else TRUE
    raise TypeError(f"not a formula: {f!r}")


def _junction(cls, parts: list) -> Formula:
    """`cls(*parts)` for cls And or Or, with constant operands folded: a
    constant is told by its type, so no operand is compared."""
    unit, absorb = (TRUE, FALSE) if cls is And else (FALSE, TRUE)
    kept = []
    for p in parts:
        if type(p) is type(absorb):
            return absorb
        if type(p) is not type(unit):
            kept.append(p)
    return cls(*kept) if len(kept) > 1 else kept[0] if kept else unit


def _scope(quant, v: str, body: Formula) -> Formula:
    """`quant v. body` over an already folded and miniscoped body: dropped
    when v does not occur (so a constant body stays constant), distributed
    over And (Forall) or Or (Exists), and pushed into the one operand v
    occurs in; otherwise put over the operands up to the last one v occurs
    in.  Each operand is tested for v once."""
    cls = type(body)
    if cls is not And and cls is not Or:
        return quant(v, body) if occurs_free(v, body) else body
    parts = list(body.parts)
    holding = [i for i, p in enumerate(parts) if occurs_free(v, p)]
    if len(holding) > 1 and cls is not (And if quant is Forall else Or):
        end = holding[-1] + 1
        return (quant(v, body) if end == len(parts)
                else cls(quant(v, cls(*parts[:end])), *parts[end:]))
    for i in holding:
        parts[i] = _scope(quant, v, parts[i])
    return cls(*parts)


# ---------------------------------------------------------------------------
# Canonical fingerprints


def _fingerprint(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def _positional(f: Formula, governing, env: dict) -> str:
    """Canonical text of f, each free variable read through `env` (bound
    name -> term; absent names stand for themselves) and the governing
    variables then renamed U1, U2, ... by position."""
    pos = {u: Var(f"U{i + 1}") for i, u in enumerate(governing)}
    images = {**pos, **{n: subst_term(t, pos) for n, t in env.items()}}
    return print_formula(alpha_normal(f, images))


# ---------------------------------------------------------------------------
# Skolemization


def skolemize(f: Formula) -> Formula:
    """The quantifier-free matrix of a closed NNF formula, in one top-down
    walk.  An environment maps each bound name it changes to the term that
    replaces it, and is applied only at the literals, so no substituted
    body is built and nothing is captured: a universal's variable is read
    as a clause variable, an existential's as a skolem term over the
    universals that occur in its body as the environment reads it.  A
    universal keeps its name unless one it could share a clause with (one
    above it, or one in an earlier disjunct of an enclosing `|`) holds it;
    then X takes the first free `X_1`, `X_2`, ...

    The skolem symbol depends only on the alpha-class of the existential
    subformula, read through the environment, and the positions of the
    governing universals, so alpha-variant inputs get identical symbols.
    """
    return _skolemized(f, {}, [])


def _skolemized(g: Formula, env: dict, held: list) -> Formula:
    """`skolemize`'s walk; `held` lists the clause variables a universal
    in g could meet."""
    cls = type(g)
    if cls is Forall:
        name, i = g.var, 0
        while name in held:
            i += 1
            name = f"{g.var}_{i}"
        if name != g.var or g.var in env:   # renamed, or shadowing
            env = {**env, g.var: Var(name)}
        held.append(name)       # kept for the disjuncts that follow
        return _skolemized(g.body, env, held)
    if cls is Exists:
        occurring = {v for n in free_vars_ordered(g)
                     for v in term_vars(env.get(n, Var(n)))}
        # the universals above, in order: no other held name occurs here
        deps = [u for u in held if u in occurring]
        fingerprint = _fingerprint("sk|" + _positional(g, deps, env))
        term = App(f"sk_{fingerprint}", tuple(Var(u) for u in deps))
        return _skolemized(g.body, {**env, g.var: term}, held)
    if cls is And:      # a conjunct's universals meet no other's
        mark, parts, taken = len(held), [], []
        for p in g.parts:
            parts.append(_skolemized(p, env, held))
            taken += held[mark:]
            del held[mark:]
        held += taken
        return And(*parts)
    if cls is Or:
        return Or(*[_skolemized(p, env, held) for p in g.parts])
    return alpha_normal(g, env) if env else g     # a literal binds nothing


# ---------------------------------------------------------------------------
# Distribution to clauses


def clause_count_estimate(f: Formula) -> int:
    """Clause count of naive distribution for a quantifier-free NNF matrix."""
    cls = type(f)
    if cls is And:
        return sum(map(clause_count_estimate, f.parts))
    if cls is Or:
        return math.prod(map(clause_count_estimate, f.parts))
    return 1


class _Distributor:
    def __init__(self, threshold: int):
        self.threshold = threshold
        self.defined: set = set()       # definition names emitted
        self.extra_clauses: list = []

    def name_subformula(self, f: Formula) -> Formula:
        """Replace f by a fingerprint-named predicate over its free variables."""
        fvs = free_vars_ordered(f)
        fp = _fingerprint("df|" + _positional(f, fvs, {}))
        name = f"df_{fp}"
        head = Atom(name, tuple(Var(v) for v in fvs))
        if name not in self.defined:
            self.defined.add(name)
            # one-sided definition suffices in NNF: def -> f
            for cl in self.clauses(f):
                self.extra_clauses.append([Literal(False, head)] + cl)
        return head

    def clauses(self, f: Formula) -> list:
        cls = type(f)
        if cls is Atom:
            return [[Literal(True, f)]]
        if cls is Not:
            return [[Literal(False, f.sub)]]
        if cls is And:
            return [c for p in f.parts for c in self.clauses(p)]
        if cls is Or:
            parts = _flatten_or(f)
            counts = [clause_count_estimate(p) for p in parts]
            if math.prod(counts) > self.threshold:
                # definitional mode: name every multi-clause disjunct
                parts = [self.name_subformula(p) if c > 1 else p
                         for p, c in zip(parts, counts)]
            result = [[]]
            for p in parts:
                result = [rc + pc for rc in result for pc in self.clauses(p)]
            return result
        if cls is TrueF:
            return []
        if cls is FalseF:
            return [[]]
        return [[Literal(True, f)]]


def _flatten_or(f: Formula) -> list:
    if type(f) is Or:
        return [q for p in f.parts for q in _flatten_or(p)]
    return [f]


def _clause_literals(lits) -> tuple | None:
    """`lits` without repeats, in first-occurrence order, or None when an
    atom occurs in both signs (a tautology); each atom is hashed once."""
    first: dict = {}        # atom -> its first literal
    for l in lits:
        if first.setdefault(l.atom, l).positive != l.positive:
            return None
    return tuple(first.values())


def cnf(f: Formula, name: str = "f",
        threshold: int = DEFAULT_DEFINITIONAL_THRESHOLD,
        negate: bool = False) -> ClausalForm:
    """Clausify a closed formula (optionally its negation) under one origin.

    Clause ids are `{name}_{i}` in emission order; satisfiability is
    preserved, clause count stays within the definitional threshold rule.
    """
    matrix = skolemize(nnf(Not(f) if negate else f))
    dist = _Distributor(threshold)
    clauses, seen = [], set()
    # dedupe literals, drop tautologies, dedupe clauses, then number; each
    # literal is hashed once, when `seen` takes its clause
    for lits in dist.clauses(matrix) + dist.extra_clauses:
        literals = _clause_literals(lits)
        if literals is None:
            continue
        n = len(seen)
        seen.add(literals)
        if len(seen) > n:
            clauses.append(Clause(literals, name, f"{name}_{len(clauses)}"))
    return ClausalForm(tuple(clauses), uses_equality(f))


# ---------------------------------------------------------------------------
# Equality axiomatization (the prover has no built-in equality)


def uses_equality(f: Formula) -> bool:
    return ("=", "predicate", 2) in f.signature


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


def join_forms(forms, negated: ClausalForm | None) -> ClauseSet:
    """The one constructor of prover input: the clauses of `forms` in the
    order given, then, when some source formula uses equality, the
    equality axioms, with congruence covering skolem and definitional
    symbols too.

    Start candidates are the empty clauses, each a refutation by itself;
    else the clauses of `negated`, the negated conjecture among `forms`;
    else the all-negative clauses; else every clause.  A set with no
    all-negative clause is satisfiable, so starting anywhere lets the
    search saturate and the model finder show it.
    """
    clauses = [c for form in forms for c in form.clauses]
    if any(form.equality for form in forms):
        signature = {s for c in clauses for s in c.signature}
        clauses.extend(equality_axioms(signature))
    starts = [c for c in clauses if not c.literals] or (
        negated.clauses if negated is not None else ())
    if not starts:
        starts = [c for c in clauses if c.is_negative()] or clauses
    return ClauseSet(tuple(clauses),
                     frozenset(c.clause_id for c in starts))


def clausal_problem(problem: Problem) -> ClauseSet:
    """Clausify a whole problem afresh for refutation: every formula in
    file order, the conjecture negated.  The runs build their clause sets
    through `loop.clause_set_builder` instead, which reuses clausal forms."""
    forms, negated = [], None
    for af in problem.formulas:
        conjecture = af.role == "conjecture"
        forms.append(cnf(af.formula, name=af.name, negate=conjecture))
        if conjecture:
            negated = forms[-1]
    return join_forms(forms, negated)
