"""Independent oracles, random generators, and the printers and readers
that only the test suite uses.

The oracles are deliberately separate from the package code paths they
check: the propositional oracle enumerates valuations, the finite
oracle enumerates whole interpretations, and the evaluator below walks
formulas directly with explicit variable assignments.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
from collections import Counter

from proofbench.fol import (
    BINARY, QUANT, And, App, Atom, Clause, Eq, Exists, FALSE, FalseF, Forall,
    Iff, Implies, Literal, Not, Or, TRUE, TrueF, Var, alpha_normal,
    free_vars_ordered, make_clause, subst_term, term_vars, universal_closure,
)
from proofbench.features import combine, symbol_features
from proofbench.learner import (
    SIGMA, BayesModel, rank_premises, train_incremental,
)
from proofbench.parser import (
    _print_symbol, print_formula, print_literal, print_name,
)
from proofbench.prover import _Cell, _deref, _Lit, _unify, resolve_term


# ---------------------------------------------------------------------------
# Term, formula and clause shorthands


def app(symbol: str, *args) -> App:
    return App(symbol, tuple(args))


def const(symbol: str) -> App:
    return App(symbol, ())


def atom(pred: str, *args) -> Atom:
    return Atom(pred, tuple(args))


def finder_blowup_clauses() -> list:
    """`{q(Y,f(c)), q(Y,c) | r, ~r, ~p(Y), p(d) | p(g(d,c))}`, ids `c0`..`c4`:
    unsatisfiable only through `p(g(d,c))`, but chronological backtracking
    enumerates `g`'s tables, which at domain 3 ran for minutes unbounded."""
    Y, c, d = Var("Y"), const("c"), const("d")
    literals = [
        [Literal(True, atom("q", Y, app("f", c)))],
        [Literal(True, atom("q", Y, c)), Literal(True, atom("r"))],
        [Literal(False, atom("r"))],
        [Literal(False, atom("p", Y))],
        [Literal(True, atom("p", d)), Literal(True, atom("p", app("g", d, c)))],
    ]
    return [make_clause(lits, origin=f"c{i}", clause_id=f"c{i}")
            for i, lits in enumerate(literals)]


def subformulas(f):
    """`f` and every formula below it, pre-order."""
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.sub)
    elif isinstance(f, BINARY):
        for p in f.parts:
            yield from subformulas(p)
    elif isinstance(f, QUANT):
        yield from subformulas(f.body)


def halves(f) -> tuple:
    """A connective read as binary: `=>` and `<=>` as their two sides, an
    `&` or `|` chain as its operands but the last (one chain when more
    than one) and its last, which is how `a & b & c` nests to the left."""
    if isinstance(f, (And, Or)):
        *init, last = f.parts
        return (init[0] if len(init) == 1 else type(f)(*init)), last
    return f.lhs, f.rhs


def complement(lit: Literal) -> Literal:
    return Literal(not lit.positive, lit.atom)


def clause_by_id(clause_set, cid: str) -> Clause:
    for c in clause_set.clauses:
        if c.clause_id == cid:
            return c
    raise KeyError(cid)


# ---------------------------------------------------------------------------
# Propositional truth-table oracle (atoms are 0-ary predicates)


def prop_atoms(clauses) -> list:
    names = []
    for c in clauses:
        for lit in c.literals:
            if lit.atom.pred not in names:
                names.append(lit.atom.pred)
    return sorted(names)


def prop_clause_satisfiable(clauses) -> bool:
    atoms = prop_atoms(clauses)
    for bits in itertools.product([False, True], repeat=len(atoms)):
        val = dict(zip(atoms, bits))
        if all(any(val[l.atom.pred] == l.positive for l in c.literals)
               for c in clauses):
            return True
    return False


def prop_formula_atoms(f) -> list:
    out = []

    def walk(g):
        if isinstance(g, Atom):
            if g.pred not in out:
                out.append(g.pred)
        elif isinstance(g, Not):
            walk(g.sub)
        elif isinstance(g, BINARY):
            for p in g.parts:
                walk(p)

    walk(f)
    return out


def prop_eval(f, val: dict) -> bool:
    if isinstance(f, Atom):
        return val[f.pred]
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Not):
        return not prop_eval(f.sub, val)
    if isinstance(f, And):
        return all(prop_eval(p, val) for p in f.parts)
    if isinstance(f, Or):
        return any(prop_eval(p, val) for p in f.parts)
    if isinstance(f, Implies):
        return (not prop_eval(f.lhs, val)) or prop_eval(f.rhs, val)
    if isinstance(f, Iff):
        return prop_eval(f.lhs, val) == prop_eval(f.rhs, val)
    raise TypeError(f)


def prop_equivalent(f, g) -> bool:
    atoms = sorted(set(prop_formula_atoms(f)) | set(prop_formula_atoms(g)))
    for bits in itertools.product([False, True], repeat=len(atoms)):
        val = dict(zip(atoms, bits))
        if prop_eval(f, val) != prop_eval(g, val):
            return False
    return True


# ---------------------------------------------------------------------------
# Brute-force finite interpretations


def all_interpretations(funcs: dict, preds: dict, n: int):
    """Yield every interpretation {(kind, sym): table} over domain n."""
    domain = list(range(n))
    cells = []
    for sym, ar in sorted(funcs.items()):
        for args in itertools.product(domain, repeat=ar):
            cells.append(("f", sym, args, domain))
    for sym, ar in sorted(preds.items()):
        for args in itertools.product(domain, repeat=ar):
            cells.append(("p", sym, args, [False, True]))
    for values in itertools.product(*[c[3] for c in cells]):
        funcs_t: dict = {sym: {} for sym in funcs}
        preds_t: dict = {sym: {} for sym in preds}
        for (kind, sym, args, _vals), v in zip(cells, values):
            (funcs_t if kind == "f" else preds_t)[sym][args] = v
        yield funcs_t, preds_t


def brute_eval_term(t, funcs_t, env) -> int:
    if isinstance(t, Var):
        return env[t.name]
    return funcs_t[t.symbol][tuple(brute_eval_term(a, funcs_t, env) for a in t.args)]


def brute_eval(f, funcs_t, preds_t, n, env=None) -> bool:
    """Direct evaluator, written separately from proofbench.models."""
    env = env or {}
    if isinstance(f, Atom):
        args = tuple(brute_eval_term(a, funcs_t, env) for a in f.args)
        return args[0] == args[1] if f.pred == "=" else preds_t[f.pred][args]
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Not):
        return not brute_eval(f.sub, funcs_t, preds_t, n, env)
    if isinstance(f, And):
        return all(brute_eval(p, funcs_t, preds_t, n, env) for p in f.parts)
    if isinstance(f, Or):
        return any(brute_eval(p, funcs_t, preds_t, n, env) for p in f.parts)
    if isinstance(f, Implies):
        return (not brute_eval(f.lhs, funcs_t, preds_t, n, env)) or \
            brute_eval(f.rhs, funcs_t, preds_t, n, env)
    if isinstance(f, Iff):
        return brute_eval(f.lhs, funcs_t, preds_t, n, env) == \
            brute_eval(f.rhs, funcs_t, preds_t, n, env)
    if isinstance(f, Forall):
        return all(brute_eval(f.body, funcs_t, preds_t, n, {**env, f.var: d})
                   for d in range(n))
    if isinstance(f, Exists):
        return any(brute_eval(f.body, funcs_t, preds_t, n, {**env, f.var: d})
                   for d in range(n))
    raise TypeError(f)


def brute_clause_eval(c: Clause, funcs_t, preds_t, n) -> bool:
    vs = sorted({v for lit in c.literals for a in lit.args for v in _tvars(a)})
    for vals in itertools.product(range(n), repeat=len(vs)):
        env = dict(zip(vs, vals))
        ok = False
        for lit in c.literals:
            args = tuple(brute_eval_term(a, funcs_t, env) for a in lit.atom.args)
            val = (args[0] == args[1] if lit.atom.pred == "="
                   else preds_t[lit.atom.pred][args])
            if val == lit.positive:
                ok = True
                break
        if not ok:
            return False
    return True


def _tvars(t):
    if isinstance(t, Var):
        yield t.name
    else:
        for a in t.args:
            yield from _tvars(a)


def brute_has_model(f, funcs: dict, preds: dict, max_n: int) -> bool:
    for n in range(1, max_n + 1):
        for funcs_t, preds_t in all_interpretations(funcs, preds, n):
            if brute_eval(f, funcs_t, preds_t, n):
                return True
    return False


def brute_clauses_have_model(clauses, funcs: dict, preds: dict, max_n: int) -> bool:
    for n in range(1, max_n + 1):
        for funcs_t, preds_t in all_interpretations(funcs, preds, n):
            if all(brute_clause_eval(c, funcs_t, preds_t, n) for c in clauses):
                return True
    return False


# ---------------------------------------------------------------------------
# Random generators (all seeded, all deterministic)


PROP_ATOMS = ["p", "q", "r", "s"]


def random_prop_clauses(rng: random.Random, max_atoms=4, origin="ax"):
    n_atoms = rng.randint(1, max_atoms)
    atoms = PROP_ATOMS[:n_atoms]
    n_clauses = rng.randint(1, 6)
    out = []
    for i in range(n_clauses):
        width = rng.randint(1, 3)
        lits = [Literal(rng.random() < 0.5, Atom(rng.choice(atoms), ()))
                for _ in range(width)]
        out.append(make_clause(lits, origin=f"{origin}{i}", clause_id=f"{origin}{i}_0"))
    return out


def random_term(rng: random.Random, vars_in_scope, depth=2, unary_only=False):
    choices = []
    if vars_in_scope:
        choices.append("var")
    choices.append("const")
    if depth > 0:
        choices.append("fun")
    kind = rng.choice(choices)
    if kind == "var":
        return Var(rng.choice(vars_in_scope))
    if kind == "const":
        return App("c" if unary_only else rng.choice(["c", "d"]), ())
    return App("f", (random_term(rng, vars_in_scope, depth - 1, unary_only),))


def random_formula(rng: random.Random, vars_in_scope=(), depth=3,
                   allow_eq=True, unary_only=False) -> object:
    """Random formula over p/1, q/2, c, d, f/1 (or p/1, q/1, c, f/1)."""
    vars_in_scope = list(vars_in_scope)
    if depth <= 0 or (rng.random() < 0.25 and depth < 3):
        kind = rng.choice(["p", "q", "eq"] if allow_eq else ["p", "q"])
        if kind == "p":
            return Atom("p", (random_term(rng, vars_in_scope, 1, unary_only),))
        if kind == "q":
            if unary_only:
                return Atom("q", (random_term(rng, vars_in_scope, 1, unary_only),))
            return Atom("q", (random_term(rng, vars_in_scope, 1),
                              random_term(rng, vars_in_scope, 1)))
        return Eq(random_term(rng, vars_in_scope, 1, unary_only),
                  random_term(rng, vars_in_scope, 1, unary_only))
    kind = rng.choice(["not", "and", "or", "implies", "iff", "forall", "exists"])
    if kind == "not":
        return Not(random_formula(rng, vars_in_scope, depth - 1, allow_eq, unary_only))
    if kind in ("and", "or", "implies", "iff"):
        cls = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
        return cls(random_formula(rng, vars_in_scope, depth - 1, allow_eq, unary_only),
                   random_formula(rng, vars_in_scope, depth - 1, allow_eq, unary_only))
    var = rng.choice(["X", "Y", "Z", "W"])
    cls = Forall if kind == "forall" else Exists
    return cls(var, random_formula(rng, vars_in_scope + [var], depth - 1,
                                   allow_eq, unary_only))


def random_closed_formula(rng: random.Random, depth=3, allow_eq=True,
                          unary_only=False):
    f = random_formula(rng, (), depth, allow_eq, unary_only)
    closed, _ = universal_closure(f)
    return closed


def seeded_random_formulas() -> list:
    """The 1 500 closed formulas of seed 2022 that the clausifier is
    checked on: depth 3 to 5, about 70% of them passed through
    `with_constants`."""
    rng = random.Random(2022)
    out = []
    for _ in range(1500):
        f = random_closed_formula(rng, depth=rng.choice([3, 4, 5]))
        out.append(with_constants(rng, f) if rng.random() < 0.7 else f)
    return out


def with_constants(rng: random.Random, f):
    """`f` with some subformulas replaced by `$true` or `$false` and some
    wrapped in a quantifier whose variable does not occur."""
    roll = rng.random()
    if roll < 0.1:
        return rng.choice([TRUE, FALSE])
    if roll < 0.18:
        return rng.choice([Forall, Exists])("V", with_constants(rng, f))
    if isinstance(f, Not):
        return Not(with_constants(rng, f.sub))
    if isinstance(f, BINARY):
        return type(f)(*[with_constants(rng, g) for g in halves(f)])
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, with_constants(rng, f.body))
    return f


def rename_bound_vars(f, suffix="R"):
    """Systematic alpha-variant: every binder gets a fresh decorated name."""
    counter = [0]

    def walk(g, env):
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(walk_t(a, env) for a in g.args))
        if isinstance(g, Not):
            return Not(walk(g.sub, env))
        if isinstance(g, BINARY):
            return type(g)(*[walk(p, env) for p in g.parts])
        if isinstance(g, (Forall, Exists)):
            counter[0] += 1
            new = f"{suffix}{counter[0]}"
            return type(g)(new, walk(g.body, {**env, g.var: new}))
        return g

    def walk_t(t, env):
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        return App(t.symbol, tuple(walk_t(a, env) for a in t.args))

    return walk(f, {})


# ---------------------------------------------------------------------------
# Statements nested to a given depth, as the parser counts levels: the
# statement's formula is one, and so is each parenthesized formula or
# chain, negation, quantified or auto-closed variable and term level


def nested_formula(shape: str, depth: int) -> str:
    """A formula text of `shape`, `depth` >= 5 levels deep."""
    n = depth - 3       # beside the statement's formula and an atom's two
    if shape == "term":
        return "p(" + "f(" * n + "c" + ")" * n + ")"
    if shape == "negations":
        return "~ " * n + "p(c)"
    if shape == "parentheses":      # `&` and `|` alternate, p0(c) innermost
        out = "p0(c)"
        for i in range(n, 0, -1):
            out = f"(p{i}(c) {'&|'[i % 2]} {out})"
        return out
    if shape == "prefix":           # `!` and `?` alternate
        prefix = "".join(f"{'!?'[i % 2]}[X{i}]: " for i in range(n))
        return prefix + f"q(X0,X{n - 1})"
    if shape == "closed":           # n free variables, closed by the parser
        return " | ".join(f"r(X{i})" for i in range(n))
    raise ValueError(shape)


NESTING_SHAPES = ("term", "negations", "parentheses", "prefix", "closed")


# ---------------------------------------------------------------------------
# Recursive references of fol's traversals, which walk with explicit stacks


def ref_symbols_of(f) -> Counter:
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


def ref_free_vars_ordered(f) -> list:
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


def ref_universal_closure(f) -> tuple:
    names = ref_free_vars_ordered(f)
    for name in reversed(names):
        f = Forall(name, f)
    return f, names


# ---------------------------------------------------------------------------
# Oracles, printers and readers that only the tests use


def disj(parts):
    parts = list(parts)
    return Or(*parts) if len(parts) > 1 else parts[0] if parts else FALSE


def literal_as_formula(lit: Literal):
    return lit.atom if lit.positive else Not(lit.atom)


def clause_as_formula(c: Clause):
    """The clause as a closed formula: its literals' disjunction, closed
    universally in first-occurrence order; the empty clause is $false."""
    if not c.literals:
        return FALSE
    closed, _ = universal_closure(disj([literal_as_formula(l) for l in c.literals]))
    return closed


def alpha_equivalent(f, g) -> bool:
    return alpha_normal(f) == alpha_normal(g)


def unify_terms(a, b, trail: list) -> bool:
    """The prover's unifier on one term pair of cell terms; bindings made
    before a failure stay on the trail."""
    return _unify([(a, b)], trail)


def _occurs_in(cell: _Cell, t) -> bool:
    t = _deref(t)
    return t is cell or isinstance(t, App) and any(_occurs_in(cell, a) for a in t.args)


def reference_unify(pairs, trail: list) -> bool:
    """Robinson unification of cell-term pairs, left to right and depth
    first, that runs the occurs check on every binding.  Like the prover,
    it binds the first term of a pair when that is an unbound cell, so on
    success both leave the same bindings.  Bindings made before a failure
    stay on the trail."""
    todo = list(reversed(pairs))
    while todo:
        a, b = todo.pop()
        a, b = _deref(a), _deref(b)
        if a is b:
            continue
        if isinstance(a, _Cell) or isinstance(b, _Cell):
            cell, term = (a, b) if isinstance(a, _Cell) else (b, a)
            if _occurs_in(cell, term):
                return False
            cell.ref = term
            trail.append(cell)
        elif a.symbol != b.symbol or len(a.args) != len(b.args):
            return False
        else:
            todo.extend(reversed(list(zip(a.args, b.args))))
    return True


def with_cells(t, cells: dict, tag: str = ""):
    """`t` with each variable X replaced by the cell in `cells` of its
    name, made on first use and named X + `tag`."""
    if isinstance(t, Var):
        return cells.setdefault(t.name, _Cell(t.name + tag))
    return App(t.symbol, tuple(with_cells(a, cells, tag) for a in t.args))


def cell_literal(lit: Literal, cells: dict, tag: str = "") -> Literal:
    args = tuple(with_cells(a, cells, tag) for a in lit.args)
    return Literal(lit.positive, Atom(lit.atom.pred, args))


def resolve_literal(lit: Literal) -> Literal:
    args = tuple(resolve_term(a) for a in lit.args)
    return Literal(lit.positive, Atom(lit.atom.pred, args))


def goals_of(lits) -> list:
    """Prover goals `(compiled literal, arguments)` for cell literals, as
    the search keeps its path and open goal."""
    goals = []
    for lit in lits:
        goals.append((_Lit(lit.positive, lit.atom.pred, 0, (), ()), lit.args))
    return goals


def resolved_branch_features(lits) -> dict:
    """The branch's SYM features as the advisor once computed them: each
    cell literal resolved to a `Literal`, its `symbol_features` summed."""
    return combine(*(symbol_features(literal_as_formula(resolve_literal(lit)))
                     for lit in lits))


def print_problem(p) -> str:
    return "\n".join(f"fof({_print_symbol(af.name)}, {af.role}, "
                     f"{print_formula(af.formula)})." for af in p.formulas) + "\n"


def print_clause(c: Clause, role: str = "axiom") -> str:
    """Clause dump line: cnf(id, role, (l1 | l2 | ...))."""
    if c.literals:
        body = " | ".join(print_literal(l) for l in c.literals)
    else:
        body = "$false"
    return f"cnf({_print_symbol(c.clause_id or c.origin or 'c')}, {role}, ({body}))."


def index_of(corpus, name: str) -> int:
    for i, item in enumerate(corpus.items):
        if item.name == name:
            return i
    raise KeyError(name)


def train_batch(examples) -> BayesModel:
    model = BayesModel()
    for features, used in examples:
        train_incremental(model, features, used)
    return model


def score(model: BayesModel, features: dict, candidate: str) -> float:
    """The reference naive-Bayes score, term by term as `learner`'s
    docstring states it: the prior, then, for a labeled candidate, the
    log term of each query feature seen in training, in the query's
    order."""
    label = model.label_count.get(candidate, 0.0)
    prior = math.log((label + SIGMA) / (model.total_examples + SIGMA))
    if label == 0.0:
        return prior
    total = prior
    for fid, w in features.items():
        if fid not in model.feature_totals:
            continue
        co = model.cooccurrence.get((candidate, fid), 0.0)
        total += w * math.log((co + SIGMA) / (label + 2.0 * SIGMA))
    return total


def select_top(ranking, k: int) -> list:
    if k < 1:
        raise ValueError("k must be >= 1")
    return [name for name, _s in ranking[:k]]


def evaluate_selection(corpus, k_values, feature_fn) -> dict:
    """Chronological leave-one-out recall of reference premises.

    For item i the model has been trained only on items before i; the
    item's own reference premises then update the model.  Returns per k:
    full-recall fraction and mean coverage over items that have premises.
    """
    model = BayesModel()
    hits = {k: 0 for k in k_values}
    coverage = {k: 0.0 for k in k_values}
    counted = 0
    for i, item in enumerate(corpus.items):
        if item.role != "conjecture":
            continue
        refs = set(item.reference_premises)
        feats = feature_fn(item.formula)
        if refs:
            assert model.total_examples <= i, "trained on an unseen item"
            candidates = [p.name for p in corpus.items[:i]]
            ranking = rank_premises(model, feats, candidates)
            counted += 1
            for k in k_values:
                top = set(select_top(ranking, k))
                got = len(refs & top)
                coverage[k] += got / len(refs)
                if got == len(refs):
                    hits[k] += 1
        train_incremental(model, feats, item.reference_premises)
    out = {}
    for k in k_values:
        out[k] = {
            "full_recall": hits[k] / counted if counted else 1.0,
            "coverage": coverage[k] / counted if counted else 1.0,
        }
    return out


def load_model(path: str) -> BayesModel:
    """Read back a learner checkpoint written by `learner.save_model`."""
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    if blob.get("version") != 1:
        raise ValueError(f"unsupported checkpoint version {blob.get('version')!r}")
    model = BayesModel(total_examples=blob["total_examples"],
                       label_count=dict(blob["label_count"]),
                       feature_totals=dict(blob["feature_totals"]))
    for name, row in blob["cooccurrence"].items():
        for fid, w in row.items():
            model.cooccurrence[(name, fid)] = w
    return model


# an id that holds one of these is written quoted, as `parser.print_name`
# quotes an atom, so that a line's pairs split apart
_QUOTE_ID = re.compile(r"[\s'\\]")


def feature_table_text(vectors: dict) -> str:
    """A feature table as text, one `name<TAB>fid:weight ...` line per
    name, names and each vector's ids sorted: what a library run's final
    feature table hashes as in `golden/selection.json`."""
    lines = []
    for name in sorted(vectors):
        pairs = " ".join(f"{print_name(fid) if _QUOTE_ID.search(fid) else fid}:{w!r}"
                         for fid, w in sorted(vectors[name].items()))
        lines.append(f"{name}\t{pairs}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# Artifact streams of a run directory (`proofs.txt`, `models.txt`)


def read_stream(path: str) -> list:
    """The records of an artifact stream, in order, each as its lines:
    `% item`, `% premises_given`, then the artifact's text."""
    records: list = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("% item "):
                records.append([])
            records[-1].append(line.rstrip("\n"))
    return records


def write_stream(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join("\n".join(lines) + "\n" for lines in records))


def stored_record(run_dir: str, name: str) -> list:
    """The lines of the record that a results.jsonl `proof_file` or
    `model_file` names, `<stream>#<key>`: the key is the item of a proof
    and the index of a countermodel in its stream."""
    stream, key = name.rsplit("#", 1)
    records = read_stream(os.path.join(run_dir, stream))
    if os.path.basename(stream) == "models.txt":
        return records[int(key)]
    return next(lines for lines in records if lines[0] == f"% item {key}")


# ---------------------------------------------------------------------------
# Reference clausifier: the textbook pipeline, one walk per step
# (nnf -> simplify -> miniscope -> skolemize -> strip universals), then
# clausify's own distributor and a three-pass finalize.  `cnf` must equal it.


def reference_cnf(f, name: str = "f", threshold: int = 64,
                  negate: bool = False):
    from proofbench.clausify import ClausalForm, _Distributor, uses_equality
    matrix = _ref_nnf(Not(f) if negate else f, True)
    matrix = _ref_rename_apart(_ref_miniscope(_ref_simplify(matrix)))
    matrix = _ref_strip_universals(_ref_skolemize(matrix))
    dist = _Distributor(threshold)
    raw = dist.clauses(matrix) + dist.extra_clauses
    clauses = [cl for cl in (make_clause(lits, origin=name) for lits in raw)
               if not _ref_is_tautology(cl.literals)]
    seen, unique = set(), []
    for cl in clauses:
        if cl.literals not in seen:
            seen.add(cl.literals)
            unique.append(cl)
    final = tuple(Clause(cl.literals, name, f"{name}_{i}")
                  for i, cl in enumerate(unique))
    return ClausalForm(final, uses_equality(f))


def _ref_is_tautology(literals) -> bool:
    pos = {l.atom for l in literals if l.positive}
    return any(not l.positive and l.atom in pos for l in literals)


def _ref_nnf(f, positive: bool):
    if isinstance(f, Atom):
        return f if positive else Not(f)
    if isinstance(f, TrueF):
        return TRUE if positive else FALSE
    if isinstance(f, FalseF):
        return FALSE if positive else TRUE
    if isinstance(f, Not):
        return _ref_nnf(f.sub, not positive)
    if isinstance(f, (And, Or)):
        cls = type(f) if positive else (Or if isinstance(f, And) else And)
        return cls(*[_ref_nnf(g, positive) for g in halves(f)])
    if isinstance(f, Implies):
        if positive:
            return Or(_ref_nnf(f.lhs, False), _ref_nnf(f.rhs, True))
        return And(_ref_nnf(f.lhs, True), _ref_nnf(f.rhs, False))
    if isinstance(f, Iff):
        if positive:
            return And(Or(_ref_nnf(f.lhs, False), _ref_nnf(f.rhs, True)),
                       Or(_ref_nnf(f.rhs, False), _ref_nnf(f.lhs, True)))
        return And(Or(_ref_nnf(f.lhs, True), _ref_nnf(f.rhs, True)),
                   Or(_ref_nnf(f.lhs, False), _ref_nnf(f.rhs, False)))
    cls = type(f) if positive else (Exists if isinstance(f, Forall) else Forall)
    return cls(f.var, _ref_nnf(f.body, positive))


def _ref_simplify(f):
    if isinstance(f, (And, Or)):
        l, r = (_ref_simplify(g) for g in halves(f))
        unit, absorb = (TRUE, FALSE) if isinstance(f, And) else (FALSE, TRUE)
        if l == absorb or r == absorb:
            return absorb
        if l == unit:
            return r
        if r == unit:
            return l
        return type(f)(l, r)
    if isinstance(f, QUANT):
        b = _ref_simplify(f.body)
        if isinstance(b, (TrueF, FalseF)):
            return b
        return type(f)(f.var, b)
    return f


def _ref_miniscope(f):
    if isinstance(f, (And, Or)):
        return type(f)(*[_ref_miniscope(g) for g in halves(f)])
    if isinstance(f, QUANT):
        body = _ref_miniscope(f.body)
        v = f.var
        if v not in free_vars_ordered(body):
            return body
        dist = And if isinstance(f, Forall) else Or
        if isinstance(body, dist):
            return type(body)(*[_ref_miniscope(type(f)(v, g))
                                for g in halves(body)])
        if isinstance(body, (And, Or)):
            lhs, rhs = halves(body)
            in_l = v in free_vars_ordered(lhs)
            in_r = v in free_vars_ordered(rhs)
            if in_l and not in_r:
                return type(body)(_ref_miniscope(type(f)(v, lhs)), rhs)
            if in_r and not in_l:
                return type(body)(lhs, _ref_miniscope(type(f)(v, rhs)))
        return type(f)(v, body)
    return f


def _fresh_name(base: str, used: set) -> str:
    """`base`, or the first of `base_1`, `base_2`, ... not in `used`."""
    name, i = base, 0
    while name in used:
        i += 1
        name = f"{base}_{i}"
    return name


def subst_formula(f, mapping: dict):
    """Capture-avoiding substitution of free variables by terms."""
    if not mapping:
        return f
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(subst_term(a, mapping) for a in f.args))
    if isinstance(f, Not):
        return Not(subst_formula(f.sub, mapping))
    if isinstance(f, BINARY):
        return type(f)(*[subst_formula(p, mapping) for p in f.parts])
    if isinstance(f, QUANT):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        if not inner:
            return f
        # rename the binder if it would capture a variable of an image term
        var, body = f.var, f.body
        if any(var in term_vars(v) for v in inner.values()):
            used = set(free_vars_ordered(body)) | {var}
            for v in inner.values():
                used.update(term_vars(v))
            var = _fresh_name(var, used)
            body = subst_formula(body, {f.var: Var(var)})
        return type(f)(var, subst_formula(body, inner))
    return f


def _ref_rename_apart(f):
    """f with each universal renamed apart from the universals it could
    share a clause with (those above it and those in an earlier disjunct
    of an enclosing `|`), and each existential renamed apart from the
    universals above it; a renamed X takes the first free X_1, X_2, ..."""
    def walk(g, above, held):
        """(g renamed, the names g's universals take)"""
        if isinstance(g, Forall):
            name = _fresh_name(g.var, held)
            body = g.body if name == g.var else subst_formula(
                g.body, {g.var: Var(name)})
            body, taken = walk(body, above | {name}, held | {name})
            return Forall(name, body), taken | {name}
        if isinstance(g, Exists):
            name, body = g.var, g.body
            if name in above:
                name = _fresh_name(name, above | set(free_vars_ordered(body)))
                body = subst_formula(body, {g.var: Var(name)})
            body, taken = walk(body, above, held)
            return Exists(name, body), taken
        if isinstance(g, (And, Or)):
            lhs, rhs = halves(g)
            lhs, taken = walk(lhs, above, held)
            rhs, more = walk(rhs, above,
                             held | taken if isinstance(g, Or) else held)
            return type(g)(lhs, rhs), taken | more
        return g, set()

    return walk(f, set(), set())[0]


def _ref_skolemize(f):
    from proofbench.clausify import _fingerprint, _positional

    def walk(g, universals):
        if isinstance(g, Forall):
            return Forall(g.var, walk(g.body, universals + [g.var]))
        if isinstance(g, Exists):
            deps = [u for u in universals if u in free_vars_ordered(g.body)]
            fingerprint = _fingerprint("sk|" + _positional(g, deps, {}))
            term = App(f"sk_{fingerprint}", tuple(Var(u) for u in deps))
            return walk(subst_formula(g.body, {g.var: term}), universals)
        if isinstance(g, (And, Or)):
            return type(g)(*[walk(h, universals) for h in halves(g)])
        return g

    return walk(f, [])


def _ref_strip_universals(f):
    while isinstance(f, Forall):
        f = f.body
    if isinstance(f, (And, Or)):
        return type(f)(*[_ref_strip_universals(g) for g in halves(f)])
    return f
