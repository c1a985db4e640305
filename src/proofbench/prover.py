"""Goal-directed connection-tableau prover with iterative deepening.

The calculus is clausal connection tableaux: a start clause opens the
tableau, extension steps attach a renamed input clause through a
complementary unifiable literal, reduction steps close a goal against a
complementary path literal.  Search deepens on path length 1, 2, 3, ...
Without an advisor the search order is fixed by input clause order and
literal index, so identical inputs give identical statistics.  An
advisor may reorder the extension candidates of a choice point; when
the search returns a proof, it tells the advisor which clause each of
the proof's advised choice points took, and nothing else.  No
literal repeats on a branch (regularity), and backtracking is complete:
the search uses neither lemmata nor restricted backtracking.

The search is iterative, after leanCoP's prover (Otten & Bibel, JSC
2003): open goals form an immutable linked agenda whose tail every
extension shares, and each goal gets one entry on an explicit
choice-point stack that backtracking resumes.  Variables are bound in
place, as in the WAM: a clause-instance variable is a cell whose slot
holds its binding, and undoing the trail clears the slots.  Once per
search, the input clauses that a start clause reaches are compiled into
templates: a clause is reached when one of its literals is complementary,
by predicate and sign, to a literal of a reached clause, and no goal can
ever use another clause.  Once a depth pass is cut off, an extension
whose first new goal lands at the depth limit with no path literal of
the complementary key can only fail, binding nothing: it is charged and
skipped.  Before the cut-off it is searched, since its success is what
tells a cut-off pass from a saturated one.  Any other extension attempt
skips a candidate whose template clashes with the goal on an argument's
top symbol, unifies the goal with the template itself, and instantiates
the clause's other literals only once that succeeds.  The template's
cells are fresh, so until the unification binds a cell of the goal, a
template variable met unbound is bound with no occurs check; every other
binding, and every reduction, runs the check.
Regularity compares a new goal with a path literal of its sign and
predicate through the first argument pair, and compares the whole
literal only when those agree.  Proof normalization replays the steps
through the same unifier.  No step recurses, so a wide clause or a
deep term costs heap, not stack.

An inference is one extension or reduction attempt, including failed
unifications, clashes and the extensions the depth bound refutes; this
is the resource unit all budgets and reports use.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from . import models as models_mod
from .clausify import ClauseSet
from .fol import App, Atom, Literal, Not, Term, Var
from .parser import (
    parse_bindings, parse_formula, print_literal, print_name, print_term,
    read_names,
)

PROVED = "proved"
COUNTER_SATISFIABLE = "counter_satisfiable"
TIMEOUT = "timeout"
INFERENCE_LIMIT = "inference_limit"


class ProverError(Exception):
    pass


@dataclass(frozen=True)
class Limits:
    """Resource budgets; an inference budget of None means unlimited."""
    inference_budget: int | None = None
    max_depth: int = 16

    def __post_init__(self):
        for name in ("inference_budget", "max_depth"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive, got {v!r}")


@dataclass(frozen=True)
class StartStep:
    clause_id: str


@dataclass(frozen=True)
class ExtensionStep:
    goal: Literal
    clause_id: str
    lit_index: int
    bindings: tuple = ()


@dataclass(frozen=True)
class ReductionStep:
    goal: Literal
    path_index: int
    bindings: tuple = ()


@dataclass(frozen=True)
class ProofObject:
    steps: tuple
    used_premises: frozenset


@dataclass
class Stats:
    inferences: int = 0
    depth_reached: int = 0
    stop_reason: str = ""
    consults: int = 0
    advisor_errors: int = 0


@dataclass
class RunResult:
    status: str
    proof: ProofObject | None = None
    model: models_mod.FiniteModel | None = None
    stats: Stats = field(default_factory=Stats)


# ---------------------------------------------------------------------------
# Cells and the unifier (trail-based and iterative)


class _Cell:
    """A clause-instance variable; `ref` is its binding or None."""
    __slots__ = ("name", "ref")

    def __init__(self, name: str):
        self.name = name
        self.ref = None


def _deref(t):
    while type(t) is _Cell and t.ref is not None:
        t = t.ref
    return t


def _rebuild(t, inner, leaf, node):
    """Rebuild the tree `t` bottom-up, iteratively: `inner(x)` is `(symbol,
    children)`, rebuilt by `node`, or None for a leaf, mapped by `leaf`."""
    top = inner(t)
    if top is None:
        return leaf(t)
    stack = [(top, [])]          # (inner node, its children rebuilt so far)
    while True:
        (symbol, children), done = stack[-1]
        if len(done) < len(children):
            a = children[len(done)]
            sub = inner(a)
            if sub is None:
                done.append(leaf(a))
            else:
                stack.append((sub, []))
            continue
        stack.pop()
        out = node(symbol, tuple(done))
        if not stack:
            return out
        stack[-1][1].append(out)


def _compound(t):
    return (t.symbol, t.args) if type(t) is App and t.args else None


def _var(x):
    return Var(x.name) if type(x) is _Cell else x


def resolve_term(t) -> Term:
    """`t` with every bound cell replaced by its binding, recursively, and
    every unbound cell by the variable it names."""
    return _rebuild(t, lambda x: _compound(_deref(x)), lambda x: _var(_deref(x)), App)


def _named(t) -> Term:
    """`t` with every cell, bound or not, replaced by the variable it names."""
    return _rebuild(t, _compound, _var, App)


def _occurs(cell: _Cell, t) -> bool:
    todo = [t]
    while todo:
        t = _deref(todo.pop())
        if t is cell:
            return True
        if type(t) is App:
            todo.extend(t.args)
    return False


def _unify(todo: list, trail: list, pool=None, base: int = 0) -> bool:
    """Unify the pairs on `todo`, last first, argument pairs left to right.
    A pair's second term may be a template (below), its slots at
    `pool[base:]`, instantiated only where a cell is bound to it.
    Bindings made before a failure stay on the trail.

    The slots start unbound, and no first term reaches them.  That stays
    so until a cell of the first terms is bound, so up to then a slot met
    unbound through its index is bound without an occurs check: the term
    cannot contain it.  Every other binding is checked."""
    fresh = True                # no first-term cell bound yet
    while todo:
        a, b = todo.pop()
        while type(a) is _Cell and a.ref is not None:
            a = a.ref
        if type(b) is int:
            b = pool[base + b]
            if fresh and b.ref is None and type(a) is not _Cell:
                b.ref = a
                trail.append(b)
                continue
        while type(b) is _Cell and b.ref is not None:
            b = b.ref
        if a is b:
            continue
        if type(a) is _Cell:
            if type(b) is _Template:
                b = _instance(b, pool, base)
            if type(b) is App and b.args and _occurs(a, b):
                return False
            a.ref = b
            trail.append(a)
            fresh = False
        elif type(b) is _Cell:
            if a.args and _occurs(b, a):
                return False
            b.ref = a
            trail.append(b)
        elif a.symbol != b.symbol or len(a.args) != len(b.args):
            return False
        elif a.args:
            todo.extend(zip(reversed(a.args), reversed(b.args)))
    return True


def _unify_args(args, targs, trail: list, pool=None, base: int = 0) -> bool:
    """Unify two argument tuples pairwise; on failure nothing stays bound."""
    mark = len(trail)
    if _unify(list(zip(reversed(args), reversed(targs))), trail, pool, base):
        return True
    _undo(trail, mark)
    return False


def _undo(trail: list, mark: int) -> None:
    for cell in trail[mark:]:
        cell.ref = None
    del trail[mark:]


def _identical(args1, args2) -> bool:
    """Whether two argument tuples are identical under the current
    bindings, compared in place: nothing is resolved or built, and the
    top-level arguments need no work list."""
    todo = None                  # linked (arguments, arguments, next)
    while True:
        for a, b in zip(args1, args2):
            while type(a) is _Cell and a.ref is not None:
                a = a.ref
            while type(b) is _Cell and b.ref is not None:
                b = b.ref
            if a is b:
                continue
            if (type(a) is _Cell or type(b) is _Cell or a.symbol != b.symbol
                    or len(a.args) != len(b.args)):
                return False
            if a.args:
                todo = (a.args, b.args, todo)
        if todo is None:
            return True
        args1, args2, todo = todo


# ---------------------------------------------------------------------------
# Clause templates, compiled once per search for the clauses a start
# clause reaches: a variable is its slot number in the clause, a ground
# subterm a term shared by every instance, any other subterm a
# `_Template`.  An instance fills slot j from `pool[base + j]`.


class _Template(App):
    """A template subterm with variables; its arguments are templates."""


def _template(t: Term, slots: dict):
    def node(symbol, args):
        return (App if all(type(a) is App for a in args) else _Template)(symbol, args)
    return _rebuild(t, _compound, lambda x: slots.setdefault(x.name, len(slots))
                    if type(x) is Var else x, node)


def _instance(t, pool: list, base: int):
    return _rebuild(t, lambda x: (x.symbol, x.args) if type(x) is _Template else None,
                    lambda x: pool[base + x] if type(x) is int else x, App)


def _instance_args(targs: tuple, pool: list, base: int) -> tuple:
    return tuple([pool[base + a] if type(a) is int else
                  a if type(a) is App else _instance(a, pool, base)
                  for a in targs])


class _Lit:
    """A compiled input literal; every goal is a pair (`_Lit`, arguments).

    `key` is twice the number of its predicate plus its sign, and
    `complement` the opposite sign's, `key ^ 1`.  Only literals with equal
    `key` can be identical.  `tops` holds `(argument index, symbol, arity)`
    per argument that is not a variable.
    """
    __slots__ = ("positive", "atom", "key", "complement", "args", "tops")


def _compile(clauses: list, starts: list) -> tuple:
    """Per input clause (its variable names in slot order, its `_Lit`s), or
    None for a clause no start clause reaches, and the extension index: for
    each `key`, the reached input literals with it in input order, as
    `(step, literal index, clause id, clause variables, the literal, the
    clause's literals, the complement key of the first other literal)`;
    that literal becomes the agenda head, and a unit clause has -1.

    A start clause is reached, and so is every clause with a literal whose
    key is the complement of a reached clause's literal.  A goal is a
    literal of a reached clause and reads only its complement's entries,
    so no other clause is ever read."""
    preds: dict = {}
    keys = []                   # per clause, its literals' keys
    holders: list = []          # per key, the clauses with a literal of it
    for ci, c in enumerate(clauses):
        ks = []
        for lit in c.literals:
            pred = (lit.atom.pred, len(lit.atom.args))
            p = preds.get(pred)
            if p is None:
                p = preds[pred] = len(preds)
                holders += [], []
            k = 2 * p + lit.positive
            ks.append(k)
            holders[k].append(ci)
        keys.append(ks)
    reached, todo = set(starts), list(starts)
    while todo:
        for k in keys[todo.pop()]:
            for cj in holders[k ^ 1]:
                if cj not in reached:
                    reached.add(cj)
                    todo.append(cj)
            holders[k ^ 1] = ()         # each key is looked up once
    compiled = []
    index: dict = {}
    for ci, c in enumerate(clauses):
        if ci not in reached:
            compiled.append(None)
            continue
        slots: dict = {}
        lits = []
        for lit, k in zip(c.literals, keys[ci]):
            t = _Lit()
            t.positive = lit.positive
            t.atom = lit.atom
            t.key = k
            t.complement = k ^ 1
            t.args = tuple([slots.setdefault(a.name, len(slots)) if type(a) is Var
                            else _template(a, slots) if a.args else a
                            for a in lit.atom.args])
            t.tops = tuple([(i, a.symbol, len(a.args))
                            for i, a in enumerate(t.args) if type(a) is not int])
            lits.append(t)
        compiled.append((tuple(slots), lits))
        for li, t in enumerate(lits):
            head = lits[li == 0].complement if len(lits) > 1 else -1
            index.setdefault(t.key, []).append(
                (("ext", ci, li), li, c.clause_id, len(slots), t, lits, head))
    return compiled, index


def _clashes(args, tops) -> bool:
    """Whether a goal argument's top symbol differs from a template's:
    the first level of a discrimination index (Graf, "Term Indexing")."""
    for i, symbol, arity in tops:
        a = args[i]
        while type(a) is _Cell and a.ref is not None:
            a = a.ref
        if type(a) is App and (a.symbol != symbol or len(a.args) != arity):
            return True
    return False


# ---------------------------------------------------------------------------
# Search


class _Budget(Exception):
    """The inference budget ran out."""


class _Choice:
    """The choice point of one goal: where its agenda node was, what to
    undo to, and which alternative comes next.  Reductions count `pos`
    down the path, starting only when a path literal has the goal's
    `complement` key; then `exts` (set once the reductions are spent) are
    tried from index `next`."""
    __slots__ = ("goal", "path", "keys", "rest", "mark", "steps_mark", "base",
                 "pos", "exts", "next", "token", "clause_id",
                 "new_path", "new_keys")

    def __init__(self, node, mark, steps_mark, base):
        self.goal, self.path, self.keys, self.rest = node
        self.mark = mark
        self.steps_mark = steps_mark
        self.base = base
        self.pos = (len(self.path) - 1
                    if self.keys >> self.goal[0].complement & 1 else -1)
        self.exts = None
        self.token = None


_FAIL = object()


class _Search:
    """Clausal connection tableaux over an explicit choice-point stack.

    The agenda of open goals is an immutable linked list of nodes
    `(goal, path, keys, next)`; bit `k` of `keys` is set iff a literal of
    `path` has key `k`.  Cells come from a pool whose top returns to a
    choice point's `base` when the search backtracks into it, so each
    pool cell is built once per search.
    """

    def __init__(self, clause_set: ClauseSet, limits: Limits, advisor=None):
        clauses = list(clause_set.clauses)
        self.limits = limits
        self.budget = (math.inf if limits.inference_budget is None
                       else limits.inference_budget)
        self.advisor = advisor
        self.stats = Stats()
        self.starts = [ci for ci, c in enumerate(clauses)
                       if c.clause_id in clause_set.start_ids]
        if clauses and not self.starts:     # an empty set is satisfiable
            raise ProverError("malformed clause set: no start clauses")
        self.compiled, self.index = _compile(clauses, self.starts)
        self.trail: list = []
        self.steps: list = []
        self.pool: list = []
        self.top = 0                # pool cells in use
        self.depth_limit = 1
        self.cutoff = False

    # -- bookkeeping --------------------------------------------------------

    def reserve(self, top: int) -> list:
        """The cell pool, grown to at least `top` cells."""
        pool = self.pool
        while len(pool) < top:
            pool.append(_Cell(f"_{len(pool)}"))
        return pool

    def candidates_for(self, goal, path) -> tuple:
        exts = self.index.get(goal[0].complement, ())
        if self.advisor is None or len(exts) < 2:
            return exts, None
        try:
            self.stats.consults += 1
            order, token = self.advisor.consult(
                symbols=_symbols(path + (goal,)), depth=len(path),
                candidate_ids=list(dict.fromkeys(e[2] for e in exts)))
        except Exception:
            self.stats.advisor_errors += 1
            return exts, None
        if order is None:
            return exts, token
        rank = {cid: i for i, cid in enumerate(order)}
        return sorted(exts, key=lambda e: (rank.get(e[2], len(rank)), e[1])), token

    def report_outcome(self, token, clause_id):
        try:
            self.advisor.outcome(token, clause_id)
        except Exception:
            self.stats.advisor_errors += 1

    # -- the tableau --------------------------------------------------------

    def advance(self, cp: _Choice):
        """Apply `cp`'s next alternative that succeeds and return the agenda
        after it, or `_FAIL` when none is left.  Reductions come first,
        innermost path literal first, then regular extensions.  Every
        attempt is charged against the budget, also one whose arguments
        clash on sight or that the depth bound refutes."""
        trail, stats, budget = self.trail, self.stats, self.budget
        goal, path = cp.goal, cp.path
        lit, args = goal
        while cp.pos >= 0:
            cp.pos -= 1
            plit, pargs = path[cp.pos + 1]
            if plit.key == lit.complement:
                if stats.inferences >= budget:
                    raise _Budget
                stats.inferences += 1
                if _unify_args(args, pargs, trail):
                    self.steps.append(("red", cp.pos + 1))
                    self.top = cp.base
                    return cp.rest
        if cp.exts is None:
            if len(path) >= self.depth_limit:
                self.cutoff = True
                return _FAIL
            cp.exts, cp.token = self.candidates_for(goal, path)
            cp.new_path = path + (goal,)
            cp.new_keys = cp.keys | 1 << lit.key
            cp.next = 0
        exts, new_path, new_keys, base = cp.exts, cp.new_path, cp.new_keys, cp.base
        # once the pass is cut off, a new head goal at the depth limit with
        # no path literal to reduce against can only fail
        refute = self.cutoff and len(new_path) >= self.depth_limit
        pool = self.pool
        for i in range(cp.next, len(exts)):
            step, _li, clause_id, nvars, t, lits, head = exts[i]
            if stats.inferences >= budget:
                raise _Budget
            stats.inferences += 1
            if refute and head >= 0 and not new_keys >> head & 1:
                continue
            if t.tops and _clashes(args, t.tops):
                continue
            if len(pool) < base + nvars:
                self.reserve(base + nvars)
            if not _unify_args(args, t.args, trail, pool, base):
                continue
            goals = [(o, _instance_args(o.args, pool, base))
                     for o in lits if o is not t]
            for g in goals:
                if new_keys >> g[0].key & 1 and _on_branch(g, new_path):
                    _undo(trail, cp.mark)
                    break
            else:               # every new goal is regular
                self.steps.append(step)
                cp.clause_id = clause_id
                node = cp.rest
                for g in reversed(goals):
                    node = (g, new_path, new_keys, node)
                self.top = base + nvars
                cp.next = i + 1
                return node
        return _FAIL

    def solve(self, node) -> bool:
        """Close every goal on the agenda `node`; depth-first, with
        chronological backtracking over the choice-point stack."""
        trail, steps = self.trail, self.steps
        stack: list = []
        while True:
            if node is None:
                # the proof's advised choice points, innermost first
                for cp in reversed(stack):
                    if cp.token is not None:
                        self.report_outcome(cp.token, cp.clause_id)
                return True
            goal, path, keys, _rest = node
            if len(path) < self.depth_limit or keys >> goal[0].complement & 1:
                cp = _Choice(node, len(trail), len(steps), self.top)
                node = self.advance(cp)
                if node is not _FAIL:
                    stack.append(cp)
            else:               # a goal that can only fail needs no choice point
                self.cutoff = True
                node = _FAIL
            while node is _FAIL:
                if not stack:
                    return False
                cp = stack[-1]
                _undo(trail, cp.mark)
                del steps[cp.steps_mark:]
                node = self.advance(cp)
                if node is _FAIL:
                    stack.pop()

    def run(self):
        """Deepen until a proof, saturation or the depth bound; the pool's
        cells are left unbound whatever the outcome."""
        try:
            for depth in range(1, self.limits.max_depth + 1):
                self.depth_limit = depth
                self.stats.depth_reached = depth
                self.cutoff = False
                for ci in self.starts:      # each solve leaves the trail empty
                    self.steps[:] = [("start", ci)]
                    names, lits = self.compiled[ci]
                    self.top = len(names)
                    if self.solve(_push(lits, self.reserve(self.top), None)):
                        return "proved", list(self.steps)
                if not self.cutoff:
                    return "saturated", None
            return "depth_exhausted", None
        finally:
            _undo(self.trail, 0)


def _on_branch(goal, path) -> bool:
    """Whether `goal` repeats a literal of `path` (regularity).  The first
    argument pair decides most path literals with the goal's `key`: two
    different cells, or a cell and a term, or two different top symbols,
    are not identical.  Only a path literal whose first argument agrees
    goes on to `_identical`."""
    lit, args = goal
    key = lit.key
    if not args:            # a nullary literal is its `key`
        for plit, _pargs in path:
            if plit.key == key:
                return True
        return False
    a = args[0]
    while type(a) is _Cell and a.ref is not None:
        a = a.ref
    for plit, pargs in path:
        if plit.key != key:
            continue
        b = pargs[0]
        while type(b) is _Cell and b.ref is not None:
            b = b.ref
        if a is not b and (type(a) is _Cell or type(b) is _Cell
                           or a.symbol != b.symbol):
            continue
        if _identical(args, pargs):
            return True
    return False


def _symbols(goals):
    """The symbol names of `goals` read in place, one per occurrence: the
    predicate and each function symbol; an unbound cell gives none.  A
    generator: nothing is read until it is iterated."""
    for lit, args in goals:
        yield lit.atom.pred
        todo = list(args)
        while todo:
            t = todo.pop()
            while type(t) is _Cell and t.ref is not None:
                t = t.ref
            if type(t) is App:
                yield t.symbol
                todo.extend(t.args)


# ---------------------------------------------------------------------------
# Proof normalization (canonical renaming, recomputed unifiers)


def normalize_proof(clause_set: ClauseSet, compiled: list,
                    skeleton: list) -> ProofObject:
    """Replay a search skeleton into a portable ProofObject.

    The replay runs the search's unifier over its templates (`compiled`);
    the k-th clause instance's variable X is the cell `X_ik`.  Each
    binding is recorded as (cell name, resolved term) in trail order, and
    goals as the replay's agenda heads, so an independent checker can
    re-derive and compare them.
    """
    clauses = clause_set.clauses
    trail, steps, used = [], [], set()
    agenda = None       # linked (goal, path of goals, 0, next)
    counter = 0
    for entry in skeleton:
        kind, ci = entry[0], entry[1]
        if kind in ("start", "ext"):
            counter += 1
            names, lits = compiled[ci]
            cells = [_Cell(f"{name}_i{counter}") for name in names]
            used.add(clauses[ci].origin)
        if kind == "start":
            steps.append(StartStep(clauses[ci].clause_id))
            agenda = _push(lits, cells, None)
            continue
        if agenda is None:
            raise ProverError("skeleton closes more goals than exist")
        goal, path, _keys, agenda = agenda
        lit, args = goal
        mark = len(trail)
        if kind == "ext":
            ok = _unify_args(args, lits[entry[2]].args, trail, cells, 0)
        elif kind == "red" and ci < len(path) and path[ci][0].key == lit.complement:
            ok = _unify_args(args, path[ci][1], trail)
        else:
            raise ProverError(f"bad skeleton entry {entry!r}")
        if not ok:
            raise ProverError(f"skeleton replay failed to unify {entry!r}")
        goal_lit = Literal(lit.positive,
                           Atom(lit.atom.pred, tuple(_named(a) for a in args)))
        bindings = tuple((c.name, resolve_term(c.ref)) for c in trail[mark:])
        if kind == "red":
            steps.append(ReductionStep(goal_lit, ci, bindings))
            continue
        steps.append(ExtensionStep(goal_lit, clauses[ci].clause_id, entry[2],
                                   bindings))
        agenda = _push([o for o in lits if o is not lits[entry[2]]], cells,
                       agenda, path + (goal,))
    if agenda is not None:
        raise ProverError("skeleton leaves open goals")
    return ProofObject(tuple(steps), frozenset(used))


def _push(lits, cells, agenda, path=()):
    """`agenda` with goals for `lits`, instantiated with `cells`, in front;
    `keys` 0 fits a start's empty path (`normalize_proof` reads none)."""
    for o in reversed(lits):
        agenda = ((o, _instance_args(o.args, cells, 0)), path, 0, agenda)
    return agenda


# ---------------------------------------------------------------------------
# Entry points


def prove(clause_set: ClauseSet, limits: Limits, advisor=None,
          model_max_domain: int = models_mod.DEFAULT_MAX_DOMAIN) -> RunResult:
    """Refute the clause set within limits.

    Proved results always carry a replayable ProofObject.  When iterative
    deepening completes a level without hitting the depth bound, the set
    has no refutation at any depth; the model finder is then asked for a
    counter-satisfiability witness.  Saturation without a findable model
    is reported as a timeout with stop_reason "saturated" -- a verdict we
    decline to state without a witness.
    """
    search = _Search(clause_set, limits, advisor)
    proof = model = None
    try:
        outcome, skeleton = search.run()
        if outcome == "proved":
            proof = normalize_proof(clause_set, search.compiled, skeleton)
            status = PROVED
            search.stats.stop_reason = "proved"
        elif outcome == "saturated":
            search.stats.stop_reason = "saturated"
            try:
                model = models_mod.find_model(clause_set.clauses, model_max_domain)
            except models_mod.ResourceError:
                model = None
            status = COUNTER_SATISFIABLE if model is not None else TIMEOUT
        else:
            status = INFERENCE_LIMIT
            search.stats.stop_reason = "depth exhausted"
    except _Budget:
        status = INFERENCE_LIMIT
        search.stats.stop_reason = "inference budget exhausted"
    return RunResult(status, proof, model, search.stats)


# ---------------------------------------------------------------------------
# Proof wire format


def proof_to_text(proof: ProofObject) -> str:
    """Line-oriented step list; grammar documented in the README."""
    lines = []
    for s in proof.steps:
        if isinstance(s, StartStep):
            lines.append(f"start {print_name(s.clause_id)}")
            continue
        b = ",".join(f"{n}={print_term(t)}" for n, t in s.bindings) or "-"
        if isinstance(s, ExtensionStep):
            lines.append(f"ext {print_name(s.clause_id)} {s.lit_index} | "
                         f"{print_literal(s.goal)} | {b}")
        else:
            lines.append(f"red {s.path_index} | {print_literal(s.goal)} | {b}")
    lines.append("premises " + " ".join(print_name(p) for p in
                                        sorted(proof.used_premises)))
    return "\n".join(lines) + "\n"


# a step line's `head | goal | bindings`, cut at the bars outside quoted names
_STEP_RE = re.compile(r"((?:[^'|]|'(?:[^'\\]|\\.)*')*)\|" * 2 + "(.*)")


def _parse_step(text: str) -> tuple:
    """(head, goal literal, bindings) of a step line's fields."""
    m = _STEP_RE.fullmatch(text)
    if m is None:
        raise ProverError(f"bad proof step: {text!r}")
    head, goal, binds = m.groups()
    f = parse_formula(goal)
    literal = Literal(False, f.sub) if isinstance(f, Not) else Literal(True, f)
    return head, literal, () if binds.strip() == "-" else parse_bindings(binds)


def proof_from_text(text: str) -> ProofObject:
    steps = []
    premises: frozenset = frozenset()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        if line.startswith("start "):
            (cid,) = read_names(line[6:])
            steps.append(StartStep(cid))
        elif line.startswith("ext "):
            head, goal, bindings = _parse_step(line[4:])
            cid, li = read_names(head)      # the literal index lexes as a name
            steps.append(ExtensionStep(goal, cid, int(li), bindings))
        elif line.startswith("red "):
            head, goal, bindings = _parse_step(line[4:])
            steps.append(ReductionStep(goal, int(head), bindings))
        elif line.startswith("premises"):
            premises = frozenset(read_names(line[8:]))
        else:
            raise ProverError(f"bad proof line: {line!r}")
    return ProofObject(tuple(steps), premises)
