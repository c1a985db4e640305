"""Goal-directed connection-tableau prover with iterative deepening.

The calculus is clausal connection tableaux: a start clause opens the
tableau, extension steps attach a renamed input clause through a
complementary unifiable literal, reduction steps close a goal against a
complementary path literal.  Search deepens on path length 1, 2, 3, ...
Without an advisor the search order is fixed by input clause order and
literal index, so identical inputs give identical statistics.  No
literal repeats on a branch (regularity), and backtracking is complete:
the search uses neither lemmata nor restricted backtracking.

The search is iterative, after leanCoP's prover (Otten & Bibel, JSC
2003): open goals form an immutable linked agenda whose tail every
extension shares, and each goal gets one entry on an explicit
choice-point stack that backtracking resumes; bindings are undone
through a trail.  Input clauses are compiled once per search into
templates.  An extension attempt instantiates only the connecting
literal, from a pool of variables that is reused after backtracking,
and the clause's other literals only once that literal unifies.
Regularity compares a new goal, in place under the substitution, with
the branch literals of its own sign and predicate.  Neither the search
loop nor the unifier recurses, so a wide clause or a deeply nested
binding costs heap, not Python stack.

An inference is one extension or reduction attempt, including failed
unifications; this is the resource unit all budgets and reports use.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import models as models_mod
from .clausify import ClauseSet
from .fol import App, Atom, Eq, Literal, Term, Var
from .parser import parse_formula, print_literal, print_term

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
# Unification (trail-based; iterative, so term depth costs heap, not stack)


def walk(t: Term, subst: dict) -> Term:
    while type(t) is Var:
        b = subst.get(t.name)
        if b is None:
            return t
        t = b
    return t


def resolve_term(t: Term, subst: dict) -> Term:
    """`t` with every bound variable replaced by its binding, recursively."""
    t = walk(t, subst)
    if type(t) is Var or not t.args:
        return t
    stack = [(t, [])]            # (term, its arguments resolved so far)
    while True:
        term, done = stack[-1]
        if len(done) < len(term.args):
            a = walk(term.args[len(done)], subst)
            if type(a) is Var or not a.args:
                done.append(a)
            else:
                stack.append((a, []))
            continue
        stack.pop()
        out = App(term.symbol, tuple(done))
        if not stack:
            return out
        stack[-1][1].append(out)


def occurs(name, t: Term, subst: dict) -> bool:
    todo = [t]
    while todo:
        t = walk(todo.pop(), subst)
        if type(t) is Var:
            if t.name == name:
                return True
        else:
            todo.extend(t.args)
    return False


def _unify(todo: list, subst: dict, trail: list) -> bool:
    """Unify the term pairs on `todo`, last first; a pair's argument pairs
    are pushed so that they run left to right, depth first.  Bindings
    made before a failure stay on the trail."""
    while todo:
        a, b = todo.pop()
        a = walk(a, subst)
        b = walk(b, subst)
        if a is b:
            continue
        if type(a) is Var:
            if type(b) is Var:
                if a.name == b.name:
                    continue
            elif b.args and occurs(a.name, b, subst):
                return False
            subst[a.name] = b
            trail.append(a.name)
        elif type(b) is Var:
            if a.args and occurs(b.name, a, subst):
                return False
            subst[b.name] = a
            trail.append(b.name)
        elif a.symbol != b.symbol or len(a.args) != len(b.args):
            return False
        elif a.args:
            todo.extend(zip(reversed(a.args), reversed(b.args)))
    return True


def unify_args(args1, args2, subst, trail) -> bool:
    """Unify two argument tuples pairwise; on failure nothing stays bound."""
    mark = len(trail)
    todo = list(zip(args1, args2))
    todo.reverse()
    if _unify(todo, subst, trail):
        return True
    undo(subst, trail, mark)
    return False


def undo(subst: dict, trail: list, mark: int) -> None:
    while len(trail) > mark:
        del subst[trail.pop()]


def _same_args(args1, args2, subst) -> bool:
    """Whether two argument tuples are identical under `subst`, compared in
    place: nothing is resolved or built."""
    todo = list(zip(args1, args2))
    while todo:
        a, b = todo.pop()
        a = walk(a, subst)
        b = walk(b, subst)
        if a is b:
            continue
        if type(a) is Var or type(b) is Var:
            if type(a) is not type(b) or a.name != b.name:
                return False
        elif a.symbol != b.symbol or len(a.args) != len(b.args):
            return False
        else:
            todo.extend(zip(a.args, b.args))
    return True


def rename_literal(lit: Literal, k: int, sep: str = "_i") -> Literal:
    def r(t):
        if isinstance(t, Var):
            return Var(f"{t.name}{sep}{k}")
        if not t.args:
            return t
        return App(t.symbol, tuple(r(a) for a in t.args))

    if isinstance(lit.atom, Eq):
        return Literal(lit.positive, Eq(r(lit.atom.lhs), r(lit.atom.rhs)))
    return Literal(lit.positive, Atom(lit.atom.pred, tuple(r(a) for a in lit.atom.args)))


def _literal(positive: bool, atom, args: tuple) -> Literal:
    """A literal like `atom`'s, with arguments `args`."""
    if isinstance(atom, Eq):
        return Literal(positive, Eq(*args))
    return Literal(positive, Atom(atom.pred, args))


# ---------------------------------------------------------------------------
# Clause templates
#
# Each input clause is compiled once per search.  In a template a
# variable is its slot number in the clause, a ground subterm is the
# input term itself (shared by every instance), and any other subterm is
# a `(symbol, args)` pair.  An instance fills slot j with the variable at
# `base + j` of the search's variable pool.


def _template(t: Term, slots: dict):
    if type(t) is Var:
        return slots.setdefault(t.name, len(slots))
    if not t.args:
        return t
    args = tuple(_template(a, slots) for a in t.args)
    if all(type(a) is App for a in args):
        return t
    return (t.symbol, args)


def _instance(t, pool: list, base: int):
    if type(t) is int:
        return pool[base + t]
    if type(t) is tuple:
        return App(t[0], tuple([_instance(a, pool, base) for a in t[1]]))
    return t


def _instance_args(targs: tuple, pool: list, base: int) -> tuple:
    return tuple([pool[base + a] if type(a) is int else
                  a if type(a) is App else _instance(a, pool, base)
                  for a in targs])


class _Lit:
    """A compiled input literal; every goal is a pair (`_Lit`, arguments).

    `key` numbers the literal's (predicate, sign) and `complement` the
    opposite sign's, so a path literal `p` can close goal `g` by reduction
    iff `p.key == g.complement`.  `regular` numbers (sign, atom kind,
    predicate): only literals with equal `regular` can be identical.
    """
    __slots__ = ("positive", "atom", "key", "complement", "regular", "args")


def _compile(clauses: list) -> tuple:
    """Per input clause (variable count, its `_Lit`s), and the extension
    index: for each `key`, the input literals with it in input order, as
    `(step, literal index, clause id, clause variables, arguments
    template, the clause's literals)`."""
    numbers: dict = {}

    def number(k):
        return numbers.setdefault(k, len(numbers))

    compiled = []
    index: dict = {}
    for ci, c in enumerate(clauses):
        slots: dict = {}
        lits = []
        for lit in c.literals:
            t = _Lit()
            t.positive = lit.positive
            t.atom = lit.atom
            t.key = number((lit.pred_key, lit.positive))
            t.complement = number((lit.pred_key, not lit.positive))
            t.regular = number((lit.positive, type(lit.atom), lit.pred_key))
            t.args = tuple(_template(a, slots) for a in lit.args)
            lits.append(t)
        compiled.append((len(slots), lits))
        for li, t in enumerate(lits):
            index.setdefault(t.key, []).append(
                (("ext", ci, li), li, c.clause_id, len(slots), t.args, lits))
    return compiled, index


# ---------------------------------------------------------------------------
# Search


class _Budget(Exception):
    """The inference budget ran out."""


class _Marker:
    """Agenda sentinel: popping it means the advised goal's subtree closed."""
    __slots__ = ("armed",)

    def __init__(self):
        self.armed = False


class _Choice:
    """The choice point of one goal: where its agenda node was, what to
    undo to, and which alternative comes next.  Reductions count `pos`
    down the path; then `exts` (set once the reductions are spent) are
    tried from index `next`."""
    __slots__ = ("goal", "path", "rest", "mark", "steps_mark", "base", "pos",
                 "exts", "next", "token", "marker", "clause_id", "new_path")

    def __init__(self, node, mark, steps_mark, base):
        self.goal, self.path, self.rest = node
        self.mark = mark
        self.steps_mark = steps_mark
        self.base = base
        self.pos = len(self.path) - 1
        self.exts = None
        self.token = None


_FAIL = object()


class _Search:
    """Clausal connection tableaux over an explicit choice-point stack.

    The agenda of open goals is an immutable linked list of nodes
    `(goal, path, next)` (or `(_Marker, None, next)`); an extension puts
    its new goals in front of the rest of the agenda without copying it.
    Variables of clause instances come from a pool whose top returns to
    a choice point's `base` when the search backtracks into it, so each
    pool `Var` is built once per search.
    """

    def __init__(self, clause_set: ClauseSet, limits: Limits, advisor=None):
        clauses = list(clause_set.clauses)
        self.limits = limits
        self.advisor = advisor
        self.stats = Stats()
        self.compiled, self.index = _compile(clauses)
        self.starts = [ci for ci, c in enumerate(clauses)
                       if c.clause_id in clause_set.start_ids]
        if clauses and not self.starts:     # an empty set is satisfiable
            raise ProverError("malformed clause set: no start clauses")
        self.subst: dict = {}
        self.trail: list = []
        self.steps: list = []
        self.pool: list = []
        self.top = 0                # pool variables in use
        self.depth_limit = 1
        self.cutoff = False

    # -- bookkeeping --------------------------------------------------------

    def charge(self):
        lim = self.limits
        if lim.inference_budget is not None and self.stats.inferences >= lim.inference_budget:
            raise _Budget
        self.stats.inferences += 1

    def reserve(self, top: int) -> list:
        """The variable pool, grown to at least `top` variables."""
        pool = self.pool
        while len(pool) < top:
            pool.append(Var(f"_{len(pool)}"))
        return pool

    def literal(self, goal) -> Literal:
        lit, args = goal
        return _literal(lit.positive, lit.atom,
                        tuple(resolve_term(a, self.subst) for a in args))

    def candidates_for(self, goal, path) -> tuple:
        exts = self.index.get(goal[0].complement, ())
        if self.advisor is None or len(exts) < 2:
            return exts, None
        try:
            self.stats.consults += 1
            order, token = self.advisor.consult(
                branch=[self.literal(p) for p in path],
                goal=self.literal(goal),
                depth=len(path),
                candidate_ids=list(dict.fromkeys(e[2] for e in exts)))
        except Exception:
            self.stats.advisor_errors += 1
            return exts, None
        if order is None:
            return exts, token
        rank = {cid: i for i, cid in enumerate(order)}
        return sorted(exts, key=lambda e: (rank.get(e[2], len(rank)), e[1])), token

    def report_outcome(self, token, clause_id, closed):
        if token is None or self.advisor is None:
            return
        try:
            self.advisor.outcome(token, clause_id, closed)
        except Exception:
            self.stats.advisor_errors += 1

    # -- the tableau --------------------------------------------------------

    def advance(self, cp: _Choice):
        """Apply `cp`'s next alternative that succeeds and return the agenda
        after it, or `_FAIL` when none is left.  Reductions come first,
        innermost path literal first, then regular extensions."""
        subst, trail = self.subst, self.trail
        goal, path = cp.goal, cp.path
        lit, args = goal
        while cp.pos >= 0:
            pos = cp.pos
            cp.pos = pos - 1
            plit, pargs = path[pos]
            if plit.key != lit.complement:
                continue
            self.charge()
            if unify_args(args, pargs, subst, trail):
                self.steps.append(("red", pos))
                self.top = cp.base
                return cp.rest
        if cp.exts is None:
            if len(path) >= self.depth_limit:
                self.cutoff = True
                return _FAIL
            cp.exts, cp.token = self.candidates_for(goal, path)
            # only an advised choice point learns whether its subtree closed
            cp.marker = _Marker() if cp.token is not None else None
            cp.new_path = path + (goal,)
            cp.next = 0
        exts, new_path, base = cp.exts, cp.new_path, cp.base
        while cp.next < len(exts):
            step, li, clause_id, nvars, targs, lits = exts[cp.next]
            cp.next += 1
            self.charge()
            pool = self.reserve(base + nvars)
            if not unify_args(args, _instance_args(targs, pool, base), subst, trail):
                continue
            goals = [(o, _instance_args(o.args, pool, base))
                     for o in lits[:li] + lits[li + 1:]]
            if any(_on_branch(g, new_path, subst) for g in goals):
                undo(subst, trail, cp.mark)
                continue
            self.steps.append(step)
            cp.clause_id = clause_id
            node = cp.rest
            if cp.marker is not None:
                cp.marker.armed = False
                node = (cp.marker, None, node)
            for g in reversed(goals):
                node = (g, new_path, node)
            self.top = base + nvars
            return node
        return _FAIL

    def solve(self, node) -> bool:
        """Close every goal on the agenda `node`; depth-first, with
        chronological backtracking over the choice-point stack."""
        subst, trail, steps = self.subst, self.trail, self.steps
        stack: list = []
        while True:
            while node is not None and type(node[0]) is _Marker:
                node[0].armed = True
                node = node[2]
            if node is None:
                # innermost first, as the closed subtrees return
                for cp in reversed(stack):
                    if cp.token is not None:
                        self.report_outcome(cp.token, cp.clause_id, True)
                return True
            cp = _Choice(node, len(trail), len(steps), self.top)
            stack.append(cp)
            node = self.advance(cp)
            while node is _FAIL:
                stack.pop()
                if not stack:
                    return False
                cp = stack[-1]
                if cp.token is not None:
                    self.report_outcome(cp.token, cp.clause_id, cp.marker.armed)
                undo(subst, trail, cp.mark)
                del steps[cp.steps_mark:]
                node = self.advance(cp)

    def run(self):
        for depth in range(1, self.limits.max_depth + 1):
            self.depth_limit = depth
            self.stats.depth_reached = depth
            self.cutoff = False
            for ci in self.starts:
                self.subst.clear()
                self.trail.clear()
                self.steps[:] = [("start", ci)]
                nvars, lits = self.compiled[ci]
                pool = self.reserve(nvars)
                node = None
                for lit in reversed(lits):
                    node = ((lit, _instance_args(lit.args, pool, 0)), (), node)
                self.top = nvars
                if self.solve(node):
                    return "proved", list(self.steps)
            if not self.cutoff:
                return "saturated", None
        return "depth_exhausted", None


def _on_branch(goal, path, subst) -> bool:
    """Whether `goal` repeats a literal of `path` (regularity)."""
    lit, args = goal
    for plit, pargs in path:
        if plit.regular == lit.regular and _same_args(args, pargs, subst):
            return True
    return False


# ---------------------------------------------------------------------------
# Proof normalization (canonical renaming, recomputed unifiers)


def normalize_proof(clause_set: ClauseSet, skeleton: list) -> ProofObject:
    """Replay a search skeleton into a portable ProofObject.

    Clause instances are renumbered sequentially (`X_i3`), unifiers are
    recomputed, and goals are recorded as the replay's agenda heads so an
    independent checker can re-derive and compare them.
    """
    by_index = list(clause_set.clauses)
    subst: dict = {}
    trail: list = []
    steps: list = []
    used: set = set()
    agenda = None       # linked (literal, path tuple, next)
    counter = 0

    for entry in skeleton:
        kind = entry[0]
        if kind == "start":
            clause = by_index[entry[1]]
            counter += 1
            agenda = None
            for lit in reversed(clause.literals):
                agenda = (rename_literal(lit, counter), (), agenda)
            steps.append(StartStep(clause.clause_id))
            used.add(clause.origin)
            continue
        if agenda is None:
            raise ProverError("skeleton closes more goals than exist")
        goal, path, agenda = agenda
        mark = len(trail)
        if kind == "ext":
            _k, ci, li = entry
            clause = by_index[ci]
            counter += 1
            lits = [rename_literal(l, counter) for l in clause.literals]
            if not unify_args(goal.args, lits[li].args, subst, trail):
                raise ProverError("skeleton replay failed to unify extension")
            bindings = tuple((name, resolve_term(subst[name], subst))
                             for name in trail[mark:])
            steps.append(ExtensionStep(goal, clause.clause_id, li, bindings))
            used.add(clause.origin)
            new_path = path + (goal,)
            for lit in reversed(lits[:li] + lits[li + 1:]):
                agenda = (lit, new_path, agenda)
        elif kind == "red":
            _k, pos = entry
            if pos >= len(path):
                raise ProverError("reduction position outside path")
            plit = path[pos]
            if plit.positive == goal.positive or plit.pred_key != goal.pred_key:
                raise ProverError("reduction against non-complementary literal")
            if not unify_args(goal.args, plit.args, subst, trail):
                raise ProverError("skeleton replay failed to unify reduction")
            bindings = tuple((name, resolve_term(subst[name], subst))
                             for name in trail[mark:])
            steps.append(ReductionStep(goal, pos, bindings))
        else:
            raise ProverError(f"unknown skeleton entry {entry!r}")
    if agenda is not None:
        raise ProverError("skeleton leaves open goals")
    return ProofObject(tuple(steps), frozenset(used))


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
    status = None
    proof = None
    model = None
    try:
        outcome, skeleton = search.run()
        if outcome == "proved":
            proof = normalize_proof(clause_set, skeleton)
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
            lines.append(f"start {s.clause_id}")
            continue
        b = ",".join(f"{n}={print_term(t)}" for n, t in s.bindings) or "-"
        if isinstance(s, ExtensionStep):
            lines.append(f"ext {s.clause_id} {s.lit_index} | {print_literal(s.goal)} | {b}")
        else:
            lines.append(f"red {s.path_index} | {print_literal(s.goal)} | {b}")
    lines.append("premises " + " ".join(sorted(proof.used_premises)))
    return "\n".join(lines) + "\n"


def _parse_proof_literal(text: str) -> Literal:
    text = text.strip()
    if text.startswith("~"):
        f = parse_formula(text[1:].strip())
        return Literal(False, f)
    f = parse_formula(text)
    from .fol import Not
    if isinstance(f, Not):
        return Literal(False, f.sub)
    return Literal(True, f)


def _split_bindings(text: str) -> list:
    # top-level commas only; binding terms may contain their own
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _parse_bindings(text: str) -> tuple:
    text = text.strip()
    if not text or text == "-":
        return ()
    out = []
    for part in _split_bindings(text):
        name, term = part.split("=", 1)
        out.append((name.strip(), _parse_term_text(term.strip())))
    return tuple(out)


def _parse_term_text(text: str):
    f = parse_formula(f"dummy({text})")
    return f.args[0]


def proof_from_text(text: str) -> ProofObject:
    steps = []
    premises: frozenset = frozenset()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        if line.startswith("start "):
            steps.append(StartStep(line[6:].strip()))
        elif line.startswith("ext "):
            head, goal, binds = line[4:].split(" | ")
            cid, li = head.rsplit(" ", 1)
            steps.append(ExtensionStep(_parse_proof_literal(goal), cid.strip(),
                                       int(li), _parse_bindings(binds)))
        elif line.startswith("red "):
            head, goal, binds = line[4:].split(" | ")
            steps.append(ReductionStep(_parse_proof_literal(goal), int(head),
                                       _parse_bindings(binds)))
        elif line.startswith("premises"):
            premises = frozenset(line.split()[1:])
        else:
            raise ProverError(f"bad proof line: {line!r}")
    return ProofObject(tuple(steps), premises)
