"""Goal-directed connection-tableau prover with iterative deepening.

The calculus is clausal connection tableaux: a start clause opens the
tableau, extension steps attach a renamed input clause through a
complementary unifiable literal, reduction steps close a goal against a
complementary path literal.  Search deepens on path length 1, 2, 3, ...
Without an advisor the search order is fixed by input clause order and
literal index, so identical inputs give identical statistics.

An inference is one extension or reduction attempt, including failed
unifications; this is the resource unit all budgets and reports use.
Wall-clock budgets are only probed every 1024 inferences to keep the hot
loop branch-light.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import models as models_mod
from .clausify import ClauseSet
from .fol import App, Atom, Clause, Eq, Literal, Term, Var
from .parser import parse_formula, print_literal, print_term

PROVED = "proved"
COUNTER_SATISFIABLE = "counter_satisfiable"
TIMEOUT = "timeout"
INFERENCE_LIMIT = "inference_limit"


class ProverError(Exception):
    pass


@dataclass(frozen=True)
class Limits:
    """Resource budgets; None means unlimited for that axis."""
    time_budget: float | None = None
    inference_budget: int | None = None
    max_depth: int = 16

    def __post_init__(self):
        for name in ("time_budget", "inference_budget", "max_depth"):
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
    wall_time: float = 0.0
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
# Unification (trail-based; variables are globally renamed per instance)


def walk(t: Term, subst: dict) -> Term:
    while isinstance(t, Var):
        b = subst.get(t.name)
        if b is None:
            return t
        t = b
    return t


def resolve_term(t: Term, subst: dict) -> Term:
    t = walk(t, subst)
    if isinstance(t, Var):
        return t
    if not t.args:
        return t
    return App(t.symbol, tuple(resolve_term(a, subst) for a in t.args))


def occurs(name: str, t: Term, subst: dict) -> bool:
    t = walk(t, subst)
    if isinstance(t, Var):
        return t.name == name
    return any(occurs(name, a, subst) for a in t.args)


def unify_terms(a: Term, b: Term, subst: dict, trail: list) -> bool:
    a = walk(a, subst)
    b = walk(b, subst)
    if a == b:
        return True
    if isinstance(a, Var):
        if occurs(a.name, b, subst):
            return False
        subst[a.name] = b
        trail.append(a.name)
        return True
    if isinstance(b, Var):
        if occurs(b.name, a, subst):
            return False
        subst[b.name] = a
        trail.append(b.name)
        return True
    if a.symbol != b.symbol or len(a.args) != len(b.args):
        return False
    return all(unify_terms(x, y, subst, trail) for x, y in zip(a.args, b.args))


def unify_args(args1, args2, subst, trail) -> bool:
    mark = len(trail)
    for x, y in zip(args1, args2):
        if not unify_terms(x, y, subst, trail):
            undo(subst, trail, mark)
            return False
    return True


def undo(subst: dict, trail: list, mark: int) -> None:
    while len(trail) > mark:
        del subst[trail.pop()]


def rename_literal(lit: Literal, k: int, sep: str = "#") -> Literal:
    def r(t):
        if isinstance(t, Var):
            return Var(f"{t.name}{sep}{k}")
        if not t.args:
            return t
        return App(t.symbol, tuple(r(a) for a in t.args))

    if isinstance(lit.atom, Eq):
        return Literal(lit.positive, Eq(r(lit.atom.lhs), r(lit.atom.rhs)))
    return Literal(lit.positive, Atom(lit.atom.pred, tuple(r(a) for a in lit.atom.args)))


def resolve_literal(lit: Literal, subst: dict) -> Literal:
    if isinstance(lit.atom, Eq):
        return Literal(lit.positive, Eq(resolve_term(lit.atom.lhs, subst),
                                        resolve_term(lit.atom.rhs, subst)))
    return Literal(lit.positive,
                   Atom(lit.atom.pred,
                        tuple(resolve_term(a, subst) for a in lit.atom.args)))


# ---------------------------------------------------------------------------
# Search


class _Budget(Exception):
    def __init__(self, status, reason):
        self.status = status
        self.reason = reason


class _Cut(Exception):
    def __init__(self, owner):
        self.owner = owner


class _Marker:
    """Agenda sentinel: popping it means the owner's subtree closed."""
    __slots__ = ("owner", "armed")

    def __init__(self, owner):
        self.owner = owner
        self.armed = False


@dataclass
class ProofState:
    """Mutable search context; one per prove() call, single-threaded."""
    subst: dict = field(default_factory=dict)
    trail: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    lemmas: list = field(default_factory=list)
    inference_count: int = 0
    depth_limit: int = 1
    cutoff: bool = False
    problem_id: str = ""


class _Search:
    def __init__(self, clause_set: ClauseSet, limits: Limits, advisor=None,
                 use_lemmata=False, restricted_backtracking=False,
                 problem_id: str = ""):
        self.clauses = list(clause_set.clauses)
        self.limits = limits
        self.advisor = advisor
        self.use_lemmata = use_lemmata
        self.restricted = restricted_backtracking
        self.state = ProofState(problem_id=problem_id)
        self.stats = Stats()
        self.deadline = None
        if limits.time_budget is not None:
            self.deadline = time.monotonic() + limits.time_budget
        # extension index: (pred key, sign of goal) -> [(clause idx, lit idx)]
        self.index: dict = {}
        for ci, c in enumerate(self.clauses):
            for li, lit in enumerate(c.literals):
                key = (lit.pred_key, lit.positive)
                self.index.setdefault(key, []).append((ci, li))
        self.start_indices = [ci for ci, c in enumerate(self.clauses)
                              if c.clause_id in clause_set.start_ids]
        if not self.start_indices:
            raise ProverError("malformed clause set: no start clauses")
        self.inst_counter = 0

    # -- bookkeeping --------------------------------------------------------

    def charge(self):
        lim = self.limits
        if lim.inference_budget is not None and self.stats.inferences >= lim.inference_budget:
            raise _Budget(INFERENCE_LIMIT, "inference budget exhausted")
        st = self.state
        st.inference_count += 1
        self.stats.inferences += 1
        if self.deadline is not None and (self.stats.inferences & 1023) == 0:
            if time.monotonic() > self.deadline:
                raise _Budget(TIMEOUT, "time budget exhausted")

    def candidates_for(self, goal: Literal, path) -> list:
        cands = self.index.get((goal.pred_key, not goal.positive), [])
        if self.advisor is None or len(cands) < 2:
            return list(cands), None
        ids, seen = [], set()
        for ci, _li in cands:
            cid = self.clauses[ci].clause_id
            if cid not in seen:
                seen.add(cid)
                ids.append(cid)
        try:
            self.stats.consults += 1
            order, token = self.advisor.consult(
                branch=[resolve_literal(l, self.state.subst) for l in path],
                goal=resolve_literal(goal, self.state.subst),
                depth=len(path),
                candidate_ids=ids,
                problem_id=self.state.problem_id)
        except Exception:
            self.stats.advisor_errors += 1
            return list(cands), None
        if order is None:
            return list(cands), token
        rank = {cid: i for i, cid in enumerate(order)}
        ordered = sorted(cands, key=lambda p: (rank.get(self.clauses[p[0]].clause_id,
                                                        len(rank)), p[1]))
        return ordered, token

    def report_outcome(self, token, clause_id, closed):
        if token is None or self.advisor is None:
            return
        try:
            self.advisor.outcome(token, clause_id, closed)
        except Exception:
            self.stats.advisor_errors += 1

    # -- the tableau --------------------------------------------------------

    def solve(self, agenda: list) -> bool:
        """Close every (goal, path) entry; DFS with global substitution."""
        if not agenda:
            return True
        head = agenda[0]
        if isinstance(head, _Marker):
            head.armed = True
            ok = self.solve(agenda[1:])
            if not ok and self.restricted:
                raise _Cut(head.owner)
            return ok
        goal, path = head
        rest = agenda[1:]
        st = self.state
        mark = len(st.trail)
        steps_mark = len(st.steps)
        lemma_mark = len(st.lemmas)

        # lemmata: a ground literal already closed in this branch context
        if self.use_lemmata:
            rgoal = resolve_literal(goal, st.subst)
            if not _literal_has_vars(rgoal):
                for (lem_lit, seg, seg_path_len) in st.lemmas:
                    if lem_lit == rgoal:
                        for entry in seg:
                            if entry[0] == "red":
                                st.steps.append(("red", entry[1] - seg_path_len + len(path)))
                            else:
                                st.steps.append(entry)
                        if self.solve(rest):
                            return True
                        del st.steps[steps_mark:]
                        break

        # reductions: innermost path literal first
        for pos in range(len(path) - 1, -1, -1):
            plit = path[pos]
            if plit.positive == goal.positive or plit.pred_key != goal.pred_key:
                continue
            self.charge()
            if unify_args(goal.args, plit.args, st.subst, st.trail):
                st.steps.append(("red", pos))
                if self.solve(rest):
                    return True
                undo(st.subst, st.trail, mark)
                del st.steps[steps_mark:]
                del st.lemmas[lemma_mark:]

        # extensions
        if len(path) >= st.depth_limit:
            st.cutoff = True
            return False
        cands, token = self.candidates_for(goal, path)
        marker = _Marker(goal) if (self.restricted or self.use_lemmata
                                   or token is not None) else None
        new_path = path + (goal,)
        for (ci, li) in cands:
            clause = self.clauses[ci]
            self.charge()
            self.inst_counter += 1
            lits = [rename_literal(l, self.inst_counter) for l in clause.literals]
            if not unify_args(goal.args, lits[li].args, st.subst, st.trail):
                continue
            new_goals = lits[:li] + lits[li + 1:]
            if _irregular(new_goals, new_path, st.subst):
                undo(st.subst, st.trail, mark)
                continue
            st.steps.append(("ext", ci, li))
            subagenda = [(g, new_path) for g in new_goals]
            if marker is not None:
                marker.armed = False
                subagenda = subagenda + [marker]
            try:
                if self.solve(subagenda + rest):
                    if marker is not None and marker.armed:
                        self.report_outcome(token, clause.clause_id, True)
                        if self.use_lemmata:
                            self._record_lemma(goal, steps_mark, path)
                    return True
            except _Cut as cut:
                undo(st.subst, st.trail, mark)
                del st.steps[steps_mark:]
                del st.lemmas[lemma_mark:]
                if cut.owner is not goal:
                    raise
                self.report_outcome(token, clause.clause_id, True)
                return False
            self.report_outcome(token, clause.clause_id, marker.armed
                                if marker is not None else False)
            undo(st.subst, st.trail, mark)
            del st.steps[steps_mark:]
            del st.lemmas[lemma_mark:]
        return False

    def _record_lemma(self, goal, steps_mark, path):
        st = self.state
        rgoal = resolve_literal(goal, st.subst)
        if _literal_has_vars(rgoal):
            return
        seg = st.steps[steps_mark:]
        # only self-contained subtrees are replayable elsewhere
        for entry in seg:
            if entry[0] == "red" and entry[1] < len(path):
                return
        st.lemmas.append((rgoal, list(seg), len(path)))

    def run(self):
        st = self.state
        for depth in range(1, self.limits.max_depth + 1):
            st.depth_limit = depth
            self.stats.depth_reached = depth
            st.cutoff = False
            for si in self.start_indices:
                st.subst.clear()
                st.trail.clear()
                st.steps = [("start", si)]
                st.lemmas = []
                clause = self.clauses[si]
                self.inst_counter += 1
                agenda = [(rename_literal(l, self.inst_counter), ())
                          for l in clause.literals]
                try:
                    if self.solve(agenda):
                        return "proved", list(st.steps)
                except _Cut:
                    pass
            if not st.cutoff:
                return "saturated", None
        return "depth_exhausted", None


def _literal_has_vars(lit: Literal) -> bool:
    return any(True for _ in _literal_var_iter(lit))


def _literal_var_iter(lit: Literal):
    def it(t):
        if isinstance(t, Var):
            yield t.name
        else:
            for a in t.args:
                yield from it(a)

    for a in lit.args:
        yield from it(a)


def _irregular(new_goals, branch, subst) -> bool:
    """A repeated literal on the extended branch makes the tableau irregular."""
    resolved_branch = [resolve_literal(l, subst) for l in branch]
    for g in new_goals:
        if resolve_literal(g, subst) in resolved_branch:
            return True
    return False


# ---------------------------------------------------------------------------
# Proof normalization (canonical renaming, recomputed unifiers)


def normalize_proof(clause_set: ClauseSet, skeleton: list,
                    check_regularity: bool = False) -> ProofObject:
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
    agenda: list = []   # (literal, path tuple)
    counter = 0

    for entry in skeleton:
        kind = entry[0]
        if kind == "start":
            clause = by_index[entry[1]]
            counter += 1
            lits = [rename_literal(l, counter, "_i") for l in clause.literals]
            agenda = [(l, ()) for l in lits]
            steps.append(StartStep(clause.clause_id))
            used.add(clause.origin)
            continue
        if not agenda:
            raise ProverError("skeleton closes more goals than exist")
        goal, path = agenda.pop(0)
        mark = len(trail)
        if kind == "ext":
            _k, ci, li = entry
            clause = by_index[ci]
            counter += 1
            lits = [rename_literal(l, counter, "_i") for l in clause.literals]
            if not unify_args(goal.args, lits[li].args, subst, trail):
                raise ProverError("skeleton replay failed to unify extension")
            if check_regularity:
                branch = [resolve_literal(l, subst) for l in list(path) + [goal]]
                for g in lits[:li] + lits[li + 1:]:
                    if resolve_literal(g, subst) in branch:
                        raise ProverError("irregular branch in replay")
            bindings = tuple((name, resolve_term(subst[name], subst))
                             for name in trail[mark:])
            steps.append(ExtensionStep(goal, clause.clause_id, li, bindings))
            used.add(clause.origin)
            new_path = path + (goal,)
            agenda = [(l, new_path) for l in lits[:li] + lits[li + 1:]] + agenda
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
    if agenda:
        raise ProverError("skeleton leaves open goals")
    return ProofObject(tuple(steps), frozenset(used))


# ---------------------------------------------------------------------------
# Entry points


def prove(clause_set: ClauseSet, limits: Limits, advisor=None,
          use_lemmata: bool = False, restricted_backtracking: bool = False,
          model_max_domain: int = models_mod.DEFAULT_MAX_DOMAIN,
          problem_id: str = "") -> RunResult:
    """Refute the clause set within limits.

    Proved results always carry a replayable ProofObject.  When iterative
    deepening completes a level without hitting the depth bound, the set
    has no refutation at any depth; the model finder is then asked for a
    counter-satisfiability witness.  Saturation without a findable model
    is reported as a timeout with stop_reason "saturated" -- a verdict we
    decline to state without a witness.
    """
    t0 = time.monotonic()
    search = _Search(clause_set, limits, advisor, use_lemmata,
                     restricted_backtracking, problem_id)
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
    except _Budget as b:
        status = b.status
        search.stats.stop_reason = b.reason
    search.stats.wall_time = time.monotonic() - t0
    return RunResult(status, proof, model, search.stats)


def counter_satisfiable(clause_set: ClauseSet,
                        max_domain: int = models_mod.DEFAULT_MAX_DOMAIN):
    """Model of axioms plus negated conjecture, if one exists within the cap."""
    return models_mod.find_model(clause_set.clauses, max_domain)


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
