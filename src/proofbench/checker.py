"""Independent proof-object verification by replay.

This module re-derives a proof from scratch: it renames clause instances
by its own counter, recomputes every unifier, and tracks the tableau
agenda itself, taking from the proof object only clause ids, literal
indices and path positions; the goals and bindings it records are
checked, never used.  It shares no step-application code with the
search; the substitution here is a triangular map, resolved by
rebuilding each term it is applied to, rather than the prover's
trail-and-walk bindings, so a defect in one side's unification cannot
hide in the other.

A proof checks iff replaying its steps closes every branch, each step's
goal is the replay's agenda head, each binding `X=t` a step records
holds under the replay's unifier (X and t resolve to one term: two most
general unifiers differ only by a renaming, so this holds whichever way
the search bound a variable pair), and its used_premises field matches
the origins of the clauses it references.
Terms are walked with explicit stacks, so a proof over terms thousands of
symbols deep checks within Python's recursion limit.
"""
from __future__ import annotations

from .clausify import ClauseSet
from .fol import App, Atom, Literal, Term, Var
from .prover import ExtensionStep, ProofObject, ReductionStep, StartStep


class CheckError(Exception):
    """Structurally malformed proof (unknown clause id, bad step kind)."""


def _map_vars(t: Term, leaf) -> Term:
    """`t` with every variable v replaced by leaf(v)."""
    if isinstance(t, Var):
        return leaf(t)
    if not t.args:
        return t
    stack = [(t, [])]        # (compound term, its rebuilt arguments so far)
    while True:
        node, built = stack[-1]
        if len(built) == len(node.args):
            stack.pop()
            term = App(node.symbol, tuple(built))
            if not stack:
                return term
            stack[-1][1].append(term)
        else:
            a = node.args[len(built)]
            if isinstance(a, Var):
                built.append(leaf(a))
            elif not a.args:
                built.append(a)
            else:
                stack.append((a, []))


def _apply(theta: dict, t: Term) -> Term:
    """`t` under the triangular substitution `theta`: a bound variable
    becomes its binding, itself resolved, as a binding may name variables
    bound after it.  Each variable is resolved once per call."""
    if isinstance(t, Var) and t.name not in theta:
        return t
    if isinstance(t, App) and not t.args:
        return t
    resolved: dict = {}
    out: list = []
    todo: list = [t]        # terms to resolve, and ("app"|"var", ...) marks
    while todo:
        x = todo.pop()
        if isinstance(x, Var):
            if x.name in resolved:
                out.append(resolved[x.name])
            elif x.name in theta:
                todo.append(("var", x.name))
                todo.append(theta[x.name])
            else:
                out.append(x)
        elif isinstance(x, App):
            if x.args:
                todo.append(("app", x.symbol, len(x.args)))
                todo.extend(reversed(x.args))
            else:
                out.append(x)
        elif x[0] == "var":
            resolved[x[1]] = out[-1]
        else:
            args = tuple(out[len(out) - x[2]:])
            del out[len(out) - x[2]:]
            out.append(App(x[1], args))
    return out[0]


def _occurs(name: str, t: Term) -> bool:
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            if t.name == name:
                return True
        else:
            todo.extend(t.args)
    return False


def _same_terms(pairs) -> bool:
    """Whether every pair of terms is structurally equal."""
    todo = list(pairs)
    while todo:
        a, b = todo.pop()
        if isinstance(a, Var) or isinstance(b, Var):
            if not (isinstance(a, Var) and isinstance(b, Var)
                    and a.name == b.name):
                return False
        elif a.symbol != b.symbol or len(a.args) != len(b.args):
            return False
        else:
            todo.extend(zip(a.args, b.args))
    return True


def _same_literal(a: Literal, b: Literal) -> bool:
    return (a.positive == b.positive and _lit_key(a) == _lit_key(b)
            and _same_terms(zip(a.args, b.args)))


def _mgu(pairs) -> dict | None:
    """Most general unifier of term pairs, or None; inputs pre-applied.

    The unifier is triangular, like the proof's: a popped variable is
    resolved through it, and a new binding's term is resolved when bound.
    """
    theta: dict = {}
    work = list(pairs)
    while work:
        a, b = work.pop()
        if isinstance(a, Var):
            a = _apply(theta, a)
        if isinstance(b, Var):
            b = _apply(theta, b)
        if isinstance(a, Var) and isinstance(b, Var) and a.name == b.name:
            continue
        if isinstance(a, Var) or isinstance(b, Var):
            if not isinstance(a, Var):
                a, b = b, a
            b = _apply(theta, b)
            if _occurs(a.name, b):
                return None
            theta[a.name] = b
            continue
        if a.symbol != b.symbol or len(a.args) != len(b.args):
            return None
        work.extend(zip(a.args, b.args))
    return theta


def _lit_key(lit: Literal) -> tuple:
    return (lit.atom.pred, len(lit.atom.args))


def _rename(lit: Literal, k: int) -> Literal:
    def r(t):
        return _map_vars(t, lambda v: Var(f"{v.name}_i{k}"))

    return Literal(lit.positive,
                   Atom(lit.atom.pred, tuple(r(a) for a in lit.atom.args)))


def check_proof(proof: ProofObject, clause_set: ClauseSet) -> bool:
    by_id = {c.clause_id: c for c in clause_set.clauses}
    theta: dict = {}
    agenda: list = []        # stack of (literal instance, path tuple)
    used: set = set()
    counter = 0
    started = False

    for step in proof.steps:
        if isinstance(step, StartStep):
            if started:
                return False
            started = True
            clause = by_id.get(step.clause_id)
            if clause is None:
                raise CheckError(f"unknown clause id {step.clause_id!r}")
            counter += 1
            agenda = [(_rename(l, counter), ())
                      for l in reversed(clause.literals)]
            used.add(clause.origin)
            continue
        if not started or not agenda:
            return False
        goal, path = agenda.pop()
        if not _same_literal(step.goal, goal):
            return False
        if isinstance(step, ExtensionStep):
            clause = by_id.get(step.clause_id)
            if clause is None:
                raise CheckError(f"unknown clause id {step.clause_id!r}")
            if not (0 <= step.lit_index < len(clause.literals)):
                return False
            counter += 1
            lits = [_rename(l, counter) for l in clause.literals]
            mate = lits.pop(step.lit_index)
        elif isinstance(step, ReductionStep):
            if not (0 <= step.path_index < len(path)):
                return False
            mate = path[step.path_index]
        else:
            raise CheckError(f"unknown step type {type(step).__name__}")
        if mate.positive == goal.positive or _lit_key(mate) != _lit_key(goal):
            return False
        delta = _mgu([(_apply(theta, a), _apply(theta, b))
                      for a, b in zip(goal.args, mate.args)])
        if delta is None:
            return False
        theta.update(delta)
        # every recorded binding holds under this replay's own unifier
        if not _same_terms((_apply(theta, Var(name)), _apply(theta, t))
                           for name, t in step.bindings):
            return False
        if isinstance(step, ExtensionStep):
            used.add(clause.origin)
            agenda.extend((l, path + (goal,)) for l in reversed(lits))
    if not started or agenda:
        return False
    return used == set(proof.used_premises)
