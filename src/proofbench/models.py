"""Small-domain finite model finding and Tarskian evaluation.

Models double as counter-satisfiability witnesses and as a semantic
signature source: every stored model contributes one truth-value column
per formula.  Evaluation over a partial signature yields Undefined rather
than a default -- a formula mentioning a symbol the model has no table
for has no honest truth value in it.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .fol import (
    And, Atom, Clause, Exists, Forall, Iff, Implies, Literal, Not, Or,
    TrueF, FalseF, Var,
)
from .parser import normalize_name, print_name, tokenize

DEFAULT_MAX_DOMAIN = 3
GROUNDING_GUARD = 10 ** 6
DECISION_GUARD = 10 ** 5     # values tried on decided cells, per domain size


class Undefined:
    """Singleton truth value for partial-signature evaluation."""
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undefined"


UNDEFINED = Undefined()


class ResourceError(Exception):
    """Signature/grounding too large for exhaustive search."""


class ModelCheckError(Exception):
    """A model the finder returned fails a clause of its own set."""


@dataclass
class FiniteModel:
    size: int
    funcs: dict   # symbol -> {arg tuple -> element}
    preds: dict   # symbol -> {arg tuple -> bool}
    provenance: str = ""

    @cached_property
    def signature(self) -> frozenset:
        """(name, kind, arity) of each table, built on first use: a
        model's tables are complete when it is made."""
        return frozenset((sym, kind, len(next(iter(t))))
                         for kind, tables in (("function", self.funcs),
                                              ("predicate", self.preds))
                         for sym, t in tables.items() if t)

    def has_symbols(self, symbols) -> bool:
        """Whether every (name, kind, arity) of `symbols` has a table, at
        that arity; equality is built in."""
        signature = self.signature
        for s in symbols:
            if s not in signature and (s[0] != "=" or s[1] != "predicate"):
                return False
        return True

    def key(self) -> tuple:
        """Content key for deduplication in stores."""
        f = tuple(sorted((s, tuple(sorted(t.items()))) for s, t in self.funcs.items()))
        p = tuple(sorted((s, tuple(sorted(t.items()))) for s, t in self.preds.items()))
        return (self.size, f, p)


# ---------------------------------------------------------------------------
# Model search


def find_model(clauses, max_domain: int = DEFAULT_MAX_DOMAIN) -> FiniteModel | None:
    """Smallest-domain model of the clause set, or None within the cap.

    Each domain size from 1 up is searched by `_search_domain`.  A model
    found is checked clause by clause through `evaluate`, the Tarskian
    evaluator, a code path apart from the search; a clause it fails
    raises `ModelCheckError`.  Each clause's kept signature gives the
    symbol order, the occurrence lists and the check.
    """
    clauses = list(clauses)
    funcs: dict = {}
    preds: dict = {}
    freq: dict = {}          # symbol -> number of clauses it occurs in
    for c in clauses:
        for sym, kind, arity in c.signature:
            (funcs if kind == "function" else preds)[sym] = arity
            freq[sym] = freq.get(sym, 0) + 1
    for n in range(1, max_domain + 1):
        model = _search_domain(clauses, funcs, preds, freq, n)
        if model is not None:
            for c in clauses:
                if evaluate(c, model) is not True:
                    raise ModelCheckError(
                        f"domain-{n} model fails its own clause {c.clause_id!r}")
            return model
    return None


def _search_domain(clauses, funcs, preds, freq, n):
    """A model of the clauses over domain `n`, or None.

    Chronological backtracking assigns table cells in symbol-frequency
    order, with unit propagation over the ground instances; the decisions
    live on an explicit stack, so no clause count can exhaust Python's
    recursion limit.  Each symbol has an occurrence list: the ground
    clauses that read it.  The first propagation visits every clause;
    after that a FIFO queue holds only the readers of each newly assigned
    cell's symbol, each clause at most once (Zhang & Stickel,
    "Implementing the Davis-Putnam method", JAR 2000).  Unit propagation
    is confluent, so the order of the visits changes neither its fixpoint
    nor whether it conflicts.  A search that needs more than
    `DECISION_GUARD` decisions raises `ResourceError`, as a grounding past
    `GROUNDING_GUARD` does.
    """
    domain = range(n)
    grounding = 0
    ground: list = []
    readers: dict = {}       # symbol -> indices of the ground clauses reading it
    for c in clauses:
        vs = sorted(c.variables)
        grounding += n ** len(vs)
        if grounding > GROUNDING_GUARD:
            raise ResourceError(
                f"grounding needs {grounding}+ instances at domain {n}")
        first = len(ground)
        for vals in itertools.product(domain, repeat=len(vs)):
            env = dict(zip(vs, vals))
            ground.append([_ground_literal(lit, env) for lit in c.literals])
        for sym, _kind, _arity in c.signature:
            readers.setdefault(sym, []).extend(range(first, len(ground)))

    # cells by symbol frequency, then kind, name and arguments
    tables = sorted([(-freq[sym], "f", sym, ar) for sym, ar in funcs.items()]
                    + [(-freq[sym], "p", sym, ar) for sym, ar in preds.items()])
    ncells = sum(n ** ar for _f, _k, _s, ar in tables)
    if ncells > GROUNDING_GUARD:
        raise ResourceError(f"{ncells} table cells at domain {n}")
    cells = [(kind, sym, args) for _f, kind, sym, ar in tables
             for args in itertools.product(domain, repeat=ar)]

    assign: dict = {}
    queue = deque(range(len(ground)))
    queued = bytearray(b"\x01") * len(ground)

    def elements(args):
        # the ground terms' elements, or None while one reads an unassigned cell
        vals = []
        for a in args:
            if type(a) is not int:
                sub = elements(a[1])
                a = None if sub is None else assign.get(("f", a[0], sub))
                if a is None:
                    return None
            vals.append(a)
        return tuple(vals)

    def eval_ground_literal(lit):
        # returns True/False/None (undecided), plus a forcing cell when the
        # only obstacle is a single predicate cell
        sign, pred, args = lit
        vals = elements(args)
        if vals is None:
            return None, None
        if pred == "=":
            return (vals[0] == vals[1]) == sign, None
        cell = ("p", pred, vals)
        value = assign.get(cell)
        if value is None:
            return None, (cell, sign)
        return value == sign, None

    def wake(sym):
        for i in readers.get(sym, ()):
            if not queued[i]:
                queued[i] = 1
                queue.append(i)

    def propagate(trail) -> bool:
        while queue:
            i = queue.popleft()
            queued[i] = 0
            undecided = 0
            force = None
            for lit in ground[i]:
                val, f = eval_ground_literal(lit)
                if val is True:
                    break
                if val is None:
                    undecided += 1
                    force = f
            else:
                if undecided == 0:
                    for j in queue:
                        queued[j] = 0
                    queue.clear()
                    return False
                if undecided == 1 and force is not None:
                    cell, sign = force
                    assign[cell] = sign
                    trail.append(cell)
                    wake(cell[1])
        return True

    def solve() -> bool:
        # one frame per decided cell: [cell index, values tried, trail]
        stack: list = []
        idx = 0
        decisions = 0
        while True:
            while idx < ncells and cells[idx] in assign:
                idx += 1
            if idx == ncells:
                return True
            stack.append([idx, 0, ()])
            while True:         # the top frame's next value, or backtrack
                i, tried, trail = frame = stack[-1]
                for cell in trail:
                    del assign[cell]
                kind, sym, _args = cell = cells[i]
                values = (False, True) if kind == "p" else domain
                if tried == len(values):
                    stack.pop()
                    if not stack:
                        return False
                    continue
                decisions += 1
                if decisions > DECISION_GUARD:
                    raise ResourceError(
                        f"more than {DECISION_GUARD} decisions at domain {n}")
                assign[cell] = values[tried]
                frame[1] = tried + 1
                frame[2] = trail = [cell]
                wake(sym)
                if propagate(trail):
                    idx = i + 1
                    break

    if not propagate([]) or not solve():
        return None
    # propagate may leave cells untouched when no clause constrains them
    return FiniteModel(
        n,
        {sym: {args: assign.get(("f", sym, args), 0)
               for args in itertools.product(domain, repeat=ar)}
         for sym, ar in funcs.items()},
        {sym: {args: assign.get(("p", sym, args), False)
               for args in itertools.product(domain, repeat=ar)}
         for sym, ar in preds.items()})


def _ground_literal(lit: Literal, env):
    atom = lit.atom
    return (lit.positive, atom.pred, tuple([_ground_term(a, env) for a in atom.args]))


def _ground_term(t, env):
    # an element, or (symbol, ground arguments)
    if type(t) is Var:
        return env[t.name]
    return (t.symbol, tuple([_ground_term(a, env) for a in t.args]))


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(f, m: FiniteModel):
    """Tarskian truth value of a Formula or Clause in m, or UNDEFINED.

    Undefined exactly when f mentions a symbol, at its arity, that m has
    no table for; clause variables are implicitly universal.
    """
    return evaluate_models(f, (m,))[0]


def evaluate_models(f, models) -> list:
    """`evaluate(f, m)` for each m in `models`, in order, each m tested
    against the signature f keeps.  A clause is evaluated directly: true
    iff every assignment of its variables makes one of its literals true."""
    clause = isinstance(f, Clause)
    return [UNDEFINED if not m.has_symbols(f.signature)
            else _eval_clause(f, m) if clause else _eval(f, m, {})
            for m in models]


def _eval_clause(c: Clause, m) -> bool:
    names = c.variables
    for values in itertools.product(range(m.size), repeat=len(names)):
        env = dict(zip(names, values))
        if not any(_eval(lit.atom, m, env) == lit.positive for lit in c.literals):
            return False
    return True


def _eval_term(t, m, env) -> int:
    if isinstance(t, Var):
        return env[t.name]
    args = tuple(_eval_term(a, m, env) for a in t.args)
    return m.funcs[t.symbol][args]


def _eval(f, m, env) -> bool:
    if isinstance(f, Atom):
        args = tuple(_eval_term(a, m, env) for a in f.args)
        return args[0] == args[1] if f.pred == "=" else m.preds[f.pred][args]
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Not):
        return not _eval(f.sub, m, env)
    if isinstance(f, And):
        return all(_eval(p, m, env) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval(p, m, env) for p in f.parts)
    if isinstance(f, Implies):
        return (not _eval(f.lhs, m, env)) or _eval(f.rhs, m, env)
    if isinstance(f, Iff):
        return _eval(f.lhs, m, env) == _eval(f.rhs, m, env)
    if isinstance(f, Forall):
        return all(_eval(f.body, m, {**env, f.var: d}) for d in range(m.size))
    if isinstance(f, Exists):
        return any(_eval(f.body, m, {**env, f.var: d}) for d in range(m.size))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Model store


@dataclass
class ModelStore:
    """Append-only model collection with stable indices."""
    models: list = field(default_factory=list)
    _keys: set = field(default_factory=set)

    def add(self, m: FiniteModel) -> int | None:
        """Insert m; returns its index, or None when a duplicate is dropped."""
        k = m.key()
        if k in self._keys:
            return None
        self._keys.add(k)
        self.models.append(m)
        return len(self.models) - 1

    def __len__(self):
        return len(self.models)

    def __iter__(self):
        return iter(self.models)


# ---------------------------------------------------------------------------
# Textual model dump (stable format, consumed by report tooling)


def model_to_text(m: FiniteModel) -> str:
    lines = [f"domain {m.size}", f"provenance {m.provenance}"]
    for sym in sorted(m.funcs):
        for args in sorted(m.funcs[sym]):
            a = ",".join(str(x) for x in args)
            lines.append(f"fun {print_name(sym)}({a}) = {m.funcs[sym][args]}")
    for sym in sorted(m.preds):
        for args in sorted(m.preds[sym]):
            a = ",".join(str(x) for x in args)
            val = "true" if m.preds[sym][args] else "false"
            lines.append(f"pred {print_name(sym)}({a}) = {val}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> FiniteModel:
    """The model of a `model_to_text` text.  A text is refused with
    `ValueError` unless it has exactly one `domain n` line with n >= 1,
    every table argument and function value is an ASCII-decimal element
    below n, every predicate value is `true` or `false`, no table cell is
    written twice and no line is of another kind."""
    sizes: list = []
    cells: list = []
    provenance = ""
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind == "domain":
            sizes.append(rest)
        elif kind == "provenance":
            provenance = rest
        elif kind in ("fun", "pred"):
            cells.append((kind, rest))
        else:
            raise ValueError(f"unknown model line {line!r}")
    if len(sizes) != 1 or not _decimal(sizes[0]) or int(sizes[0]) < 1:
        raise ValueError("a model has one `domain n` line, n >= 1")
    size = int(sizes[0])
    funcs: dict = {}
    preds: dict = {}
    for kind, rest in cells:
        sym, args, val = _read_cell(rest)
        args = tuple(_element(a, size) for a in args)
        table = (funcs if kind == "fun" else preds).setdefault(sym, {})
        if args in table:
            raise ValueError(f"a second table line {rest!r}")
        if kind == "fun":
            table[args] = _element(val, size)
        elif val in ("true", "false"):
            table[args] = val == "true"
        else:
            raise ValueError(f"predicate value {val!r} is not true or false")
    return FiniteModel(size, funcs, preds, provenance)


def _decimal(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _element(text: str, size: int) -> int:
    """The element of a domain of `size` that `text` writes in decimal."""
    if not (_decimal(text) and int(text) < size):
        raise ValueError(f"{text!r} is not an element of a domain of {size}")
    return int(text)


def _read_cell(text: str) -> tuple:
    """(symbol, argument texts, value text) of a table line's
    `sym(a,...) = value`."""
    texts = tokenize(text)
    close = texts.index(")")
    args = texts[2:close:2]
    if (texts[1] != "(" or texts[3:close:2] != [","] * (len(args) - 1)
            or texts[close + 1:-1] != ["="]):
        raise ValueError(f"malformed table line {text!r}")
    return normalize_name(texts[0]), tuple(args), texts[-1]
