"""Small-domain finite model finding and Tarskian evaluation.

Models double as counter-satisfiability witnesses and as a semantic
signature source: every stored model contributes one truth-value column
per formula.  Evaluation over a partial signature yields Undefined rather
than a default -- a formula mentioning a symbol the model has no table
for has no honest truth value in it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .fol import (
    And, Atom, Clause, Eq, Exists, Forall, Iff, Implies, Literal, Not, Or,
    TrueF, FalseF, Var, clause_signature, literal_vars, symbols_of,
)

DEFAULT_MAX_DOMAIN = 3
GROUNDING_GUARD = 10 ** 6


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

    def has_symbols(self, symbols) -> bool:
        for (name, kind, arity) in symbols:
            if name == "=" and kind == "predicate":
                continue
            table = self.funcs if kind == "function" else self.preds
            if name not in table:
                return False
        return True

    def key(self) -> tuple:
        """Content key for deduplication in stores."""
        f = tuple(sorted((s, tuple(sorted(t.items()))) for s, t in self.funcs.items()))
        p = tuple(sorted((s, tuple(sorted(t.items()))) for s, t in self.preds.items()))
        return (self.size, f, p)


# ---------------------------------------------------------------------------
# Model search


def find_model(clauses, max_domain: int = DEFAULT_MAX_DOMAIN,
               provenance: str = "") -> FiniteModel | None:
    """Smallest-domain model of the clause set, or None within the cap.

    Exhaustive backtracking over table cells (symbol-frequency order)
    with unit propagation over the ground instances.
    """
    clauses = list(clauses)
    funcs: dict = {}
    preds: dict = {}
    freq: dict = {}          # symbol -> number of clauses it occurs in
    for c in clauses:
        for sym, kind, arity in clause_signature(c):
            (funcs if kind == "function" else preds)[sym] = arity
            freq[sym] = freq.get(sym, 0) + 1
    for n in range(1, max_domain + 1):
        model = _search_domain(clauses, funcs, preds, freq, n)
        if model is not None:
            model.provenance = provenance
            # checked by the Tarskian evaluator, apart from the finder's search
            for c in clauses:
                if evaluate(c, model) is not True:
                    raise ModelCheckError(
                        f"domain-{n} model fails its own clause {c.clause_id!r}")
            return model
    return None


def _search_domain(clauses, funcs, preds, freq, n):
    domain = range(n)
    grounding = 0
    ground: list = []
    for c in clauses:
        vs = sorted(set(v for lit in c.literals for v in literal_vars(lit)))
        grounding += n ** len(vs)
        if grounding > GROUNDING_GUARD:
            raise ResourceError(
                f"grounding needs {grounding}+ instances at domain {n}")
        for vals in itertools.product(domain, repeat=len(vs)):
            env = dict(zip(vs, vals))
            ground.append([_ground_literal(lit, env) for lit in c.literals])

    cells = []
    for sym, ar in funcs.items():
        cells.extend(("f", sym, args) for args in itertools.product(domain, repeat=ar))
    for sym, ar in preds.items():
        cells.extend(("p", sym, args) for args in itertools.product(domain, repeat=ar))
    ncells = len(cells)
    if ncells > GROUNDING_GUARD:
        raise ResourceError(f"{ncells} table cells at domain {n}")

    cells.sort(key=lambda cell: (-freq.get(cell[1], 0), cell[0], cell[1], cell[2]))

    assign: dict = {}

    def eval_ground_term(t):
        # returns (value, None) or (None, blocking cell)
        sym, args = t
        vals = []
        for a in args:
            if isinstance(a, tuple):
                v, blocked = eval_ground_term(a)
                if v is None:
                    return None, blocked
            else:
                v = a
            vals.append(v)
        cell = ("f", sym, tuple(vals))
        if cell in assign:
            return assign[cell], None
        return None, cell

    def eval_ground_literal(lit):
        # returns True/False/None (undecided), plus a forcing cell when the
        # only obstacle is a single predicate cell
        sign, pred, args = lit
        vals = []
        for a in args:
            if isinstance(a, tuple):
                v, _ = eval_ground_term(a)
                if v is None:
                    return None, None
            else:
                v = a
            vals.append(v)
        if pred == "=":
            return (vals[0] == vals[1]) == sign, None
        cell = ("p", pred, tuple(vals))
        if cell in assign:
            return assign[cell] == sign, None
        return None, (cell, sign)

    def propagate(trail) -> bool:
        changed = True
        while changed:
            changed = False
            for lits in ground:
                undecided = 0
                force = None
                satisfied = False
                for lit in lits:
                    val, f = eval_ground_literal(lit)
                    if val is True:
                        satisfied = True
                        break
                    if val is None:
                        undecided += 1
                        force = f
                if satisfied:
                    continue
                if undecided == 0:
                    return False
                if undecided == 1 and force is not None:
                    cell, sign = force
                    assign[cell] = sign
                    trail.append(cell)
                    changed = True
        return True

    def solve(idx) -> bool:
        while idx < ncells and cells[idx] in assign:
            idx += 1
        if idx == ncells:
            return True
        kind, sym, args = cells[idx]
        values = [False, True] if kind == "p" else list(domain)
        for v in values:
            assign[cells[idx]] = v
            trail = [cells[idx]]
            if propagate(trail) and solve(idx + 1):
                return True
            for cell in trail:
                del assign[cell]
        return False

    trail0: list = []
    if not propagate(trail0):
        return None
    if not solve(0):
        return None
    funcs_out = {sym: {} for sym in funcs}
    preds_out = {sym: {} for sym in preds}
    for (kind, sym, args), v in assign.items():
        (funcs_out if kind == "f" else preds_out)[sym][args] = v
    # propagate may leave cells untouched when no clause constrains them
    for sym, ar in funcs.items():
        for args in itertools.product(domain, repeat=ar):
            funcs_out[sym].setdefault(args, 0)
    for sym, ar in preds.items():
        for args in itertools.product(domain, repeat=ar):
            preds_out[sym].setdefault(args, False)
    return FiniteModel(n, funcs_out, preds_out)


def _ground_literal(lit: Literal, env):
    def g(t):
        if isinstance(t, Var):
            return env[t.name]
        return (t.symbol, tuple(g(a) for a in t.args))

    if isinstance(lit.atom, Eq):
        return (lit.positive, "=", (g(lit.atom.lhs), g(lit.atom.rhs)))
    return (lit.positive, lit.atom.pred, tuple(g(a) for a in lit.atom.args))


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(f, m: FiniteModel):
    """Tarskian truth value of a Formula or Clause in m, or UNDEFINED.

    Undefined exactly when f mentions a symbol m has no table for;
    clause variables are implicitly universal.
    """
    return evaluate_models(f, (m,))[0]


def evaluate_models(f, models) -> list:
    """`evaluate(f, m)` for each m in `models`, in order.  The formula's
    signature is walked once and tested against every model."""
    if isinstance(f, Clause):
        from .fol import clause_as_formula
        f = clause_as_formula(f)
    symbols = symbols_of(f)
    return [_eval(f, m, {}) if m.has_symbols(symbols) else UNDEFINED
            for m in models]


def _eval_term(t, m, env) -> int:
    if isinstance(t, Var):
        return env[t.name]
    args = tuple(_eval_term(a, m, env) for a in t.args)
    return m.funcs[t.symbol][args]


def _eval(f, m, env) -> bool:
    if isinstance(f, Atom):
        args = tuple(_eval_term(a, m, env) for a in f.args)
        return m.preds[f.pred][args]
    if isinstance(f, Eq):
        return _eval_term(f.lhs, m, env) == _eval_term(f.rhs, m, env)
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Not):
        return not _eval(f.sub, m, env)
    if isinstance(f, And):
        return _eval(f.lhs, m, env) and _eval(f.rhs, m, env)
    if isinstance(f, Or):
        return _eval(f.lhs, m, env) or _eval(f.rhs, m, env)
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
            lines.append(f"fun {sym}({a}) = {m.funcs[sym][args]}")
    for sym in sorted(m.preds):
        for args in sorted(m.preds[sym]):
            a = ",".join(str(x) for x in args)
            val = "true" if m.preds[sym][args] else "false"
            lines.append(f"pred {sym}({a}) = {val}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> FiniteModel:
    size = 0
    provenance = ""
    funcs: dict = {}
    preds: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind == "domain":
            size = int(rest)
        elif kind == "provenance":
            provenance = rest
        else:
            head, val = rest.split(" = ")
            sym, argtext = head[:-1].split("(", 1)
            args = tuple(int(x) for x in argtext.split(",")) if argtext else ()
            if kind == "fun":
                funcs.setdefault(sym, {})[args] = int(val)
            else:
                preds.setdefault(sym, {})[args] = (val == "true")
    return FiniteModel(size, funcs, preds, provenance)
