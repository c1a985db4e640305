"""Sparse formula characterizations over three namespaces.

SYM counts symbol occurrences, STR counts directed parent->child symbol
chains in the term tree (variables abstracted to VAR), MOD records truth
values in stored models.  All three are invariant under bound-variable
renaming, which is what lets canonically-skolemized alpha-variants share
every feature.
"""
from __future__ import annotations

from .fol import Atom, BINARY, Eq, Not, QUANT, Var, symbols_of
from .models import UNDEFINED, ModelStore, evaluate_models

STR_DEPTH_DEFAULT = 2

FeatureVector = dict   # feature id -> positive weight


def symbol_features(f) -> FeatureVector:
    """One SYM feature per distinct symbol; weight = occurrence count."""
    out: FeatureVector = {}
    for (name, _kind, _arity), n in symbols_of(f).items():
        out[f"SYM:{name}"] = out.get(f"SYM:{name}", 0.0) + float(n)
    return out


def structural_features(f, depth: int = STR_DEPTH_DEFAULT) -> FeatureVector:
    """Directed symbol chains of 2..depth nodes in the term tree."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    out: FeatureVector = {}

    def token(t):
        return "VAR" if isinstance(t, Var) else t.symbol

    def chains(t):
        # emit chains rooted at t's symbol, then at every deeper symbol
        if isinstance(t, Var) or not t.args:
            return
        for a in t.args:
            _extend([token(t)], a)
        for a in t.args:
            chains(a)

    def _extend(prefix, t):
        chain = prefix + [token(t)]
        if len(chain) <= depth:
            fid = "STR:" + ">".join(chain)
            out[fid] = out.get(fid, 0.0) + 1.0
            if not isinstance(t, Var):
                for a in t.args:
                    _extend(chain, a)

    def walk(g):
        if isinstance(g, Atom):
            for a in g.args:
                _extend([g.pred], a)
            for a in g.args:
                chains(a)
        elif isinstance(g, Eq):
            for a in (g.lhs, g.rhs):
                _extend(["="], a)
            for a in (g.lhs, g.rhs):
                chains(a)
        elif isinstance(g, Not):
            walk(g.sub)
        elif isinstance(g, BINARY):
            walk(g.lhs)
            walk(g.rhs)
        elif isinstance(g, QUANT):
            walk(g.body)

    walk(f)
    return out


def semantic_features(f, store: ModelStore, indices=None,
                      signature=None) -> FeatureVector:
    """MOD:i:T / MOD:i:F per model i of `indices` (ascending; default every
    model); Undefined contributes nothing.  `signature` is f's
    `symbols_of`, when the caller keeps it."""
    if indices is None:
        indices = range(len(store))
    values = evaluate_models(f, [store.models[i] for i in indices], signature)
    out: FeatureVector = {}
    for i, v in zip(indices, values):
        if v is not UNDEFINED:
            out[f"MOD:{i}:{'T' if v else 'F'}"] = 1.0
    return out


def combine(*vectors: FeatureVector) -> FeatureVector:
    out: FeatureVector = {}
    for v in vectors:
        for fid, w in v.items():
            nw = out.get(fid, 0.0) + w
            if nw == 0.0:
                out.pop(fid, None)
            else:
                out[fid] = nw
    return out


def branch_features(names) -> FeatureVector:
    """SYM features of a branch (the advisor's query view) from its symbol
    names, one name per occurrence."""
    out: FeatureVector = {}
    for name in names:
        fid = "SYM:" + name
        out[fid] = out.get(fid, 0.0) + 1.0
    return out


# ---------------------------------------------------------------------------
# Feature cache file: one record per formula name


def write_feature_cache(path: str, vectors: dict) -> None:
    """`name<TAB>fid:weight ...`; names must be whitespace-free."""
    with open(path, "w", encoding="utf-8") as fh:
        for name in sorted(vectors):
            if any(ch.isspace() for ch in name):
                raise ValueError(f"cache format cannot hold name {name!r}")
            pairs = " ".join(f"{fid}:{w!r}" for fid, w in sorted(vectors[name].items()))
            fh.write(f"{name}\t{pairs}\n")

