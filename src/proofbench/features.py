"""Sparse formula characterizations over three namespaces.

SYM counts symbol occurrences, STR counts parent->child symbol pairs in
the term tree (variables abstracted to VAR), MOD records truth
values in stored models.  All three are invariant under bound-variable
renaming, which is what lets canonically-skolemized alpha-variants share
every feature.
"""
from __future__ import annotations

from .fol import App, Atom, BINARY, Not, QUANT, Var, symbols_of
from .models import UNDEFINED, ModelStore, evaluate_models

FeatureVector = dict   # feature id -> positive weight


def symbol_features(f) -> FeatureVector:
    """One SYM feature per distinct symbol; weight = occurrence count."""
    out: FeatureVector = {}
    for (name, _kind, _arity), n in symbols_of(f).items():
        out[f"SYM:{name}"] = out.get(f"SYM:{name}", 0.0) + float(n)
    return out


def structural_features(f) -> FeatureVector:
    """One STR:a>b feature per parent->child symbol pair of the term tree;
    weight = occurrence count.  Atoms (an equation as "=") are the parents
    of their arguments; a variable child is VAR.  Keys come in preorder,
    each node's pairs before its children's."""
    out: FeatureVector = {}
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, App):
            parent, children = g.symbol, g.args
        elif isinstance(g, Atom):
            parent, children = g.pred, g.args
        else:
            if isinstance(g, Not):
                todo.append(g.sub)
            elif isinstance(g, BINARY):
                todo += reversed(g.parts)
            elif isinstance(g, QUANT):
                todo.append(g.body)
            continue        # a variable, true or false has no pairs
        for a in children:
            fid = f"STR:{parent}>{'VAR' if isinstance(a, Var) else a.symbol}"
            out[fid] = out.get(fid, 0.0) + 1.0
        todo.extend(reversed(children))
    return out


def semantic_features(f, store: ModelStore, indices=None) -> FeatureVector:
    """MOD:i:T / MOD:i:F per model i of `indices` (ascending; default every
    model); Undefined contributes nothing."""
    if indices is None:
        indices = range(len(store))
    values = evaluate_models(f, [store.models[i] for i in indices])
    out: FeatureVector = {}
    for i, v in zip(indices, values):
        if v is not UNDEFINED:
            out[f"MOD:{i}:{'T' if v else 'F'}"] = 1.0
    return out


def combine(*vectors: FeatureVector) -> FeatureVector:
    """The sum of `vectors`, keys in order of first appearance."""
    out: FeatureVector = {}
    for v in vectors:
        for fid, w in v.items():
            out[fid] = out.get(fid, 0.0) + w
    return out


def branch_features(names) -> FeatureVector:
    """SYM features of a branch (the advisor's query view) from its symbol
    names, one name per occurrence."""
    out: FeatureVector = {}
    for name in names:
        fid = "SYM:" + name
        out[fid] = out.get(fid, 0.0) + 1.0
    return out

