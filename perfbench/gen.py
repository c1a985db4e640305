"""Seeded inputs for the four benchmark workloads.

Each function writes one workload's input directory and returns the
number of items it wrote.  The seed renames symbols and items and
decides which of several same-shaped parts (chain families, constants,
problem kinds) fills which slot of a layout; it never changes how many
items, theorems or problems are written.  The layout itself (how the
library interleaves, the axiom order a challenge batch starts learning
from) changes how much search and ranking a run does, so it comes from a
fixed layout generator: every seed asks for the same amount of work and
the timings of different seeds are comparable.

Shapes keep the model finder bounded: every problem has one goal
constant, and the distractors hold when all their predicates are false,
so a pruned attempt that saturates finds a domain-1 model at once.
"""
from __future__ import annotations

import os
import random
import string

from proofbench.corpus import write_manifest

# item counts are fixed per workload; the seed never changes them
SEARCH_CHAINS, SEARCH_CHAIN_DEPTH = 4, 8
SEARCH_CONSTS = ("c", "d", "g", "h", "k", "m", "n", "q")
SEARCH_NOISE = 40
SELECT_FAMILIES, SELECT_DEPTH = 96, 3
SELECT_WIDE, SELECT_WIDTH = 12, 17
CHALLENGE_PROBLEMS = 200
LAYOUT_SEED = 0
SPEEDUP_PROBLEMS = 80
SPEEDUP_ROUTES = 8
SPEEDUP_KINDS = 6
SPEEDUP_FEEDS = 3


def _tags(rng: random.Random, count: int) -> list:
    """`count` distinct lowercase tags, different for each seed."""
    pool = [a + b for a in string.ascii_lowercase for b in string.ascii_lowercase]
    return rng.sample(pool, count)


def _interleave(rng: random.Random, streams: list) -> list:
    """Merge streams in a seeded order that keeps each stream's own order."""
    streams = [list(s) for s in streams if s]
    out = []
    while streams:
        weights = [len(s) for s in streams]
        i = rng.choices(range(len(streams)), weights=weights)[0]
        out.append(streams[i].pop(0))
        if not streams[i]:
            streams.pop(i)
    return out


def _write_corpus(root: str, entries: list) -> int:
    """entries: (name, role, formula text, reference names) in manifest order."""
    os.makedirs(root, exist_ok=True)
    records = []
    for name, role, formula, refs in entries:
        relpath = f"{name}.p"
        with open(os.path.join(root, relpath), "w", encoding="utf-8") as fh:
            fh.write(f"fof({name}, {role}, {formula}).\n")
        records.append((name, relpath, refs))
    write_manifest(root, records)
    return len(records)


# ---------------------------------------------------------------------------
# library-search: chains plus group-theory equational lemmas


def library_search(root: str, seed: int) -> int:
    """Chain families, group lemmas and noise; about 150 items.

    Rules and the group axioms come first and theorems much later, with
    noise next to the theorems, so chronological recency keeps giving the
    prover equational lemmas and noise instead of the needed premises:
    those attempts run to their inference budget under the equality axioms.
    """
    rng = random.Random(seed)
    layout = random.Random(LAYOUT_SEED)
    fams = _tags(rng, SEARCH_CHAINS)
    noise_tag = _tags(rng, 1)[0]
    consts = list(SEARCH_CONSTS)
    rng.shuffle(consts)
    head = [("g_ident", "axiom", "![X]: mult(e,X) = X", []),
            ("g_inv", "axiom", "![X]: mult(inv(X),X) = e", [])]
    for f in fams:
        head.append((f"{f}_base", "axiom", f"{f}0({f}_c)", []))
    rules = [(f"{f}_rule{k}", "axiom", f"![X]: ({f}{k - 1}(X) => {f}{k}(X))", [])
             for k in range(1, SEARCH_CHAIN_DEPTH + 1) for f in fams]
    layout.shuffle(rules)
    head += rules

    chains = []
    for f in fams:
        stream = []
        for k in range(1, SEARCH_CHAIN_DEPTH + 1):
            prev = f"{f}_th{k - 1}" if k > 1 else f"{f}_base"
            stream.append((f"{f}_th{k}", "conjecture", f"{f}{k}({f}_c)",
                           [prev, f"{f}_rule{k}"]))
        chains.append(stream)
    templates = [
        ("id", "mult(e,{c}) = {c}", ["g_ident"]),
        ("invx", "mult(inv({c}),{c}) = e", ["g_inv"]),
        ("idid", "mult(e,mult(e,{c})) = mult(e,{c})", ["g_ident"]),
        ("sym", "{c} = mult(e,{c})", ["g_ident"]),
        ("trans", "mult(e,mult(inv({c}),{c})) = e", ["g_ident", "g_inv"]),
    ]
    lemmas = [(f"lem_{c}_{suffix}", "conjecture", pattern.format(c=c), refs)
              for c in consts for suffix, pattern, refs in templates]
    noise = [(f"noise_{noise_tag}{j}", "axiom",
              f"irrelevant_{noise_tag}{j}(nc_{noise_tag}{j})", []) for j in range(SEARCH_NOISE)]
    body = _interleave(layout, chains + [lemmas, noise])
    return _write_corpus(root, head + body)


# ---------------------------------------------------------------------------
# library-select: a large corpus of cheap chain proofs


def library_select(root: str, seed: int) -> int:
    """Many short chains over disjoint signatures; about 900 items.

    Each theorem needs two premises that share its symbols, so symbol
    overlap and the learned ranking find them at the first rung and the
    prover does little; the time goes to features, ranking over hundreds
    of eligible premises, and writing the run directory.
    """
    rng = random.Random(seed)
    layout = random.Random(LAYOUT_SEED)
    fams = _tags(rng, SELECT_FAMILIES)
    streams = []
    for f in fams:
        stream = [(f"{f}_base", "axiom", f"{f}0({f}_c)", [])]
        for k in range(1, SELECT_DEPTH + 1):
            prev = f"{f}_th{k - 1}" if k > 1 else f"{f}_base"
            stream.append((f"{f}_rule{k}", "axiom",
                           f"![X]: ({f}{k - 1}(X) => {f}{k}(X))", []))
            stream.append((f"{f}_th{k}", "conjecture", f"{f}{k}({f}_c)",
                           [prev, f"{f}_rule{k}"]))
        streams.append(stream)
    for w in _tags(rng, SELECT_WIDE):
        w = "w" + w
        facts = [(f"{w}_f{i}", "axiom", f"{w}_a{i}({w}_c)", [])
                 for i in range(SELECT_WIDTH)]
        body = " & ".join(f"{w}_a{i}(X)" for i in range(SELECT_WIDTH))
        rule = (f"{w}_rule", "axiom", f"![X]: (({body}) => {w}_goal(X))", [])
        goal = (f"{w}_th", "conjecture", f"{w}_goal({w}_c)",
                [rule[0]] + [f[0] for f in facts])
        streams.append([rule] + facts + [goal])
    return _write_corpus(root, _interleave(layout, streams))


# ---------------------------------------------------------------------------
# challenge-batch: standalone near-duplicate problems with heavy distractors

# satisfiable with every distractor predicate false, so a saturated pruned
# attempt finds a domain-1 model; skolemization, iff expansion and
# miniscoping make them costly to clausify but the prover never reaches them
_DISTRACTORS = (
    "![X]: ({p}a(X) => ?[Y]: ({p}b(X,Y) & ({p}c(Y) | ~{p}d(X))))",
    "![X,Y]: (({p}b(X,Y) & {p}e(Y)) => ({p}c(X) <=> {p}d(Y)))",
    "![X]: (({p}a(X) & {p}e(X)) => ?[Y]: ?[Z]: ({p}b(Y,Z) & {p}b(Z,X)))",
    "![X]: ({p}d(X) => (({p}c(X) & ~{p}e(X)) | ({p}a(X) <=> ~{p}c(X))))",
    "![X]: (~({p}e(X) | {p}a(X)) | ![Y]: ({p}b(X,Y) => ?[Z]: {p}b(Y,Z)))",
    "![X,Y]: ({p}b(X,Y) => ({p}a(X) => ({p}c(Y) & ({p}d(Y) | {p}e(X)))))",
)


def challenge_batch(root: str, seed: int) -> int:
    """Near-duplicate problems sharing axiom names, one goal constant each.

    Every problem carries the same rule set and distractors but only the
    facts of its own kind.  The first rungs see too few axioms, saturate
    and end in the model finder; proofs found early train the ranking
    used for later problems.
    """
    rng = random.Random(seed)
    layout = random.Random(LAYOUT_SEED)
    os.makedirs(root, exist_ok=True)
    kinds = ("a", "b", "c")
    names = _tags(rng, CHALLENGE_PROBLEMS)
    for j in range(CHALLENGE_PROBLEMS):
        kind = kinds[j % len(kinds)]
        c = f"c{names[j]}"
        axioms = [f"fof(top_from_kind_{k}, axiom, ![X]: (kind_{k}(X) => top(X)))."
                  for k in kinds]
        axioms += [f"fof(kind_{k}_rule, axiom, ![X]: ((finish(X) & flag_{k}(X)) "
                   f"=> kind_{k}(X)))." for k in kinds]
        axioms += [f"fof(finish_route_{r}, axiom, ![X]: (route_{r}(X) => finish(X)))."
                   for r in range(len(kinds) + 1)]
        axioms.append("fof(route_0_feed, axiom, ![X]: (hop_0(X) => route_0(X))).")
        axioms += [f"fof(distractor_{i}, axiom, {text.format(p='dz_')})."
                   for i, text in enumerate(_DISTRACTORS)]
        axioms += [f"fof(route_fact, axiom, route_{kinds.index(kind) + 1}({c})).",
                   f"fof(flag_fact, axiom, flag_{kind}({c}))."]
        layout.shuffle(axioms)
        axioms.append(f"fof(goal_{names[j]}, conjecture, top({c})).")
        with open(os.path.join(root, f"prob_{j:03d}.p"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(axioms) + "\n")
    return CHALLENGE_PROBLEMS


# ---------------------------------------------------------------------------
# guided-speedup: near duplicates with wide choice points


def guided_speedup(root: str, seed: int) -> int:
    """Near duplicates with many alternatives at every shallow goal.

    `top` has one rule per kind, `finish` one rule per route and every
    route several feeds, so each goal down to depth 3 is a choice point
    with at least three candidates and the advisor is consulted there.
    Which kind and route close depends on the kind literal on the branch,
    which is what clause-choice guidance learns.
    """
    rng = random.Random(seed)
    os.makedirs(root, exist_ok=True)
    kinds = [f"k{t}" for t in _tags(rng, SPEEDUP_KINDS)]
    names = _tags(rng, SPEEDUP_PROBLEMS)
    for j in range(SPEEDUP_PROBLEMS):
        kind = kinds[j % len(kinds)]
        route = SPEEDUP_ROUTES - 1 - kinds.index(kind)
        c = f"c{names[j]}"
        lines = [f"fof(top_from_{k}, axiom, ![X]: ({k}(X) => top(X)))." for k in kinds]
        lines += [f"fof({k}_rule, axiom, ![X]: ((finish(X) & flag_{k}(X)) => {k}(X)))."
                  for k in kinds]
        lines += [f"fof(finish_route_{r}, axiom, ![X]: (route_{r}(X) => finish(X)))."
                  for r in range(SPEEDUP_ROUTES)]
        lines += [f"fof(route_{r}_feed_{i}, axiom, ![X]: (hop_{r}_{i}(X) => route_{r}(X)))."
                  for r in range(SPEEDUP_ROUTES) for i in range(SPEEDUP_FEEDS)]
        lines += [f"fof(route_fact, axiom, route_{route}({c})).",
                  f"fof(flag_fact, axiom, flag_{kind}({c})).",
                  f"fof(goal_{names[j]}, conjecture, top({c}))."]
        with open(os.path.join(root, f"prob_{j:03d}.p"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return SPEEDUP_PROBLEMS
