"""Deterministic synthetic corpora with known-provable items.

Families:

  chain    a base fact, then alternating rule axioms and theorems where
           each theorem follows from its predecessor plus one rule.
  group    a small equational theory (left identity, left inverse) with
           instance and symmetry/transitivity lemmas as theorems.
  mixed    interleaved chains over disjoint signatures, equational items,
           tautologies and distractor axioms; reference premises sit far
           behind in chronological order, so symbol-aware selection beats
           recency.  One theorem carries a deliberately padded reference
           set, so a found proof is strictly shorter.
  neardup  a directory of standalone near-duplicate problems sharing
           axiom names and predicates (only the goal constant varies),
           with dead-end rules listed before the useful ones; guidance
           that learns which clauses close branches can skip the
           dead ends.

Every generated theorem is verified provable from its reference premises
at generation time, and every standalone problem from its axioms, with
each proof replayed by the independent checker (disable with
verify=False).  No family draws random numbers: identical family and
size give byte-identical output.
"""
from __future__ import annotations

import os

from .corpus import SPLIT_NAME, load_corpus, write_manifest
from .loop import clause_set_builder, prove_checked, whole_problems
from .models import DEFAULT_MAX_DOMAIN
from .parser import parse_problem_dir
from .prover import Limits, PROVED

FAMILIES = ("chain", "group", "mixed", "neardup")

VERIFY_LIMITS = Limits(inference_budget=200000, max_depth=8)


class GeneratorError(Exception):
    pass


def _write_item(root: str, name: str, role: str, formula_text: str) -> str:
    relpath = f"{name}.p"
    with open(os.path.join(root, relpath), "w", encoding="utf-8") as fh:
        fh.write(f"fof({name}, {role}, {formula_text}).\n")
    return relpath


def _verify_corpus(root: str) -> None:
    """Each theorem, proved from its reference premises as `reprove`
    builds it; a proof the checker rejects raises `LoopInvariantError`."""
    corpus = load_corpus(root)
    build = clause_set_builder("reprove", corpus)
    for _i, item in corpus.theorems():
        res = prove_checked(build(item.name, item.reference_premises),
                            VERIFY_LIMITS, DEFAULT_MAX_DOMAIN, item.name)
        if res.status != PROVED:
            raise GeneratorError(
                f"{item.name} not provable from its reference premises "
                f"({res.status})")


# ---------------------------------------------------------------------------
# chain


def _chain_entries(size: int) -> list:
    """The first `size` entries of a chain: base fact, then (rule,
    theorem) pairs."""
    entries = [("base", "axiom", "p0(c)", [])]
    k = 0
    while len(entries) < size:
        k += 1
        prev = f"th{k - 1}" if k > 1 else "base"
        entries += [(f"rule{k}", "axiom", f"![X]: (p{k - 1}(X) => p{k}(X))", []),
                    (f"th{k}", "conjecture", f"p{k}(c)", [prev, f"rule{k}"])]
    return entries[:size]


# ---------------------------------------------------------------------------
# group


def _group_entries() -> list:
    """Left identity + left inverse, then instance/symmetry/transitivity
    lemmas."""
    ident = "ident"
    inv = "inv"
    consts = ["c", "d", "g", "h"]
    templates = [
        # (suffix, formula pattern, references)
        ("id", "mult(e,{c}) = {c}", [ident]),
        ("invx", "mult(inv({c}),{c}) = e", [inv]),
        ("idid", "mult(e,mult(e,{c})) = mult(e,{c})", [ident]),
        ("sym", "{c} = mult(e,{c})", [ident]),
        ("trans", "mult(e,mult(inv({c}),{c})) = e", [ident, inv]),
    ]
    entries = [(ident, "axiom", "![X]: mult(e,X) = X", []),
               (inv, "axiom", "![X]: mult(inv(X),X) = e", [])]
    for c in consts:
        for suffix, pattern, refs in templates:
            entries.append((f"lem_{c}_{suffix}", "conjecture",
                            pattern.format(c=c), list(refs)))
    return entries


# ---------------------------------------------------------------------------
# mixed (the bundled acceptance corpus shape)


def _mixed_entries() -> list:
    """Interleaved chains + equational items + tautologies + distractors.

    Rule axioms are emitted long before the theorems that need them, and
    distractor axioms sit right next to the theorems, so chronological
    recency ranks the wrong premises first while symbol overlap and
    learned relevance rank the right ones.
    """
    fams = ["fa", "fb", "fc"]
    depth = 3
    entries = []   # (name, role, formula text, refs)

    for fam in fams:
        entries.append((f"{fam}_base", "axiom", f"{fam}0({fam}_c)", []))
    entries.append(("eq_ident", "axiom", "![X]: mult(e,X) = X", []))
    for k in range(1, depth + 1):
        for fam in fams:
            entries.append((f"{fam}_rule{k}", "axiom",
                            f"![X]: ({fam}{k - 1}(X) => {fam}{k}(X))", []))

    noise_idx = 0

    def noise():
        nonlocal noise_idx
        noise_idx += 1
        return (f"noise{noise_idx}", "axiom",
                f"irrelevant{noise_idx}(nc{noise_idx})", [])

    theorems = []
    for k in range(1, depth + 1):
        for fam in fams:
            prev = f"{fam}_th{k - 1}" if k > 1 else f"{fam}_base"
            theorems.append((f"{fam}_th{k}", "conjecture", f"{fam}{k}({fam}_c)",
                             [prev, f"{fam}_rule{k}"]))

    entries.append(("taut1", "conjecture", "![X]: (s1(X) => s1(X))", []))
    for j, (name, role, formula, refs) in enumerate(theorems):
        if j % 2 == 1:
            entries.append(noise())
        if j == 2:
            entries.append(("eq_th1", "conjecture", "mult(e,ec) = ec",
                            ["eq_ident"]))
        if j == 5:
            entries.append(("eq_th2", "conjecture",
                            "mult(e,mult(e,ec)) = mult(e,ec)", ["eq_ident"]))
        if j == 7:
            entries.append(("taut2", "conjecture", "![X]: (s2(X) => s2(X))", []))
        if name == "fa_th3":
            # padded reference set: the found proof will be strictly shorter
            refs = refs + ["noise1"]
        entries.append((name, role, formula, refs))
    return entries


# families with a fixed item list; a corpus is its first `size` items
_FIXED = {"group": _group_entries, "mixed": _mixed_entries}


# ---------------------------------------------------------------------------
# neardup (standalone problem files for challenge/guidance runs)


def _gen_neardup(root: str, size: int) -> None:
    """Near-duplicate problems: shared axiom names, per-problem constant.

    Problems alternate between two kinds.  Every problem carries the same
    rule set (dead routes listed first), but only the facts of its own
    kind, so which route closes depends on which kind-literal sits on the
    branch; that is what clause-choice guidance can learn.
    """
    for j in range(size):
        c = f"c{j}"
        kind = "a" if j % 2 == 0 else "b"
        lines = [
            "fof(top_from_kind_a, axiom, ![X]: (kind_a(X) => top(X))).",
            "fof(top_from_kind_b, axiom, ![X]: (kind_b(X) => top(X))).",
            "fof(top_from_kind_c, axiom, ![X]: (kind_c(X) => top(X))).",
            "fof(kind_a_rule, axiom, ![X]: ((finish(X) & flag_a(X)) => kind_a(X))).",
            "fof(kind_b_rule, axiom, ![X]: ((finish(X) & flag_b(X)) => kind_b(X))).",
            "fof(finish_route_0, axiom, ![X]: (route_0(X) => finish(X))).",
            "fof(finish_route_1, axiom, ![X]: (route_1(X) => finish(X))).",
            "fof(finish_route_2, axiom, ![X]: (route_2(X) => finish(X))).",
            "fof(route_0_feed, axiom, ![X]: (hop_0(X) => route_0(X))).",
            f"fof(route_fact, axiom, route_{1 if kind == 'a' else 2}({c})).",
            f"fof(flag_fact, axiom, flag_{kind}({c})).",
            f"fof(goal_{j}, conjecture, top({c})).",
        ]
        with open(os.path.join(root, f"prob_{j:03d}.p"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _verify_problems(root: str) -> None:
    """Each problem, proved from all of its axioms as `speedup` builds it."""
    for pid, cs in whole_problems(parse_problem_dir(root)):
        res = prove_checked(cs, VERIFY_LIMITS, DEFAULT_MAX_DOMAIN, pid)
        if res.status != PROVED:
            raise GeneratorError(f"{pid}.p not provable ({res.status})")


# ---------------------------------------------------------------------------
# entry point


def check_size(family: str, size: int) -> None:
    """Raise `GeneratorError` unless `family` is known and can make a
    corpus of `size` items."""
    if family not in FAMILIES:
        raise GeneratorError(f"unknown family {family!r}; choose from {FAMILIES}")
    if size < 0:
        raise GeneratorError(f"size must be >= 0, got {size}")
    capacity = len(_FIXED[family]()) if family in _FIXED else size
    if size > capacity:
        raise GeneratorError(f"the {family} family has at most {capacity} "
                             f"items, not {size}")


def generate_corpus(family: str, size: int, out_dir: str,
                    verify: bool = True) -> str:
    """Write a corpus (or problem directory) under out_dir; returns out_dir.
    A family or size that `check_size` rejects writes nothing."""
    check_size(family, size)
    os.makedirs(out_dir, exist_ok=True)
    if family == "neardup":
        _gen_neardup(out_dir, size)
        if verify and size:
            _verify_problems(out_dir)
        return out_dir
    # (name, role, formula text, references) of each item, in order
    entries = (_chain_entries(size) if family == "chain"
               else _FIXED[family]()[:size])
    records = [(name, _write_item(out_dir, name, role, formula), refs)
               for name, role, formula, refs in entries]
    write_manifest(out_dir, records)
    _write_split(out_dir, [name for name, role, _f, _r in entries
                           if role == "conjecture"])
    if verify and records:
        _verify_corpus(out_dir)
    return out_dir


def _write_split(root: str, theorem_names: list) -> None:
    """Default 2:1 train/test split over the theorem items, chronological."""
    if not theorem_names:
        return
    cut = max(1, (2 * len(theorem_names)) // 3)
    with open(os.path.join(root, SPLIT_NAME), "w", encoding="utf-8") as fh:
        for name in theorem_names[:cut]:
            fh.write(f"train {name}\n")
        for name in theorem_names[cut:]:
            fh.write(f"test {name}\n")
