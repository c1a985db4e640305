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
at generation time (disable with verify=False).  Identical family, size
and seed give byte-identical output.
"""
from __future__ import annotations

import os
import random

from .clausify import clausal_problem
from .checker import check_proof
from .corpus import MANIFEST_NAME, SPLIT_NAME, load_corpus, write_manifest
from .fol import AnnotatedFormula, make_problem
from .parser import parse_problem, print_annotated
from .prover import Limits, PROVED, prove

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
    corpus = load_corpus(root)
    by_name = {item.name: item for item in corpus.items}
    for _i, item in corpus.theorems():
        premises = [by_name[r].as_axiom() for r in item.reference_premises]
        problem = make_problem(premises + [item.as_conjecture()])
        res = prove(clausal_problem(problem), VERIFY_LIMITS)
        if res.status != PROVED:
            raise GeneratorError(
                f"{item.name} not provable from its reference premises "
                f"({res.status})")
        if not check_proof(res.proof, clausal_problem(problem)):
            raise GeneratorError(f"{item.name}: generated proof failed checking")


# ---------------------------------------------------------------------------
# chain


def _gen_chain(root: str, size: int, prefix: str = "p", const: str = "c",
               tag: str = "") -> list:
    """Records for a chain: base fact, then (rule, theorem) pairs."""
    records = []
    if size <= 0:
        return records
    base = f"{tag}base"
    records.append((base, _write_item(root, base, "axiom", f"{prefix}0({const})"), []))
    k = 0
    while len(records) < size:
        k += 1
        rule = f"{tag}rule{k}"
        records.append((rule, _write_item(
            root, rule, "axiom",
            f"![X]: ({prefix}{k - 1}(X) => {prefix}{k}(X))"), []))
        if len(records) >= size:
            break
        th = f"{tag}th{k}"
        prev = f"{tag}th{k - 1}" if k > 1 else base
        records.append((th, _write_item(root, th, "conjecture",
                                        f"{prefix}{k}({const})"), [prev, rule]))
    return records


# ---------------------------------------------------------------------------
# group


def _gen_group(root: str, size: int, tag: str = "") -> list:
    """Left identity + left inverse, then instance/symmetry/transitivity lemmas."""
    ident = f"{tag}ident"
    inv = f"{tag}inv"
    consts = ["c", "d", "g", "h"]
    templates = [
        # (suffix, formula pattern, references)
        ("id", "mult(e,{c}) = {c}", [ident]),
        ("invx", "mult(inv({c}),{c}) = e", [inv]),
        ("idid", "mult(e,mult(e,{c})) = mult(e,{c})", [ident]),
        ("sym", "{c} = mult(e,{c})", [ident]),
        ("trans", "mult(e,mult(inv({c}),{c})) = e", [ident, inv]),
    ]
    most = 2 + len(consts) * len(templates)
    if size > most:
        raise GeneratorError(f"the group family has at most {most} items, "
                             f"not {size}")
    records = [(ident, _write_item(root, ident, "axiom", "![X]: mult(e,X) = X"), []),
               (inv, _write_item(root, inv, "axiom", "![X]: mult(inv(X),X) = e"), [])]
    for i in range(size - len(records)):
        c = consts[i // len(templates)]
        suffix, pattern, refs = templates[i % len(templates)]
        name = f"{tag}lem_{c}_{suffix}"
        records.append((name, _write_item(root, name, "conjecture",
                                          pattern.format(c=c)), list(refs)))
    return records


# ---------------------------------------------------------------------------
# mixed (the bundled acceptance corpus shape)


def _gen_mixed(root: str, size: int, rng: random.Random) -> list:
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

    entries = entries[:size]
    while len(entries) < size:
        entries.append(noise())
    return [(name, _write_item(root, name, role, formula), refs)
            for name, role, formula, refs in entries]


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
    for fn in sorted(os.listdir(root)):
        if not fn.endswith(".p"):
            continue
        with open(os.path.join(root, fn), encoding="utf-8") as fh:
            problem = parse_problem(fh.read(), source=fn)
        res = prove(clausal_problem(problem), VERIFY_LIMITS)
        if res.status != PROVED:
            raise GeneratorError(f"{fn} not provable ({res.status})")


# ---------------------------------------------------------------------------
# entry point


def generate_corpus(family: str, size: int, seed: int, out_dir: str,
                    verify: bool = True) -> str:
    """Write a corpus (or problem directory) under out_dir; returns out_dir."""
    if family not in FAMILIES:
        raise GeneratorError(f"unknown family {family!r}; choose from {FAMILIES}")
    if size < 0:
        raise GeneratorError("size must be >= 0")
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(seed)
    if family == "neardup":
        _gen_neardup(out_dir, size)
        if verify and size:
            _verify_problems(out_dir)
        return out_dir
    if family == "chain":
        records = _gen_chain(out_dir, size)
    elif family == "group":
        records = _gen_group(out_dir, size)
    else:
        records = _gen_mixed(out_dir, size, rng)
    write_manifest(out_dir, records)
    _write_split(out_dir, records)
    if verify and records:
        _verify_corpus(out_dir)
    return out_dir


def _write_split(root: str, records) -> None:
    """Default 2:1 train/test split over theorem items, chronological."""
    theorem_names = []
    for name, relpath, _refs in records:
        with open(os.path.join(root, relpath), encoding="utf-8") as fh:
            if ", conjecture," in fh.read():
                theorem_names.append(name)
    if not theorem_names:
        return
    cut = max(1, (2 * len(theorem_names)) // 3)
    with open(os.path.join(root, SPLIT_NAME), "w", encoding="utf-8") as fh:
        for name in theorem_names[:cut]:
            fh.write(f"train {name}\n")
        for name in theorem_names[cut:]:
            fh.write(f"test {name}\n")
