"""Chronologically ordered problem corpora.

A corpus directory holds one problem file per item plus a manifest named
`manifest.txt`.  Manifest format (stable): one record per line,

    <item name> <file path> <reference premise name>*

whitespace-separated; `#` starts a comment.  The line order is the
chronological order: an item may only reference items that appear
earlier, each once, which is exactly the eligibility rule for premise
selection.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

from .fol import AnnotatedFormula, Formula, ProblemError, check_arities
from .parser import parse_problem_file

MANIFEST_NAME = "manifest.txt"
SPLIT_NAME = "split.txt"


class CorpusError(ProblemError):
    pass


@dataclass(frozen=True)
class CorpusItem:
    name: str
    role: str                      # axiom-like items are facts, never attempted
    formula: Formula
    reference_premises: tuple

    def as_axiom(self) -> AnnotatedFormula:
        return AnnotatedFormula(self.name, "axiom", self.formula)

    def as_conjecture(self) -> AnnotatedFormula:
        return AnnotatedFormula(self.name, "conjecture", self.formula)


@dataclass
class Corpus:
    items: list = field(default_factory=list)

    def eligible(self, i: int) -> list:
        """Items usable as premises for item i: everything strictly earlier."""
        return self.items[:i]

    def theorems(self) -> list:
        return [(i, item) for i, item in enumerate(self.items)
                if item.role == "conjecture"]


def load_corpus(root: str) -> Corpus:
    manifest = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(manifest):
        raise CorpusError(f"no {MANIFEST_NAME} in {root!r}")
    records: list = []
    with open(manifest, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) < 2:
                raise CorpusError(f"{manifest}:{lineno}: need name and path")
            records.append((lineno, fields[0], fields[1], fields[2:]))

    position = {}
    for _lineno, name, _path, _refs in records:
        if name in position:
            raise CorpusError(f"{manifest}: duplicate item {name!r}")
        position[name] = len(position)
    for lineno, name, _path, refs in records:
        if len(set(refs)) != len(refs):
            raise CorpusError(f"{manifest}:{lineno}: a reference of {name!r} "
                              "is listed twice")
        for r in refs:
            if r not in position:
                raise CorpusError(
                    f"{manifest}:{lineno}: dangling reference {r!r} from {name!r}")
            if position[r] >= position[name]:
                raise CorpusError(
                    f"{manifest}:{lineno}: forward reference {r!r} from {name!r}")

    items: list = []
    for _lineno, name, relpath, refs in records:
        path = os.path.join(root, relpath)
        problem = parse_problem_file(path)
        try:
            af = problem.by_name(name)
        except KeyError:
            raise CorpusError(f"{path}: no formula named {name!r}") from None
        role = "conjecture" if af.role == "conjecture" else "axiom"
        items.append(CorpusItem(name, role, af.formula, tuple(refs)))
    check_arities([item.as_axiom() for item in items])
    return Corpus(items)


def load_split(path: str, corpus: Corpus) -> tuple:
    """Read a train/test split file: lines `train <name>` / `test <name>`.

    The two sides must be disjoint and name only corpus theorems.
    """
    train: list = []
    test: list = []
    roles = {item.name: item.role for item in corpus.items}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            side, _, name = line.partition(" ")
            name = name.strip()
            if side not in ("train", "test") or not name:
                raise CorpusError(f"{path}:{lineno}: expected `train <name>` or `test <name>`")
            if name not in roles:
                raise CorpusError(f"{path}:{lineno}: unknown item {name!r}")
            if roles[name] != "conjecture":
                raise CorpusError(f"{path}:{lineno}: {name!r} is not a theorem")
            (train if side == "train" else test).append(name)
    overlap = set(train) & set(test)
    if overlap:
        raise CorpusError(f"train/test overlap: {', '.join(sorted(overlap))}")
    return train, test


def write_manifest(root: str, records) -> None:
    """records: iterable of (name, relpath, refs)."""
    with open(os.path.join(root, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        for name, relpath, refs in records:
            fh.write(" ".join([name, relpath] + list(refs)) + "\n")
