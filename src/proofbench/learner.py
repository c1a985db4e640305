"""Naive-Bayes premise relevance: counters in, log-odds ranking out.

Each premise is an independent binary label (one-vs-rest).  Training on a
proof adds the conjecture's feature weights to the counters of every
premise the proof used.  Ranking scores a candidate c for query features
w as

    log((label[c]+s)/(total+s)) + sum_f w_f * log((cooc[c,f]+s)/(label[c]+2s))

with additive smoothing s = `SIGMA`, summing only over query features
seen in training; candidates never seen in training keep just the prior
term.  Ties break by candidate input order.

`ScoreTable` is the one scorer: premise ranking here and clause advice in
`guidance` both read the table of the model's current snapshot, which
stores each term the first time a query asks for it, as FEMaLeCoP sums
precomputed terms.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import itemgetter

SIGMA = 0.05


@dataclass
class BayesModel:
    label_count: dict = field(default_factory=dict)       # name -> weight
    cooccurrence: dict = field(default_factory=dict)      # (name, fid) -> weight
    feature_totals: dict = field(default_factory=dict)    # fid -> weight
    total_examples: float = 0.0
    # the score table of the current snapshot, built by `score_table`
    table: ScoreTable | None = field(default=None, repr=False, compare=False)

    def snapshot_id(self) -> tuple:
        return (int(self.total_examples * 1000), len(self.label_count),
                len(self.cooccurrence))


class ScoreTable:
    """The scores of one model snapshot, filled lazily: a label's prior on
    its first use, and a (label, feature) log term on the first query that
    asks for it.  A name with no label scores the snapshot's one shared
    prior and stores nothing; a query feature the model never trained on
    is skipped and not stored.  `score` sums the query's terms in the
    query's order with the float operations of the module's formula (a
    co-occurrence never met counts 0.0), so a score does not depend on
    what earlier queries filled."""

    def __init__(self, model: BayesModel):
        self.mark = model.snapshot_id()
        self.model = model
        self.unlabeled = math.log(SIGMA / (model.total_examples + SIGMA))
        self.labels: dict = {}      # name -> (prior, label + 2s, {feature id: term})

    def score(self, query, name: str) -> float:
        """The score of `name` for `query`, (feature id, weight) pairs with
        distinct ids."""
        entry = self.labels.get(name)
        if entry is None:
            model = self.model
            label = model.label_count.get(name)
            if not label:
                return self.unlabeled
            entry = self.labels[name] = (
                math.log((label + SIGMA) / (model.total_examples + SIGMA)),
                label + 2.0 * SIGMA, {})
        total, denom, terms = entry
        for fid, w in query:
            term = terms.get(fid)
            if term is None:
                model = self.model
                if fid not in model.feature_totals:
                    continue
                co = model.cooccurrence.get((name, fid), 0.0)
                term = terms[fid] = math.log((co + SIGMA) / denom)
            total += w * term
        return total


def score_table(model: BayesModel) -> ScoreTable:
    """The score table of the model's current snapshot, built on the first
    call after a change."""
    table = model.table
    if table is None or table.mark != model.snapshot_id():
        table = model.table = ScoreTable(model)
    return table


def train_incremental(model: BayesModel, features: dict, used_premises) -> BayesModel:
    """Add one (conjecture features, premises used) example; returns model."""
    model.total_examples += 1.0
    for fid, w in features.items():
        model.feature_totals[fid] = model.feature_totals.get(fid, 0.0) + w
    for name in used_premises:
        model.label_count[name] = model.label_count.get(name, 0.0) + 1.0
        for fid, w in features.items():
            key = (name, fid)
            model.cooccurrence[key] = model.cooccurrence.get(key, 0.0) + w
    return model


def rank_premises(model: BayesModel, features: dict, candidates) -> list:
    """(name, score) pairs, best first; input order breaks ties."""
    score, query = score_table(model).score, tuple(features.items())
    return sorted(((name, score(query, name)) for name in candidates),
                  key=itemgetter(1), reverse=True)


# ---------------------------------------------------------------------------
# Checkpoint file: the learner a run ends with


def save_model(model: BayesModel, path: str) -> None:
    cooc: dict = {}
    for (name, fid), w in model.cooccurrence.items():
        cooc.setdefault(name, {})[fid] = w
    blob = {
        "version": 1,
        "sigma": SIGMA,
        "binarize": False,      # checkpoint format version 1 keeps this key
        "total_examples": model.total_examples,
        "label_count": model.label_count,
        "feature_totals": model.feature_totals,
        "cooccurrence": cooc,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, sort_keys=True, indent=0)

