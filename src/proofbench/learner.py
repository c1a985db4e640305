"""Naive-Bayes premise relevance: counters in, log-odds ranking out.

Each premise is an independent binary label (one-vs-rest).  Training on a
proof adds the conjecture's feature weights to the counters of every
premise the proof used.  Ranking scores a candidate c for query features
w as

    log((label[c]+s)/(total+s)) + sum_f w_f * log((cooc[c,f]+s)/(label[c]+2s))

with additive smoothing s (default 0.05), summing only over query
features seen in training; candidates never seen in training keep just
the prior term.  Ties break by candidate input order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

SIGMA_DEFAULT = 0.05


@dataclass
class BayesModel:
    label_count: dict = field(default_factory=dict)       # name -> weight
    cooccurrence: dict = field(default_factory=dict)      # (name, fid) -> weight
    feature_totals: dict = field(default_factory=dict)    # fid -> weight
    total_examples: float = 0.0
    sigma: float = SIGMA_DEFAULT

    def snapshot_id(self) -> tuple:
        return (int(self.total_examples * 1000), len(self.label_count),
                len(self.cooccurrence))


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


def score(model: BayesModel, features: dict, candidate: str) -> float:
    s = model.sigma
    label = model.label_count.get(candidate, 0.0)
    prior = math.log((label + s) / (model.total_examples + s))
    if label == 0.0:
        return prior
    total = prior
    for fid, w in features.items():
        if fid not in model.feature_totals:
            continue
        co = model.cooccurrence.get((candidate, fid), 0.0)
        total += w * math.log((co + s) / (label + 2.0 * s))
    return total


def rank_premises(model: BayesModel, features: dict, candidates) -> list:
    """(name, score) pairs, best first; input order breaks ties."""
    s, labels = model.sigma, model.label_count
    unlabeled = math.log(s / (model.total_examples + s))  # `score` of an unused name
    scored = [(name, score(model, features, name) if name in labels else unlabeled)
              for name in candidates]
    order = sorted(range(len(scored)), key=lambda i: (-scored[i][1], i))
    return [scored[i] for i in order]


# ---------------------------------------------------------------------------
# Checkpoint file: the learner a run ends with


def save_model(model: BayesModel, path: str) -> None:
    cooc: dict = {}
    for (name, fid), w in model.cooccurrence.items():
        cooc.setdefault(name, {})[fid] = w
    blob = {
        "version": 1,
        "sigma": model.sigma,
        "binarize": False,      # checkpoint format version 1 keeps this key
        "total_examples": model.total_examples,
        "label_count": model.label_count,
        "feature_totals": model.feature_totals,
        "cooccurrence": cooc,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, sort_keys=True, indent=0)

