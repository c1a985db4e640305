"""Prover-advisor channel: clause-choice guidance at search choice points.

The prover hands the advisor the branch's symbol names (path literals and
open goal, as a stream read only if the consult goes ahead), the depth
and candidate clause ids; the advisor answers with a permutation of the
candidates ranked by a naive-Bayes model over (branch symbols -> clause
origin); over a model with no examples it answers None, and the search
runs as without an advisor.  Querying a learner is orders of magnitude
slower than a tableau extension step, so a throttle restricts
consultation to shallow, branchy choice points, and advice is memoized
per model snapshot.

Learning is from proofs, as in MaLeCoP: when a search returns a proof,
the prover reports the clause chosen at each of the proof's advised
choice points, and each becomes a training record (branch symbols ->
chosen clause's origin).  A search that finds no proof reports nothing.
Records are flushed to a learner only between proof attempts, never
mid-search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .features import branch_features
from .learner import BayesModel, score, train_incremental

CONSULT_MAX_DEPTH = 3
MIN_CANDIDATES = 3


class StateQuery(NamedTuple):
    branch_symbols: tuple      # sorted (feature id, weight) pairs


@dataclass(frozen=True)
class Advice:
    ranking: tuple             # (clause_id, score) pairs, best first


class TrainingRecord(NamedTuple):
    query: StateQuery
    chosen: str


def throttle_policy(depth: int, n_candidates: int) -> bool:
    """Consult only at shallow, branchy choice points."""
    return depth <= CONSULT_MAX_DEPTH and n_candidates >= MIN_CANDIDATES


def advise(model: BayesModel, query: StateQuery, candidates,
           origins: dict) -> Advice:
    """Permutation of candidates by learner score of their origin label;
    candidates with no evidence keep input order (stable sorting)."""
    feats = dict(query.branch_symbols)
    scored = [(cid, score(model, feats, origins.get(cid, cid)))
              for cid in candidates]
    order = sorted(range(len(scored)), key=lambda i: (-scored[i][1], i))
    return Advice(tuple(scored[i] for i in order))


class Advisor:
    """In-process advisor implementing the prover's consultation hook.

    Holds an immutable model snapshot for the duration of a search; the
    orchestrator builds a new advisor for each attempt.  Exceptions
    raised here are caught by the prover, which then falls back to input
    order.  Over a model with no examples it gives no advice but still
    records what the proof teaches.
    """

    def __init__(self, model: BayesModel):
        self.model = model
        self.origins: dict = {}
        self.buffer: list = []      # at most one record per proof step
        self._cache: dict = {}
        self._model_mark = self.model.snapshot_id()

    def register_clauses(self, clauses) -> None:
        for c in clauses:
            self.origins[c.clause_id] = c.origin

    # -- prover protocol ----------------------------------------------------

    def consult(self, symbols, depth, candidate_ids):
        """`symbols` yields the symbol names of the branch, open goal
        included; it is read only if the throttle lets the consult through."""
        if not throttle_policy(depth, len(candidate_ids)):
            return None, None
        # mid-search training would invalidate snapshot purity; the
        # prover counts the error and keeps input order
        if self._model_mark != self.model.snapshot_id():
            raise RuntimeError("learner changed during search")
        feats = tuple(sorted(branch_features(symbols).items()))
        query = StateQuery(feats)
        if self.model.total_examples == 0:
            return None, query
        key = (feats, tuple(candidate_ids))
        order = self._cache.get(key)
        if order is None:
            adv = advise(self.model, query, candidate_ids, self.origins)
            order = [cid for cid, _s in adv.ranking]
            self._cache[key] = order
        return list(order), query

    def outcome(self, token, clause_id) -> None:
        """The returned proof took `clause_id` at the advised choice point
        whose consult answered `token`."""
        self.buffer.append(TrainingRecord(token, clause_id))

    # -- training ------------------------------------------------------------

    def flush_to(self, model: BayesModel) -> int:
        """Train one example per buffered record; returns examples trained."""
        trained = len(self.buffer)
        for rec in self.buffer:
            label = self.origins.get(rec.chosen, rec.chosen)
            train_incremental(model, dict(rec.query.branch_symbols), {label})
        self.buffer.clear()
        return trained


# ---------------------------------------------------------------------------
# Guided-vs-unguided measurement


@dataclass
class SpeedupRow:
    problem_id: str
    unguided_inferences: int
    guided_inferences: int
    ratio: float | None        # unguided / guided; None unless both solved


def measure_speedup(problems, limits, train_count: int | None = None,
                    training_enabled: bool = True) -> dict:
    """Per-problem inference counts unguided vs guided, plus geometric mean.

    `problems` is an ordered list of (problem_id, ClauseSet).  Phase one
    runs every problem unguided; the first `train_count` problems run
    with an advisor over an empty model, which gives no advice, and their
    proofs train the guidance model.  Phase two reruns everything guided.
    The independent checker replays every proof of both phases.  With
    training disabled the guidance model stays empty, so every ratio is
    exactly 1.0.
    """
    from .loop import prove_checked
    from .models import DEFAULT_MAX_DOMAIN
    from .prover import PROVED

    if train_count is None:
        train_count = len(problems) // 2

    guide_model = BayesModel()
    unguided: dict = {}
    for idx, (pid, cs) in enumerate(problems):
        recorder = None
        if training_enabled and idx < train_count:
            recorder = Advisor(BayesModel())
            recorder.register_clauses(cs.clauses)
        unguided[pid] = prove_checked(cs, limits, DEFAULT_MAX_DOMAIN, pid,
                                      advisor=recorder)
        if recorder is not None:
            recorder.flush_to(guide_model)

    rows = []
    ratios = []
    for pid, cs in problems:
        advisor = Advisor(guide_model)
        advisor.register_clauses(cs.clauses)
        res = prove_checked(cs, limits, DEFAULT_MAX_DOMAIN, pid, advisor=advisor)
        u = unguided[pid]
        both = u.status == PROVED and res.status == PROVED
        ratio = (u.stats.inferences / res.stats.inferences) if both else None
        rows.append(SpeedupRow(pid, u.stats.inferences, res.stats.inferences, ratio))
        if ratio is not None:
            ratios.append(ratio)
    gmean = math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else None
    return {
        "rows": rows,
        "geometric_mean_ratio": gmean,
        "solved_both": len(ratios),
        "trained_examples": guide_model.total_examples,
    }
