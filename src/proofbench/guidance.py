"""Prover-advisor channel: clause-choice guidance at search choice points.

The prover hands the advisor the branch's symbol names (path literals and
open goal, as a stream read only if the consult goes ahead), the depth
and candidate clause ids; the advisor answers with a permutation of the
candidates ranked by a naive-Bayes model over (branch symbols -> clause
origin); over a model with no examples it answers None, and the search
runs as without an advisor.  Querying a learner is orders of magnitude
slower than a tableau extension step, so a throttle restricts
consultation to shallow, branchy choice points, advice is memoized per
model snapshot, and scores come from the snapshot's score table
(`learner.score_table`), the one scorer that premise ranking reads too.

Every value on the channel is plain: a consult's token is the branch's
sorted (feature id, weight) pairs, and `advise` returns (clause id,
score) pairs, best first.  The advisor knows each clause's origin from
the clause set it is built over.

Learning is from proofs, as in MaLeCoP: when a search returns a proof,
the prover reports the clause chosen at each of the proof's advised
choice points, and each (token, chosen clause id) pair is buffered as a
training record (branch symbols -> chosen clause's origin).  A search
that finds no proof reports nothing.  Records are flushed to a learner
only between proof attempts, never mid-search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .features import branch_features
from .learner import BayesModel, score_table, train_incremental

CONSULT_MAX_DEPTH = 3
MIN_CANDIDATES = 3


def throttle_policy(depth: int, n_candidates: int) -> bool:
    """Consult only at shallow, branchy choice points."""
    return depth <= CONSULT_MAX_DEPTH and n_candidates >= MIN_CANDIDATES


def advise(model: BayesModel, query: tuple, candidates, origins: dict) -> list:
    """The (clause id, score) pairs of the candidates, best first, each
    scored by its origin label against `query`, the branch's sorted
    (feature id, weight) pairs; candidates with no evidence keep input
    order (stable sorting).  Scores come from the score table of the
    model's snapshot, as `learner.rank_premises`'s do."""
    table = score_table(model)
    scored = [(cid, table.score(query, origins.get(cid, cid)))
              for cid in candidates]
    return sorted(scored, key=itemgetter(1), reverse=True)  # ties keep input order


class Advisor:
    """In-process advisor implementing the prover's consultation hook.

    Holds an immutable model snapshot for the duration of a search; the
    orchestrator builds a new advisor for each attempt.  Exceptions
    raised here are caught by the prover, which then falls back to input
    order.  Over a model with no examples it gives no advice but still
    records what the proof teaches.
    """

    def __init__(self, model: BayesModel, clauses):
        self.model = model
        self.origins = {c.clause_id: c.origin for c in clauses}
        self.buffer: list = []      # (query, clause id), at most one per proof step
        self._cache: dict = {}
        self._model_mark = self.model.snapshot_id()

    # -- prover protocol ----------------------------------------------------

    def consult(self, symbols, depth, candidate_ids):
        """`symbols` yields the symbol names of the branch, open goal
        included; it is read only if the throttle lets the consult through.
        The order returned is the advisor's cached tuple: the prover only
        reads it."""
        if not throttle_policy(depth, len(candidate_ids)):
            return None, None
        # mid-search training would invalidate snapshot purity; the
        # prover counts the error and keeps input order
        if self._model_mark != self.model.snapshot_id():
            raise RuntimeError("learner changed during search")
        query = tuple(sorted(branch_features(symbols).items()))
        if self.model.total_examples == 0:
            return None, query
        key = (query, tuple(candidate_ids))
        order = self._cache.get(key)
        if order is None:
            ranking = advise(self.model, query, candidate_ids, self.origins)
            order = self._cache[key] = tuple([cid for cid, _s in ranking])
        return order, query

    def outcome(self, token, clause_id) -> None:
        """The returned proof took `clause_id` at the advised choice point
        whose consult answered `token`."""
        self.buffer.append((token, clause_id))

    # -- training ------------------------------------------------------------

    def flush_to(self, model: BayesModel) -> int:
        """Train one example per buffered record; returns examples trained."""
        trained = len(self.buffer)
        for query, chosen in self.buffer:
            train_incremental(model, dict(query),
                              {self.origins.get(chosen, chosen)})
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


def measure_speedup(problems, limits, train_count: int | None = None) -> dict:
    """Per-problem inference counts unguided vs guided, plus geometric mean.

    `problems` is an ordered list of (problem_id, ClauseSet).  Phase one
    runs every problem unguided; the first `train_count` problems (default
    half) run with an advisor over an empty model, which gives no advice,
    and their proofs train the guidance model.  Phase two reruns
    everything guided.  The independent checker replays every proof of
    both phases.  With `train_count` 0 the guidance model stays empty, so
    every ratio is exactly 1.0.
    """
    from .loop import prove_checked
    from .models import DEFAULT_MAX_DOMAIN
    from .prover import PROVED

    if train_count is None:
        train_count = len(problems) // 2

    guide_model = BayesModel()
    unguided: dict = {}
    for idx, (pid, cs) in enumerate(problems):
        recorder = Advisor(BayesModel(), cs.clauses) if idx < train_count else None
        unguided[pid] = prove_checked(cs, limits, DEFAULT_MAX_DOMAIN, pid,
                                      advisor=recorder)
        if recorder is not None:
            recorder.flush_to(guide_model)

    rows = []
    ratios = []
    for pid, cs in problems:
        res = prove_checked(cs, limits, DEFAULT_MAX_DOMAIN, pid,
                            advisor=Advisor(guide_model, cs.clauses))
        u = unguided[pid]
        both = u.status == PROVED and res.status == PROVED
        ratio = (u.stats.inferences / res.stats.inferences) if both else None
        rows.append(SpeedupRow(pid, u.stats.inferences, res.stats.inferences, ratio))
        if ratio is not None:
            ratios.append(ratio)
    gmean = math.exp(math.fsum(math.log(r) for r in ratios) / len(ratios)) if ratios else None
    return {
        "rows": rows,
        "geometric_mean_ratio": gmean,
        "solved_both": len(ratios),
        "trained_examples": guide_model.total_examples,
    }
