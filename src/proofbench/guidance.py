"""Prover-advisor channel: clause-choice guidance at search choice points.

The prover hands the advisor a proof-state description (branch literals,
goal, depth) and candidate clause ids; the advisor answers with a
permutation of the candidates ranked by a naive-Bayes model over
(branch symbols -> clause origin).  Querying a learner is orders of
magnitude slower than a tableau extension step, so a throttle restricts
consultation to shallow, branchy choice points, and advice is memoized
per model snapshot.

Choices and their eventual outcomes (subtree closed or failed) are
buffered as training records and flushed to a learner only between proof
attempts, never mid-search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .features import branch_features
from .learner import BayesModel, score, train_incremental

CONSULT_MAX_DEPTH_DEFAULT = 3
MIN_CANDIDATES_DEFAULT = 3
BUFFER_CAPACITY_DEFAULT = 100000

ON_CLOSED_BRANCH = "on_closed_branch"
ON_FAILED_BRANCH = "on_failed_branch"


@dataclass(frozen=True)
class StateQuery:
    branch_symbols: tuple      # sorted (feature id, weight) pairs
    goal: str
    depth: int
    problem_id: str


@dataclass(frozen=True)
class Advice:
    ranking: tuple             # (clause_id, score) pairs, best first
    advice_id: int


@dataclass(frozen=True)
class TrainingRecord:
    query: StateQuery
    chosen: str
    outcome: str


@dataclass
class GuidanceConfig:
    consult_max_depth: int = CONSULT_MAX_DEPTH_DEFAULT
    min_candidates: int = MIN_CANDIDATES_DEFAULT
    record_only: bool = False         # capture training data, give no advice
    train_on_failures: bool = False   # negative examples off by default
    buffer_capacity: int = BUFFER_CAPACITY_DEFAULT


def throttle_policy(depth: int, n_candidates: int,
                    config: GuidanceConfig | None = None) -> bool:
    """Consult only at shallow, branchy choice points."""
    config = config or GuidanceConfig()
    return depth <= config.consult_max_depth and n_candidates >= config.min_candidates


def advise(model: BayesModel, query: StateQuery, candidates,
           origins: dict, advice_id: int = 0) -> Advice:
    """Permutation of candidates by learner score of their origin label.

    An empty model (or candidates with no evidence) falls back to input
    order via stable sorting.
    """
    feats = dict(query.branch_symbols)
    if model.total_examples == 0:
        ranking = tuple((cid, 0.0) for cid in candidates)
        return Advice(ranking, advice_id)
    scored = [(cid, score(model, feats, origins.get(cid, cid)))
              for cid in candidates]
    order = sorted(range(len(scored)), key=lambda i: (-scored[i][1], i))
    return Advice(tuple(scored[i] for i in order), advice_id)


class Advisor:
    """In-process advisor implementing the prover's consultation hook.

    Holds an immutable model snapshot for the duration of a search; the
    orchestrator swaps snapshots between attempts.  Exceptions raised
    here are caught by the prover, which then falls back to input order.
    """

    def __init__(self, model: BayesModel | None = None,
                 origins: dict | None = None,
                 config: GuidanceConfig | None = None):
        self.model = model if model is not None else BayesModel()
        self.origins = origins or {}
        self.config = config or GuidanceConfig()
        self.buffer: list = []
        self.dropped = 0
        self.choice_log: list = []    # (depth, n_candidates, consulted)
        self._advice_counter = 0
        self._cache: dict = {}
        self._model_mark = self.model.snapshot_id()

    def register_clauses(self, clauses) -> None:
        for c in clauses:
            self.origins[c.clause_id] = c.origin

    # -- prover protocol ----------------------------------------------------

    def consult(self, branch, goal, depth, candidate_ids, problem_id):
        consulted = throttle_policy(depth, len(candidate_ids), self.config)
        self.choice_log.append((depth, len(candidate_ids), consulted))
        if not consulted:
            return None, None
        # mid-search training would invalidate snapshot purity
        assert self._model_mark == self.model.snapshot_id(), \
            "learner changed during search"
        # the open goal is the tip of the branch; include its symbols
        feats = tuple(sorted(branch_features(list(branch) + [goal]).items()))
        from .parser import print_literal
        query = StateQuery(feats, print_literal(goal), depth, problem_id)
        if self.config.record_only:
            return None, query
        key = (self._model_mark, feats, tuple(candidate_ids))
        order = self._cache.get(key)
        if order is None:
            self._advice_counter += 1
            adv = advise(self.model, query, candidate_ids, self.origins,
                         self._advice_counter)
            order = [cid for cid, _s in adv.ranking]
            self._cache[key] = order
        return list(order), query

    def outcome(self, token, clause_id, closed: bool) -> None:
        self.record(token, clause_id,
                    ON_CLOSED_BRANCH if closed else ON_FAILED_BRANCH)

    # -- training capture ----------------------------------------------------

    def record(self, query: StateQuery, chosen: str, outcome: str) -> None:
        if len(self.buffer) >= self.config.buffer_capacity:
            self.buffer.pop(0)
            self.dropped += 1
        self.buffer.append(TrainingRecord(query, chosen, outcome))

    def flush_to(self, model: BayesModel) -> int:
        """Train one example per positive record; returns examples trained."""
        trained = 0
        for rec in self.buffer:
            if rec.outcome == ON_CLOSED_BRANCH or (
                    self.config.train_on_failures and rec.outcome == ON_FAILED_BRANCH):
                label = self.origins.get(rec.chosen, rec.chosen)
                train_incremental(model, dict(rec.query.branch_symbols), {label})
                trained += 1
        self.buffer.clear()
        return trained

    def refresh_snapshot(self, model: BayesModel | None = None) -> None:
        if model is not None:
            self.model = model
        self._model_mark = self.model.snapshot_id()
        self._cache.clear()


# ---------------------------------------------------------------------------
# Guided-vs-unguided measurement


@dataclass
class SpeedupRow:
    problem_id: str
    unguided_inferences: int
    guided_inferences: int
    ratio: float | None        # unguided / guided; None unless both solved


def measure_speedup(problems, limits, train_count: int | None = None,
                    training_enabled: bool = True,
                    config: GuidanceConfig | None = None) -> dict:
    """Per-problem inference counts unguided vs guided, plus geometric mean.

    `problems` is an ordered list of (problem_id, ClauseSet).  Phase one
    runs every problem with a record-only advisor (search order identical
    to no advisor at all); records from the first `train_count` problems
    train the guidance model.  Phase two reruns everything guided.  With
    training disabled the guidance model stays empty and advice degrades
    to input order, so every ratio is exactly 1.0.
    """
    from .prover import PROVED, prove

    config = config or GuidanceConfig()
    if train_count is None:
        train_count = len(problems) // 2

    guide_model = BayesModel()
    unguided: dict = {}
    for idx, (pid, cs) in enumerate(problems):
        rec_cfg = GuidanceConfig(config.consult_max_depth, config.min_candidates,
                                 record_only=True,
                                 train_on_failures=config.train_on_failures)
        recorder = Advisor(BayesModel(), config=rec_cfg)
        recorder.register_clauses(cs.clauses)
        res = prove(cs, limits, advisor=recorder, problem_id=pid)
        unguided[pid] = res
        if training_enabled and idx < train_count and res.status == PROVED:
            recorder.flush_to(guide_model)

    rows = []
    ratios = []
    for pid, cs in problems:
        advisor = Advisor(guide_model, config=config)
        advisor.register_clauses(cs.clauses)
        res = prove(cs, limits, advisor=advisor, problem_id=pid)
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
