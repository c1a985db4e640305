"""The attempt pipeline every experiment mode shares, and the closed
inductive-deductive loop over an ordered corpus.

One attempt proves a pruned problem, has the independent checker replay
any proof, names the given premises the proof used, stores the proof or
countermodel and yields one `Attempt` record.  `walk_ladder` schedules
attempts breadth-first over the axiom-count ladder: every pending item
is tried at the smallest rung before anything escalates, which is how a
shared budget is spread in a batch setting.  The caller supplies what
differs between modes: how premises are ranked and picked, and how the
problem is built from them.

The library loop (`run_loop`) walks the ladder once per iteration.  Each
iteration retrains the premise learner on every stored proof and
refreshes semantic features against the current model store.
Counter-satisfiable pruned attempts contribute their countermodel as a
new semantic feature column (a pruned problem being satisfiable says
nothing about the theorem, so the item stays unsolved).  Iterations stop
at the first one that solves nothing new, at the iteration cap, or when
the shared inference budget runs out.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .checker import check_proof
from .clausify import (
    ClauseSet, clause_signature, cnf, equality_axioms, uses_equality,
)
from .corpus import Corpus
from .features import (
    combine, semantic_features, structural_features, symbol_features,
    write_feature_cache,
)
from .guidance import Advisor
from .learner import BayesModel, rank_premises, save_model, train_incremental
from .models import ModelStore
from .prover import COUNTER_SATISFIABLE, Limits, PROVED, prove


class LoopInvariantError(Exception):
    """A stored artifact failed an internal soundness gate."""


@dataclass(frozen=True)
class LoopConfig:
    axiom_ladder: tuple = (4, 8, 16, 32, 64, 128)
    attempt_budgets: tuple = (2000,)      # per-rung; last entry repeats
    max_depth: int = 10
    total_inference_budget: int | None = None
    time_budget: float | None = None      # wall-clock mode, benchmarking only
    max_iterations: int = 10
    model_max_domain: int = 3
    semantic: bool = True
    guidance: bool = False
    learning: bool = True                 # False: chronological-recency baseline
    definitional_threshold: int = 64
    sigma: float = 0.05
    str_depth: int = 2

    def __post_init__(self):
        for name in ("axiom_ladder", "attempt_budgets"):
            ladder = getattr(self, name)
            if not ladder:
                raise ValueError(f"{name} must be non-empty")
            if list(ladder) != sorted(set(ladder)):
                raise ValueError(f"{name} must be strictly increasing")


@dataclass
class SolvedItem:
    proof: object
    premises_given: tuple
    premises_used: tuple      # the given premises the proof used
    iteration: int


@dataclass
class Attempt:
    """One prover call: where it sat in the run and what came of it.

    This is the one `results.jsonl` record.  `rung` is the axiom-count
    cap (reprove: the reference premise count); artifact paths are
    relative to the top-level run directory, "" when nothing was stored.
    """
    config: str
    iteration: int
    item: str
    rung: int
    budget: int
    premises_given: tuple
    status: str = ""
    inferences: int = 0
    premises_used: tuple = ()
    proof_file: str = ""
    model_file: str = ""

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


@dataclass
class LoopState:
    solved: dict = field(default_factory=dict)    # name -> SolvedItem
    store: ModelStore = field(default_factory=ModelStore)
    model: BayesModel = field(default_factory=BayesModel)
    guide_model: BayesModel = field(default_factory=BayesModel)
    attempts: list = field(default_factory=list)
    iterations_run: int = 0
    inferences_used: int = 0
    stopped_because: str = ""


def item_features(item, config: LoopConfig, store: ModelStore) -> dict:
    vec = combine(symbol_features(item.formula),
                  structural_features(item.formula, config.str_depth))
    if config.semantic and len(store):
        vec = combine(vec, semantic_features(item.formula, store))
    return vec


def jaccard_overlap(a: dict, b: dict) -> float:
    sa = {f for f in a if f.startswith("SYM:")}
    sb = {f for f in b if f.startswith("SYM:")}
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def rank_eligible(item, eligible, state: LoopState, config: LoopConfig,
                  feature_cache: dict) -> list:
    """Premise names for `item`, most relevant first."""
    names = [p.name for p in eligible]
    if not config.learning:
        return list(reversed(names))      # chronological recency
    if state.model.total_examples == 0:
        # cold start: symbol-overlap ranking, ties by recency
        query = feature_cache[item.name]
        scored = [(jaccard_overlap(query, feature_cache[n]), i)
                  for i, n in enumerate(names)]
        order = sorted(range(len(names)),
                       key=lambda i: (-scored[i][0], -scored[i][1]))
        return [names[i] for i in order]
    ranking = rank_premises(state.model, feature_cache[item.name], names)
    return [n for n, _s in ranking]


class ClausalCache:
    """Per-run cache of clausal forms; canonical naming keeps reuse exact."""

    def __init__(self, threshold: int):
        self.threshold = threshold
        self.forms: dict = {}        # (name, negated) -> clausal form
        self.uses_eq: dict = {}

    def form(self, item, negate: bool = False):
        key = (item.name, negate)
        if key not in self.forms:
            self.forms[key] = cnf(item.formula, name=item.name,
                                  threshold=self.threshold, negate=negate)
            self.uses_eq[item.name] = uses_equality(item.formula)
        return self.forms[key]


def assemble_problem(item, premise_items, clausifier: ClausalCache) -> ClauseSet:
    forms = {p.name: clausifier.form(p) for p in premise_items}
    forms[item.name] = neg = clausifier.form(item, negate=True)
    clauses = [c for form in forms.values() for c in form.clauses]
    if any(clausifier.uses_eq[name] for name in forms):
        clauses.extend(equality_axioms(clause_signature(clauses)))
    return ClauseSet(tuple(clauses), frozenset(c.clause_id for c in neg.clauses),
                     forms)


def corpus_problems(corpus: Corpus, threshold: int):
    """Problem builder for corpus items: the chosen premises in corpus
    order, then the negated item, with clausal forms cached for the run.
    Entries are (corpus index, item) pairs."""
    clausifier = ClausalCache(threshold)
    position = {item.name: i for i, item in enumerate(corpus.items)}

    def build(_name, entry, chosen) -> ClauseSet:
        premises = [corpus.items[i] for i in sorted(position[n] for n in chosen)]
        return assemble_problem(entry[1], premises, clausifier)
    return build


# ---------------------------------------------------------------------------
# The attempt pipeline


def prove_checked(cs: ClauseSet, limits: Limits, model_max_domain: int,
                  problem_id: str, advisor=None):
    """Prove, and have the independent checker replay any proof found."""
    res = prove(cs, limits, advisor=advisor, model_max_domain=model_max_domain,
                problem_id=problem_id)
    if res.status == PROVED and not check_proof(res.proof, cs):
        raise LoopInvariantError(
            f"proof for {problem_id} failed independent checking")
    return res


def attempt(record: Attempt, cs: ClauseSet | None = None,
            limits: Limits | None = None, *, model_max_domain: int = 3,
            advisor=None, writer=None, keep_model=None, result=None):
    """Complete `record`, which arrives with the attempt's coordinates.

    Proves `cs` within `limits`, unless `result` already holds a proved
    and checked outcome.  Names the given premises the proof used.  The
    proof, and a countermodel when `keep_model(model, record)` is true,
    are stored through `writer`, which also gets the record; without a
    writer the record stays in memory.  Returns the prover's result.
    """
    res = result if result is not None else prove_checked(
        cs, limits, model_max_domain, record.item, advisor)
    record.status = res.status
    record.inferences = res.stats.inferences
    if res.status == PROVED:
        # the checker ties used_premises to the clause set's origins
        record.premises_used = tuple(sorted(
            set(res.proof.used_premises) & set(record.premises_given)))
        if writer is not None:
            record.proof_file = writer.store_proof(record.item, res.proof,
                                                   record.premises_given)
    elif (res.status == COUNTER_SATISFIABLE and res.model is not None
          and keep_model is not None and keep_model(res.model, record)):
        if writer is not None:
            record.model_file = writer.store_model(res.model)
    if writer is not None:
        writer.write(record)
    return res


def walk_ladder(entries, config: LoopConfig, select, build, records: list,
                solved: dict, *, name: str, iteration: int = 1,
                budget_left: int | None = None, writer=None, keep_model=None,
                guide_model: BayesModel | None = None, on_proved=None) -> tuple:
    """Attempt every entry not yet in `solved`, breadth-first over the
    axiom-count ladder: each at the smallest rung before any escalates.

    `entries` are (name, entry) pairs in attempt order.  The caller's
    policy is `select(name, entry, k)`, the premise names given at rung
    k, called once per attempt, and `build(name, entry, chosen)`, the
    clause set to prove.  Records under config `name` are appended to
    `records`; proved entries join `solved`, and `on_proved(name,
    record)` learns from them.  With `guide_model`, an advisor consults
    it during each search and gives back what it saw.  Stops when the
    shared `budget_left` runs out; returns (inferences spent, whether it
    ran out).
    """
    spent = 0
    for rung_idx, k in enumerate(config.axiom_ladder):
        budget = config.attempt_budgets[min(rung_idx,
                                            len(config.attempt_budgets) - 1)]
        for key, entry in entries:
            if key in solved:
                continue
            limit = budget
            if budget_left is not None:
                if budget_left - spent <= 0:
                    return spent, True
                limit = min(budget, budget_left - spent)
            chosen = select(key, entry, k)
            cs = build(key, entry, chosen)
            advisor = None
            if guide_model is not None:
                advisor = Advisor(guide_model)
                advisor.register_clauses(cs.clauses)
            record = Attempt(name, iteration, key, k, limit, chosen)
            res = attempt(record, cs,
                          Limits(time_budget=config.time_budget,
                                 inference_budget=limit,
                                 max_depth=config.max_depth),
                          model_max_domain=config.model_max_domain,
                          advisor=advisor, writer=writer, keep_model=keep_model)
            if advisor is not None:
                advisor.flush_to(guide_model)
            spent += record.inferences
            records.append(record)
            if res.status == PROVED:
                solved[key] = SolvedItem(res.proof, chosen,
                                         record.premises_used, iteration)
                if on_proved is not None:
                    on_proved(key, record)
    return spent, False


def run_loop(corpus: Corpus, config: LoopConfig, writer=None,
             name: str = "learning") -> LoopState:
    """The library loop; records go to `writer` under config `name`."""
    state = LoopState(model=BayesModel(sigma=config.sigma),
                      guide_model=BayesModel(sigma=config.sigma))
    build = corpus_problems(corpus, config.definitional_threshold)
    theorems = corpus.theorems()
    entries = [(item.name, (i, item)) for i, item in theorems]

    def keep_model(model, record) -> bool:
        model.provenance = f"{record.item}@it{record.iteration}k{record.rung}"
        return state.store.add(model) is not None

    while state.iterations_run < config.max_iterations:
        iteration = state.iterations_run + 1

        # (1) retrain the relevance learner on all stored proofs
        model = BayesModel(sigma=config.sigma)
        feature_cache = {item.name: item_features(item, config, state.store)
                         for item in corpus.items}
        for _i, item in theorems:
            if item.name in state.solved:
                train_incremental(model, feature_cache[item.name],
                                  state.solved[item.name].premises_used)
        state.model = model

        def select(_name, entry, k) -> tuple:
            i, item = entry
            return tuple(rank_eligible(item, corpus.eligible(i), state, config,
                                       feature_cache)[:k])

        # (2) walk the ladder with what was learned
        solved_before = len(state.solved)
        budget_left = None
        if config.total_inference_budget is not None:
            budget_left = config.total_inference_budget - state.inferences_used
        spent, budget_out = walk_ladder(
            entries, config, select, build, state.attempts, state.solved,
            name=name, iteration=iteration, budget_left=budget_left,
            writer=writer, keep_model=keep_model,
            guide_model=state.guide_model if config.guidance else None)
        state.inferences_used += spent
        state.iterations_run = iteration
        if budget_out:
            state.stopped_because = "budget exhausted"
            break
        if len(state.solved) == solved_before:
            state.stopped_because = "fixpoint: no new solutions"
            break
    else:
        state.stopped_because = "iteration cap"
    if config.total_inference_budget is not None:
        assert state.inferences_used <= config.total_inference_budget, \
            "budget accounting overflow"
    return state


# ---------------------------------------------------------------------------
# Reporting


def tally(name: str, records) -> dict:
    """Four-column counts of each item's best status (proved, then
    counter-satisfiable, then anything else) over `records`."""
    rank = {PROVED: 2, COUNTER_SATISFIABLE: 1}
    best: dict = {}
    for r in records:
        if rank.get(r.status, 0) > rank.get(best.get(r.item), -1):
            best[r.item] = r.status
    solved = sorted(item for item, status in best.items() if status == PROVED)
    countersat = sum(1 for status in best.values()
                     if status == COUNTER_SATISFIABLE)
    return {
        "name": name,
        "proved": len(solved),
        "counter_satisfiable": countersat,
        "timeout_or_inference_out": len(best) - len(solved) - countersat,
        "total": len(best),
        "solved_items": solved,
    }


def fixpoint_report(state: LoopState, corpus: Corpus) -> dict:
    """Per-iteration and cumulative four-column counts plus shortening."""
    theorems = [item for _i, item in corpus.theorems()]
    columns = ("proved", "counter_satisfiable", "timeout_or_inference_out",
               "total")
    iterations = []
    for it in range(1, state.iterations_run + 1):
        counts = tally("", [a for a in state.attempts if a.iteration == it])
        iterations.append({"iteration": it,
                           **{c: counts[c] for c in columns}})
    # cumulative: best status per item across the whole run, over all theorems
    best = tally("", state.attempts)
    shortening = []
    for item in theorems:
        solved = state.solved.get(item.name)
        if solved is None or not item.reference_premises:
            continue
        if len(solved.premises_used) < len(item.reference_premises):
            shortening.append({
                "item": item.name,
                "reference": sorted(item.reference_premises),
                "used": sorted(solved.premises_used),
            })
    return {
        "iterations": iterations,
        "cumulative": {
            "proved": best["proved"],
            "counter_satisfiable": best["counter_satisfiable"],
            "timeout_or_inference_out": (len(theorems) - best["proved"]
                                         - best["counter_satisfiable"]),
            "total": len(theorems),
        },
        "shortening": shortening,
        "models_stored": len(state.store),
        "inferences_used": state.inferences_used,
        "stopped_because": state.stopped_because,
    }


# ---------------------------------------------------------------------------
# Run directory persistence


def write_run_dir(run_dir: str, state: LoopState, corpus: Corpus,
                  config: LoopConfig) -> None:
    """What only the final state gives: the learner and the feature cache.

    Records, proofs and countermodels are written as each attempt happens.
    """
    os.makedirs(os.path.join(run_dir, "learner"), exist_ok=True)
    save_model(state.model, os.path.join(run_dir, "learner", "final.json"))
    # feature cache against the final model store (regenerate when it grows)
    vectors = {item.name: item_features(item, config, state.store)
               for item in corpus.items}
    write_feature_cache(os.path.join(run_dir, "features.cache"), vectors)
