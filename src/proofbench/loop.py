"""The attempt pipeline every experiment mode shares, and the closed
inductive-deductive loop over an ordered corpus.

One attempt proves a pruned problem, has the independent checker replay
any proof, names the given premises the proof used, stores the proof or
countermodel and yields one `Attempt` record; a proved item's record is
also its entry in the run's solved map.  `walk_ladder` schedules every
mode's attempts breadth-first over the axiom-count ladder, in the run's
one `LoopState`: every pending item is tried at the smallest rung before
anything escalates, which is how a shared budget is spread in a batch
setting.  Reprove's ladder is one rung, and only its attempts, which
depend on no other, go to a process pool; the other modes also keep
their feature vectors and premise learner in the state.  Which formulas
go into a clause set, in which order, is one rule per mode, written once
in `clause_set_builder`, which also owns the clausal forms it makes;
every run, `verify`, `speedup` and the generator's self-check build
through it, so a mode supplies only its premise policy.

The library loop (`run_loop`) walks the ladder once per iteration.  Each
iteration extends the run's feature table by the newly stored models,
retrains the premise learner on every stored proof and ranks each theorem
once.  A new model's column goes only to the items it can define.  Until
the learner has a proof, a ranking scores only the names that share a
symbol with the theorem, and the rest follow latest first; after that,
`learner.rank_premises` scores every earlier name.
Counter-satisfiable pruned attempts contribute their countermodel as a
new semantic feature column (a pruned problem being satisfiable says
nothing about the theorem, so the item stays unsolved).  Iterations stop
at the first one that solves nothing new, at the iteration cap, or when
the shared inference budget runs out.
"""
from __future__ import annotations

import json
import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice

from .checker import check_proof
from .clausify import ClauseSet, cnf, join_forms
from .corpus import Corpus
from .features import (
    combine, semantic_features, structural_features, symbol_features,
)
from .fol import ProblemError
from .guidance import Advisor
from .learner import BayesModel, rank_premises, save_model, train_incremental
from .models import DEFAULT_MAX_DOMAIN, ModelStore
from .prover import COUNTER_SATISFIABLE, Limits, PROVED, prove


class LoopInvariantError(Exception):
    """A stored artifact failed an internal soundness gate."""


@dataclass(frozen=True)
class LoopConfig:
    axiom_ladder: tuple = (4, 8, 16, 32, 64, 128)
    attempt_budgets: tuple = (2000,)      # per-rung; last entry repeats
    max_depth: int = 10
    total_inference_budget: int | None = None
    max_iterations: int = 10
    model_max_domain: int = DEFAULT_MAX_DOMAIN
    semantic: bool = True
    guidance: bool = False
    learning: bool = True                 # False: chronological-recency baseline

    def __post_init__(self):
        for name in ("axiom_ladder", "attempt_budgets"):
            ladder = getattr(self, name)
            if not ladder:
                raise ValueError(f"{name} must be non-empty")
            if list(ladder) != sorted(set(ladder)):
                raise ValueError(f"{name} must be strictly increasing")
        if self.axiom_ladder[0] < 0:
            raise ValueError("axiom_ladder rungs must be >= 0, "
                             f"got {self.axiom_ladder[0]}")
        for budget in self.attempt_budgets:     # Limits says what is valid
            Limits(inference_budget=budget, max_depth=self.max_depth)
        total = self.total_inference_budget
        if total is not None and total < 0:
            raise ValueError(f"total_inference_budget must be >= 0, got {total!r}")
        for name in ("max_iterations", "model_max_domain"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass
class Attempt:
    """One prover call: where it sat in the run and what came of it.

    This is the one `results.jsonl` record.  `rung` is the axiom-count
    cap (reprove: the reference premise count); an artifact is named as
    `<stream>#<key>`, the stream in the directory of the results.jsonl
    that holds the record, "" when nothing was stored.
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
    solved: dict = field(default_factory=dict)    # name -> its proving Attempt
    store: ModelStore = field(default_factory=ModelStore)
    model: BayesModel = field(default_factory=BayesModel)
    guide_model: BayesModel = field(default_factory=BayesModel)
    attempts: list = field(default_factory=list)
    iterations_run: int = 0
    inferences_used: int = 0
    stopped_because: str = ""
    features: dict = field(default_factory=dict)  # name -> vector
    models_featured: int = 0      # the vectors cover store.models[:this]
    # the corpus, by position, indexed with the first feature table
    names: list = field(default_factory=list)     # position -> name
    symbols: list = field(default_factory=list)   # position -> its SYM: ids
    holders: dict = field(default_factory=dict)   # SYM: id -> positions, ascending
    anywhere: list = field(default_factory=list)  # positions with no symbol but =


def item_features(item, store: ModelStore | None = None,
                  known: dict | None = None, columns=()) -> dict:
    """The item's SYM+STR vector and the MOD columns of the models of
    `store` whose indices `columns` lists (ascending).  `known`, its vector
    without those columns, only gains them: the store is append-only, so
    an old column never changes."""
    vec = known if known is not None else combine(
        symbol_features(item.formula), structural_features(item.formula))
    if columns:
        vec = combine(vec, semantic_features(item.formula, store, columns))
    return vec


def refresh_features(state: LoopState, corpus: Corpus,
                     config: LoopConfig) -> dict:
    """The run's feature table, extended to the current store.  Key order
    (SYM, STR, MOD by index) is a fresh vector's: the learner sums in it.

    A model can define only the items whose every symbol it has a table
    for, or that have no symbol but equality, so a new model's column
    goes only to the items holding one of its symbols and to those.  The
    models test each formula against the signature the formula keeps.
    """
    if not state.features:
        for i, item in enumerate(corpus.items):
            vec = state.features[item.name] = item_features(item)
            symbols = {f for f in vec if f.startswith("SYM:")}
            state.names.append(item.name)
            state.symbols.append(symbols)
            for fid in symbols:
                state.holders.setdefault(fid, []).append(i)
            if symbols <= {"SYM:="}:
                state.anywhere.append(i)
    seen = state.models_featured
    if not config.semantic or seen == len(state.store):
        return state.features
    touched: dict = {}      # position -> the new models that may define it
    for j in range(seen, len(state.store)):
        model = state.store.models[j]
        candidates = set(state.anywhere)
        for sym in chain(model.funcs, model.preds):
            candidates.update(state.holders.get("SYM:" + sym, ()))
        for i in candidates:
            touched.setdefault(i, []).append(j)
    for i, indices in touched.items():
        item = corpus.items[i]
        state.features[item.name] = item_features(
            item, state.store, state.features[item.name], indices)
    state.models_featured = len(state.store)
    return state.features


def retrain(state: LoopState, examples) -> None:
    """A fresh learner trained on each (item name, premises used) example,
    in the order given."""
    model = BayesModel()
    for name, used in examples:
        train_incremental(model, state.features[name], used)
    state.model = model


def rank_eligible(position: int, k: int, state: LoopState,
                  config: LoopConfig) -> list:
    """The first `k` premise names, most relevant first, for the corpus
    item at `position`; every earlier item is eligible.  Until the learner
    has a proof, only the names sharing a symbol with the item are scored
    and the rest follow latest first; after that, the learner scores every
    eligible name and ties keep corpus order."""
    names = state.names
    if not config.learning:
        return names[max(0, position - k):position][::-1]  # chronological recency
    if state.model.total_examples == 0:
        # cold start: Jaccard overlap of SYM: sets, ties latest first; the
        # names sharing no symbol with the item score 0.0 and follow,
        # latest first
        query = state.symbols[position]
        common: Counter = Counter()
        for fid in query:
            holders = state.holders[fid]
            common.update(holders[:bisect_left(holders, position)])
        hits = sorted(common, key=lambda i: (-(common[i] / (
            len(query) + len(state.symbols[i]) - common[i])), -i))[:k]
        rest = (i for i in range(position - 1, -1, -1) if i not in common)
        return [names[i] for i in chain(hits, islice(rest, k - len(hits)))]
    ranking = rank_premises(state.model, state.features[names[position]],
                            names[:position])
    return [n for n, _s in ranking[:k]]


def assemble_problem(item, premise_items, form) -> ClauseSet:
    """The clause set of `item` proved from `premise_items`: the premises
    in the order given, then the negated item.  `form(af, negate)` gives
    the clausal form of an annotated formula or a corpus item."""
    forms = [form(p, False) for p in premise_items]
    negated = form(item, True)
    return join_forms(forms + [negated], negated)


def conjecture_of(pid: str, problem):
    """The conjecture of challenge problem `pid`, which must have one."""
    if problem.conjecture is None:
        raise ProblemError(f"{pid}.p: challenge problems need a conjecture")
    return problem.conjecture


def clause_set_builder(mode: str, source):
    """`build(item, premises)`, the clause set on which `mode` proves the
    item named `item` from the premises named.

    `source` is the run's `Corpus`, or, for challenge, a lookup from a
    problem's name to its parsed `Problem`.  The premises go in the order
    given (reprove), in corpus order (library, traintest), or, for a
    challenge problem, as its axioms in file order; the negated item or
    conjecture comes last.  An item that is not a corpus item, and a
    premise that is not an earlier corpus item or not an axiom of the
    challenge problem, is refused by name.  Each clausal form is made once
    per builder, keyed by content (name, formula, negated), of which `cnf`
    is a pure function.  A statement object met before finds its form by
    identity, without hashing its formula again.
    """
    forms: dict = {}
    met: dict = {}      # (id, negated) -> (statement, form); kept, so no id is reused

    def form(af, negate: bool):
        hit = met.get((id(af), negate))
        if hit is not None:
            return hit[1]
        key = (af.name, af.formula, negate)
        clausal = forms.get(key)
        if clausal is None:
            clausal = forms[key] = cnf(af.formula, name=af.name, negate=negate)
        met[id(af), negate] = (af, clausal)
        return clausal

    if mode == "challenge":
        def build(item, premises) -> ClauseSet:
            problem = source(item)
            conjecture = conjecture_of(item, problem)
            chosen = set(premises)
            axioms = [af for af in problem.formulas
                      if af is not conjecture and af.name in chosen]
            if len(axioms) < len(chosen):
                unknown = chosen - {af.name for af in axioms}
                raise ProblemError(f"{item}.p has no axiom {min(unknown)!r}")
            return assemble_problem(conjecture, axioms, form)
        return build
    items = {item.name: (i, item) for i, item in enumerate(source.items)}

    def build(item, premises) -> ClauseSet:
        if item not in items:
            raise ProblemError(f"{item!r} is not a corpus item")
        position = items[item][0]
        for name in premises:
            if name not in items or items[name][0] >= position:
                raise ProblemError(f"{name!r} is not an item before {item!r}")
        if mode != "reprove":
            premises = sorted(premises, key=lambda name: items[name][0])
        return assemble_problem(items[item][1],
                                [items[name][1] for name in premises], form)
    return build


def whole_problems(problems) -> list:
    """(name, clause set) of each (name, `Problem`) pair: the challenge
    rule's, every axiom given, all through one builder."""
    build = clause_set_builder("challenge", dict(problems).__getitem__)
    return [(pid, build(pid, [af.name for af in p.formulas if af.role != "conjecture"]))
            for pid, p in problems]


# ---------------------------------------------------------------------------
# The attempt pipeline


def prove_checked(cs: ClauseSet, limits: Limits, model_max_domain: int,
                  problem_id: str, advisor=None):
    """Prove, and have the independent checker replay any proof found."""
    res = prove(cs, limits, advisor=advisor, model_max_domain=model_max_domain)
    if res.status == PROVED and not check_proof(res.proof, cs):
        raise LoopInvariantError(
            f"proof for {problem_id} failed independent checking")
    return res


def attempt(record: Attempt, res, *, writer=None, keep_model=None) -> None:
    """Complete `record`, which arrives with the attempt's coordinates, from
    `res`, its checked outcome, naming the given premises the proof used.
    The proof, and a countermodel when `keep_model(model, record)` is true,
    are stored through `writer`, which also gets the record; without a
    writer the record stays in memory.
    """
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
            record.model_file = writer.store_model(record.item, res.model,
                                                   record.premises_given)
    if writer is not None:
        writer.write(record)


def _prove_job(job):
    """(record, advisor, checked outcome) of an attempt of `walk_ladder`."""
    record, cs, config, advisor = job
    limits = Limits(inference_budget=record.budget, max_depth=config.max_depth)
    return record, advisor, prove_checked(cs, limits, config.model_max_domain,
                                          record.item, advisor)


def walk_ladder(entries, config: LoopConfig, select, build, state: LoopState,
                *, name: str, writer=None, keep_model=None,
                on_proved=None, pool=None) -> None:
    """Attempt every entry not yet in `state.solved`, breadth-first over
    the axiom-count ladder: each at the smallest rung before any
    escalates.

    `entries` are (name, entry) pairs in attempt order.  The caller's
    policy is `select(name, entry, k)`, the premise names given at rung
    k, called once per attempt; `build(name, chosen)`, from
    `clause_set_builder`, makes the clause set to prove.  Each record,
    under config `name`, iteration `state.iterations_run + 1` and rung
    `max(k, len(chosen))`, joins `state.attempts` and its inferences
    `state.inferences_used`; a proved entry joins `state.solved` as its
    proving record, and `on_proved(name, record)` learns from it.  With
    `config.guidance`, an advisor consults `state.guide_model` during
    each search, and the advised choice points of each checked proof
    train it.  A rung's attempts are made lazily and proved by `map`,
    one after the other, or by `pool.map`, which makes them all first:
    a pool is for attempts that depend on no other.  When the shared
    `config.total_inference_budget` runs out before an attempt, the walk
    stops and `state.stopped_because` says so.
    """
    iteration = state.iterations_run + 1
    total = config.total_inference_budget

    def jobs(k: int, budget: int):
        for key, entry in entries:
            if key in state.solved:
                continue
            limit = budget
            if total is not None:
                left = total - state.inferences_used
                if left <= 0:
                    state.stopped_because = "budget exhausted"
                    return
                limit = min(budget, left)
            chosen = select(key, entry, k)
            cs = build(key, chosen)
            advisor = None
            if config.guidance:
                advisor = Advisor(state.guide_model, cs.clauses)
            yield (Attempt(name, iteration, key, max(k, len(chosen)), limit,
                           chosen), cs, config, advisor)

    for rung_idx, k in enumerate(config.axiom_ladder):
        budget = config.attempt_budgets[min(rung_idx,
                                            len(config.attempt_budgets) - 1)]
        for record, advisor, res in (pool.map if pool else map)(
                _prove_job, jobs(k, budget)):
            attempt(record, res, writer=writer, keep_model=keep_model)
            if advisor is not None:
                advisor.flush_to(state.guide_model)
            state.inferences_used += record.inferences
            state.attempts.append(record)
            if res.status == PROVED:
                state.solved[record.item] = record
                if on_proved is not None:
                    on_proved(record.item, record)
        if state.stopped_because:
            return


def run_loop(corpus: Corpus, config: LoopConfig, writer=None,
             name: str = "learning", build=None) -> LoopState:
    """The library loop; records go to `writer` under config `name`, and
    clause sets come from `build`, the run's library builder."""
    state = LoopState()
    build = build or clause_set_builder("library", corpus)
    entries = [(item.name, (i, item)) for i, item in corpus.theorems()]

    def keep_model(model, record) -> bool:
        model.provenance = f"{record.item}@it{record.iteration}k{record.rung}"
        return state.store.add(model) is not None

    while state.iterations_run < config.max_iterations:
        # (1) retrain the relevance learner on all stored proofs
        refresh_features(state, corpus, config)
        retrain(state, [(key, state.solved[key].premises_used)
                        for key, _entry in entries if key in state.solved])
        # the learner and the features stay fixed until the next iteration
        # (no on_proved), so each theorem is ranked once, to the top rung
        rankings: dict = {}

        def select(name, entry, k) -> tuple:
            if name not in rankings:
                rankings[name] = rank_eligible(entry[0], config.axiom_ladder[-1],
                                               state, config)
            return tuple(rankings[name][:k])

        # (2) walk the ladder with what was learned
        solved_before = len(state.solved)
        walk_ladder(entries, config, select, build, state, name=name,
                    writer=writer, keep_model=keep_model)
        state.iterations_run += 1
        if state.stopped_because:       # the shared budget ran out
            break
        if len(state.solved) == solved_before:
            state.stopped_because = "fixpoint: no new solutions"
            break
    else:
        state.stopped_because = "iteration cap"
    if (config.total_inference_budget is not None
            and state.inferences_used > config.total_inference_budget):
        raise LoopInvariantError("budget accounting overflow")
    return state


# ---------------------------------------------------------------------------
# Reporting


def tally(name: str, records, items=()) -> dict:
    """Four-column counts of each item's best status (proved, then
    counter-satisfiable, then anything else) over `records`.  `items`
    names what the run was given: one it never attempted, as when the
    shared budget runs out first, counts under timeout_or_inference_out."""
    rank = {PROVED: 2, COUNTER_SATISFIABLE: 1}
    best = dict.fromkeys(items)
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
    best = tally("", state.attempts, [item.name for item in theorems])
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
        "cumulative": {c: best[c] for c in columns},
        "shortening": shortening,
        "models_stored": len(state.store),
        "inferences_used": state.inferences_used,
        "stopped_because": state.stopped_because,
    }


# ---------------------------------------------------------------------------
# Run directory persistence


def write_run_dir(run_dir: str, state: LoopState) -> None:
    """What only the final state gives: the learner, `learner/final.json`.

    Records, proofs and countermodels are written as each attempt happens.
    """
    os.makedirs(os.path.join(run_dir, "learner"), exist_ok=True)
    save_model(state.model, os.path.join(run_dir, "learner", "final.json"))
