"""Batch evaluation modes and result tables.

Four experiment shapes over generated corpora:

  reprove    one prover call per theorem from exactly its reference
             premises (the re-proving protocol).
  library    the full selection loop, learning against a
             chronological-recency baseline at equal budget, with a
             proof-shortening section.
  challenge  a batch of standalone problems under one shared budget;
             axioms are ranked per problem and proofs found early train
             the run's learner for later problems in the same batch.
  traintest  the run's learner trained on a declared train split only,
             test split evaluated with no further training.

Every mode schedules its attempts with `loop.walk_ladder` over one
`loop.LoopState` per configuration, which also holds its learner; a mode
supplies only its premise policy, and builds its clause sets through one
`loop.clause_set_builder` per run, whose clausal forms a library run's
two configurations share.
Results are append-only JSON lines in one schema (`loop.Attempt`), one
results.jsonl per run directory, which names the proofs and
countermodels stored beside it; a library run keeps one such directory
per configuration.  `verify` rebuilds each stored artifact's clause set
through the same builder, replays every stored proof through the
independent checker and re-evaluates every stored countermodel.  Budgets
count inferences only, so an identical spec gives byte-identical
structured output.
"""
from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from functools import cache

from .checker import check_proof
# `clausal_problem` and the two feature functions are bound for
# perfbench/layers.py to wrap; runs build and featurize through `loop`
from .clausify import clausal_problem  # noqa: F401
from .corpus import load_corpus, load_split
from .features import structural_features, symbol_features  # noqa: F401
from .fol import ProblemError
from .learner import rank_premises, train_incremental
# challenge calls `item_features` through `loop`, where perfbench wraps it
from . import loop as loop_mod
from .loop import (
    Attempt, LoopConfig, LoopInvariantError, LoopState, clause_set_builder,
    conjecture_of, fixpoint_report, refresh_features, retrain, run_loop,
    tally, walk_ladder, write_run_dir,
)
from .models import evaluate, model_from_text, model_to_text
from .parser import (
    ParseError, parse_problem_dir, parse_problem_file, print_name, read_names,
)
# `prove` is bound here as well as in `loop` because perfbench/layers.py
# traces every module binding a caller can go through
from .prover import Limits, proof_from_text, proof_to_text, prove  # noqa: F401

MODES = ("reprove", "library", "challenge", "traintest")
PROOFS, MODELS = STREAMS = ("proofs.txt", "models.txt")


class HarnessError(Exception):
    pass


@dataclass
class ExperimentSpec:
    mode: str
    corpus: str = ""
    problems: str = ""
    out_dir: str = ""
    split: str = ""
    workers: int = 1
    per_problem_budget: int = 20000     # reprove only
    loop: LoopConfig = field(default_factory=LoopConfig)
    baseline: bool = True          # library mode: also run the recency baseline

    def __post_init__(self):
        if self.mode not in MODES:
            raise HarnessError(f"unknown mode {self.mode!r}")
        if self.mode in ("reprove", "library", "traintest") and not self.corpus:
            raise HarnessError(f"mode {self.mode!r} requires a corpus")
        if self.mode == "challenge" and not self.problems:
            raise HarnessError("challenge mode requires a problem directory")
        if self.mode == "traintest" and not self.split:
            raise HarnessError("traintest mode requires a split file")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        Limits(inference_budget=self.per_problem_budget,     # Limits says
               max_depth=self.loop.max_depth)                # what is valid


def _out_dir(spec: ExperimentSpec) -> str:
    """The run's directory; one that already holds a run is refused."""
    out = spec.out_dir
    if not out:
        raise HarnessError("no output directory given")
    root = os.environ.get("PROOFBENCH_OUTPUT_ROOT", "")
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
    config = os.path.join(out, "config.json")
    if os.path.exists(config):
        raise ProblemError(f"{config!r} exists: {out!r} already holds a run")
    return out


def _write_spec(out: str, blob: dict) -> None:
    """config.json, with the input directory made absolute so that the
    run can be verified from any working directory."""
    blob = dict(blob)
    for key in ("corpus", "problems"):
        if blob.get(key):
            blob[key] = os.path.abspath(blob[key])
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(blob, fh, sort_keys=True, indent=1)


class _RecordWriter:
    """The writer of one run directory: config.json, results.jsonl
    appended and flushed per record so interrupted runs stay auditable,
    and the proofs and countermodels appended to their streams,
    `proofs.txt` and `models.txt`, as each attempt happens.  A stored
    artifact is named `<stream>#<key>`, the stream in the writer's own
    directory: the key is the item for a proof, the model's index in its
    stream for a countermodel.  A library run opens one writer per
    configuration.
    """

    def __init__(self, out: str, blob: dict):
        os.makedirs(out, exist_ok=True)
        _write_spec(out, blob)
        self.fh = open(os.path.join(out, "results.jsonl"), "w", encoding="utf-8")
        self.streams = {name: open(os.path.join(out, name), "w", encoding="utf-8")
                        for name in STREAMS}
        self.models = 0

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        for fh in [self.fh, *self.streams.values()]:
            fh.close()

    def write(self, record: Attempt) -> None:
        self.fh.write(record.to_json() + "\n")
        self.fh.flush()

    def store_proof(self, item: str, proof, premises_given) -> str:
        _store_proof(self.streams[PROOFS], item, proof, premises_given)
        return f"{PROOFS}#{item}"

    def store_model(self, item: str, model, premises_given) -> str:
        _store_model(self.streams[MODELS], item, model, premises_given)
        self.models += 1
        return f"{MODELS}#{self.models - 1}"


def _store_proof(fh, item: str, proof, premises_given) -> None:
    _append_record(fh, item, premises_given, proof_to_text(proof))


def _store_model(fh, item: str, model, premises_given) -> None:
    _append_record(fh, item, premises_given, model_to_text(model))


def _append_record(fh, item: str, premises_given, body: str) -> None:
    """One stream record, flushed before the results.jsonl line that names
    it is written: the header lines, then the artifact's text.  Names are
    written as the printer writes a symbol."""
    names = " ".join(print_name(p) for p in premises_given)
    fh.write(f"% item {print_name(item)}\n% premises_given {names}\n{body}")
    fh.flush()


def _keep_every(_model, _record) -> bool:
    return True


def _one_config(mode: str, name: str, records, entries, **extra) -> dict:
    """Results of a mode that runs a single configuration over `entries`,
    the (name, item) pairs its ladder walked."""
    counts = tally(name, records, (key for key, _item in entries))
    return {"mode": mode, "configs": [counts],
            "solved": {name: counts["solved_items"]}, **extra}


# ---------------------------------------------------------------------------
# reprove


def run_reprove(spec: ExperimentSpec) -> dict:
    """One prover call per theorem with exactly its reference premises,
    in their manifest order: one rung at `per_problem_budget`, with no
    shared budget and no guidance.  With several workers, the attempts
    are proved in a pool of at most one process per theorem.
    """
    out = _out_dir(spec)
    corpus = load_corpus(spec.corpus)
    entries = [(item.name, item) for _i, item in corpus.theorems()]
    cfg = replace(spec.loop, axiom_ladder=(0,),
                  attempt_budgets=(spec.per_problem_budget,),
                  total_inference_budget=None, guidance=False)
    state = LoopState()
    workers = min(spec.workers, len(entries))
    pool = nullcontext()        # the process machinery loads only for a pool
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    with pool as executor, _RecordWriter(out, asdict(spec)) as writer:
        walk_ladder(entries, cfg, lambda _name, item, _k: item.reference_premises,
                    clause_set_builder("reprove", corpus), state,
                    name="reprove", writer=writer, keep_model=_keep_every,
                    pool=executor)
    return _finish(out, _one_config("reprove", "reprove", state.attempts,
                                    entries))


# ---------------------------------------------------------------------------
# library


def run_library(spec: ExperimentSpec) -> dict:
    """Full loop with learning, plus the recency baseline for comparison;
    the configurations share one builder, so each formula is clausified
    once per run.  Each configuration is a run directory of its own,
    `<out>/<config>`, holding its records and artifacts."""
    out = _out_dir(spec)
    corpus = load_corpus(spec.corpus)
    build = clause_set_builder("library", corpus)
    configs = [("learning", spec.loop)]
    if spec.baseline:
        configs.append(("recency", replace(spec.loop, learning=False,
                                           semantic=False)))
    results = {"mode": "library", "configs": [], "solved": {}, "reports": {}}
    theorems = [item.name for _i, item in corpus.theorems()]
    os.makedirs(out, exist_ok=True)
    _write_spec(out, asdict(spec))
    for config_name, cfg in configs:
        sub = os.path.join(out, config_name)
        blob = {"corpus": spec.corpus, "config": asdict(cfg)}
        with _RecordWriter(sub, blob) as writer:
            state = run_loop(corpus, cfg, writer, config_name, build)
        write_run_dir(sub, state)
        results["reports"][config_name] = fixpoint_report(state, corpus)
        results["configs"].append(tally(config_name, state.attempts, theorems))
        results["solved"][config_name] = sorted(state.solved)
    return _finish(out, results)


# ---------------------------------------------------------------------------
# challenge


def run_challenge(spec: ExperimentSpec) -> dict:
    """Shared-budget batch; early solutions train selection for later ones.

    Problems are standalone files; the run's learner ranks each problem's
    own axioms by the conjecture's features, labels being axiom names,
    which near-duplicate batches share.  Without learning, or before the
    first proof, axioms keep file order.
    """
    out = _out_dir(spec)
    problems = parse_problem_dir(spec.problems)
    for pid, problem in problems:
        conjecture_of(pid, problem)     # refuse before anything is written

    cfg = spec.loop
    name = "learning" if cfg.learning else "fixed-order"
    state = LoopState()

    def select(pid, problem, k) -> tuple:
        # the conjecture's, at its first attempt; only a learner reads it
        if cfg.learning and pid not in state.features:
            state.features[pid] = loop_mod.item_features(problem.conjecture)
        names = [af.name for af in problem.formulas if af.role != "conjecture"]
        if state.model.total_examples > 0:
            names = [n for n, _s in rank_premises(state.model,
                                                  state.features[pid], names)]
        return tuple(sorted(names[:k]))

    def learn(pid, record) -> None:
        train_incremental(state.model, state.features[pid], record.premises_used)

    with _RecordWriter(out, asdict(spec)) as writer:
        walk_ladder(problems, cfg, select,
                    clause_set_builder("challenge", dict(problems).__getitem__),
                    state, name=name, writer=writer, keep_model=_keep_every,
                    on_proved=learn if cfg.learning else None)
    total = cfg.total_inference_budget
    return _finish(out, _one_config(
        "challenge", name, state.attempts, problems,
        budget_left=None if total is None else total - state.inferences_used))


# ---------------------------------------------------------------------------
# traintest


def run_traintest(spec: ExperimentSpec) -> dict:
    """Train on the declared train split only, then evaluate the test split.

    The run's learner, trained once on the train split's reference
    premises, ranks each test item's eligible non-test premises once,
    under the shared inference budget when one is set.
    """
    out = _out_dir(spec)
    corpus = load_corpus(spec.corpus)
    train_names, test_names = load_split(spec.split, corpus)
    train_set, test_set = set(train_names), set(test_names)
    cfg = spec.loop

    state = LoopState()
    refresh_features(state, corpus, cfg)
    retrain(state, ((item.name, item.reference_premises)
                    for _i, item in corpus.theorems() if item.name in train_set))
    trained_examples = state.model.total_examples
    ranking: dict = {}

    def select(name, entry, k) -> tuple:
        if name not in ranking:
            if state.model.total_examples != trained_examples:
                raise LoopInvariantError("test evaluation must not train")
            names = [p.name for p in corpus.eligible(entry[0])
                     if p.name not in test_set]
            if state.model.total_examples > 0:
                names = [n for n, _s in rank_premises(
                    state.model, state.features[name], names)]
            else:
                names.reverse()
            ranking[name] = names
        return tuple(ranking[name][:k])

    entries = [(item.name, (i, item)) for i, item in corpus.theorems()
               if item.name in test_set]
    with _RecordWriter(out, asdict(spec)) as writer:
        walk_ladder(entries, cfg, select,
                    clause_set_builder("traintest", corpus), state,
                    name="traintest", writer=writer)
    return _finish(out, _one_config("traintest", "traintest", state.attempts,
                                    entries, train_size=len(train_names),
                                    test_size=len(test_names)))


# ---------------------------------------------------------------------------
# verification of stored runs


def verify_run(run_dir: str) -> dict:
    """Re-check every stored artifact in a run directory, independently.

    Each record of every `proofs.txt` and `models.txt` under `run_dir` is
    checked against its clause set, rebuilt from the record's item and
    given premises: a proof is replayed by the checker, and a countermodel
    must make every clause true under `models.evaluate`.  Each artifact
    that a results.jsonl under `run_dir` names must be in the stream of
    that name in the same directory.  A stored record that fails, a
    malformed or truncated one included, is a failure named
    `<stream path>#<key>`; a results.jsonl line that cannot be read is
    named `<results.jsonl path>:<line>`.  A corpus is loaded at most once
    per call, so a corpus edited between two calls is read afresh.
    """
    rebuild = _rebuilder(run_dir)
    counts = {PROOFS: 0, MODELS: 0}
    failures: list = []
    for dirpath, dirs, files in os.walk(run_dir):
        dirs.sort()
        stored: set = set()        # the names of this directory's records
        for stream in STREAMS:
            if stream not in files:
                continue
            path = os.path.join(dirpath, stream)
            for key, item, premises, body, why in _read_stream(path, stream):
                stored.add(f"{stream}#{key}")
                counts[stream] += 1
                why = why or _check_record(stream, item, premises, body, rebuild)
                if why:
                    failures.append((f"{path}#{key}", why))
        if "results.jsonl" not in files:
            continue
        results = os.path.join(dirpath, "results.jsonl")
        here = os.path.abspath(dirpath)
        with open(results, encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                try:
                    record = json.loads(line)
                    names = (record["proof_file"], record["model_file"])
                except (ValueError, KeyError, TypeError):
                    failures.append((f"{results}:{n}", "malformed record"))
                    continue
                for name in names:
                    if name and name not in stored:
                        failures.append((os.path.join(here, name),
                                         "named in results.jsonl but not stored"))
    return {"checked": counts[PROOFS], "models_checked": counts[MODELS],
            "failed": len(failures), "failures": failures}


def _read_stream(path: str, stream: str) -> list:
    """The records of an artifact stream, in order, as (key, item,
    premises_given, body, why): `why` says what is wrong with the record's
    framing, "" when nothing.  Text before the first header is a record
    of its own, keyed "-"."""
    head: list = []
    records: list = []          # [item text, lines after the item line]
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("% item "):
                records.append([line[7:], []])
            else:
                (records[-1][1] if records else head).append(line)
    out = [("-", None, [], "", "malformed record: text before the first header")
           ] if head else []
    for index, (item, lines) in enumerate(records):
        if not (lines and lines[-1].endswith("\n")):
            why = "truncated record"
        elif not lines[0].startswith("% premises_given"):
            why = "malformed record: no premises_given line"
        else:
            why = ""
        try:
            (item,) = read_names(item)
            premises = [] if why else read_names(
                lines[0][len("% premises_given"):])
        except (ParseError, ValueError) as exc:
            item, premises = item.rstrip("\n"), []
            why = why or f"malformed record: {exc}"
        key = item if stream == PROOFS else str(index)
        out.append((key, item, premises, "".join(lines[1:]), why))
    return out


def _check_record(stream: str, item: str, premises, body: str, rebuild) -> str:
    """Why a stored proof or countermodel fails its clause set, or ""."""
    if rebuild is None:
        return "no corpus recorded in config.json"
    try:
        artifact = (proof_from_text if stream == PROOFS else model_from_text)(body)
    except Exception as exc:
        return f"malformed record: {exc}"
    try:
        cs = rebuild(item, premises)
    except Exception as exc:
        return f"rebuild failed: {exc}"
    try:
        if stream == PROOFS:
            ok = check_proof(artifact, cs)
        else:
            ok = all(evaluate(c, artifact) is True for c in cs.clauses)
    except Exception as exc:
        return f"check failed: {exc!r}"
    if ok:
        return ""
    return "checker rejected proof" if stream == PROOFS else "model fails a clause"


def _rebuilder(run_dir: str):
    """`rebuild(item, premises)`, the clause set of a stored artifact of
    the run in `run_dir`, built by the run's own builder,
    `loop.clause_set_builder` for the run's mode; None when its
    config.json names no input, a challenge run's `problems` or another
    run's `corpus`.  A library sub-run's config.json records no mode.

    A challenge problem file is parsed when a record first needs it, all
    through one statement table; a corpus is loaded at the first record.
    """
    blob: dict = {}
    path = os.path.join(run_dir, "config.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
    mode = blob.get("mode", "library")
    root = blob.get("problems" if mode == "challenge" else "corpus")
    if not root:
        return None
    if mode == "challenge":
        table: dict = {}

        @cache
        def problem(item):
            path = os.path.join(root, f"{item}.p")
            if not os.path.exists(path):
                raise HarnessError(f"no problem file {item}.p in {root!r}")
            return parse_problem_file(path, table=table)
        return clause_set_builder(mode, problem)
    build = cache(lambda: clause_set_builder(mode, load_corpus(root)))
    return lambda item, premises: build()(item, premises)


# ---------------------------------------------------------------------------
# report tables


def report(results: dict) -> str:
    """Four-column table per configuration plus the union ("together") row."""
    configs = results.get("configs", [])
    header = ["description", "proved", "counter-satisfiable",
              "timeout or inference out", "total"]
    rows = [[c["name"], c["proved"], c["counter_satisfiable"],
             c["timeout_or_inference_out"], c["total"]] for c in configs]
    if len(configs) > 1:
        total = max((c["total"] for c in configs), default=0)
        rows.append(["together", together_count(configs), "-", "-", total])
    widths = [max(len(str(x)) for x in [header[i]] + [r[i] for r in rows])
              for i in range(len(header))]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))
    out = "\n".join(lines)

    shortening = []
    for config_name, rep in sorted(results.get("reports", {}).items()):
        for s in rep.get("shortening", []):
            shortening.append((config_name, s))
    if shortening:
        out += "\n\nproofs shorter than their reference premise sets:\n"
        for config_name, s in shortening:
            out += (f"  [{config_name}] {s['item']}: used {len(s['used'])} "
                    f"{s['used']} vs reference {len(s['reference'])} "
                    f"{s['reference']}\n")
    return out


def together_count(configs) -> int:
    union: set = set()
    for c in configs:
        union |= set(c["solved_items"])
    return len(union)


def _finish(out: str, results: dict) -> dict:
    text = report(results)
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, sort_keys=True, indent=1)
    return results
