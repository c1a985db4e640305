"""Batch evaluation modes and result tables.

Four experiment shapes over generated corpora:

  reprove    one prover call per theorem from exactly its reference
             premises (the re-proving protocol).
  library    the full selection loop, learning against a
             chronological-recency baseline at equal budget, with a
             proof-shortening section.
  challenge  a batch of standalone problems under one shared budget;
             axioms are ranked per problem and proofs found early train
             the learner for later problems in the same batch.
  traintest  learner trained on a declared train split only, test split
             evaluated with no further training.

Every mode runs its attempts through `loop.attempt`, and all but reprove
schedule them with `loop.walk_ladder`; a mode supplies only its ranking
policy and problem builder.  Results are append-only JSON lines in one
schema (`loop.Attempt`); `verify` replays every stored proof through the
independent checker.  Deterministic mode (the default) uses inference
budgets only, so an identical spec gives byte-identical structured
output.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

from .checker import check_proof
from .clausify import clausal_problem
from .corpus import load_corpus, load_split
from .features import combine, structural_features, symbol_features
from .fol import make_problem
from .learner import BayesModel, rank_premises, train_incremental
from .loop import (
    Attempt, LoopConfig, attempt, corpus_problems, fixpoint_report,
    item_features, prove_checked, run_loop, tally, walk_ladder, write_run_dir,
)
from .models import ModelStore, model_to_text
from .parser import parse_problem_file
# `prove` is bound here as well as in `loop` because perfbench/layers.py
# traces every module binding a caller can go through
from .prover import Limits, proof_from_text, proof_to_text, prove  # noqa: F401

MODES = ("reprove", "library", "challenge", "traintest")


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
    per_problem_budget: int = 20000
    # reprove only: the ladder modes read these three from `loop`
    time_budget: float | None = None    # wall-clock mode only
    max_depth: int = 10
    model_max_domain: int = 3
    loop: LoopConfig = field(default_factory=LoopConfig)
    baseline: bool = True          # library mode: also run the recency baseline

    def __post_init__(self):
        if self.mode not in MODES:
            raise HarnessError(f"unknown mode {self.mode!r}")
        if self.mode in ("reprove", "library", "traintest") and not self.corpus:
            raise HarnessError(f"mode {self.mode!r} requires a corpus")
        if self.mode == "challenge" and not (self.problems or self.corpus):
            raise HarnessError("challenge mode requires a problem directory")
        if self.mode == "traintest" and not self.split:
            raise HarnessError("traintest mode requires a split file")


def _out_dir(spec: ExperimentSpec) -> str:
    out = spec.out_dir
    if not out:
        raise HarnessError("no output directory given")
    root = os.environ.get("PROOFBENCH_OUTPUT_ROOT", "")
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
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
    """The run-directory writer: config.json, results.jsonl appended and
    flushed per record so interrupted runs stay auditable, and the proofs
    and countermodels stored as each attempt happens.

    A library run opens one writer per configuration inside the top-level
    one (`parent`); each record then goes to both results.jsonl files,
    artifact paths stay relative to the top-level directory, and the
    top-level writer stores no artifacts (`artifacts=False`).
    """

    def __init__(self, out: str, blob: dict, parent=None, artifacts=True):
        os.makedirs(out, exist_ok=True)
        _write_spec(out, blob)
        if artifacts:
            for sub in ("proofs", "models"):
                os.makedirs(os.path.join(out, sub), exist_ok=True)
        self.out = out
        self.prefix = os.path.relpath(out, parent.out) if parent else ""
        self.fh = open(os.path.join(out, "results.jsonl"), "w", encoding="utf-8")
        self.files = [self.fh] + (parent.files if parent else [])
        self.models = 0

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.fh.close()

    def write(self, record: Attempt) -> None:
        line = record.to_json() + "\n"
        for fh in self.files:
            fh.write(line)
            fh.flush()

    def store_proof(self, item: str, proof, premises_given) -> str:
        return os.path.join(self.prefix,
                            _store_proof(self.out, item, proof, premises_given))

    def store_model(self, model) -> str:
        rel = _store_model(self.out, self.models, model)
        self.models += 1
        return os.path.join(self.prefix, rel)


def _store_proof(out: str, item: str, proof, premises_given) -> str:
    rel = os.path.join("proofs", f"{item}.proof")
    with open(os.path.join(out, rel), "w", encoding="utf-8") as fh:
        fh.write(f"% item {item}\n% premises_given {' '.join(premises_given)}\n")
        fh.write(proof_to_text(proof))
    return rel


def _store_model(out: str, idx: int, model) -> str:
    rel = os.path.join("models", f"{idx}.model")
    with open(os.path.join(out, rel), "w", encoding="utf-8") as fh:
        fh.write(model_to_text(model))
    return rel


def _keep_every(_model, _record) -> bool:
    return True


def _one_config(mode: str, name: str, records, **extra) -> dict:
    """Results of a mode that runs a single configuration."""
    counts = tally(name, records)
    return {"mode": mode, "configs": [counts],
            "solved": {name: counts["solved_items"]}, **extra}


# ---------------------------------------------------------------------------
# reprove


def _reprove_one(job):
    item_name, formulas, limits, domain = job
    return prove_checked(clausal_problem(make_problem(formulas)), limits,
                         domain, item_name)


def run_reprove(spec: ExperimentSpec) -> dict:
    """One prover call per theorem with exactly its reference premises.

    With several workers only proving and checking run in the pool;
    records and artifacts are written here, in job order.
    """
    out = _out_dir(spec)
    corpus = load_corpus(spec.corpus)
    by_name = {item.name: item for item in corpus.items}
    limits = Limits(inference_budget=spec.per_problem_budget,
                    max_depth=spec.max_depth, time_budget=spec.time_budget)
    records, jobs = [], []
    for _i, item in corpus.theorems():
        given = tuple(item.reference_premises)
        records.append(Attempt("reprove", 1, item.name, len(given),
                               spec.per_problem_budget, given))
        jobs.append((item.name, [by_name[r].as_axiom() for r in given]
                     + [item.as_conjecture()], limits, spec.model_max_domain))
    pool = ProcessPoolExecutor(max_workers=spec.workers) if spec.workers > 1 else None
    try:
        outcomes = (pool.map if pool else map)(_reprove_one, jobs)
        with _RecordWriter(out, asdict(spec)) as writer:
            for record, res in zip(records, outcomes):
                attempt(record, result=res, writer=writer, keep_model=_keep_every)
    finally:
        if pool is not None:
            pool.shutdown()
    return _finish(out, _one_config("reprove", "reprove", records))


# ---------------------------------------------------------------------------
# library


def run_library(spec: ExperimentSpec) -> dict:
    """Full loop with learning, plus the recency baseline for comparison."""
    out = _out_dir(spec)
    corpus = load_corpus(spec.corpus)
    configs = [("learning", spec.loop)]
    if spec.baseline:
        configs.append(("recency", replace(spec.loop, learning=False,
                                           semantic=False)))
    results = {"mode": "library", "configs": [], "solved": {}, "reports": {}}
    with _RecordWriter(out, asdict(spec), artifacts=False) as top:
        for config_name, cfg in configs:
            sub = os.path.join(out, config_name)
            blob = {"corpus": spec.corpus, "config": asdict(cfg)}
            with _RecordWriter(sub, blob, parent=top) as writer:
                state = run_loop(corpus, cfg, writer, config_name)
            write_run_dir(sub, state, corpus, cfg)
            results["reports"][config_name] = fixpoint_report(state, corpus)
            results["configs"].append(tally(config_name, state.attempts))
            results["solved"][config_name] = sorted(state.solved)
    return _finish(out, results)


# ---------------------------------------------------------------------------
# challenge


def run_challenge(spec: ExperimentSpec) -> dict:
    """Shared-budget batch; early solutions train selection for later ones.

    Problems are standalone files; the learner ranks each problem's own
    axioms by the conjecture's features, labels being axiom names, which
    near-duplicate batches share.  Without learning, or before the first
    proof, axioms keep file order.
    """
    out = _out_dir(spec)
    problem_dir = spec.problems or spec.corpus
    paths = sorted(fn for fn in os.listdir(problem_dir) if fn.endswith(".p"))
    problems = []
    for fn in paths:
        problem = parse_problem_file(os.path.join(problem_dir, fn))
        if problem.conjecture is None:
            raise HarnessError(f"{fn}: challenge problems need a conjecture")
        problems.append((fn[:-2], problem))

    cfg = spec.loop
    name = "learning" if cfg.learning else "fixed-order"
    model = BayesModel(sigma=cfg.sigma)
    features: dict = {}      # pid -> conjecture features, from its first attempt

    def select(pid, problem, k) -> tuple:
        if pid not in features:
            conj = problem.conjecture.formula
            features[pid] = combine(symbol_features(conj),
                                    structural_features(conj, cfg.str_depth))
        names = [af.name for af in problem.formulas if af.role != "conjecture"]
        if cfg.learning and model.total_examples > 0:
            names = [n for n, _s in rank_premises(model, features[pid], names)]
        return tuple(sorted(names[:k]))

    def build(_pid, problem, chosen):
        keep = set(chosen)
        pruned = [af for af in problem.formulas
                  if af.role != "conjecture" and af.name in keep]
        return clausal_problem(make_problem(pruned + [problem.conjecture]))

    def learn(pid, record) -> None:
        if cfg.learning:
            train_incremental(model, features[pid], record.premises_used)

    records: list = []
    with _RecordWriter(out, asdict(spec)) as writer:
        spent, _ran_out = walk_ladder(
            problems, cfg, select, build, records, {}, name=name,
            budget_left=cfg.total_inference_budget, writer=writer,
            keep_model=_keep_every, on_proved=learn)
    budget_left = cfg.total_inference_budget
    return _finish(out, _one_config(
        "challenge", name, records,
        budget_left=None if budget_left is None else budget_left - spent))


# ---------------------------------------------------------------------------
# traintest


def run_traintest(spec: ExperimentSpec) -> dict:
    """Train on the declared train split only, then evaluate the test split.

    The frozen model ranks each test item's eligible non-test premises
    once, under the shared inference budget when one is set.
    """
    out = _out_dir(spec)
    corpus = load_corpus(spec.corpus)
    train_names, test_names = load_split(spec.split, corpus)
    train_set, test_set = set(train_names), set(test_names)
    cfg = spec.loop

    model = BayesModel(sigma=cfg.sigma)
    feature_cache = {item.name: item_features(item, cfg, ModelStore())
                     for item in corpus.items}
    # training phase: declared reference proofs of the train split
    for _i, item in corpus.theorems():
        if item.name in train_set:
            train_incremental(model, feature_cache[item.name],
                              item.reference_premises)
    trained_examples = model.total_examples
    ranking: dict = {}

    def select(name, entry, k) -> tuple:
        if name not in ranking:
            assert model.total_examples == trained_examples, \
                "test evaluation must not train"
            names = [p.name for p in corpus.eligible(entry[0])
                     if p.name not in test_set]
            if model.total_examples > 0:
                names = [n for n, _s in rank_premises(
                    model, feature_cache[name], names)]
            else:
                names.reverse()
            ranking[name] = names
        return tuple(ranking[name][:k])

    entries = [(item.name, (i, item)) for i, item in corpus.theorems()
               if item.name in test_set]
    records: list = []
    with _RecordWriter(out, asdict(spec)) as writer:
        walk_ladder(entries, cfg, select,
                    corpus_problems(corpus, cfg.definitional_threshold),
                    records, {}, name="traintest",
                    budget_left=cfg.total_inference_budget, writer=writer)
    return _finish(out, _one_config("traintest", "traintest", records,
                                    train_size=len(train_names),
                                    test_size=len(test_names)))


# ---------------------------------------------------------------------------
# verification of stored runs


def verify_run(run_dir: str) -> dict:
    """Re-check every stored proof in a run directory, independently.

    A corpus is loaded at most once per call, so a corpus edited between
    two calls is read afresh.
    """
    corpus_root = _corpus_of(os.path.join(run_dir, "config.json"))
    by_name: dict = {}      # the corpus items, loaded at the first proof
    checked = failed = 0
    failures = []
    for dirpath, _dirs, files in os.walk(run_dir):
        for fn in files:
            if not fn.endswith(".proof"):
                continue
            path = os.path.join(dirpath, fn)
            item, premises, proof = _read_proof_file(path)
            if corpus_root is None:
                failures.append((path, "no corpus recorded in config.json"))
                failed += 1
                continue
            try:
                cs = _rebuild_problem(corpus_root, by_name, item, premises)
                ok = check_proof(proof, cs)
            except Exception as exc:
                ok = False
                failures.append((path, f"rebuild failed: {exc}"))
            checked += 1
            if not ok:
                failed += 1
                if not failures or failures[-1][0] != path:
                    failures.append((path, "checker rejected proof"))
    return {"checked": checked, "failed": failed, "failures": failures}


def _read_proof_file(path: str):
    item = ""
    premises: list = []
    body = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("% item "):
                item = line.split(" ", 2)[2].strip()
            elif line.startswith("% premises_given"):
                premises = line.split()[2:]
            else:
                body.append(line)
    return item, premises, proof_from_text("".join(body))


def _corpus_of(cfg_path: str):
    if not os.path.exists(cfg_path):
        return None
    with open(cfg_path, encoding="utf-8") as fh:
        blob = json.load(fh)
    root = blob.get("corpus") or blob.get("problems")
    return root or None


def _rebuild_problem(corpus_root: str, by_name: dict, item: str, premises):
    """Clause set of a stored proof.  `by_name` caches the corpus items
    by name for the caller; it stays empty for challenge problems."""
    if os.path.exists(os.path.join(corpus_root, "manifest.txt")):
        if not by_name:
            by_name.update((it.name, it) for it in load_corpus(corpus_root).items)
        formulas = [by_name[p].as_axiom() for p in premises]
        formulas.append(by_name[item].as_conjecture())
        return clausal_problem(make_problem(formulas))
    # challenge problems: item maps to a file, premises prune its axioms
    problem = parse_problem_file(os.path.join(corpus_root, f"{item}.p"))
    keep = set(premises)
    pruned = [af for af in problem.formulas
              if af.role == "conjecture" or af.name in keep]
    return clausal_problem(make_problem(pruned))


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
