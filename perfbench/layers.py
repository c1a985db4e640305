"""Per-layer tracing from outside the program.

`Tracer.install` replaces a public function with a wrapper that records
one span per call, at the place the function is *used*: `loop.prove`
and `harness.prove` are separate bindings of `prover.prove`, and
wrapping only the defining module would miss both.  Spans live in
memory until the run ends; `restore` puts every original back.

A span is `[name, start, end, parent index, note]`; the note is
whatever the layer's `note` callback extracts from the call (a status,
a count).  A layer's self time is its spans' durations minus the time
their child spans cover.
"""
from __future__ import annotations

import json
import statistics
import time

# layer of each span name (the part before the first dot), except where
# a span is reported apart from its module
_LAYER_OF = {"prover.normalize": "normalize", "entry.setup": "other",
             "entry.run": "other"}
SHARE_LAYERS = ("prover", "normalize", "checker", "models", "parser", "corpus",
                "clausify", "features", "learner", "loop", "guidance", "io",
                "other")
STOP_REASONS = {"proved": "proved", "saturated": "saturated",
                "inference budget exhausted": "inference_budget",
                "depth exhausted": "depth_exhausted",
                "time budget exhausted": "time_budget"}


def layer_of(name: str) -> str:
    return _LAYER_OF.get(name, name.split(".", 1)[0])


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._installed: list = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(span)
                span[4] = {"error": type(exc).__name__}
                raise
            self.close(span)
            if note is not None:
                span[4] = note(args, result)
            return result
        return traced

    def install(self, target, attr: str, name: str, note=None) -> None:
        original = getattr(target, attr)
        setattr(target, attr, self.wrap(name, original, note))
        self._installed.append((target, attr, original))

    def restore(self) -> None:
        while self._installed:
            target, attr, original = self._installed.pop()
            setattr(target, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, note in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "note": note}) + "\n")


def install_program_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public functions at every module that calls them."""
    from proofbench import (
        clausify, corpus, guidance, harness, loop, models, parser, prover,
    )

    def prove_note(_args, res):
        return [res.status, res.stats.inferences, res.stats.stop_reason]

    for mod in (loop, harness, prover):           # guidance imports it locally
        tracer.install(mod, "prove", "prover.prove", prove_note)
    tracer.install(prover, "normalize_proof", "prover.normalize")
    tracer.install(models, "find_model", "models.find_model",
                   lambda _a, m: {"found": m is not None})
    for mod in (loop, harness):
        tracer.install(mod, "check_proof", "checker.check",
                       lambda _a, ok: {"ok": bool(ok)})
    for mod in (corpus, harness, parser):
        tracer.install(mod, "parse_problem_file", "parser.parse_file")
    tracer.install(harness, "load_corpus", "corpus.load")
    for mod in (harness, clausify):
        tracer.install(mod, "clausal_problem", "clausify.clausal_problem",
                       lambda a, _r: {"forms": len(a[0].formulas)})
    tracer.install(loop, "assemble_problem", "clausify.assemble",
                   lambda a, _r: {"forms": len(a[1]) + 1})
    for mod in (loop, clausify):
        tracer.install(mod, "cnf", "clausify.cnf")
    tracer.install(loop, "item_features", "features.item")
    for fn in ("symbol_features", "structural_features"):
        tracer.install(harness, fn, "features.item")
    tracer.install(guidance, "branch_features", "features.branch")
    for mod in (loop, harness):
        tracer.install(mod, "rank_premises", "learner.rank",
                       lambda a, _r: {"candidates": len(a[2])})
        tracer.install(mod, "train_incremental", "learner.train")
    tracer.install(harness, "run_loop", "loop.run_loop")
    tracer.install(loop, "rank_eligible", "loop.rank_eligible")
    tracer.install(guidance.Advisor, "consult", "guidance.consult",
                   lambda _a, r: {"advised": r[0] is not None})
    tracer.install(guidance, "advise", "guidance.advise")
    tracer.install(guidance.Advisor, "outcome", "guidance.outcome")
    tracer.install(guidance.Advisor, "flush_to", "guidance.flush")
    for fn in ("write_run_dir", "_store_proof", "_store_model", "_finish",
               "_write_spec"):
        tracer.install(harness, fn, "io." + fn.lstrip("_"))
    tracer.install(harness._RecordWriter, "write", "io.record")


def _quantile(values: list, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was measured (den is 0)."""
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer counts, times and ratios from one traced run's spans."""
    child_time = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, (_name, start, end, parent, _note) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[i] = root[parent]
    run = [i for i, span in enumerate(spans) if span[0] == "entry.run"]
    run_s = sum(spans[i][2] - spans[i][1] for i in run)
    total: dict = {}        # span name -> inclusive seconds
    calls: dict = {}
    self_by_layer = dict.fromkeys(SHARE_LAYERS, 0.0)
    self_in_run = dict.fromkeys(SHARE_LAYERS, 0.0)
    prove_ms, model_ms = [], []
    notes: dict = {}
    for i, (name, start, end, _parent, note) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        self_by_layer[layer_of(name)] += dur - child_time[i]
        if root[i] in run:
            self_in_run[layer_of(name)] += dur - child_time[i]
        notes.setdefault(name, []).append(note)
        if name == "prover.prove":
            prove_ms.append(dur * 1000.0)
        elif name == "models.find_model":
            model_ms.append(dur * 1000.0)

    proves = notes.get("prover.prove", [])
    inferences = sum(n[1] for n in proves)
    proved = [n for n in proves if n[0] == "proved"]
    stops = dict.fromkeys(STOP_REASONS.values(), 0)
    for n in proves:
        stops[STOP_REASONS[n[2]]] += 1
    model_notes = notes.get("models.find_model", [])
    clausify_notes = (notes.get("clausify.clausal_problem", [])
                      + notes.get("clausify.assemble", []))
    consults = notes.get("guidance.consult", [])
    advised = sum(1 for n in consults if n["advised"])
    get = total.get

    out = {
        "prover.calls": len(proves),
        "prover.self_s": self_by_layer["prover"],
        "prover.inferences": inferences,
        "prover.inferences_per_self_s": _ratio(inferences, self_by_layer["prover"]),
        "prover.proved_share": _ratio(len(proved), len(proves)),
        "prover.useful_inference_share": _ratio(sum(n[1] for n in proved), inferences),
        "prover.call_ms_p50": _quantile(prove_ms, 0.5),
        "prover.call_ms_p90": _quantile(prove_ms, 0.9),
        "prover.normalize_s": get("prover.normalize", 0.0),
        "checker.calls": calls.get("checker.check", 0),
        "checker.s": get("checker.check", 0.0),
        "checker.rejected": sum(1 for n in notes.get("checker.check", [])
                                if not n.get("ok")),
        "models.calls": len(model_notes),
        "models.s": get("models.find_model", 0.0),
        "models.found_share": _ratio(sum(1 for n in model_notes if n.get("found")),
                                     len(model_notes)),
        "models.resource_errors": sum(1 for n in model_notes
                                      if n.get("error") == "ResourceError"),
        "models.call_ms_p90": _quantile(model_ms, 0.9),
        "parser.calls": calls.get("parser.parse_file", 0),
        "parser.s": get("parser.parse_file", 0.0),
        "corpus.load_s": get("corpus.load", 0.0),
        "clausify.calls": len(clausify_notes),
        "clausify.s": get("clausify.clausal_problem", 0.0) + get("clausify.assemble", 0.0),
        "clausify.cnf_calls": calls.get("clausify.cnf", 0),
        "clausify.cache_hit_share": 1.0 - _ratio(
            calls.get("clausify.cnf", 0), sum(n["forms"] for n in clausify_notes))
        if clausify_notes else 0.0,
        "features.item_s": get("features.item", 0.0),
        "features.item_calls": calls.get("features.item", 0),
        "features.branch_s": get("features.branch", 0.0),
        "learner.rank_calls": calls.get("learner.rank", 0),
        "learner.rank_s": get("learner.rank", 0.0),
        "learner.candidates_scored": sum(n["candidates"]
                                         for n in notes.get("learner.rank", [])),
        "learner.train_s": get("learner.train", 0.0),
        "loop.rank_eligible_s": get("loop.rank_eligible", 0.0),
        "loop.self_s": self_by_layer["loop"],
        "guidance.consults": len(consults),
        "guidance.consult_s": get("guidance.consult", 0.0),
        "guidance.advised_share": _ratio(advised, len(consults)),
        "guidance.cache_hit_share": 1.0 - _ratio(calls.get("guidance.advise", 0),
                                                 advised) if advised else 0.0,
        "guidance.outcome_s": get("guidance.outcome", 0.0),
        "guidance.flush_s": get("guidance.flush", 0.0),
        # the advisor's whole cost, with the branch features it computes
        "guidance.wall_share": _ratio(get("guidance.consult", 0.0)
                                      + get("guidance.outcome", 0.0)
                                      + get("guidance.flush", 0.0), run_s),
        "harness.io_s": self_by_layer["io"],
        "trace.spans": len(spans),
        "trace.wall_s": run_s,
        "trace.setup_s": get("entry.setup", 0.0),
    }
    for reason, count in stops.items():
        out[f"prover.stop_{reason}"] = count
    for layer, self_s in self_in_run.items():
        out[f"share.{layer}"] = _ratio(self_s, run_s)
    return out
