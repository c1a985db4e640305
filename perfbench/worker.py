"""One repetition of one workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --input DIR --out DIR [--trace]

Imports the program from `src/`, does the set-up the command line would
do, times the workload's entry call, then checks the outputs outside the
timed window and prints one JSON object.  With `--trace` the layer
wrappers are installed before set-up and removed after the entry call,
and the spans are written to `DIR/spans.jsonl`.

The process runs nothing else, so its peak RSS belongs to this run.

Times are reported at a nominal machine speed.  The machine this was
tuned on (a shared VM) changes speed by a third or more from one minute
to the next, which no bound of a quarter can absorb.  So a fixed
pure-Python reference loop, unrelated to the program, is timed just
before and just after the entry call, and every end-to-end time is
scaled by REFERENCE_S / (mean reference time).  A program change moves
the scaled times in the same proportion as the raw ones; the raw times
are reported too.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE_S = 0.25      # the reference loop's time at the nominal speed

# entry point and settings of each workload; inputs come from gen.py
WORKLOADS = {
    "library-search": {"mode": "library", "baseline": True,
                       "loop": {"axiom_ladder": (4, 8, 16, 32),
                                "attempt_budgets": (2000,),
                                "total_inference_budget": 50000}},
    "library-select": {"mode": "library", "baseline": False,
                       "loop": {"axiom_ladder": (4, 8, 16),
                                "attempt_budgets": (500,)}},
    "challenge-batch": {"mode": "challenge",
                        "loop": {"axiom_ladder": (4, 8, 16),
                                 "attempt_budgets": (2000,)}},
    "guided-speedup": {"mode": "speedup", "budget": 50000, "depth": 10},
}


def _tree(n: int, depth: int):
    return (n,) if depth == 0 else (_tree(n + 1, depth - 1), _tree(2 * n, depth - 1))


def _leaves(node, counts: dict) -> int:
    if len(node) == 1:
        key = node[0] % 251
        counts[key] = counts.get(key, 0) + 1
        return 1
    return _leaves(node[0], counts) + _leaves(node[1], counts)


def _reference_s() -> float:
    """Seconds for fixed interpreter work: recursion, tuples, dicts, strings.

    The collector is off so that the program's heap cannot change it.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict = {}
        for i in range(400):
            _leaves(_tree(i, 10), counts)
            sorted(f"{k}:{v}" for k, v in counts.items())
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _digest(blob) -> str:
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def _jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _bytes_under(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _dirs, files in os.walk(path) for f in files)


def _setup(workload: dict, input_dir: str, out_dir: str):
    """What the command line does before the entry call; returns the call."""
    from proofbench import clausify, guidance, harness, loop, parser, prover

    mode = workload["mode"]
    if mode == "speedup":
        # as cli.cmd_speedup: parse and clausify every problem first
        names = sorted(fn for fn in os.listdir(input_dir) if fn.endswith(".p"))
        problems = [(fn[:-2], clausify.clausal_problem(
            parser.parse_problem_file(os.path.join(input_dir, fn)))) for fn in names]
        limits = prover.Limits(inference_budget=workload["budget"],
                               max_depth=workload["depth"])
        return lambda: guidance.measure_speedup(problems, limits)
    cfg = loop.LoopConfig(**workload["loop"])
    if mode == "library":
        spec = harness.ExperimentSpec(mode="library", corpus=input_dir,
                                      out_dir=out_dir, loop=cfg,
                                      baseline=workload["baseline"])
        return lambda: harness.run_library(spec)
    spec = harness.ExperimentSpec(mode="challenge", problems=input_dir,
                                  out_dir=out_dir, loop=cfg)
    return lambda: harness.run_challenge(spec)


def _check(workload: dict, results: dict, out_dir: str) -> dict:
    """Output checks and the digest of the deterministic outputs."""
    mode = workload["mode"]
    if mode == "speedup":
        rows = results["rows"]
        records = [[r.problem_id, r.unguided_inferences, r.guided_inferences]
                   for r in rows]
        bad = [r.problem_id for r in rows if r.ratio is not None and
               r.ratio != r.unguided_inferences / r.guided_inferences]
        both = sum(1 for r in rows if r.ratio is not None)
        errors = [f"inconsistent ratio for {p}" for p in bad]
        if both != results["solved_both"]:
            errors.append("solved_both disagrees with the rows")
        return {
            "attempts": 2 * len(rows), "failed": len(bad), "solved": both,
            "inferences": sum(r[1] + r[2] for r in records), "errors": errors,
            "digest": _digest({"rows": records, "solved_both": both}),
        }
    from proofbench.harness import verify_run

    outcome = verify_run(out_dir)
    if mode == "library":
        records = []
        for config in sorted(results["solved"]):
            records += [[config, a["item"], a["rung"], a["status"], a["inferences"]]
                        for a in _jsonl(os.path.join(out_dir, config, "results.jsonl"))]
        inferences = sum(r["inferences_used"] for r in results["reports"].values())
    else:
        ladder = workload["loop"]["axiom_ladder"]
        seen: dict = {}
        records = []
        for r in _jsonl(os.path.join(out_dir, "results.jsonl")):
            rung = ladder[seen.get(r["item"], 0)]
            seen[r["item"]] = seen.get(r["item"], 0) + 1
            records.append([r["config"], r["item"], rung, r["status"], r["inferences"]])
        inferences = sum(r[4] for r in records)
    solved = sum(len(v) for v in results["solved"].values())
    errors = [f"{path}: {why}" for path, why in outcome["failures"]]
    if outcome["checked"] != solved:
        errors.append(f"{outcome['checked']} proofs checked for {solved} solved")
    return {
        "attempts": len(records), "failed": outcome["failed"], "solved": solved,
        "inferences": inferences, "errors": errors,
        "digest": _digest({"solved": results["solved"], "attempts": records}),
    }


def run_once(name: str, input_dir: str, out_dir: str, trace: bool) -> dict:
    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    # importing the program is part of set-up
    from proofbench import clausify, guidance, harness, loop, parser, prover  # noqa: F401

    tracer = None
    if trace:
        import layers
        tracer = layers.Tracer(run_id=os.path.basename(out_dir))
        layers.install_program_wrappers(tracer)
        span = tracer.open("entry.setup")
    try:
        call = _setup(workload, input_dir, out_dir)
        setup_s = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        reference_s = _reference_s()
        if tracer:
            span = tracer.open("entry.run")
        t1 = time.perf_counter()
        results = call()
        wall_s = time.perf_counter() - t1
        if tracer:
            tracer.close(span)
    finally:
        if tracer:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_s = (reference_s + _reference_s()) / 2
    scale = REFERENCE_S / reference_s
    out = {"setup_s": setup_s * scale, "wall_s": wall_s * scale,
           "setup_raw_s": setup_s, "wall_raw_s": wall_s,
           "reference_s": reference_s, "peak_rss_mb": peak_rss_mb}
    out.update(_check(workload, results, out_dir))
    if tracer:
        out["layers"] = layers.layer_metrics(tracer.spans)
        out["layers"]["harness.bytes_written"] = _bytes_under(out_dir)
        tracer.dump(os.path.join(out_dir, "spans.jsonl"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--input", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    try:
        out = run_once(args.workload, os.path.abspath(args.input),
                       os.path.abspath(args.out), args.trace)
    except ImportError:
        raise           # no program to run: not a failed attempt
    except Exception:
        # the entry call or a check raised: the whole run counts as failed
        out = {"error": traceback.format_exc()}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
