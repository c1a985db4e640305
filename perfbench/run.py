"""The benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Generates the workload's inputs
from the seed, then repeats the workload, one fresh worker process at a
time, until S seconds have passed.  Every repetition's outputs are
checked and their digests must agree.  Prints each metric with its unit
and direction, the digest, and as its last line one JSON object:
end-to-end metrics with `--trace 0`; with `--trace 1`, untraced and
traced repetitions alternate and the per-layer metrics of the traced
ones are reported.  Metric names and units come from BENCHMARK.json.

Exits 1 when an output check fails, 2 when the program cannot be run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 3          # of each kind the run reports (untraced, traced)
RUN_CAP_S = 150.0     # no repetition starts that could end after this
WORKER_TIMEOUT_S = 150.0


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {"end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"]}


def _run_worker(workload: str, input_dir: str, out_dir: str, traced: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--input", input_dir, "--out", out_dir] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _fail(f"a {workload} repetition ran longer than {WORKER_TIMEOUT_S:.0f} s", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        _fail(f"the {workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g} q3 {q3:.6g} n={len(values)}"


def main(argv=None) -> int:
    import gen
    import worker

    generators = {"library-search": gen.library_search,
                  "library-select": gen.library_select,
                  "challenge-batch": gen.challenge_batch,
                  "guided-speedup": gen.guided_speedup}
    ap = argparse.ArgumentParser(description="proofbench benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    specs = _metric_specs()

    out_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        input_dir = os.path.join(work, "input")
        generators[args.workload](input_dir, args.seed)
        reps = _repeat(args, input_dir, work, out_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _report(args, specs, reps)


def _repeat(args, input_dir: str, work: str, out_root: str) -> list:
    """(traced, worker result) per repetition, for at least `--seconds`."""
    start = time.monotonic()
    reps: list = []
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        out_dir = os.path.join(work, f"rep{len(reps)}")
        t = time.monotonic()
        result = _run_worker(args.workload, input_dir, out_dir, traced)
        longest = max(longest, time.monotonic() - t)
        reps.append((traced, result))
        if traced and "error" not in result:
            shutil.copyfile(os.path.join(out_dir, "spans.jsonl"),
                            os.path.join(out_root, f"spans-{args.workload}.jsonl"))
        shutil.rmtree(out_dir, ignore_errors=True)
        elapsed = time.monotonic() - start
        kinds = [False, True] if args.trace else [False]
        enough = all(sum(1 for k, _r in reps if k == kind) >= MIN_REPS for kind in kinds)
        if (enough and elapsed >= args.seconds) or elapsed + longest > RUN_CAP_S:
            return reps


def _report(args, specs: dict, reps: list) -> int:
    errors = []
    plain = [r for traced, r in reps if not traced]
    ok = [r for r in plain if "error" not in r]
    for traced, r in reps:
        if "error" in r:
            errors.append("a repetition raised:\n" + r["error"])
        else:
            errors += r["errors"]
    if not ok:
        errors.append("no untraced repetition completed")
    attempts_each = max((r["attempts"] for r in ok), default=1)
    attempted = sum(r.get("attempts", attempts_each) for r in plain)
    failed = sum(r.get("failed", attempts_each) for r in plain)
    digests = sorted({r["digest"] for _t, r in reps if "digest" in r})
    if len(digests) > 1:
        errors.append(f"outputs differ between repetitions: digests {digests}")
    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    measured = {
        "wall_s": [r["wall_s"] for r in ok],
        "inferences_per_s": [r["inferences"] / r["wall_s"] for r in ok],
        "solved": [r["solved"] for r in ok],
        "ok_share": [1.0 - failed / attempted],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "setup_s": [r["setup_s"] for r in ok],
    }
    layer_runs = [r["layers"] for traced, r in reps if traced and "error" not in r]
    if args.trace and layer_runs and ok:
        traced_wall = statistics.median([r["wall_s"] for t, r in reps if t and "error" not in r])
        for lm in layer_runs:
            lm["trace.overhead_share"] = traced_wall / statistics.median(measured["wall_s"]) - 1.0
        for name in layer_runs[0]:
            measured[name] = [lm[name] for lm in layer_runs]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(layer_runs)} traced repetitions")
    print(f"  failed_share {failed / attempted:.6g} ({failed} of {attempted} attempts)")
    for name in ("wall_raw_s", "setup_raw_s", "reference_s") if ok else ():
        values = [r[name] for r in ok]
        print(f"  {name:<34} {statistics.median(values):>14.6g} s         "
              f"lower  {_spread(values)}")
    metrics = {}
    kind = "per_layer" if args.trace else "end_to_end"
    for group in ("end_to_end", "per_layer"):
        for spec in specs[group]:
            values = measured.get(spec["name"])
            if not values:
                continue
            value = statistics.median(values)
            print(f"  {spec['name']:<34} {value:>14.6g} {spec['unit']:<9}"
                  f" {spec['better']:<6} {_spread(values)}")
            if group == kind:
                metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    for digest in digests:
        print(f"digest {args.workload} {digest}")
    missing = [s["name"] for s in specs[kind] if s["name"] not in metrics]
    if missing and not errors:
        _fail(f"metrics not measured: {missing}")
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "proofbench", "__init__.py")):
        _fail(f"no program to benchmark: {os.path.join(ROOT, 'src', 'proofbench')} "
              "is missing")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
