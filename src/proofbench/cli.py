"""Command-line interface.

Subcommands: generate, reprove, library, challenge, traintest, verify,
report, speedup.  Every run is deterministic: budgets count inferences,
never wall-clock time.  Each option is registered only on the
subcommands that read it.  A run option sets the `LoopConfig` or
`ExperimentSpec` field it is stored under; one not given leaves the
field's default.  A setting that `Limits`, those classes or the
generator's `check_size` reject ends the command with exit code 2
before anything is written, and so does an input the program cannot
read (any `fol.ProblemError`: a parse, include, arity or corpus error,
a missing directory, a problem with no conjecture, a `verify` path with
no config.json, a `report` path with no report.json, or a run's `--out`
that already holds a config.json); otherwise the exit code reflects
invariant violations (a failed proof check, a broken run directory),
never unsolved problems.

Environment: PROOFBENCH_OUTPUT_ROOT prefixes relative --out paths.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .fol import ProblemError
from .generator import FAMILIES, GeneratorError, check_size, generate_corpus
from .guidance import measure_speedup
from .harness import (
    ExperimentSpec, report, run_challenge, run_library, run_reprove,
    run_traintest, verify_run,
)
from .loop import LoopConfig, whole_problems
from .parser import parse_problem_dir
from .prover import Limits


def _int_list(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x)


def _spec(args) -> ExperimentSpec:
    """The run's settings: each option given sets the field it names."""
    given = vars(args)

    def fields_of(cls) -> dict:
        return {f.name: given[f.name] for f in fields(cls) if f.name in given}

    return ExperimentSpec(mode=args.command,
                          loop=LoopConfig(**fields_of(LoopConfig)),
                          **fields_of(ExperimentSpec))


def _settings(args):
    """The checked settings of a command that writes output: raises on a
    value that `Limits`, the run classes or the generator reject."""
    if args.command in ("verify", "report"):
        return None
    if args.command == "generate":
        return check_size(args.family, args.size)
    if args.command == "speedup":
        if args.train_count is not None and args.train_count < 0:
            raise ValueError(f"--train-count must be >= 0, got {args.train_count}")
        return Limits(inference_budget=args.budget, max_depth=args.depth)
    return _spec(args)


def _field(p, flag: str, dest: str, **kw):
    """An option that sets the field `dest` only when it is given."""
    p.add_argument(flag, dest=dest, default=argparse.SUPPRESS, **kw)


def _add_common(p, corpus=True):
    if corpus:
        _field(p, "--corpus", "corpus", required=True, help="corpus directory")
    _field(p, "--out", "out_dir", required=True, help="output directory")
    _field(p, "--depth", "max_depth", type=int, help="max tableau path depth")
    _field(p, "--max-domain", "model_max_domain", type=int,
           help="model finder domain cap")


def _add_ladder_flags(p):
    _field(p, "--ladder", "axiom_ladder", type=_int_list,
           help="axiom-count ladder, e.g. 4,8,16")
    _field(p, "--budgets", "attempt_budgets", type=_int_list,
           help="per-rung inference budgets, e.g. 500,1000,2000")
    _field(p, "--total-budget", "total_inference_budget", type=int,
           help="shared inference budget for the whole run")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="proofbench",
        description="batch theorem-proving experiments with learned premise selection")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic corpus")
    g.add_argument("--family", choices=FAMILIES, required=True)
    g.add_argument("--size", type=int, required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--no-verify", action="store_true",
                   help="skip generation-time provability checks")

    r = sub.add_parser("reprove", help="re-prove each theorem from its reference premises")
    _add_common(r)
    _field(r, "--budget", "per_problem_budget", type=int,
           help="per-problem inference budget")
    _field(r, "--workers", "workers", type=int,
           help="worker processes that prove and check attempts")

    l = sub.add_parser("library", help="full selection loop over the corpus")
    _add_common(l)
    _add_ladder_flags(l)
    _field(l, "--iterations", "max_iterations", type=int,
           help="cap on learning iterations")
    _field(l, "--no-semantic", "semantic", action="store_false",
           help="disable countermodel (MOD) features")
    _field(l, "--guidance", "guidance", action="store_true",
           help="enable clause-choice guidance inside the prover")
    _field(l, "--no-baseline", "baseline", action="store_false",
           help="skip the chronological-recency comparison run")

    c = sub.add_parser("challenge", help="shared-budget batch of standalone problems")
    _field(c, "--problems", "problems", required=True,
           help="directory of .p files")
    _add_common(c, corpus=False)
    _add_ladder_flags(c)
    _field(c, "--no-learning", "learning", action="store_false",
           help="fixed axiom order instead of learned ranking")

    t = sub.add_parser("traintest", help="train on a declared split, evaluate the rest")
    _add_common(t)
    _add_ladder_flags(t)
    _field(t, "--split", "split", required=True,
           help="split file (train/test lines)")

    v = sub.add_parser("verify", help="re-check every stored proof and "
                       "countermodel in a run directory")
    v.add_argument("--run", required=True)

    rep = sub.add_parser("report", help="render tables from run directories")
    rep.add_argument("--run", action="append", required=True,
                     help="run directory (repeatable; union row across runs)")

    sp = sub.add_parser("speedup", help="guided vs unguided inference counts")
    sp.add_argument("--problems", required=True, help="directory of .p files")
    sp.add_argument("--out", required=True)
    sp.add_argument("--train-count", type=int, default=None, dest="train_count")
    sp.add_argument("--budget", type=int, default=50000)
    sp.add_argument("--depth", type=int, default=10)
    return ap


def cmd_generate(args) -> int:
    generate_corpus(args.family, args.size, args.out, verify=not args.no_verify)
    print(f"wrote {args.family} corpus of size {args.size} to {args.out}")
    return 0


def cmd_run(spec: ExperimentSpec) -> int:
    runner = {"reprove": run_reprove, "library": run_library,
              "challenge": run_challenge, "traintest": run_traintest}[spec.mode]
    results = runner(spec)
    print(report(results))
    return 0


def _run_dir(run: str, name: str) -> None:
    """Raise `ProblemError` unless `run` holds the file `name`."""
    if not os.path.isfile(os.path.join(run, name)):
        raise ProblemError(f"{run!r} is not a run directory: it holds no {name}")


def cmd_verify(args) -> int:
    _run_dir(args.run, "config.json")
    outcome = verify_run(args.run)
    print(f"checked {outcome['checked']} proofs and {outcome['models_checked']} "
          f"models, {outcome['failed']} failures")
    for path, why in outcome["failures"]:
        print(f"  FAIL {path}: {why}")
    return 1 if outcome["failed"] else 0


def cmd_report(args) -> int:
    configs = []
    merged = {"configs": configs, "reports": {}}
    for run in args.run:        # nothing is printed before every run is read
        _run_dir(run, "report.json")
        with open(os.path.join(run, "report.json"), encoding="utf-8") as fh:
            blob = json.load(fh)
        configs.extend(blob.get("configs", []))
        merged["reports"].update(blob.get("reports", {}))
    print(report(merged))
    return 0


def cmd_speedup(args, limits: Limits) -> int:
    problems = whole_problems(parse_problem_dir(args.problems))
    outcome = measure_speedup(problems, limits, train_count=args.train_count)
    os.makedirs(args.out, exist_ok=True)
    rows = [{"problem": r.problem_id, "unguided": r.unguided_inferences,
             "guided": r.guided_inferences, "ratio": r.ratio}
            for r in outcome["rows"]]
    blob = {"rows": rows, "geometric_mean_ratio": outcome["geometric_mean_ratio"],
            "solved_both": outcome["solved_both"]}
    with open(os.path.join(args.out, "speedup.json"), "w", encoding="utf-8") as fh:
        json.dump(blob, fh, sort_keys=True, indent=1)
    print(f"{'problem':<12} {'unguided':>9} {'guided':>7} {'ratio':>7}")
    for r in outcome["rows"]:
        ratio = f"{r.ratio:.3f}" if r.ratio is not None else "-"
        print(f"{r.problem_id:<12} {r.unguided_inferences:>9} "
              f"{r.guided_inferences:>7} {ratio:>7}")
    g = outcome["geometric_mean_ratio"]
    print(f"geometric mean ratio: {g:.3f}" if g is not None else
          "geometric mean ratio: undefined (nothing solved by both)")
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:        # a setting the program rejects ends the run before any output
        settings = _settings(args)
    except (ValueError, GeneratorError) as exc:
        ap.error(f"{args.command}: {exc}")
    try:        # so does an input it cannot read
        if args.command in ("generate", "verify", "report"):
            return {"generate": cmd_generate, "verify": cmd_verify,
                    "report": cmd_report}[args.command](args)
        if args.command == "speedup":
            return cmd_speedup(args, settings)
        return cmd_run(settings)
    except ProblemError as exc:
        ap.error(f"{args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
