"""Command-line interface.

Subcommands: generate, reprove, library, challenge, traintest, verify,
report, speedup.  Every run is deterministic: budgets count inferences,
never wall-clock time.  Apart from the ignored --seed, each option is
registered only on the subcommands that read it.  The exit code
reflects invariant violations (a failed proof check, a broken run
directory), never unsolved problems.

Environment: PROOFBENCH_OUTPUT_ROOT prefixes relative --out paths.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .generator import FAMILIES, generate_corpus
from .guidance import measure_speedup
from .harness import (
    ExperimentSpec, report, run_challenge, run_library, run_reprove,
    run_traintest, verify_run,
)
from .loop import LoopConfig
from .prover import Limits


def _int_list(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x)


def _loop_config(args) -> LoopConfig:
    kw = {}
    if getattr(args, "ladder", None):
        kw["axiom_ladder"] = _int_list(args.ladder)
    if getattr(args, "budgets", None):
        kw["attempt_budgets"] = _int_list(args.budgets)
    if getattr(args, "iterations", None):
        kw["max_iterations"] = args.iterations
    if getattr(args, "total_budget", None):
        kw["total_inference_budget"] = args.total_budget
    if getattr(args, "depth", None):
        kw["max_depth"] = args.depth
    if getattr(args, "max_domain", None):
        kw["model_max_domain"] = args.max_domain
    if getattr(args, "no_semantic", False):
        kw["semantic"] = False
    if getattr(args, "guidance", False):
        kw["guidance"] = True
    if getattr(args, "no_learning", False):
        kw["learning"] = False
    return LoopConfig(**kw)


def _spec(args, mode: str) -> ExperimentSpec:
    return ExperimentSpec(
        mode=mode,
        corpus=getattr(args, "corpus", "") or "",
        problems=getattr(args, "problems", "") or "",
        out_dir=args.out,
        split=getattr(args, "split", "") or "",
        workers=getattr(args, "workers", 1) or 1,
        per_problem_budget=getattr(args, "budget", None) or 20000,
        loop=_loop_config(args),
        baseline=not getattr(args, "no_baseline", False),
    )


def _add_common(p, corpus=True):
    if corpus:
        p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: runs are deterministic")
    p.add_argument("--depth", type=int, default=10, help="max tableau path depth")
    p.add_argument("--max-domain", type=int, default=3, dest="max_domain",
                   help="model finder domain cap")


def _add_ladder_flags(p):
    p.add_argument("--ladder", default=None, help="axiom-count ladder, e.g. 4,8,16")
    p.add_argument("--budgets", default=None,
                   help="per-rung inference budgets, e.g. 500,1000,2000")
    p.add_argument("--total-budget", type=int, default=None, dest="total_budget",
                   help="shared inference budget for the whole run")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="proofbench",
        description="batch theorem-proving experiments with learned premise selection")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic corpus")
    g.add_argument("--family", choices=FAMILIES, required=True)
    g.add_argument("--size", type=int, required=True)
    g.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: every family is deterministic")
    g.add_argument("--out", required=True)
    g.add_argument("--no-verify", action="store_true",
                   help="skip generation-time provability checks")

    r = sub.add_parser("reprove", help="re-prove each theorem from its reference premises")
    _add_common(r)
    r.add_argument("--budget", type=int, default=20000,
                   help="per-problem inference budget")
    r.add_argument("--workers", type=int, default=1,
                   help="worker processes that prove and check attempts")

    l = sub.add_parser("library", help="full selection loop over the corpus")
    _add_common(l)
    _add_ladder_flags(l)
    l.add_argument("--iterations", type=int, default=None,
                   help="cap on learning iterations")
    l.add_argument("--no-semantic", action="store_true", dest="no_semantic",
                   help="disable countermodel (MOD) features")
    l.add_argument("--guidance", action="store_true",
                   help="enable clause-choice guidance inside the prover")
    l.add_argument("--no-baseline", action="store_true", dest="no_baseline",
                   help="skip the chronological-recency comparison run")

    c = sub.add_parser("challenge", help="shared-budget batch of standalone problems")
    c.add_argument("--problems", required=True, help="directory of .p files")
    _add_common(c, corpus=False)
    _add_ladder_flags(c)
    c.add_argument("--no-learning", action="store_true", dest="no_learning",
                   help="fixed axiom order instead of learned ranking")

    t = sub.add_parser("traintest", help="train on a declared split, evaluate the rest")
    _add_common(t)
    _add_ladder_flags(t)
    t.add_argument("--split", required=True, help="split file (train/test lines)")

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
    sp.add_argument("--no-training", action="store_true", dest="no_training")
    return ap


def cmd_generate(args) -> int:
    generate_corpus(args.family, args.size, args.seed, args.out,
                    verify=not args.no_verify)
    print(f"wrote {args.family} corpus of size {args.size} to {args.out}")
    return 0


def cmd_run(args, mode: str) -> int:
    spec = _spec(args, mode)
    runner = {"reprove": run_reprove, "library": run_library,
              "challenge": run_challenge, "traintest": run_traintest}[mode]
    results = runner(spec)
    print(report(results))
    return 0


def cmd_verify(args) -> int:
    outcome = verify_run(args.run)
    print(f"checked {outcome['checked']} proofs and {outcome['models_checked']} "
          f"models, {outcome['failed']} failures")
    for path, why in outcome["failures"]:
        print(f"  FAIL {path}: {why}")
    return 1 if outcome["failed"] else 0


def cmd_report(args) -> int:
    configs = []
    merged = {"configs": configs, "reports": {}}
    for run in args.run:
        with open(os.path.join(run, "report.json"), encoding="utf-8") as fh:
            blob = json.load(fh)
        configs.extend(blob.get("configs", []))
        merged["reports"].update(blob.get("reports", {}))
    print(report(merged))
    return 0


def cmd_speedup(args) -> int:
    from .clausify import clausal_problem
    from .loop import ClausalCache
    from .parser import parse_problem_dir

    clausifier = ClausalCache()
    problems = [(pid, clausal_problem(problem, clausifier.form))
                for pid, problem in parse_problem_dir(args.problems)]
    limits = Limits(inference_budget=args.budget, max_depth=args.depth)
    outcome = measure_speedup(problems, limits, train_count=args.train_count,
                              training_enabled=not args.no_training)
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
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        return cmd_generate(args)
    if args.command in ("reprove", "library", "challenge", "traintest"):
        return cmd_run(args, args.command)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "speedup":
        return cmd_speedup(args)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
