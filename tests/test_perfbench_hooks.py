"""The benchmark's hooks must keep working against the program.

perfbench/layers.py replaces functions in the program's modules by name;
a renamed or removed one makes every traced benchmark run raise.
perfbench/worker.py calls the program's entry points directly; a changed
signature makes every benchmark run of that workload fail.
"""
import importlib.util
import json
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def layers():
    return _load("layers")


def test_tracer_installs_and_restores_every_wrapper(layers):
    from proofbench import harness, loop

    originals = (loop.prove, harness._RecordWriter.write, harness.run_loop)
    tracer = layers.Tracer("t")
    try:
        layers.install_program_wrappers(tracer)
        assert tracer._installed
        assert loop.prove is not originals[0]
    finally:
        tracer.restore()
    assert (loop.prove, harness._RecordWriter.write, harness.run_loop) == originals


def test_library_trace_shows_item_features_and_one_ranking_per_theorem(
        layers, tmp_path):
    from proofbench.harness import ExperimentSpec, run_library
    from proofbench.loop import LoopConfig

    corpus = os.path.join(os.path.dirname(PERFBENCH), "corpora", "mixed30")
    out = tmp_path / "run"
    tracer = layers.Tracer("t")
    try:
        layers.install_program_wrappers(tracer)
        run_library(ExperimentSpec(
            mode="library", corpus=corpus, out_dir=str(out), baseline=False,
            loop=LoopConfig(axiom_ladder=(1, 2, 4), max_depth=6)))
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    with open(out / "learning" / "results.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert "features.item" in names
    assert len(records) > len({(r["item"], r["iteration"]) for r in records})
    assert names.count("loop.rank_eligible") == len(
        {(r["item"], r["iteration"]) for r in records})


def test_challenge_trace_shows_one_assembly_per_attempt_and_cached_forms(
        layers, small_inputs, tmp_path):
    from proofbench.harness import ExperimentSpec, run_challenge
    from proofbench.loop import LoopConfig

    out = tmp_path / "run"
    tracer = layers.Tracer("t")
    try:
        layers.install_program_wrappers(tracer)
        run_challenge(ExperimentSpec(
            mode="challenge", problems=small_inputs["challenge"],
            out_dir=str(out), loop=LoopConfig(axiom_ladder=(4, 8, 16))))
    finally:
        tracer.restore()
    records = (out / "results.jsonl").read_text().splitlines()
    assembled = [span for span in tracer.spans if span[0] == "clausify.assemble"]
    cnf_calls = sum(1 for span in tracer.spans if span[0] == "clausify.cnf")
    assert len(assembled) == len(records)
    assert 0 < cnf_calls < sum(span[4]["forms"] for span in assembled)
    # the batch shares one statement table, yet each file is one parser span
    files = [fn for fn in os.listdir(small_inputs["challenge"]) if fn.endswith(".p")]
    parsed = [span for span in tracer.spans if span[0] == "parser.parse_file"]
    assert len(parsed) == len(files) > 0


def test_parse_problem_file_is_wrapped_in_every_module_that_binds_it(layers):
    from proofbench import corpus, harness, parser

    tracer = layers.Tracer("t")
    try:
        layers.install_program_wrappers(tracer)
        wrapped = {target for target, attr, _fn in tracer._installed
                   if attr == "parse_problem_file"}
    finally:
        tracer.restore()
    assert wrapped == {corpus, harness, parser}


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    from proofbench.generator import generate_corpus

    root = tmp_path_factory.mktemp("bench_inputs")
    generate_corpus("mixed", 30, str(root / "mixed30"), verify=False)
    generate_corpus("neardup", 6, str(root / "neardup6"), verify=False)
    return {"library": str(root / "mixed30"), "challenge": str(root / "neardup6"),
            "speedup": str(root / "neardup6")}


@pytest.mark.parametrize("name", ["library-search", "library-select",
                                  "challenge-batch", "guided-speedup"])
def test_worker_entry_calls_run_and_check(name, small_inputs, tmp_path):
    worker = _load("worker")
    assert name in worker.WORKLOADS
    workload = worker.WORKLOADS[name]
    out = str(tmp_path / "out")
    results = worker._setup(workload, small_inputs[workload["mode"]], out)()
    checked = worker._check(workload, results, out)
    assert checked["errors"] == []
    assert checked["attempts"] > 0


def test_speedup_trace_shows_one_branch_walk_per_consult_the_throttle_passes(
        layers, small_inputs, tmp_path, monkeypatch):
    from proofbench import guidance

    worker = _load("worker")
    policy, passed = guidance.throttle_policy, []

    def throttle(depth, n_candidates):
        passed.append(policy(depth, n_candidates))
        return passed[-1]
    monkeypatch.setattr(guidance, "throttle_policy", throttle)
    tracer = layers.Tracer("t")
    try:
        layers.install_program_wrappers(tracer)
        worker._setup(worker.WORKLOADS["guided-speedup"], small_inputs["speedup"],
                      str(tmp_path / "out"))()
    finally:
        tracer.restore()
    spans = tracer.spans
    branch = [span for span in spans if span[0] == "features.branch"]
    assert sum(1 for span in spans if span[0] == "guidance.consult") == len(passed)
    assert 0 < len(branch) == sum(passed)
    assert all(spans[span[3]][0] == "guidance.consult" for span in branch)
