import json
import os

import pytest

from proofbench.corpus import write_manifest
from proofbench.generator import generate_corpus
from proofbench.harness import (
    ExperimentSpec, HarnessError, report, run_challenge, run_library,
    run_reprove, run_traintest, together_count, verify_run,
)
from proofbench.loop import LoopConfig

FAST_LOOP = LoopConfig(axiom_ladder=(4, 8, 16), attempt_budgets=(500, 1000, 2000),
                       max_depth=8, max_iterations=6,
                       total_inference_budget=60000)


@pytest.fixture(scope="module")
def mixed30(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("corpus") / "mixed30")
    generate_corpus("mixed", 30, 0, root, verify=False)
    return root


@pytest.fixture(scope="module")
def neardup(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("probs") / "neardup")
    generate_corpus("neardup", 10, 0, root, verify=False)
    return root


def test_spec_validation(tmp_path):
    with pytest.raises(HarnessError):
        ExperimentSpec(mode="nonsense", out_dir=str(tmp_path))
    with pytest.raises(HarnessError):
        ExperimentSpec(mode="reprove", out_dir=str(tmp_path))
    with pytest.raises(HarnessError):
        ExperimentSpec(mode="traintest", corpus="x", out_dir=str(tmp_path))


def test_reprove_mode(mixed30, tmp_path):
    spec = ExperimentSpec(mode="reprove", corpus=mixed30,
                          out_dir=str(tmp_path / "r"), max_depth=8)
    results = run_reprove(spec)
    tally = results["configs"][0]
    assert tally["total"] == 13
    assert tally["proved"] == 13
    assert os.path.exists(os.path.join(str(tmp_path / "r"), "results.jsonl"))
    outcome = verify_run(str(tmp_path / "r"))
    assert outcome["checked"] == 13 and outcome["failed"] == 0


def test_reprove_missing_premise_yields_countersat(tmp_path):
    root = tmp_path / "c"
    root.mkdir()
    for name, role, formula in [
            ("base", "axiom", "p0(c)"),
            ("rule", "axiom", "![X]: (p0(X) => p1(X))"),
            ("t", "conjecture", "p1(c)")]:
        (root / f"{name}.p").write_text(f"fof({name}, {role}, {formula}).\n")
    # reference set omits the needed rule; the pruned set has a small model
    write_manifest(str(root), [("base", "base.p", []), ("rule", "rule.p", []),
                               ("t", "t.p", ["base"])])
    spec = ExperimentSpec(mode="reprove", corpus=str(root),
                          out_dir=str(tmp_path / "out"), max_depth=8)
    results = run_reprove(spec)
    tally = results["configs"][0]
    assert tally["counter_satisfiable"] == 1
    record = json.loads(
        (tmp_path / "out" / "results.jsonl").read_text().splitlines()[0])
    assert record["status"] == "counter_satisfiable"
    assert record["model_file"]
    assert (tmp_path / "out" / record["model_file"]).exists()


def test_reprove_workers_match_sequential(mixed30, tmp_path):
    s1 = ExperimentSpec(mode="reprove", corpus=mixed30,
                        out_dir=str(tmp_path / "w1"), max_depth=8, workers=1)
    s2 = ExperimentSpec(mode="reprove", corpus=mixed30,
                        out_dir=str(tmp_path / "w2"), max_depth=8, workers=3)
    run_reprove(s1)
    run_reprove(s2)
    r1 = (tmp_path / "w1" / "results.jsonl").read_text()
    r2 = (tmp_path / "w2" / "results.jsonl").read_text()
    assert r1 == r2


def test_library_mode_learning_vs_baseline(mixed30, tmp_path):
    spec = ExperimentSpec(mode="library", corpus=mixed30,
                          out_dir=str(tmp_path / "lib"), loop=FAST_LOOP)
    results = run_library(spec)
    names = [c["name"] for c in results["configs"]]
    assert names == ["learning", "recency"]
    learn, base = results["configs"]
    assert learn["proved"] >= base["proved"]
    shortening = results["reports"]["learning"]["shortening"]
    assert any(s["item"] == "fa_th3" for s in shortening)
    outcome = verify_run(str(tmp_path / "lib"))
    assert outcome["failed"] == 0 and outcome["checked"] > 0
    text = report(results)
    assert "together" in text


def test_library_records_share_one_schema(mixed30, tmp_path):
    spec = ExperimentSpec(mode="library", corpus=mixed30,
                          out_dir=str(tmp_path / "lib"), loop=FAST_LOOP)
    run_library(spec)
    top = (tmp_path / "lib" / "results.jsonl").read_text().splitlines()
    per_config = []
    for name in ("learning", "recency"):
        lines = (tmp_path / "lib" / name / "results.jsonl").read_text().splitlines()
        assert all(json.loads(line)["config"] == name for line in lines)
        per_config += lines
    assert top == per_config
    fields = {"config", "iteration", "item", "rung", "budget", "status",
              "inferences", "premises_given", "premises_used", "proof_file",
              "model_file"}
    for line in top:
        record = json.loads(line)
        assert set(record) == fields
        if record["proof_file"]:
            assert (tmp_path / "lib" / record["proof_file"]).exists()
    assert not (tmp_path / "lib" / "proofs").exists()
    assert not (tmp_path / "lib" / "models").exists()


def test_run_dir_verifiable_from_any_directory(mixed30, tmp_path, monkeypatch):
    monkeypatch.chdir(os.path.dirname(mixed30))
    spec = ExperimentSpec(mode="library", corpus=os.path.basename(mixed30),
                          out_dir=str(tmp_path / "lib"), loop=FAST_LOOP)
    run_library(spec)
    monkeypatch.chdir(tmp_path)
    outcome = verify_run(str(tmp_path / "lib"))
    assert outcome["checked"] > 0
    assert outcome["failures"] == [] and outcome["failed"] == 0


def test_challenge_mode(neardup, tmp_path):
    spec = ExperimentSpec(mode="challenge", problems=neardup,
                          out_dir=str(tmp_path / "ch"),
                          loop=LoopConfig(axiom_ladder=(4, 8, 16),
                                          attempt_budgets=(2000,), max_depth=8,
                                          total_inference_budget=200000))
    results = run_challenge(spec)
    tally = results["configs"][0]
    assert tally["proved"] == 10
    assert verify_run(str(tmp_path / "ch"))["failed"] == 0


def test_challenge_learning_on_vs_off_reported_side_by_side(neardup, tmp_path):
    base = dict(axiom_ladder=(4, 8, 16), attempt_budgets=(2000,), max_depth=8,
                total_inference_budget=200000)
    on = run_challenge(ExperimentSpec(
        mode="challenge", problems=neardup, out_dir=str(tmp_path / "on"),
        loop=LoopConfig(**base)))
    off = run_challenge(ExperimentSpec(
        mode="challenge", problems=neardup, out_dir=str(tmp_path / "off"),
        loop=LoopConfig(**base, learning=False)))
    merged = {"configs": on["configs"] + off["configs"]}
    text = report(merged)
    assert "learning" in text and "fixed-order" in text and "together" in text


def test_challenge_zero_budget(neardup, tmp_path):
    spec = ExperimentSpec(mode="challenge", problems=neardup,
                          out_dir=str(tmp_path / "ch0"),
                          loop=LoopConfig(axiom_ladder=(4,),
                                          attempt_budgets=(2000,), max_depth=8,
                                          total_inference_budget=1))
    results = run_challenge(spec)
    assert results["configs"][0]["proved"] == 0


def test_challenge_reads_search_limits_from_loop(neardup, tmp_path):
    # the spec's own max_depth (default 10) is for reprove only
    spec = ExperimentSpec(mode="challenge", problems=neardup,
                          out_dir=str(tmp_path / "d1"),
                          loop=LoopConfig(axiom_ladder=(4, 8, 16),
                                          attempt_budgets=(2000,), max_depth=1))
    results = run_challenge(spec)
    assert results["configs"][0]["proved"] == 0


def test_challenge_features_computed_once_per_problem(neardup, tmp_path, monkeypatch):
    from proofbench import harness

    calls = []
    original = harness.symbol_features
    monkeypatch.setattr(harness, "symbol_features",
                        lambda f: calls.append(f) or original(f))
    spec = ExperimentSpec(mode="challenge", problems=neardup,
                          out_dir=str(tmp_path / "once"),
                          loop=LoopConfig(axiom_ladder=(4, 8, 16),
                                          attempt_budgets=(2000,), max_depth=1))
    run_challenge(spec)
    with open(tmp_path / "once" / "results.jsonl", encoding="utf-8") as fh:
        attempts = sum(1 for _line in fh)
    assert attempts == 30           # nothing proves at depth 1: every rung runs
    assert len(calls) == 10


def test_traintest_mode(mixed30, tmp_path):
    spec = ExperimentSpec(mode="traintest", corpus=mixed30,
                          split=os.path.join(mixed30, "split.txt"),
                          out_dir=str(tmp_path / "tt"), loop=FAST_LOOP)
    results = run_traintest(spec)
    assert results["train_size"] + results["test_size"] == 13
    assert results["configs"][0]["total"] == results["test_size"]
    assert verify_run(str(tmp_path / "tt"))["failed"] == 0


def test_traintest_empty_train_split_is_cold_start(mixed30, tmp_path):
    split = tmp_path / "cold.txt"
    split.write_text("test fa_th1\ntest taut1\n")
    spec = ExperimentSpec(mode="traintest", corpus=mixed30, split=str(split),
                          out_dir=str(tmp_path / "cold"), loop=FAST_LOOP)
    results = run_traintest(spec)
    assert results["train_size"] == 0
    # evaluation still runs; the tautology needs no premises at all
    assert "taut1" in results["solved"]["traintest"]


def test_traintest_honours_total_budget(mixed30, tmp_path):
    loop = LoopConfig(axiom_ladder=(4, 8, 16), attempt_budgets=(500,),
                      total_inference_budget=10)
    spec = ExperimentSpec(mode="traintest", corpus=mixed30,
                          split=os.path.join(mixed30, "split.txt"),
                          out_dir=str(tmp_path / "tt10"), loop=loop)
    run_traintest(spec)
    lines = (tmp_path / "tt10" / "results.jsonl").read_text().splitlines()
    assert lines
    assert sum(json.loads(line)["inferences"] for line in lines) <= 10


def test_challenge_single_problem_equals_one_prove_call(tmp_path):
    from proofbench.clausify import clausal_problem
    from proofbench.parser import parse_problem_file
    from proofbench.prover import Limits, prove

    root = tmp_path / "one"
    root.mkdir()
    (root / "prob.p").write_text(
        "fof(r, axiom, ![X]: (a(X) => g(X))).\n"
        "fof(f, axiom, a(c)).\n"
        "fof(goal, conjecture, g(c)).\n")
    spec = ExperimentSpec(mode="challenge", problems=str(root),
                          out_dir=str(tmp_path / "out"),
                          loop=LoopConfig(axiom_ladder=(16,),
                                          attempt_budgets=(100000,), max_depth=8,
                                          total_inference_budget=10 ** 9))
    results = run_challenge(spec)
    record = json.loads(
        (tmp_path / "out" / "results.jsonl").read_text().splitlines()[0])
    cs = clausal_problem(parse_problem_file(str(root / "prob.p")))
    direct = prove(cs, Limits(inference_budget=100000, max_depth=8))
    assert record["status"] == "proved" == direct.status
    assert record["inferences"] == direct.stats.inferences


def test_traintest_overlap_rejected(mixed30, tmp_path):
    bad = tmp_path / "bad_split.txt"
    bad.write_text("train taut1\ntest taut1\n")
    spec = ExperimentSpec(mode="traintest", corpus=mixed30,
                          split=str(bad), out_dir=str(tmp_path / "tt2"),
                          loop=FAST_LOOP)
    from proofbench.corpus import CorpusError
    with pytest.raises(CorpusError):
        run_traintest(spec)


def test_report_table_shape_and_together_row():
    results = {
        "configs": [
            {"name": "one", "proved": 3, "counter_satisfiable": 0,
             "timeout_or_inference_out": 2, "total": 5,
             "solved_items": ["a", "b", "c"]},
            {"name": "two", "proved": 2, "counter_satisfiable": 1,
             "timeout_or_inference_out": 2, "total": 5,
             "solved_items": ["c", "d"]},
        ],
    }
    text = report(results)
    lines = text.splitlines()
    assert lines[0].split() == ["description", "proved", "counter-satisfiable",
                                "timeout", "or", "inference", "out", "total"]
    assert lines[1].split() == ["one", "3", "0", "2", "5"]
    assert lines[2].split() == ["two", "2", "1", "2", "5"]
    assert lines[3].split() == ["together", "4", "-", "-", "5"]
    assert together_count(results["configs"]) == 4


def test_report_disjoint_union():
    configs = [
        {"name": "x", "proved": 2, "counter_satisfiable": 0,
         "timeout_or_inference_out": 0, "total": 4, "solved_items": ["a", "b"]},
        {"name": "y", "proved": 2, "counter_satisfiable": 0,
         "timeout_or_inference_out": 0, "total": 4, "solved_items": ["c", "d"]},
    ]
    assert together_count(configs) == 4


def test_report_empty_results():
    text = report({"configs": []})
    assert text.splitlines()[0].startswith("description")
    assert len(text.splitlines()) == 1


def test_verify_detects_corruption(mixed30, tmp_path):
    spec = ExperimentSpec(mode="reprove", corpus=mixed30,
                          out_dir=str(tmp_path / "v"), max_depth=8)
    run_reprove(spec)
    proof_dir = tmp_path / "v" / "proofs"
    victim = sorted(proof_dir.glob("*.proof"))[0]
    text = victim.read_text()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("ext "):
            parts = line.split(" | ")
            head = parts[0].split()
            head[2] = "0" if head[2] != "0" else "1"
            lines[i] = " ".join(head) + " | " + " | ".join(parts[1:])
            break
    else:
        # single-step proofs: corrupt the start clause instead
        lines[2] = "start eq_refl"
    victim.write_text("\n".join(lines) + "\n")
    outcome = verify_run(str(tmp_path / "v"))
    assert outcome["failed"] >= 1


def test_verify_rereads_an_edited_corpus(tmp_path):
    root = tmp_path / "mixed30"
    generate_corpus("mixed", 30, 0, str(root), verify=False)
    spec = ExperimentSpec(mode="reprove", corpus=str(root),
                          out_dir=str(tmp_path / "run"), max_depth=8)
    run_reprove(spec)
    assert (tmp_path / "run" / "proofs" / "fa_th1.proof").exists()
    assert verify_run(str(tmp_path / "run"))["failed"] == 0
    # reverse the rule that fa_th1's stored proof uses
    (root / "fa_rule1.p").write_text(
        "fof(fa_rule1, axiom, ![X]: (fa1(X) => fa0(X))).\n")
    outcome = verify_run(str(tmp_path / "run"))
    assert outcome["failed"] >= 1
    assert any(path.endswith("fa_th1.proof") for path, _why in outcome["failures"])
