import json
import os
import shutil
import subprocess
import sys

import pytest

import proofbench
from proofbench import clausify, harness, loop
from proofbench.clausify import clausal_problem
from proofbench.corpus import load_corpus, write_manifest
from proofbench.fol import Problem, make_problem
from proofbench.generator import generate_corpus
from proofbench.harness import (
    ExperimentSpec, HarnessError, report, run_challenge, run_library,
    run_reprove, run_traintest, together_count, verify_run,
)
from proofbench.loop import LoopConfig, clause_set_builder
from proofbench.models import evaluate, model_from_text
from proofbench.parser import parse_problem_file

from helpers import read_stream, stored_record, write_stream

FAST_LOOP = LoopConfig(axiom_ladder=(4, 8, 16), attempt_budgets=(500, 1000, 2000),
                       max_depth=8, max_iterations=6,
                       total_inference_budget=60000)


@pytest.fixture(scope="module")
def mixed30(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("corpus") / "mixed30")
    generate_corpus("mixed", 30, root, verify=False)
    return root


@pytest.fixture(scope="module")
def neardup50(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("probs") / "neardup50")
    generate_corpus("neardup", 50, root, verify=False)
    return root


@pytest.fixture(scope="module")
def neardup(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("probs") / "neardup")
    generate_corpus("neardup", 10, root, verify=False)
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
                          out_dir=str(tmp_path / "r"),
                          loop=LoopConfig(max_depth=8))
    results = run_reprove(spec)
    tally = results["configs"][0]
    assert tally["total"] == 13
    assert tally["proved"] == 13
    assert os.path.exists(os.path.join(str(tmp_path / "r"), "results.jsonl"))
    outcome = verify_run(str(tmp_path / "r"))
    assert outcome["checked"] == 13 and outcome["failed"] == 0
    # one attempt per theorem, in theorem order, each at the rung of its
    # reference premise count and at the per-problem budget
    theorems = [item for _i, item in load_corpus(mixed30).theorems()]
    records = _records(tmp_path / "r")
    assert [r["item"] for r in records] == [item.name for item in theorems]
    for record, item in zip(records, theorems):
        assert (record["config"], record["iteration"]) == ("reprove", 1)
        assert record["premises_given"] == list(item.reference_premises)
        assert record["rung"] == len(record["premises_given"]) \
            == len(item.reference_premises)
        assert record["budget"] == spec.per_problem_budget == 20000


def _reprove_missing_premise(tmp_path, out="out", workers=1,
                             theorems=("t",)) -> dict:
    """A reprove run into tmp_path/<out> whose theorems (one, `t`, unless
    told otherwise) are counter-satisfiable: each reference set omits the
    rule it needs, and the pruned set has a small model."""
    root = tmp_path / "c"
    root.mkdir(exist_ok=True)
    for name, role, formula in [
            ("base", "axiom", "p0(c)"),
            ("rule", "axiom", "![X]: (p0(X) => p1(X))")] + [
            (t, "conjecture", "p1(c)") for t in theorems]:
        (root / f"{name}.p").write_text(f"fof({name}, {role}, {formula}).\n")
    write_manifest(str(root), [("base", "base.p", []), ("rule", "rule.p", [])]
                   + [(t, f"{t}.p", ["base"]) for t in theorems])
    spec = ExperimentSpec(mode="reprove", corpus=str(root),
                          out_dir=str(tmp_path / out),
                          loop=LoopConfig(max_depth=8), workers=workers)
    return run_reprove(spec)


def test_reprove_missing_premise_yields_countersat(tmp_path):
    results = _reprove_missing_premise(tmp_path)
    tally = results["configs"][0]
    assert tally["counter_satisfiable"] == 1
    record = json.loads(
        (tmp_path / "out" / "results.jsonl").read_text().splitlines()[0])
    assert record["status"] == "counter_satisfiable"
    assert record["model_file"]
    assert stored_record(str(tmp_path / "out"), record["model_file"])[:2] == [
        "% item t", "% premises_given base"]


def test_verify_rejects_a_mutated_model(tmp_path):
    _reprove_missing_premise(tmp_path)
    out = str(tmp_path / "out")
    assert verify_run(out) == {"checked": 0, "models_checked": 1, "failed": 0,
                               "failures": []}
    stream = tmp_path / "out" / "models.txt"
    records = read_stream(stream)
    lines = records[0]
    lines[lines.index("pred p0(0) = true")] = "pred p0(0) = false"
    # the mutation breaks the model: the premise p0(c) is false in it
    cs = harness._rebuilder(out)("t", ["base"])
    mutated = model_from_text("\n".join(lines[2:]))
    assert [evaluate(c, mutated) for c in cs.clauses].count(False) == 1
    write_stream(stream, records)
    outcome = verify_run(out)
    assert outcome["models_checked"] == 1
    assert outcome["failures"] == [(f"{stream}#0", "model fails a clause")]
    assert outcome["failed"] == 1


def _run_files(run_dir) -> dict:
    """Every file of a run directory but config.json, which names the
    run's own directory: relative path -> bytes."""
    return {name: (run_dir / name).read_bytes()
            for name in _files_under(run_dir) if name != "config.json"}


def test_reprove_workers_match_sequential(mixed30, tmp_path):
    s1 = ExperimentSpec(mode="reprove", corpus=mixed30,
                        out_dir=str(tmp_path / "w1"),
                        loop=LoopConfig(max_depth=8), workers=1)
    s2 = ExperimentSpec(mode="reprove", corpus=mixed30,
                        out_dir=str(tmp_path / "w2"),
                        loop=LoopConfig(max_depth=8), workers=3)
    run_reprove(s1)
    run_reprove(s2)
    files = _run_files(tmp_path / "w1")
    assert sorted(files) == ["models.txt", "proofs.txt", "report.json",
                             "report.txt", "results.jsonl"]
    assert _run_files(tmp_path / "w2") == files
    # countermodels stored through the pool: two theorems, two workers
    for out, workers in (("m1", 1), ("m2", 2)):
        _reprove_missing_premise(tmp_path, out, workers, theorems=("t", "u"))
    files = _run_files(tmp_path / "m1")
    assert len(read_stream(tmp_path / "m1" / "models.txt")) == 2
    assert _run_files(tmp_path / "m2") == files


def test_reprove_pool_is_no_larger_than_its_work(mixed30, tmp_path, monkeypatch):
    # a stand-in for the process pool that starts no process: it records
    # its size and, as a pool does, takes every job before proving any
    import concurrent.futures
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *_exc):
            pass

        def map(self, fn, jobs):
            return [fn(job) for job in list(jobs)]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    for out, workers in (("seq", 1), ("wide", 10**6)):
        run_reprove(ExperimentSpec(mode="reprove", corpus=mixed30,
                                   out_dir=str(tmp_path / out),
                                   loop=LoopConfig(max_depth=8), workers=workers))
    assert sizes == [13]        # one process per theorem at most
    assert _run_files(tmp_path / "wide") == _run_files(tmp_path / "seq")


def test_no_process_pool_machinery_is_loaded_outside_a_pool():
    # only `reprove --workers N` with N > 1 imports the pool
    code = ("import sys\n"
            "import proofbench.cli, proofbench.guidance, proofbench.harness, "
            "proofbench.loop\n"
            "print(sorted(m for m in ('concurrent.futures.process', "
            "'multiprocessing') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(proofbench.__file__))
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_library_mode_learning_vs_baseline(mixed30, tmp_path, monkeypatch):
    forms = []

    def counted_cnf(f, name, negate):
        forms.append((name, negate))
        return clausify.cnf(f, name=name, negate=negate)
    monkeypatch.setattr(loop, "cnf", counted_cnf)
    spec = ExperimentSpec(mode="library", corpus=mixed30,
                          out_dir=str(tmp_path / "lib"), loop=FAST_LOOP)
    results = run_library(spec)
    names = [c["name"] for c in results["configs"]]
    assert names == ["learning", "recency"]
    # the two configurations share one builder: each form is made once
    assert forms and len(forms) == len(set(forms))
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
    fields = {"config", "iteration", "item", "rung", "budget", "status",
              "inferences", "premises_given", "premises_used", "proof_file",
              "model_file"}
    for name in ("learning", "recency"):
        lines = (tmp_path / "lib" / name / "results.jsonl").read_text().splitlines()
        assert lines and all(json.loads(line)["config"] == name for line in lines)
        for line in lines:
            record = json.loads(line)
            assert set(record) == fields
            if record["proof_file"]:
                assert stored_record(str(tmp_path / "lib" / name),
                                     record["proof_file"])[0] \
                    == f"% item {record['item']}"
    assert not (tmp_path / "lib" / "results.jsonl").exists()
    assert not (tmp_path / "lib" / "proofs.txt").exists()
    assert not (tmp_path / "lib" / "models.txt").exists()


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
    outcome = verify_run(str(tmp_path / "ch"))
    assert outcome["failed"] == 0 and outcome["checked"] == 10
    models = sum(1 for r in _records(tmp_path / "ch") if r["model_file"])
    assert outcome["models_checked"] == models > 0


def test_verify_names_a_missing_challenge_problem(neardup, tmp_path):
    problems = tmp_path / "problems"
    shutil.copytree(neardup, problems)
    run_challenge(ExperimentSpec(mode="challenge", problems=str(problems),
                                 out_dir=str(tmp_path / "ch"), loop=FAST_LOOP))
    item = sorted(read_stream(tmp_path / "ch" / "proofs.txt"))[0][0].split()[-1]
    (problems / f"{item}.p").unlink()
    outcome = verify_run(str(tmp_path / "ch"))
    why = f"rebuild failed: no problem file {item}.p in {str(problems)!r}"
    assert (f"{tmp_path / 'ch' / 'proofs.txt'}#{item}", why) in outcome["failures"]


def test_verify_rebuilds_each_challenge_proof_from_its_own_file(neardup, tmp_path):
    problems = tmp_path / "problems"
    shutil.copytree(neardup, problems)
    run_challenge(ExperimentSpec(mode="challenge", problems=str(problems),
                                 out_dir=str(tmp_path / "ch"), loop=FAST_LOOP))
    (problems / "zz_added_later.p").write_text("fof(broken, axiom, p(.\n")
    outcome = verify_run(str(tmp_path / "ch"))
    assert outcome["checked"] > 0 and outcome["failed"] == 0


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
    calls = []
    original = loop.item_features
    monkeypatch.setattr(loop, "item_features",
                        lambda item: calls.append(item) or original(item))
    spec = ExperimentSpec(mode="challenge", problems=neardup,
                          out_dir=str(tmp_path / "once"),
                          loop=LoopConfig(axiom_ladder=(4, 8, 16),
                                          attempt_budgets=(2000,), max_depth=1))
    run_challenge(spec)
    with open(tmp_path / "once" / "results.jsonl", encoding="utf-8") as fh:
        attempts = sum(1 for _line in fh)
    assert attempts == 30           # nothing proves at depth 1: every rung runs
    assert len(calls) == 10


def test_fixed_order_challenge_computes_no_features(neardup, tmp_path, monkeypatch):
    calls = []
    original = loop.item_features
    monkeypatch.setattr(loop, "item_features",
                        lambda item: calls.append(item) or original(item))
    spec = ExperimentSpec(mode="challenge", problems=neardup,
                          out_dir=str(tmp_path / "fixed"),
                          loop=LoopConfig(axiom_ladder=(4, 8, 16),
                                          attempt_budgets=(2000,), max_depth=8,
                                          learning=False))
    results = run_challenge(spec)
    assert results["configs"][0]["proved"] > 0
    assert calls == []


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


def _attempted(run_dir) -> set:
    with open(os.path.join(run_dir, "results.jsonl"), encoding="utf-8") as fh:
        return {json.loads(line)["item"] for line in fh}


def _counts_every_item(row, given: int) -> None:
    assert row["total"] == given
    assert (row["proved"] + row["counter_satisfiable"]
            + row["timeout_or_inference_out"]) == given


def test_challenge_total_counts_problems_the_budget_never_reached(neardup, tmp_path):
    spec = ExperimentSpec(mode="challenge", problems=neardup,
                          out_dir=str(tmp_path / "ch30"),
                          loop=LoopConfig(axiom_ladder=(16,),
                                          total_inference_budget=30))
    results = run_challenge(spec)
    assert len(_attempted(tmp_path / "ch30")) < 10
    _counts_every_item(results["configs"][0], 10)


def test_traintest_total_counts_test_items_the_budget_never_reached(mixed30,
                                                                   tmp_path):
    spec = ExperimentSpec(mode="traintest", corpus=mixed30,
                          split=os.path.join(mixed30, "split.txt"),
                          out_dir=str(tmp_path / "tt5"),
                          loop=LoopConfig(axiom_ladder=(4,),
                                          total_inference_budget=5))
    results = run_traintest(spec)
    assert len(_attempted(tmp_path / "tt5")) < results["test_size"]
    _counts_every_item(results["configs"][0], results["test_size"])


def test_library_total_counts_theorems_the_budget_never_reached(mixed30, tmp_path):
    spec = ExperimentSpec(mode="library", corpus=mixed30,
                          out_dir=str(tmp_path / "lib300"),
                          loop=LoopConfig(axiom_ladder=(4, 8, 16), max_depth=8,
                                          total_inference_budget=300))
    results = run_library(spec)
    theorems = len(list(load_corpus(mixed30).theorems()))
    assert len(_attempted(tmp_path / "lib300" / "recency")) < theorems
    for row in results["configs"]:
        _counts_every_item(row, theorems)
        cumulative = results["reports"][row["name"]]["cumulative"]
        assert cumulative == {c: row[c] for c in cumulative}


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
                          out_dir=str(tmp_path / "v"),
                          loop=LoopConfig(max_depth=8))
    run_reprove(spec)
    stream = tmp_path / "v" / "proofs.txt"
    records = sorted(read_stream(stream))
    lines = records[0]
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
    write_stream(stream, records)
    outcome = verify_run(str(tmp_path / "v"))
    assert outcome["failed"] >= 1


@pytest.fixture(scope="module")
def challenge_run(neardup, tmp_path_factory):
    """A challenge run that stores both proofs and countermodels."""
    out = tmp_path_factory.mktemp("stored") / "ch"
    run_challenge(ExperimentSpec(mode="challenge", problems=neardup,
                                 out_dir=str(out), loop=FAST_LOOP))
    return out


def _damaged_copy(challenge_run, tmp_path, stream_name):
    out = tmp_path / "ch"
    shutil.copytree(challenge_run, out)
    assert verify_run(str(out))["failures"] == []
    stream = out / stream_name
    records = read_stream(stream)
    assert len(records) >= 2
    keys = [lines[0].split()[-1] for lines in records] \
        if stream_name == "proofs.txt" else [str(i) for i in range(len(records))]
    return out, stream, records, keys


@pytest.mark.parametrize("stream_name", ["proofs.txt", "models.txt"])
def test_verify_names_a_garbled_record(challenge_run, tmp_path, stream_name):
    out, stream, records, keys = _damaged_copy(challenge_run, tmp_path,
                                               stream_name)
    records[0].append("garbage line")
    write_stream(stream, records)
    outcome = verify_run(str(out))
    [(name, why)] = outcome["failures"]
    assert name == f"{stream}#{keys[0]}"
    assert why.startswith("malformed record: ")
    assert outcome["failed"] == 1


@pytest.mark.parametrize("damage", ["no domain line", "a predicate value yes"])
def test_verify_names_a_model_the_reader_refuses(challenge_run, tmp_path, damage):
    out, stream, records, _keys = _damaged_copy(challenge_run, tmp_path,
                                                "models.txt")
    lines = records[0]
    if damage == "no domain line":
        lines.remove("domain 1")
    else:
        i = next(i for i, line in enumerate(lines) if line.startswith("pred "))
        lines[i] = lines[i].rsplit(" = ", 1)[0] + " = yes"
    write_stream(stream, records)
    outcome = verify_run(str(out))
    [(name, why)] = outcome["failures"]
    assert name == f"{stream}#0"
    assert why.startswith("malformed record: ")


@pytest.mark.parametrize("stream_name", ["proofs.txt", "models.txt"])
def test_verify_names_a_truncated_last_record(challenge_run, tmp_path,
                                              stream_name):
    out, stream, _records, keys = _damaged_copy(challenge_run, tmp_path,
                                                stream_name)
    stream.write_text(stream.read_text()[:-5])
    outcome = verify_run(str(out))
    assert outcome["failures"] == [(f"{stream}#{keys[-1]}", "truncated record")]


@pytest.mark.parametrize("stream_name", ["proofs.txt", "models.txt"])
def test_verify_names_a_record_missing_from_its_stream(challenge_run, tmp_path,
                                                       stream_name):
    out, stream, records, keys = _damaged_copy(challenge_run, tmp_path,
                                               stream_name)
    write_stream(stream, records[:-1])
    outcome = verify_run(str(out))
    assert outcome["failures"] == [
        (f"{stream}#{keys[-1]}", "named in results.jsonl but not stored")]


def test_verify_names_a_malformed_results_line(challenge_run, tmp_path):
    out, _stream, _records, _keys = _damaged_copy(challenge_run, tmp_path,
                                                  "proofs.txt")
    results = out / "results.jsonl"
    lines = results.read_text().splitlines()
    results.write_text("\n".join(lines + ["{\"item\": "]) + "\n")
    outcome = verify_run(str(out))
    assert outcome["failures"] == [(f"{results}:{len(lines) + 1}",
                                    "malformed record")]


def test_verify_names_text_before_the_first_record(challenge_run, tmp_path):
    out, stream, _records, _keys = _damaged_copy(challenge_run, tmp_path,
                                                 "models.txt")
    stream.write_text("garbage line\n" + stream.read_text())
    outcome = verify_run(str(out))
    assert outcome["failures"] == [
        (f"{stream}#-", "malformed record: text before the first header")]


def test_verify_names_what_is_wrong_in_a_library_configuration(mixed30,
                                                               tmp_path):
    # each configuration's results.jsonl is checked against the streams
    # beside it, from the run directory and from the configuration's own
    out = tmp_path / "lib"
    run_library(ExperimentSpec(mode="library", corpus=mixed30,
                               out_dir=str(out), loop=FAST_LOOP))
    assert verify_run(str(out))["failures"] == []
    results = out / "recency" / "results.jsonl"
    text = results.read_text()
    results.write_text(text + "{\"item\": \n")
    assert verify_run(str(out))["failures"] == [
        (f"{results}:{len(text.splitlines()) + 1}", "malformed record")]
    results.write_text(text)
    stream = out / "learning" / "proofs.txt"
    records = read_stream(stream)
    write_stream(stream, records[:-1])
    missing = (f"{stream}#{records[-1][0].split()[-1]}",
               "named in results.jsonl but not stored")
    for run_dir in (out, out / "learning"):
        assert verify_run(str(run_dir))["failures"] == [missing]


@pytest.mark.parametrize("mode", ["challenge", "library"])
def test_every_named_artifact_is_on_disk_while_the_run_writes(
        mode, neardup, mixed30, tmp_path, monkeypatch):
    # a run killed after any record leaves a directory that verifies
    out = str(tmp_path / mode)
    seen = []
    original = harness._RecordWriter.write

    def write_then_verify(writer, record):
        original(writer, record)
        outcome = verify_run(out)
        assert outcome["failures"] == []
        seen.append(outcome["checked"] + outcome["models_checked"])

    monkeypatch.setattr(harness._RecordWriter, "write", write_then_verify)
    if mode == "challenge":
        run_challenge(ExperimentSpec(mode="challenge", problems=neardup,
                                     out_dir=out, loop=FAST_LOOP))
    else:
        run_library(ExperimentSpec(mode="library", corpus=mixed30, out_dir=out,
                                   loop=FAST_LOOP))
    records = _records(tmp_path / mode)
    assert len(seen) == len(records)
    assert seen[-1] >= sum(1 for r in records if r["proof_file"] or r["model_file"]) > 0


def _files_under(root) -> list:
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _dirs, files in os.walk(root) for f in files)


def test_a_run_writes_a_fixed_set_of_files(neardup50, mixed30, tmp_path):
    # one stream per artifact kind, however many attempts store artifacts
    stored_counts = []
    for ladder in ((4,), (4, 8, 16)):
        loop_config = LoopConfig(axiom_ladder=ladder, attempt_budgets=(2000,))
        tag = len(ladder)
        ch = tmp_path / f"ch{tag}"
        run_challenge(ExperimentSpec(mode="challenge", problems=neardup50,
                                     out_dir=str(ch), loop=loop_config))
        assert _files_under(ch) == [
            "config.json", "models.txt", "proofs.txt", "report.json",
            "report.txt", "results.jsonl"]
        lib = tmp_path / f"lib{tag}"
        run_library(ExperimentSpec(mode="library", corpus=mixed30,
                                   out_dir=str(lib), loop=loop_config))
        per_config = ["config.json", "learner/final.json", "models.txt",
                      "proofs.txt", "results.jsonl"]
        assert _files_under(lib) == sorted(
            ["config.json", "report.json", "report.txt"]
            + [f"{name}/{fn}" for name in ("learning", "recency")
               for fn in per_config])
        stored_counts.append(sum(1 for r in _records(ch) + _records(lib)
                                 if r["proof_file"] or r["model_file"]))
    assert 20 < stored_counts[0] < stored_counts[1]


def test_verify_rereads_an_edited_corpus(tmp_path):
    root = tmp_path / "mixed30"
    generate_corpus("mixed", 30, str(root), verify=False)
    spec = ExperimentSpec(mode="reprove", corpus=str(root),
                          out_dir=str(tmp_path / "run"),
                          loop=LoopConfig(max_depth=8))
    run_reprove(spec)
    assert stored_record(str(tmp_path / "run"), "proofs.txt#fa_th1")
    assert verify_run(str(tmp_path / "run"))["failed"] == 0
    # reverse the rule that fa_th1's stored proof uses
    (root / "fa_rule1.p").write_text(
        "fof(fa_rule1, axiom, ![X]: (fa1(X) => fa0(X))).\n")
    outcome = verify_run(str(tmp_path / "run"))
    assert outcome["failed"] >= 1
    assert any(path.endswith("proofs.txt#fa_th1") for path, _why in outcome["failures"])


def test_false_conjecture_ends_counter_satisfiable(tmp_path):
    # the negated conjecture clausifies to no clause: t's set has no
    # all-negative clause, so every clause is a start candidate, and u's
    # set is empty
    root = tmp_path / "c"
    root.mkdir()
    (root / "u.p").write_text("fof(u, conjecture, $false).\n")
    (root / "a.p").write_text("fof(a, axiom, p(c)).\n")
    (root / "t.p").write_text("fof(t, conjecture, $false).\n")
    write_manifest(str(root), [("u", "u.p", []), ("a", "a.p", []),
                               ("t", "t.p", ["a"])])
    run_reprove(ExperimentSpec(mode="reprove", corpus=str(root),
                               out_dir=str(tmp_path / "reprove")))
    run_library(ExperimentSpec(mode="library", corpus=str(root),
                               out_dir=str(tmp_path / "library"), baseline=False,
                               loop=LoopConfig(axiom_ladder=(1,))))
    for out in ("reprove", "library"):
        assert [r["status"] for r in _records(tmp_path / out)] == \
            ["counter_satisfiable"] * 2


def test_corpus_joiner_matches_problem_clausification(mixed30):
    corpus = load_corpus(mixed30)
    by_name = {item.name: item for item in corpus.items}
    build = clause_set_builder("reprove", corpus)
    for _i, item in corpus.theorems():
        premises = [by_name[r] for r in item.reference_premises]
        problem = make_problem([p.as_axiom() for p in premises]
                               + [item.as_conjecture()])
        assert build(item.name, item.reference_premises) == \
            clausal_problem(problem)


@pytest.mark.parametrize("mode", ["challenge", "reprove"])
def test_verify_names_a_premise_the_rule_does_not_know(
        mode, challenge_run, mixed30, tmp_path):
    # a tampered premises_given line fails verify, naming the premise
    if mode == "challenge":
        out = tmp_path / "ch"
        shutil.copytree(challenge_run, out)
    else:
        out = tmp_path / "rp"
        run_reprove(ExperimentSpec(mode="reprove", corpus=mixed30,
                                   out_dir=str(out), loop=LoopConfig(max_depth=8)))
    stream = out / "proofs.txt"
    records = read_stream(stream)
    item = records[0][0].split()[-1]
    records[0][1] += " no_such_axiom"
    write_stream(stream, records)
    outcome = verify_run(str(out))
    why = (f"rebuild failed: {item}.p has no axiom 'no_such_axiom'"
           if mode == "challenge" else
           f"rebuild failed: 'no_such_axiom' is not an item before {item!r}")
    assert outcome["failures"] == [(f"{stream}#{item}", why)]


def test_verify_names_an_item_the_corpus_does_not_have(mixed30, tmp_path):
    out = tmp_path / "rp"
    run_reprove(ExperimentSpec(mode="reprove", corpus=mixed30,
                               out_dir=str(out), loop=LoopConfig(max_depth=8)))
    stream = out / "proofs.txt"
    records = read_stream(stream)
    records[0][0] = "% item no_such_item"
    write_stream(stream, records)
    outcome = verify_run(str(out))
    assert (f"{stream}#no_such_item",
            "rebuild failed: 'no_such_item' is not a corpus item") \
        in outcome["failures"]


def test_challenge_builder_matches_problem_clausification(neardup, tmp_path):
    # route_fact and flag_fact name a different formula in each problem;
    # in prob_eq route_fact is an equation, which adds the equality axioms
    root = tmp_path / "probs"
    shutil.copytree(neardup, root)
    (root / "prob_eq.p").write_text(
        "fof(route_fact, axiom, c0 = c1).\n"
        "fof(flag_fact, axiom, flag_a(c1)).\n"
        "fof(goal_eq, conjecture, top(c1)).\n")
    problems = {p.stem: parse_problem_file(str(p))
                for p in sorted(root.glob("*.p"))}
    assert len({p.by_name("route_fact").formula
                for p in problems.values()}) > 2
    build = clause_set_builder("challenge", problems.__getitem__)
    for k in range(13):             # rung-major, as `loop.walk_ladder` runs
        for pid, problem in problems.items():
            axioms = [af for af in problem.formulas if af.role != "conjecture"]
            for chosen in (axioms[:k], axioms[k:]):
                names = tuple(sorted(af.name for af in chosen))
                assert build(pid, names) == clausal_problem(
                    Problem(tuple(chosen) + (problem.conjecture,)))


def _built_clause_sets(monkeypatch, run) -> list:
    """Every clause set that `run()` builds, in order: each mode builds
    through `loop.clause_set_builder`, which calls `loop.assemble_problem`."""
    built = []

    def recording(build):
        def record(*args):
            built.append(build(*args))
            return built[-1]
        return record

    with monkeypatch.context() as m:
        m.setattr(loop, "assemble_problem", recording(loop.assemble_problem))
        run()
    return built


def _records(run_dir) -> list:
    """A run directory's records; a library run's are its configurations',
    in config order."""
    config = json.loads((run_dir / "config.json").read_text())
    if config.get("mode") == "library":
        names = ("learning", "recency") if config["baseline"] else ("learning",)
        return [r for name in names for r in _records(run_dir / name)]
    lines = (run_dir / "results.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def test_challenge_run_and_verify_build_the_same_clause_sets(
        neardup, tmp_path, monkeypatch):
    # nothing proves at depth 1: every problem runs at every rung
    built = _built_clause_sets(monkeypatch, lambda: run_challenge(ExperimentSpec(
        mode="challenge", problems=neardup, out_dir=str(tmp_path / "ch"),
        loop=LoopConfig(axiom_ladder=(4, 8, 16), max_depth=1))))
    records = _records(tmp_path / "ch")
    assert len(records) == len(built) == 30
    rebuild = harness._rebuilder(str(tmp_path / "ch"))
    for record, cs in zip(records, built):
        assert rebuild(record["item"], record["premises_given"]) == cs
        assert cs.clauses[-1].clause_id in cs.start_ids    # conjecture last


def test_verify_reads_the_problems_a_challenge_run_read(neardup, mixed30,
                                                       tmp_path):
    # given both directories, a challenge run reads its problems
    run_challenge(ExperimentSpec(
        mode="challenge", problems=neardup, corpus=mixed30,
        out_dir=str(tmp_path / "ch"), loop=LoopConfig(axiom_ladder=(4, 8, 16))))
    outcome = verify_run(str(tmp_path / "ch"))
    assert outcome["checked"] > 0 and outcome["failures"] == []


@pytest.mark.parametrize("mode", ["reprove", "library", "traintest"])
def test_corpus_run_and_verify_build_the_same_clause_sets(
        mode, mixed30, tmp_path, monkeypatch):
    # reprove keeps the manifest's premise order; the ladder modes give
    # premises in ranking order and build them in corpus order
    out = tmp_path / mode
    spec = ExperimentSpec(mode=mode, corpus=mixed30, out_dir=str(out),
                          split=os.path.join(mixed30, "split.txt"),
                          loop=FAST_LOOP)
    runner = {"reprove": run_reprove, "library": run_library,
              "traintest": run_traintest}[mode]
    built = _built_clause_sets(monkeypatch, lambda: runner(spec))
    records = _records(out)
    assert len(records) == len(built) > 0
    runs = [(out, records, built)]
    if mode == "library":           # each sub-run verifies on its own too
        for name in ("learning", "recency"):
            runs.append((out / name, _records(out / name),
                         [cs for r, cs in zip(records, built)
                          if r["config"] == name]))
    for run_dir, run_records, run_built in runs:
        rebuild = harness._rebuilder(str(run_dir))
        for record, cs in zip(run_records, run_built, strict=True):
            assert rebuild(record["item"], record["premises_given"]) == cs
        outcome = verify_run(str(run_dir))
        assert outcome["failures"] == []
        assert outcome["checked"] == sum(1 for r in run_records if r["proof_file"])
