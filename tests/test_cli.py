import json
import os
import re

import pytest

from proofbench.cli import build_parser, main
from proofbench.parser import MAX_DEPTH

from helpers import NESTING_SHAPES, nested_formula, read_stream, write_stream

CORPUS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "corpora", "mixed30")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli") / "chain")
    assert main(["generate", "--family", "chain", "--size", "7",
                 "--out", root]) == 0
    return root


def test_help_mentions_all_subcommands(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    out = capsys.readouterr().out
    for cmd in ("generate", "reprove", "library", "challenge", "traintest",
                "verify", "report", "speedup"):
        assert cmd in out


def test_reprove_and_verify_roundtrip(corpus, tmp_path, capsys):
    out = str(tmp_path / "re")
    assert main(["reprove", "--corpus", corpus, "--out", out, "--depth", "6"]) == 0
    table = capsys.readouterr().out
    assert "description" in table and "proved" in table
    assert main(["verify", "--run", out]) == 0
    assert re.search(r"checked [1-9]\d* proofs and \d+ models, 0 failures",
                     capsys.readouterr().out)


def test_verify_nonzero_exit_on_corruption(corpus, tmp_path, capsys):
    out = str(tmp_path / "re")
    assert main(["reprove", "--corpus", corpus, "--out", out, "--depth", "6"]) == 0
    capsys.readouterr()
    stream = tmp_path / "re" / "proofs.txt"
    records = sorted(read_stream(stream))
    lines = records[0]
    for i, line in enumerate(lines):
        if line.startswith("ext "):
            head, goal, binds = line[4:].split(" | ")
            cid, li = head.rsplit(" ", 1)
            lines[i] = f"ext {cid} 999 | {goal} | {binds}"
            break
    write_stream(stream, records)
    assert main(["verify", "--run", out]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("binding", ["X_i2=zzz", "Q_i9=g(h)"])
def test_verify_rejects_a_tampered_binding(corpus, tmp_path, capsys, binding):
    # each recorded binding must hold under the checker's own unifier
    out = str(tmp_path / "re")
    assert main(["reprove", "--corpus", corpus, "--out", out, "--depth", "6"]) == 0
    capsys.readouterr()
    stream = tmp_path / "re" / "proofs.txt"
    records = read_stream(stream)
    item = records[0][0].split()[-1]
    assert records[0][3] == "ext rule1_0 1 | ~ p1(c) | X_i2=c"
    records[0][3] = f"ext rule1_0 1 | ~ p1(c) | {binding}"
    write_stream(stream, records)
    assert main(["verify", "--run", out]) == 1
    assert f"FAIL {stream}#{item}: checker rejected proof" in capsys.readouterr().out


def test_verify_names_a_malformed_record_and_exits_nonzero(corpus, tmp_path,
                                                          capsys):
    out = str(tmp_path / "re")
    assert main(["reprove", "--corpus", corpus, "--out", out, "--depth", "6"]) == 0
    capsys.readouterr()
    stream = tmp_path / "re" / "proofs.txt"
    item = read_stream(stream)[-1][0].split()[-1]
    with open(stream, "a", encoding="utf-8") as fh:
        fh.write("garbage line\n")
    assert main(["verify", "--run", out]) == 1
    text = capsys.readouterr().out
    assert f"FAIL {stream}#{item}: malformed record: bad proof line" in text


def test_report_merges_runs(corpus, tmp_path, capsys):
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    main(["reprove", "--corpus", corpus, "--out", out1, "--depth", "6"])
    main(["reprove", "--corpus", corpus, "--out", out2, "--depth", "6"])
    capsys.readouterr()
    assert main(["report", "--run", out1, "--run", out2]) == 0
    text = capsys.readouterr().out
    assert "together" in text


def test_output_root_env_var(corpus, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PROOFBENCH_OUTPUT_ROOT", str(tmp_path))
    assert main(["reprove", "--corpus", corpus, "--out", "relative_out",
                 "--depth", "6"]) == 0
    capsys.readouterr()
    assert (tmp_path / "relative_out" / "results.jsonl").exists()


def test_absolute_out_ignores_env_root(corpus, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PROOFBENCH_OUTPUT_ROOT", str(tmp_path / "unused"))
    out = str(tmp_path / "abs")
    assert main(["reprove", "--corpus", corpus, "--out", out, "--depth", "6"]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(out, "results.jsonl"))


def test_library_cli_flags(corpus, tmp_path, capsys):
    out = str(tmp_path / "lib")
    assert main(["library", "--corpus", corpus, "--out", out,
                 "--ladder", "2,4", "--budgets", "300,600",
                 "--iterations", "3", "--depth", "6", "--no-baseline"]) == 0
    text = capsys.readouterr().out
    assert "learning" in text
    blob = json.loads((tmp_path / "lib" / "report.json").read_text())
    assert [c["name"] for c in blob["configs"]] == ["learning"]


def test_speedup_cli_writes_json(tmp_path, capsys):
    probs = str(tmp_path / "nd")
    assert main(["generate", "--family", "neardup", "--size", "6",
                 "--out", probs]) == 0
    out = str(tmp_path / "sp")
    assert main(["speedup", "--problems", probs, "--out", out,
                 "--train-count", "3", "--budget", "50000"]) == 0
    text = capsys.readouterr().out
    assert "geometric mean ratio" in text
    blob = json.loads((tmp_path / "sp" / "speedup.json").read_text())
    assert len(blob["rows"]) == 6


def test_speedup_counts_a_problem_proved_at_zero_inferences_as_equal_effort(
        tmp_path, capsys):
    # `$true`'s negation clausifies to the empty clause, a refutation that
    # takes no inference in either phase
    probs = tmp_path / "zero"
    probs.mkdir()
    (probs / "empty.p").write_text("fof(c, conjecture, $true).\n")
    (probs / "unit.p").write_text("fof(a, axiom, p(c)).\nfof(g, conjecture, p(c)).\n")
    assert main(["speedup", "--problems", str(probs),
                 "--out", str(tmp_path / "sp")]) == 0
    assert "geometric mean ratio: 1.000" in capsys.readouterr().out
    blob = json.loads((tmp_path / "sp" / "speedup.json").read_text())
    rows = {row["problem"]: row for row in blob["rows"]}
    assert rows["empty"] == {"problem": "empty", "unguided": 0, "guided": 0,
                             "ratio": 1.0}
    assert rows["unit"]["ratio"] == 1.0
    assert blob["solved_both"] == 2 and blob["geometric_mean_ratio"] == 1.0


def test_speedup_cli_builds_clausal_problems_from_cached_forms(
        tmp_path, monkeypatch, capsys):
    from proofbench import cli, clausify, loop
    from proofbench.fol import Problem
    from proofbench.parser import parse_problem_file

    probs = tmp_path / "nd"
    assert main(["generate", "--family", "neardup", "--size", "6",
                 "--out", str(probs)]) == 0
    # as in challenge, the axioms go in file order, then the conjecture
    (probs / "mid.p").write_text(
        "fof(a1, axiom, p(c)).\nfof(goal, conjecture, q(c)).\n"
        "fof(a2, axiom, ![X]: (p(X) => q(X))).\n")
    built, cnf_calls = {}, []

    def measure(problems, *_a, **_k):
        built.update(problems)
        return {"rows": [], "geometric_mean_ratio": None, "solved_both": 0}

    def counted_cnf(*a, **k):
        cnf_calls.append(a[0])
        return clausify.cnf(*a, **k)
    monkeypatch.setattr(cli, "measure_speedup", measure)
    monkeypatch.setattr(loop, "cnf", counted_cnf)
    assert main(["speedup", "--problems", str(probs),
                 "--out", str(tmp_path / "sp")]) == 0
    names = sorted(fn for fn in os.listdir(probs) if fn.endswith(".p"))
    formulas = 0
    assert sorted(built) == [fn[:-2] for fn in names]
    for fn in names:
        problem = parse_problem_file(str(probs / fn))
        formulas += len(problem.formulas)
        axioms = [af for af in problem.formulas if af.role != "conjecture"]
        assert built[fn[:-2]] == clausify.clausal_problem(
            Problem(tuple(axioms) + (problem.conjecture,))), fn
    assert built["mid"] != clausify.clausal_problem(
        parse_problem_file(str(probs / "mid.p")))
    assert 0 < len(cnf_calls) < formulas


def _refused(capsys, argv, out, message) -> None:
    """`argv` exits 2 with a one-line error naming `message`, no traceback,
    and writes no `out`."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert message in line and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["challenge", "speedup"])
def test_a_problem_without_a_conjecture_is_refused(command, tmp_path, capsys):
    probs = tmp_path / "nd"
    assert main(["generate", "--family", "neardup", "--size", "2",
                 "--out", str(probs)]) == 0
    (probs / "no_goal.p").write_text("fof(a1, axiom, p(c)).\n")
    capsys.readouterr()
    _refused(capsys, [command, "--problems", str(probs)], tmp_path / "out",
             f"{command}: no_goal.p: challenge problems need a conjecture")


def test_a_negative_rung_is_refused(tmp_path, capsys):
    # the ladder cuts each ranking at a rung: -2 would keep all but two
    probs = tmp_path / "nd"
    assert main(["generate", "--family", "neardup", "--size", "4",
                 "--out", str(probs)]) == 0
    capsys.readouterr()
    _refused(capsys, ["challenge", "--problems", str(probs), "--ladder=-2,0,3"],
             tmp_path / "out", "challenge: axiom_ladder rungs must be >= 0, got -2")


# the required inputs of each run subcommand
RUN_ARGS = {
    "reprove": ["--corpus", "c"],
    "library": ["--corpus", "c"],
    "challenge": ["--problems", "p"],
    "traintest": ["--corpus", "c", "--split", "s"],
}


def _rejected(capsys, argv, flag) -> None:
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_wall_clock_flag_rejected(capsys):
    # runs are budgeted in inferences only
    for command, required in RUN_ARGS.items():
        _rejected(capsys, [command, *required, "--out", "o",
                           "--wall-clock", "5.0"], "--wall-clock")


def test_workers_flag_is_reprove_only(capsys):
    args = build_parser().parse_args(["reprove", "--corpus", "c", "--out", "o",
                                      "--workers", "2"])
    assert args.workers == 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["library", "--corpus", "c", "--out", "o",
                                   "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_loop_flags_are_library_only(capsys):
    # challenge and traintest would parse these and then ignore them
    for flag in (["--iterations", "3"], ["--no-semantic"], ["--guidance"]):
        args = build_parser().parse_args(
            ["library", *RUN_ARGS["library"], "--out", "o", *flag])
        assert args.command == "library"
        for command in ("challenge", "traintest"):
            _rejected(capsys, [command, *RUN_ARGS[command], "--out", "o", *flag],
                      flag[0])


@pytest.mark.parametrize("command", ["challenge", "speedup"])
def test_missing_problems_directory_is_a_problem_error(command, tmp_path,
                                                       capsys):
    missing = str(tmp_path / "missing")
    _refused(capsys, [command, "--problems", missing], tmp_path / "out", missing)


def test_missing_corpus_directory_is_a_problem_error(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    _refused(capsys, ["library", "--corpus", missing], tmp_path / "out", missing)


def test_a_name_bound_twice_under_or_keeps_its_meaning(tmp_path, capsys):
    # `(![X]: p(X)) | (![X]: q(X))` is one clause over two variables: it
    # proves itself, and it contradicts ~p(a) & ~q(b)
    problems = tmp_path / "probs"
    problems.mkdir()
    axiom = "fof(a, axiom, (![X]: p(X)) | (![X]: q(X))).\n"
    (problems / "aa.p").write_text(
        axiom + "fof(g, conjecture, (![X]: p(X)) | (![X]: q(X))).\n")
    (problems / "bb.p").write_text(
        axiom + "fof(na, axiom, ~p(a)).\nfof(nb, axiom, ~q(b)).\n"
        "fof(g, conjecture, $false).\n")
    out = tmp_path / "out"
    assert main(["challenge", "--problems", str(problems), "--out", str(out)]) == 0
    records = [json.loads(line)
               for line in (out / "results.jsonl").read_text().splitlines()]
    assert {r["item"]: r["status"] for r in records} == \
        {"aa": "proved", "bb": "proved"}
    capsys.readouterr()
    assert main(["verify", "--run", str(out)]) == 0
    assert "checked 2 proofs and 0 models, 0 failures" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["challenge", "speedup"])
def test_empty_problems_directory_is_an_empty_run(command, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([command, "--problems", str(empty), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("flags, field, value, attempts", [
    (["--total-budget", "0"], "total_inference_budget", 0, False),
    (["--iterations", "0"], "max_iterations", 0, False),
    (["--max-domain", "0"], "model_max_domain", 0, True),
    (["--ladder", "2,4", "--budgets", "300,600"], "attempt_budgets", [300, 600],
     True),
])
def test_a_value_given_reaches_its_field(corpus, tmp_path, capsys, flags,
                                         field, value, attempts):
    out = tmp_path / "lib"
    assert main(["library", "--corpus", corpus, "--out", str(out),
                 "--no-baseline", *flags]) == 0
    assert json.loads((out / "config.json").read_text())["loop"][field] == value
    assert bool((out / "learning" / "results.jsonl").read_text()) == attempts


@pytest.mark.parametrize("argv, message", [
    (["library", "--budgets", "0"], "inference_budget must be positive, got 0"),
    (["library", "--depth", "0"], "max_depth must be positive, got 0"),
    (["library", "--ladder", ""], "axiom_ladder must be non-empty"),
    (["challenge", "--budgets", "100,0"], "attempt_budgets must be strictly"),
    (["challenge", "--total-budget", "-1"], "total_inference_budget must be >= 0"),
    (["traintest", "--depth", "-3"], "max_depth must be positive, got -3"),
    (["reprove", "--budget", "0"], "inference_budget must be positive, got 0"),
    (["speedup", "--depth", "0"], "max_depth must be positive, got 0"),
    (["generate", "--family", "chain", "--size", "-1"], "size must be >= 0, got -1"),
    (["generate", "--family", "group", "--size", "99"],
     "the group family has at most 22 items, not 99"),
    (["speedup", "--train-count", "-1"], "--train-count must be >= 0, got -1"),
    (["reprove", "--workers", "0"], "workers must be >= 1, got 0"),
    (["library", "--iterations", "-2"], "max_iterations must be >= 0, got -2"),
    (["challenge", "--max-domain", "-1"], "model_max_domain must be >= 0, got -1"),
])
def test_an_invalid_value_exits_2_before_any_output(corpus, tmp_path, capsys,
                                                    argv, message):
    command, *flags = argv
    inputs = {"generate": [],
              "challenge": ["--problems", corpus],
              "speedup": ["--problems", corpus],
              "traintest": ["--corpus", corpus,
                            "--split", os.path.join(corpus, "split.txt")]}
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs.get(command, ["--corpus", corpus]),
              "--out", str(out), *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, constant", [
    ("ax", "'f(x'"),            # a symbol with a parenthesis
    ("ax", "'a = b'"),          # a symbol with ` = `
    ("'my ax'", "c"),           # a name with a space
    ("'a | b'", "c"),           # a name with ` | `
    ("ax", "'u, W=v'"),         # a symbol that reads like a next binding
], ids=["paren", "equals", "space", "bar", "binding"])
def test_quoted_names_survive_the_run_directory(name, constant, tmp_path,
                                                capsys):
    # every name and symbol in the streams and the proof text is written
    # as the printer writes a symbol, so a correct run verifies
    problems = tmp_path / "problems"
    problems.mkdir()
    rule = f"fof({name}, axiom, ![X]: (p(X) => q(X))).\n"
    goal = f"fof(goal, conjecture, q({constant})).\n"
    (problems / "proved.p").write_text(
        rule + f"fof(fact, axiom, p({constant})).\n" + goal)
    (problems / "refuted.p").write_text(rule + goal)
    out = str(tmp_path / "ch")
    assert main(["challenge", "--problems", str(problems), "--out", out]) == 0
    assert main(["verify", "--run", out]) == 0
    assert re.search(r"checked 1 proofs and [1-9]\d* models, 0 failures",
                     capsys.readouterr().out)


def _challenge_and_verify(problems, out, capsys, *flags) -> list:
    """Run `challenge` and then `verify` on it, both exiting 0 and verify
    finding no failure; the run's records."""
    assert main(["challenge", "--problems", str(problems), "--out", str(out),
                 *flags]) == 0
    capsys.readouterr()
    assert main(["verify", "--run", str(out)]) == 0
    assert re.search(r"checked \d+ proofs and \d+ models, 0 failures",
                     capsys.readouterr().out)
    return [json.loads(line)
            for line in (out / "results.jsonl").read_text().splitlines()]


def test_wide_chains_are_proved_and_verified(tmp_path, capsys):
    # a chain is one formula node, so its width costs no recursion depth
    n = 1000
    problems = tmp_path / "wide"
    problems.mkdir()
    (problems / "conjunction.p").write_text(
        "fof(ax, axiom, ![X]: ({})).\n".format(
            " & ".join(f"p{i}(X)" for i in range(n)))
        + "fof(goal, conjecture, {}).\n".format(
            " & ".join(f"p{i}(c)" for i in range(n))))
    (problems / "disjunction.p").write_text(
        "fof(ax, axiom, {}).\n".format(" | ".join(f"q{i}(c)" for i in range(n)))
        + "".join(f"fof(n{i}, axiom, ~ q{i}(c)).\n" for i in range(1, n))
        + "fof(goal, conjecture, q0(c)).\n")
    records = _challenge_and_verify(problems, tmp_path / "out", capsys,
                                    "--ladder", str(n), "--budgets", str(3 * n))
    assert {r["item"]: r["status"] for r in records} == \
        {"conjunction": "proved", "disjunction": "proved"}


@pytest.mark.parametrize("shape", NESTING_SHAPES)
def test_a_statement_at_the_nesting_cap_runs_and_one_past_is_refused(
        shape, tmp_path, capsys):
    for depth, where in ((MAX_DEPTH, "at"), (MAX_DEPTH + 1, "past")):
        problems = tmp_path / where
        problems.mkdir()
        f = nested_formula(shape, depth)
        (problems / f"{shape}.p").write_text(
            f"fof(ax, axiom, {f}).\nfof(goal, conjecture, {f}).\n")
    _challenge_and_verify(tmp_path / "at", tmp_path / "out", capsys)
    _refused(capsys, ["challenge", "--problems", str(tmp_path / "past")],
             tmp_path / "refused",
             f"nested too deeply (more than {MAX_DEPTH} levels)")


def test_an_empty_input_clause_starts_the_search(tmp_path, capsys):
    # `$false` clausifies to the empty clause, a refutation by itself
    problems = tmp_path / "probs"
    problems.mkdir()
    (problems / "f.p").write_text(
        "fof(ax, axiom, $false).\nfof(g, conjecture, p(c)).\n")
    (record,) = _challenge_and_verify(problems, tmp_path / "out", capsys)
    assert (record["status"], record["inferences"], record["premises_used"]) \
        == ("proved", 0, ["ax"])


@pytest.mark.parametrize("command, needs", [("verify", "config.json"),
                                            ("report", "report.json")])
@pytest.mark.parametrize("exists", [False, True], ids=["missing", "empty"])
def test_a_path_that_is_not_a_run_is_refused(command, needs, exists, tmp_path,
                                             capsys):
    path = tmp_path / "not_a_run"
    if exists:
        path.mkdir()
    with pytest.raises(SystemExit) as exc:
        main([command, "--run", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert str(path) in line and needs in line and "Traceback" not in err


@pytest.mark.parametrize("name", ["²", "１"])
def test_a_name_of_unicode_digits_survives_the_run_directory(name, tmp_path,
                                                             capsys):
    # `str.isdigit` holds for these names; printed bare, the proof's
    # goal literal did not read back and verify failed the stored proof
    problems = tmp_path / "problems"
    problems.mkdir()
    (problems / "p1.p").write_text(f"fof(a, axiom, p('{name}')).\n"
                                   f"fof(g, conjecture, p('{name}')).\n")
    (record,) = _challenge_and_verify(problems, tmp_path / "out", capsys)
    assert record["status"] == "proved"


def _files(root) -> dict:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_a_run_into_a_directory_holding_a_run_is_refused(tmp_path, capsys):
    # a second run used to write over the first and leave its stale
    # `recency/`, which `verify` then checked and passed
    out = tmp_path / "lib"
    out.mkdir()             # an empty directory is accepted
    library = ["library", "--corpus", CORPUS, "--out", str(out),
               "--ladder", "4,8,16", "--depth", "8"]
    assert main(library) == 0
    before = _files(out)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(library + ["--no-baseline"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert str(out / "config.json") in line and "Traceback" not in err
    assert _files(out) == before


@pytest.mark.parametrize("argv", [
    ["reprove", "--corpus", CORPUS],
    ["challenge", "--problems", CORPUS],
    ["traintest", "--corpus", CORPUS, "--split", os.path.join(CORPUS, "split.txt")],
], ids=["reprove", "challenge", "traintest"])
def test_every_run_command_refuses_a_directory_holding_a_run(argv, tmp_path,
                                                             capsys):
    out = tmp_path / "out"
    out.mkdir()             # an empty directory is accepted
    (out / "config.json").write_text("{}\n")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert str(out / "config.json") in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["config.json"]
