import json
import os

import pytest

from proofbench.cli import build_parser, main


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli") / "chain")
    assert main(["generate", "--family", "chain", "--size", "7", "--seed", "0",
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
    assert "0 failures" in capsys.readouterr().out


def test_verify_nonzero_exit_on_corruption(corpus, tmp_path, capsys):
    out = str(tmp_path / "re")
    assert main(["reprove", "--corpus", corpus, "--out", out, "--depth", "6"]) == 0
    capsys.readouterr()
    victim = next(p for p in sorted((tmp_path / "re" / "proofs").iterdir()))
    lines = victim.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("ext "):
            head, goal, binds = line[4:].split(" | ")
            cid, li = head.rsplit(" ", 1)
            lines[i] = f"ext {cid} 999 | {goal} | {binds}"
            break
    victim.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--run", out]) == 1
    assert "FAIL" in capsys.readouterr().out


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
                 "--seed", "0", "--out", probs]) == 0
    out = str(tmp_path / "sp")
    assert main(["speedup", "--problems", probs, "--out", out,
                 "--train-count", "3", "--budget", "50000"]) == 0
    text = capsys.readouterr().out
    assert "geometric mean ratio" in text
    blob = json.loads((tmp_path / "sp" / "speedup.json").read_text())
    assert len(blob["rows"]) == 6


def test_wall_clock_flag_accepted(corpus, tmp_path, capsys):
    out = str(tmp_path / "wc")
    assert main(["reprove", "--corpus", corpus, "--out", out,
                 "--depth", "6", "--wall-clock", "5.0"]) == 0
    capsys.readouterr()
    blob = json.loads((tmp_path / "wc" / "config.json").read_text())
    assert blob["time_budget"] == 5.0
