"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Golden counts for the bundled corpus live in tests/golden/ and
were recorded by the first verified run; the tests regenerate everything
from seed and compare.
"""
import json
import math
import os
import random
import time
from dataclasses import replace

import pytest

from proofbench.checker import check_proof
from proofbench.clausify import ClauseSet, clausal_problem, cnf
from proofbench.corpus import load_corpus
from proofbench.features import semantic_features
from proofbench.fol import Literal, Var, make_clause
from proofbench.generator import generate_corpus
from proofbench.harness import (
    ExperimentSpec, report, run_library, run_reprove, together_count,
    verify_run,
)
from proofbench.learner import (
    SIGMA, BayesModel, rank_premises, train_incremental,
)
from proofbench.loop import LoopConfig
from proofbench.models import ModelStore, evaluate, find_model
from proofbench.parser import parse_problem_file
from proofbench.prover import (
    COUNTER_SATISFIABLE, ExtensionStep, Limits, PROVED, ProofObject,
    ReductionStep, StartStep, prove,
)

from helpers import (
    all_interpretations, alpha_equivalent, atom, brute_clause_eval,
    brute_has_model, clause_as_formula, clause_by_id, complement, const,
    prop_clause_satisfiable, random_closed_formula, random_prop_clauses,
    read_stream, rename_bound_vars, train_batch,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

ACCEPT_LOOP = LoopConfig(axiom_ladder=(4, 8, 16), attempt_budgets=(500, 1000, 2000),
                         max_depth=8, max_iterations=6,
                         total_inference_budget=60000)


def _ok(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


@pytest.fixture(scope="module")
def mixed30(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("accept") / "mixed30")
    generate_corpus("mixed", 30, root, verify=False)
    return root


@pytest.fixture(scope="module")
def neardup50(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("accept") / "neardup50")
    generate_corpus("neardup", 50, root, verify=False)
    return root


@pytest.fixture(scope="module")
def proof_pool(mixed30, neardup50, tmp_path_factory):
    """(proof, clause set) pairs collected across modes; >= 100 proofs."""
    pool = []
    out = tmp_path_factory.mktemp("pool")
    spec = ExperimentSpec(mode="reprove", corpus=mixed30,
                          out_dir=str(out / "re"), loop=LoopConfig(max_depth=8))
    run_reprove(spec)
    corpus = load_corpus(mixed30)
    by_name = {i.name: i for i in corpus.items}
    from proofbench.fol import make_problem
    from proofbench.prover import proof_from_text
    for lines in sorted(read_stream(out / "re" / "proofs.txt")):
        item = lines[0].split()[-1]
        premises = lines[1].split()[2:]
        proof = proof_from_text("\n".join(lines[2:]))
        cs = clausal_problem(make_problem(
            [by_name[p].as_axiom() for p in premises] +
            [by_name[item].as_conjecture()]))
        pool.append((proof, cs))
    for fn in sorted(os.listdir(neardup50)):
        if not fn.endswith(".p"):
            continue
        cs = clausal_problem(parse_problem_file(os.path.join(neardup50, fn)))
        res = prove(cs, Limits(inference_budget=50000, max_depth=10))
        assert res.status == PROVED
        pool.append((res.proof, cs))
    rng = random.Random(505)
    while len(pool) < 110:
        clauses = random_prop_clauses(rng)
        start = frozenset(c.clause_id for c in clauses if c.is_negative())
        if not start or prop_clause_satisfiable(clauses):
            continue
        cs = ClauseSet(tuple(clauses), start)
        res = prove(cs, Limits(inference_budget=500000, max_depth=12))
        assert res.status == PROVED
        pool.append((res.proof, cs))
    return pool


def test_criterion_01_prover_oracle_500_propositional():
    rng = random.Random(20240501)
    t0 = time.monotonic()
    tried = 0
    trial = 0
    while tried < 500:
        trial += 1
        clauses = random_prop_clauses(rng, origin=f"t{trial}")
        start = frozenset(c.clause_id for c in clauses if c.is_negative())
        sat = prop_clause_satisfiable(clauses)
        if not start:
            # all-true valuation satisfies a set with no negative clause
            assert sat
            continue
        tried += 1
        cs = ClauseSet(tuple(clauses), start)
        res = prove(cs, Limits(inference_budget=500000, max_depth=14),
                    model_max_domain=1)
        if sat:
            assert res.status == COUNTER_SATISFIABLE, f"trial {trial}"
            assert res.model is not None
            assert all(evaluate(c, res.model) is True for c in clauses)
        else:
            assert res.status == PROVED, f"trial {trial}"
            assert check_proof(res.proof, cs)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"oracle agreement took {elapsed:.1f}s"
    _ok(1, f"500 propositional sets match the truth-table oracle "
           f"({elapsed:.1f}s, 0 mismatches)")


def _corrupt(step, steps, cs, k):
    """A mutation of one step that can never replay: wrong goal, wrong
    shape, or an out-of-range position."""
    if isinstance(step, StartStep):
        different = [c for c in cs.clauses
                     if c.clause_id != step.clause_id and
                     (c.origin != clause_by_id(cs, step.clause_id).origin or
                      c.literals != clause_by_id(cs, step.clause_id).literals)]
        if not different:
            return None
        return StartStep(different[0].clause_id)
    if isinstance(step, ExtensionStep):
        if k % 2 == 0:
            return ExtensionStep(complement(step.goal), step.clause_id,
                                 step.lit_index, step.bindings)
        return ExtensionStep(step.goal, step.clause_id, 999, step.bindings)
    if k % 2 == 0:
        return ReductionStep(complement(step.goal), step.path_index,
                             step.bindings)
    return ReductionStep(step.goal, 999, step.bindings)


def _rebind(step):
    """The step with its first recorded binding's term replaced by a
    fresh constant, or None for a step that records none."""
    if isinstance(step, StartStep) or not step.bindings:
        return None
    (name, _term), *rest = step.bindings
    return replace(step, bindings=((name, const("zz_fresh")), *rest))


def test_criterion_02_checker_accepts_all_and_rejects_mutants(proof_pool):
    assert len(proof_pool) >= 100
    mutations = 0
    for proof, cs in proof_pool:
        assert check_proof(proof, cs) is True
        for i, step in enumerate(proof.steps):
            for bad_step in (_corrupt(step, proof.steps, cs, i), _rebind(step)):
                if bad_step is None:
                    continue
                mutated = ProofObject(
                    proof.steps[:i] + (bad_step,) + proof.steps[i + 1:],
                    proof.used_premises)
                try:
                    verdict = check_proof(mutated, cs)
                except Exception:
                    verdict = False
                assert verdict is False, f"mutation at step {i} accepted"
                mutations += 1
    assert mutations >= 100
    _ok(2, f"{len(proof_pool)} proofs all check; {mutations} single-step "
           f"mutations all rejected")


def test_criterion_03_clausifier_equisatisfiability():
    rng = random.Random(77)
    funcs = {"c": 0, "f": 1}
    preds = {"p": 1, "q": 1}
    for i in range(200):
        f = random_closed_formula(rng, depth=3, allow_eq=False, unary_only=True)
        direct = brute_has_model(f, funcs, preds, 3)
        form = cnf(f, name="x")
        clausal = find_model(form.clauses, 3) is not None
        assert direct == clausal, f"mismatch at formula {i}"
    _ok(3, "200 random closed formulas: model existence at domain <= 3 "
           "agrees between formula and CNF (0 mismatches)")


def test_criterion_04_canonical_skolem_property():
    rng = random.Random(404)
    store = ModelStore()
    seeds = [
        [make_clause([Literal(True, atom("p", const("c")))], "m", "m0")],
        [make_clause([Literal(False, atom("q", const("c")))], "m", "m1")],
        [make_clause([Literal(True, atom("q", const("c")))], "m", "m2"),
         make_clause([Literal(False, atom("p", const("c")))], "m", "m3")],
    ]
    for clauses in seeds:
        m = find_model(clauses, 2)
        assert m is not None
        store.add(m)
    pairs = 0
    while pairs < 100:
        f = random_closed_formula(rng, depth=3, allow_eq=False, unary_only=True)
        g = rename_bound_vars(f)
        if f == g:
            continue
        assert alpha_equivalent(f, g)
        pairs += 1
        form_f = cnf(f, name="x")
        form_g = cnf(g, name="x")
        assert _symbol_multiset(form_f) == _symbol_multiset(form_g)
        assert semantic_features(f, store) == semantic_features(g, store)
        rows_f = [tuple(evaluate(c, m) for m in store) for c in form_f.clauses]
        rows_g = [tuple(evaluate(c, m) for m in store) for c in form_g.clauses]
        assert rows_f == rows_g
    _ok(4, "100 alpha-variant pairs: identical CNF symbol multisets and "
           "identical semantic-feature rows")


def _symbol_multiset(form):
    from collections import Counter
    from proofbench.fol import symbols_of
    out = Counter()
    for c in form.clauses:
        out += symbols_of(clause_as_formula(c))
    return out


def test_criterion_05_model_finder_completeness():
    rng = random.Random(55)
    funcs = {"c": 0}
    preds = {"p": 1, "q": 1}
    checked = 0
    for trial in range(80):
        clauses = []
        for i in range(rng.randint(1, 4)):
            lits = []
            for _ in range(rng.randint(1, 3)):
                pred = rng.choice(["p", "q"])
                term = const("c") if rng.random() < 0.5 else Var("X")
                lits.append(Literal(rng.random() < 0.5, atom(pred, term)))
            clauses.append(make_clause(lits, f"c{i}", f"c{i}"))
        for n in (1, 2, 3):
            got = find_model(clauses, n) is not None
            brute = any(
                all(brute_clause_eval(c, ft, pt, m) for c in clauses)
                for m in range(1, n + 1)
                for ft, pt in all_interpretations(funcs, preds, m))
            assert got == brute, f"trial {trial} n={n}"
            checked += 1
    _ok(5, f"model finder agrees with exhaustive enumeration on "
           f"{checked} (clause set, domain cap) cases")


def test_criterion_06_learner_exactness():
    model = BayesModel()
    train_incremental(model, {"SYM:p": 2.0, "SYM:c": 1.0}, {"ax1"})
    train_incremental(model, {"SYM:p": 1.0, "SYM:q": 1.0}, {"ax2"})
    train_incremental(model, {"SYM:q": 2.0}, {"ax3"})
    s = SIGMA
    query = {"SYM:p": 2.0, "SYM:q": 1.0}

    def stated_formula(c):
        label = model.label_count.get(c, 0.0)
        out = math.log((label + s) / (model.total_examples + s))
        if label == 0.0:
            return out
        for fid, w in query.items():
            if fid not in model.feature_totals:
                continue
            co = model.cooccurrence.get((c, fid), 0.0)
            out += w * math.log((co + s) / (label + 2.0 * s))
        return out

    scores = dict(rank_premises(model, query, ["ax1", "ax2", "ax3", "ax_unseen"]))
    for c, got in scores.items():
        assert abs(got - stated_formula(c)) < 1e-9

    rng = random.Random(66)
    examples = []
    for _ in range(20):
        feats = {f"SYM:s{rng.randint(0, 6)}": float(rng.randint(1, 4))
                 for _ in range(rng.randint(1, 5))}
        used = {f"ax{rng.randint(0, 5)}" for _ in range(rng.randint(1, 3))}
        examples.append((feats, used))
    batch = train_batch(examples)
    inc = BayesModel()
    for feats, used in examples:
        train_incremental(inc, feats, used)
    assert (batch.label_count, batch.cooccurrence, batch.feature_totals,
            batch.total_examples) == \
        (inc.label_count, inc.cooccurrence, inc.feature_totals,
         inc.total_examples)

    candidates = ["ax1", "ax2", "ax3"]
    base_order = [n for n, _ in rank_premises(model, query, candidates)]
    for lam in (1e-3, 1e-1, 0.5, 2.0, 10.0, 1e3):
        scaled = {fid: w * lam for fid, w in query.items()}
        order = [n for n, _ in rank_premises(model, scaled, candidates)]
        assert order == base_order, f"argsort changed at scale {lam}"
    _ok(6, "hand-table scores match the stated formula to 1e-9; "
           "batch == incremental; argsort invariant under scaling")


def test_criterion_07_loop_efficacy_with_goldens(mixed30, tmp_path):
    spec1 = ExperimentSpec(mode="library", corpus=mixed30,
                           out_dir=str(tmp_path / "run1"), loop=ACCEPT_LOOP)
    spec2 = ExperimentSpec(mode="library", corpus=mixed30,
                           out_dir=str(tmp_path / "run2"), loop=ACCEPT_LOOP)
    r1 = run_library(spec1)
    r2 = run_library(spec2)
    learn = next(c for c in r1["configs"] if c["name"] == "learning")
    recency = next(c for c in r1["configs"] if c["name"] == "recency")
    assert learn["proved"] >= recency["proved"]

    for config in ("learning", "recency"):
        rec1 = (tmp_path / "run1" / config / "results.jsonl").read_bytes()
        rec2 = (tmp_path / "run2" / config / "results.jsonl").read_bytes()
        assert rec1 == rec2, "records are not bit-identical across runs"
    rep1 = (tmp_path / "run1" / "report.json").read_bytes()
    rep2 = (tmp_path / "run2" / "report.json").read_bytes()
    assert rep1 == rep2

    with open(os.path.join(GOLDEN_DIR, "mixed30_library.json"),
              encoding="utf-8") as fh:
        golden = json.load(fh)
    got = {
        "learning_proved": learn["proved"],
        "recency_proved": recency["proved"],
        "learning_solved": learn["solved_items"],
        "recency_solved": recency["solved_items"],
        "shortening_items": [s["item"] for s in
                             r1["reports"]["learning"]["shortening"]],
    }
    assert got == golden, "run diverged from the recorded golden counts"
    assert verify_run(str(tmp_path / "run1"))["failed"] == 0
    _ok(7, f"library mode: learning {learn['proved']} >= recency "
           f"{recency['proved']}; records bit-identical; goldens match")


def test_criterion_08_guidance_measurement(neardup50):
    from proofbench.guidance import measure_speedup
    problems = []
    for fn in sorted(os.listdir(neardup50)):
        if fn.endswith(".p"):
            problems.append((fn[:-2], clausal_problem(
                parse_problem_file(os.path.join(neardup50, fn)))))
    assert len(problems) == 50
    limits = Limits(inference_budget=50000, max_depth=10)
    out = measure_speedup(problems, limits, train_count=25)
    assert len(out["rows"]) == 50
    assert out["solved_both"] == 50
    assert all(r.ratio is not None for r in out["rows"])
    g = out["geometric_mean_ratio"]
    assert g is not None and g > 0

    disabled = measure_speedup(problems, limits, train_count=0)
    assert all(r.ratio == 1.0 for r in disabled["rows"])
    assert disabled["geometric_mean_ratio"] == 1.0
    _ok(8, f"speedup measured on 50 near-duplicates (geometric mean "
           f"{g:.3f} with training; exactly 1.0 with training disabled)")


def test_criterion_09_table_fidelity():
    configs = [
        {"name": "alpha", "proved": 3, "counter_satisfiable": 1,
         "timeout_or_inference_out": 1, "total": 5,
         "solved_items": ["a", "b", "c"]},
        {"name": "beta", "proved": 2, "counter_satisfiable": 0,
         "timeout_or_inference_out": 3, "total": 5,
         "solved_items": ["c", "d"]},
    ]
    text = report({"configs": configs})
    lines = text.splitlines()
    header = lines[0]
    for col in ("description", "proved", "counter-satisfiable",
                "timeout or inference out", "total"):
        assert col in header
    assert lines[1].split() == ["alpha", "3", "1", "1", "5"]
    assert lines[2].split() == ["beta", "2", "0", "3", "5"]
    assert lines[3].split() == ["together", "4", "-", "-", "5"]
    assert together_count(configs) == len({"a", "b", "c", "d"})
    solo = report({"configs": configs[:1]})
    assert "together" not in solo
    _ok(9, "four-column schema with correct union row on constructed results")


def test_criterion_10_subcommand_determinism(tmp_path):
    from proofbench.cli import main

    def run_twice(argv_of):
        outs = []
        for tag in ("a", "b"):
            argv = argv_of(str(tmp_path / tag))
            assert main(argv) == 0
            outs.append(str(tmp_path / tag))
        return outs

    def tree_bytes(root, skip=("config.json",)):
        blob = {}
        for dirpath, _dirs, files in os.walk(root):
            for fn in sorted(files):
                if fn in skip:
                    continue
                rel = os.path.relpath(os.path.join(dirpath, fn), root)
                with open(os.path.join(dirpath, fn), "rb") as fh:
                    blob[rel] = fh.read()
        return blob

    gen_a, gen_b = run_twice(lambda out: [
        "generate", "--family", "mixed", "--size", "30",
        "--out", os.path.join(out, "corpus"), "--no-verify"])
    assert tree_bytes(gen_a) == tree_bytes(gen_b)
    corpus = os.path.join(gen_a, "corpus")

    rep_a, rep_b = run_twice(lambda out: [
        "reprove", "--corpus", corpus, "--out", os.path.join(out, "re"),
        "--depth", "8"])
    assert tree_bytes(rep_a) == tree_bytes(rep_b)

    lib_a, lib_b = run_twice(lambda out: [
        "library", "--corpus", corpus, "--out", os.path.join(out, "lib"),
        "--ladder", "4,8,16", "--budgets", "500,1000,2000",
        "--total-budget", "60000", "--iterations", "6", "--depth", "8"])
    assert tree_bytes(lib_a) == tree_bytes(lib_b)

    tt_a, tt_b = run_twice(lambda out: [
        "traintest", "--corpus", corpus, "--split",
        os.path.join(corpus, "split.txt"), "--out", os.path.join(out, "tt"),
        "--ladder", "4,8,16", "--budgets", "500,1000,2000", "--depth", "8"])
    assert tree_bytes(tt_a) == tree_bytes(tt_b)

    nd_a, nd_b = run_twice(lambda out: [
        "generate", "--family", "neardup", "--size", "10",
        "--out", os.path.join(out, "nd"), "--no-verify"])
    assert tree_bytes(nd_a) == tree_bytes(nd_b)
    problems = os.path.join(nd_a, "nd")

    ch_a, ch_b = run_twice(lambda out: [
        "challenge", "--problems", problems, "--out", os.path.join(out, "ch"),
        "--ladder", "4,8,16", "--budgets", "2000", "--total-budget", "200000",
        "--depth", "8"])
    assert tree_bytes(ch_a) == tree_bytes(ch_b)

    sp_a, sp_b = run_twice(lambda out: [
        "speedup", "--problems", problems, "--out", os.path.join(out, "sp"),
        "--train-count", "5", "--budget", "50000", "--depth", "10"])
    assert tree_bytes(sp_a) == tree_bytes(sp_b)

    # report and verify speak only through stdout; compare that
    import contextlib
    import io

    def stdout_of(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) in (0,)
        return buf.getvalue()

    rep_out_a = stdout_of(["report", "--run", os.path.join(rep_a, "re")])
    rep_out_b = stdout_of(["report", "--run", os.path.join(rep_b, "re")])
    assert rep_out_a == rep_out_b
    ver_a = stdout_of(["verify", "--run", os.path.join(lib_a, "lib")])
    ver_b = stdout_of(["verify", "--run", os.path.join(lib_b, "lib")])
    assert ver_a.replace(lib_a, "") == ver_b.replace(lib_b, "")
    _ok(10, "generate/reprove/library/traintest/challenge/speedup/report/"
            "verify all byte-identical across two seeded runs")
