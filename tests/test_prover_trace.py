"""The prover's exact search, locked against a recorded trace.

Search order is a contract: inference counts feed every budget, report
and benchmark digest, and the advisor learns from the proof's choices it
is told.  `golden/prover_trace.json` holds, for fixed inputs, what each
`prove()` call returned, the clause ids an advisor was told the returned
proof took at its advised choice points, and the queries an advisor
over an empty model (which gives no advice) buffered.  A change that
alters any of them changes the search or what the advisor learns.

Re-record (only for a deliberate search change) with
`PYTHONPATH=src python3 tests/test_prover_trace.py --record`.
"""
from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from proofbench.clausify import ClauseSet, clausal_problem  # noqa: E402
from proofbench.corpus import load_corpus  # noqa: E402
from proofbench.fol import make_problem  # noqa: E402
from proofbench.guidance import Advisor  # noqa: E402
from proofbench.learner import BayesModel  # noqa: E402
from proofbench.prover import Limits, proof_to_text, prove  # noqa: E402

from helpers import random_prop_clauses  # noqa: E402

GOLDEN = os.path.join(HERE, "golden", "prover_trace.json")
MIXED30 = os.path.join(os.path.dirname(HERE), "corpora", "mixed30")


def _facts(res) -> dict:
    return {"status": res.status, "inferences": res.stats.inferences,
            "depth_reached": res.stats.depth_reached,
            "stop_reason": res.stats.stop_reason,
            "consults": res.stats.consults,
            "proof": proof_to_text(res.proof) if res.proof else None}


def _mixed30_problems(recent: int | None) -> list:
    """(name, clause set) per mixed30 theorem: from its reference premises,
    or from the `recent` items before it (a harder search that also runs
    into budgets, depth bounds and saturation)."""
    corpus = load_corpus(MIXED30)
    by_name = {i.name: i for i in corpus.items}
    out = []
    for i, item in corpus.theorems():
        premises = ([by_name[p] for p in item.reference_premises] if recent is None
                    else corpus.eligible(i)[-recent:])
        out.append((item.name, clausal_problem(make_problem(
            [p.as_axiom() for p in premises] + [item.as_conjecture()]))))
    return out


def _mixed30() -> dict:
    out = {name: _facts(prove(cs, Limits(max_depth=8, inference_budget=20000)))
           for name, cs in _mixed30_problems(None)}
    for depth in (3, 8):
        limits = Limits(max_depth=depth, inference_budget=2000)
        for name, cs in _mixed30_problems(4):
            out[f"recent4:depth{depth}:{name}"] = _facts(prove(cs, limits))
    return out


def _random_sets() -> list:
    # the seeded sets of test_prover_oracle_agreement_100_random_sets
    rng = random.Random(41)
    out = []
    for _trial in range(100):
        clauses = random_prop_clauses(rng)
        start = frozenset(c.clause_id for c in clauses if c.is_negative())
        if not start:
            out.append(None)
            continue
        res = prove(ClauseSet(tuple(clauses), start),
                    Limits(max_depth=12, inference_budget=200000),
                    model_max_domain=1)
        out.append(_facts(res))
    return out


class _LoggingAdvisor(Advisor):
    def __init__(self, model, clauses):
        super().__init__(model, clauses)
        self.outcomes: list = []

    def outcome(self, token, clause_id):
        self.outcomes.append(clause_id)
        super().outcome(token, clause_id)


def _advised_runs(problems, limits, out: dict, queries: dict, tag: str) -> None:
    """Runs whose advisor has an empty model train a model; guided runs
    consult it.  `queries` gets each training run's buffered queries, in
    buffer order, one `feature:weight ...` string per record."""
    guide = BayesModel()
    half = len(problems) // 2
    for pid, cs in problems[:half]:
        rec = _LoggingAdvisor(BayesModel(), cs.clauses)
        res = prove(cs, limits, advisor=rec)
        queries[f"{tag}:record:{pid}"] = [
            " ".join(f"{fid}:{w!r}" for fid, w in query)
            for query, _chosen in rec.buffer]
        rec.flush_to(guide)
        out[f"{tag}:record:{pid}"] = dict(_facts(res), outcomes=rec.outcomes)
    for pid, cs in problems:
        adv = _LoggingAdvisor(guide, cs.clauses)
        res = prove(cs, limits, advisor=adv)
        out[f"{tag}:guided:{pid}"] = dict(_facts(res), outcomes=adv.outcomes)


def _advised(tmp_dir: str) -> tuple:
    """The `advised` part and the `queries` part."""
    from proofbench.generator import generate_corpus
    from proofbench.parser import parse_problem_file

    root = os.path.join(tmp_dir, "neardup")
    generate_corpus("neardup", 8, root, verify=False)
    neardup = [(fn[:-2], clausal_problem(parse_problem_file(os.path.join(root, fn))))
               for fn in sorted(os.listdir(root)) if fn.endswith(".p")]
    out: dict = {}
    queries: dict = {}
    _advised_runs(neardup, Limits(inference_budget=50000, max_depth=10), out,
                  queries, "neardup")
    _advised_runs(_mixed30_problems(4), Limits(inference_budget=1000, max_depth=8),
                  out, queries, "mixed30")
    return out, queries


def _clash_library() -> list:
    """(name, role, formula) in library order, in the `library-search`
    benchmark's shape: the group axioms and chain rules first, then chain
    theorems interleaved with equational lemmas and noise axioms."""
    fams = ("ca", "cb")
    lib = [("g_ident", "axiom", "![X]: mult(e,X) = X"),
           ("g_inv", "axiom", "![X]: mult(inv(X),X) = e")]
    lib += [(f"{f}_base", "axiom", f"{f}0({f}_c)") for f in fams]
    lib += [(f"{f}_rule{k}", "axiom", f"![X]: ({f}{k - 1}(X) => {f}{k}(X))")
            for k in range(1, 5) for f in fams]
    lemmas = [("id", "mult(e,{c}) = {c}"),
              ("invx", "mult(inv({c}),{c}) = e"),
              ("idid", "mult(e,mult(e,{c})) = mult(e,{c})"),
              ("sym", "{c} = mult(e,{c})"),
              ("trans", "mult(e,mult(inv({c}),{c})) = e")]
    for k, c in zip(range(1, 5), ("c", "d", "k", "m")):
        lib += [(f"{f}_th{k}", "conjecture", f"{f}{k}({f}_c)") for f in fams]
        lib += [(f"lem_{c}_{suffix}", "conjecture", pattern.format(c=c))
                for suffix, pattern in lemmas]
        lib += [(f"noise{k}{j}", "axiom", f"irrelevant{k}{j}(nc{k}{j})")
                for j in range(2)]
    return lib


def _clash_problems(recent: int) -> list:
    """(name, clause set) per theorem of `_clash_library`, from the `recent`
    items before it: the recency baseline's attempts, whose budgets run out
    in the middle of extensions under the equality axioms."""
    from proofbench.parser import parse_problem

    lib = _clash_library()
    out = []
    for i, (name, role, formula) in enumerate(lib):
        if role != "conjecture":
            continue
        text = "".join(f"fof({n}, axiom, {f}).\n" for n, _r, f in
                       lib[max(0, i - recent):i])
        out.append((name, clausal_problem(parse_problem(
            text + f"fof({name}, conjecture, {formula}).\n"))))
    return out


def _clash() -> dict:
    """Each theorem of `_clash_library` from the 4, 8 and 16 items before it."""
    limits = Limits(max_depth=16, inference_budget=2000)
    return {f"recent{recent}:{name}": _facts(prove(cs, limits))
            for recent in (4, 8, 16) for name, cs in _clash_problems(recent)}


def trace(tmp_dir: str) -> dict:
    advised, queries = _advised(tmp_dir)
    return {"mixed30": _mixed30(), "random_sets": _random_sets(),
            "advised": advised, "queries": queries, "clash": _clash()}


def test_prover_trace_matches_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = json.loads(json.dumps(trace(str(tmp_path))))
    for part in ("mixed30", "random_sets", "advised", "queries", "clash"):
        assert got[part] == golden[part], part


def test_inference_budget_cuts_exactly():
    """A run at budget L is the run at a larger budget when that used at
    most L inferences, and otherwise stops at exactly L: every L up to
    300, then seeded ones up to the larger budget, on the clash problems
    and on mixed30 from the 4 items before each theorem.  The clash
    library's third and fourth blocks of 7 theorems repeat its second
    under new names, so they are left out."""
    top = 2000
    rng = random.Random(18)
    inputs = [(name, cs, 16) for name, cs in _clash_problems(4)[:14]]
    for depth in (3, 8):
        inputs += [(f"depth{depth}:{name}", cs, depth)
                   for name, cs in _mixed30_problems(4)]
    for name, cs, depth in inputs:
        full = _facts(prove(cs, Limits(max_depth=depth, inference_budget=top)))
        for budget in list(range(1, 301)) + rng.sample(range(301, top), 3):
            got = _facts(prove(cs, Limits(max_depth=depth, inference_budget=budget)))
            if full["inferences"] <= budget:
                assert got == full, (name, budget)
            else:
                assert (got["status"], got["inferences"], got["stop_reason"]) == (
                    "inference_limit", budget, "inference budget exhausted"), \
                    (name, budget)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_prover_trace.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        data = trace(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
