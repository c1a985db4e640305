import pytest

from proofbench.clausify import clausal_problem
from proofbench.guidance import Advisor
from proofbench.learner import BayesModel, train_incremental
from proofbench.parser import parse_problem
from proofbench.prover import Limits, PROVED, prove


def test_limits_validation():
    with pytest.raises(ValueError):
        Limits(inference_budget=0)
    with pytest.raises(ValueError):
        Limits(max_depth=0)
    Limits()   # all-default is fine


def test_advisor_rejects_stale_snapshot():
    model = BayesModel()
    advisor = Advisor(model, ())
    order1, _tok = advisor.consult(["g", "c"], 0, ["c1", "c2", "c3"])
    assert order1 is None       # an empty model gives no advice
    train_incremental(model, {"SYM:p": 1.0}, {"ax2"})
    # stale snapshot is an error the prover degrades on: it counts the
    # error and keeps input order
    with pytest.raises(RuntimeError, match="learner changed during search"):
        advisor.consult(["g", "c"], 0, ["c1", "c2", "c3"])
    cs = clausal_problem(parse_problem("""
    fof(r1, axiom, ![X]: (a(X) => g(X))).
    fof(r2, axiom, ![X]: (b(X) => g(X))).
    fof(r3, axiom, ![X]: (m(X) => g(X))).
    fof(f1, axiom, m(c)).
    fof(goal, conjecture, g(c)).
    """))
    plain = prove(cs, Limits(max_depth=6))
    stale = prove(cs, Limits(max_depth=6), advisor=advisor)
    assert stale.status == PROVED
    assert stale.stats.inferences == plain.stats.inferences
    assert stale.stats.advisor_errors > 0
