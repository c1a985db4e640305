import pytest

from proofbench.features import write_feature_cache
from proofbench.guidance import Advisor
from proofbench.learner import BayesModel, train_incremental
from proofbench.prover import Limits


def test_limits_validation():
    with pytest.raises(ValueError):
        Limits(inference_budget=0)
    with pytest.raises(ValueError):
        Limits(max_depth=0)
    Limits()   # all-default is fine


def test_advisor_rejects_stale_snapshot():
    model = BayesModel()
    advisor = Advisor(model)
    order1, _tok = advisor.consult(["g", "c"], 0, ["c1", "c2", "c3"])
    assert order1 is None       # an empty model gives no advice
    train_incremental(model, {"SYM:p": 1.0}, {"ax2"})
    # stale snapshot is an error the prover would degrade on
    with pytest.raises(AssertionError):
        advisor.consult(["g", "c"], 0, ["c1", "c2", "c3"])


def test_feature_cache_rejects_whitespace_names(tmp_path):
    with pytest.raises(ValueError):
        write_feature_cache(str(tmp_path / "x"), {"bad name": {"SYM:p": 1.0}})
