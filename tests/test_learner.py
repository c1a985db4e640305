import math
import random

from proofbench.guidance import advise
from proofbench.learner import (
    SIGMA, BayesModel, rank_premises, save_model, score_table,
    train_incremental,
)

from helpers import (
    atom, const, evaluate_selection, load_model, score, select_top,
    train_batch,
)


def test_single_example_counters():
    model = BayesModel()
    train_incremental(model, {"SYM:p": 1.0}, {"ax1"})
    assert model.label_count == {"ax1": 1.0}
    assert model.cooccurrence == {("ax1", "SYM:p"): 1.0}
    assert model.feature_totals == {"SYM:p": 1.0}
    assert model.total_examples == 1.0


def test_training_twice_doubles_counters():
    model = BayesModel()
    for _ in range(2):
        train_incremental(model, {"SYM:p": 1.0}, {"ax1"})
    assert model.label_count == {"ax1": 2.0}
    assert model.cooccurrence == {("ax1", "SYM:p"): 2.0}
    assert model.total_examples == 2.0


def test_batch_equals_incremental():
    rng = random.Random(2)
    examples = []
    for i in range(10):
        feats = {f"SYM:s{rng.randint(0, 5)}": float(rng.randint(1, 3))
                 for _ in range(rng.randint(1, 4))}
        used = {f"ax{rng.randint(0, 4)}" for _ in range(rng.randint(1, 3))}
        examples.append((feats, used))
    batch = train_batch(examples)
    inc = BayesModel()
    for feats, used in examples:
        train_incremental(inc, feats, used)
    assert batch.label_count == inc.label_count
    assert batch.cooccurrence == inc.cooccurrence
    assert batch.feature_totals == inc.feature_totals
    assert batch.total_examples == inc.total_examples


def test_single_evidence_ranks_first():
    model = BayesModel()
    train_incremental(model, {"SYM:p": 1.0}, {"ax1"})
    ranking = rank_premises(model, {"SYM:p": 1.0}, ["ax2", "ax1"])
    assert ranking[0][0] == "ax1"


def test_empty_model_preserves_input_order():
    model = BayesModel()
    ranking = rank_premises(model, {"SYM:p": 1.0}, ["b", "a", "c"])
    assert [n for n, _ in ranking] == ["b", "a", "c"]
    scores = {s for _, s in ranking}
    assert len(scores) == 1


def _hand_table_model():
    """Three labels, equal priors, distinct co-occurrence profiles.

    Equal label counts make the ranking order depend on the likelihood
    sums alone, so it is provably stable under uniform positive scaling
    of the query weights.
    """
    model = BayesModel()
    train_incremental(model, {"SYM:p": 2.0, "SYM:c": 1.0}, {"ax1"})
    train_incremental(model, {"SYM:p": 1.0, "SYM:q": 1.0}, {"ax2"})
    train_incremental(model, {"SYM:q": 2.0}, {"ax3"})
    return model


def test_scores_match_stated_formula():
    model = _hand_table_model()
    s = SIGMA
    query = {"SYM:p": 2.0, "SYM:q": 1.0}

    def expected(c):
        label = model.label_count.get(c, 0.0)
        out = math.log((label + s) / (model.total_examples + s))
        if label == 0.0:
            return out
        for fid, w in query.items():
            if fid not in model.feature_totals:
                continue
            co = model.cooccurrence.get((c, fid), 0.0)
            out += w * math.log((co + s) / (label + 2 * s))
        return out

    scores = dict(rank_premises(model, query, ["ax1", "ax2", "ax3", "never_seen"]))
    for c, got in scores.items():
        assert abs(got - expected(c)) < 1e-9


def test_argmax_matches_exhaustive_recomputation():
    model = _hand_table_model()
    query = {"SYM:p": 2.0, "SYM:q": 1.0}
    candidates = ["ax3", "ax2", "ax1"]
    ranking = rank_premises(model, query, candidates)
    best = max(candidates, key=lambda c: score(model, query, c))
    assert ranking[0][0] == best


def test_unseen_query_features_skipped():
    model = _hand_table_model()
    with_unknown = rank_premises(model, {"SYM:p": 1.0, "SYM:zzz": 5.0},
                                 ["ax1", "ax2", "ax3"])
    without = rank_premises(model, {"SYM:p": 1.0}, ["ax1", "ax2", "ax3"])
    assert [(n, round(s, 12)) for n, s in with_unknown] == \
        [(n, round(s, 12)) for n, s in without]


def test_scaling_invariance_on_aligned_table():
    model = _hand_table_model()
    query = {"SYM:p": 2.0, "SYM:q": 1.0}
    candidates = ["ax1", "ax2", "ax3"]
    base = [n for n, _ in rank_premises(model, query, candidates)]
    for lam in (1e-3, 0.1, 0.5, 2.0, 10.0, 1e3):
        scaled = {fid: w * lam for fid, w in query.items()}
        assert [n for n, _ in rank_premises(model, scaled, candidates)] == base


def test_scores_finite_for_positive_sigma():
    model = BayesModel()
    train_incremental(model, {"SYM:p": 1.0}, {"ax1"})
    for _c, s in rank_premises(model, {"SYM:p": 5.0, "SYM:q": 1.0}, ["ax1", "ax2"]):
        assert math.isfinite(s)


def test_ranking_equals_the_reference_and_the_table_holds_only_asked_terms():
    # ax0 and ax1 are always trained together, so they tie; ax5 and ax6
    # never get a label, so they tie at the prior; features s6 and s7 are
    # never trained.  Every ranking must be the reference's: `score` per
    # candidate, sorted by (-score, input position).  The snapshot's table
    # must hold an entry only for a labeled name some query scored, and in
    # it a term only for a trained feature some query scoring that name
    # asked about.
    rng = random.Random(37)
    labels = [f"ax{i}" for i in range(7)]
    fids = [f"SYM:s{i}" for i in range(8)]
    ties = unlabeled = 0
    for _trial in range(300):
        model = BayesModel()
        for _ in range(rng.randint(1, 10)):
            feats = {fid: rng.choice([1.0, 2.0, rng.uniform(0.1, 5.0)])
                     for fid in rng.sample(fids[:6], rng.randint(1, 6))}
            used = set(rng.sample(labels[1:5], rng.randint(1, 2)))
            if "ax1" in used:
                used.add("ax0")
            train_incremental(model, feats, used)
        asked: dict = {}
        for _query in range(3):
            query = {fid: rng.choice([1.0, 2.0, rng.uniform(0.1, 5.0)])
                     for fid in rng.sample(fids, rng.randint(0, len(fids)))}
            candidates = rng.sample(labels, rng.randint(1, len(labels)))
            want = [(name, score(model, query, name)) for name in candidates]
            order = sorted(range(len(want)), key=lambda i: (-want[i][1], i))
            got = rank_premises(model, query, candidates)
            assert got == [want[i] for i in order]
            ties += len({s for _n, s in got}) < len(got)
            unlabeled += any(n not in model.label_count for n in candidates)
            for name in candidates:
                asked.setdefault(name, set()).update(query)
            # clause advice reads the same table: clause ids c<i> name
            # their origins, and `x` has none, so it is its own label
            origins = {f"c{i}": rng.choice(labels) for i in range(3)}
            advice_query = tuple(sorted(query.items()))
            advice = advise(model, advice_query, [*origins, "x"], origins)
            assert dict(advice) == {
                cid: score(model, dict(advice_query), origins.get(cid, cid))
                for cid in [*origins, "x"]}
            for label in [*origins.values(), "x"]:
                asked.setdefault(label, set()).update(query)
        table = score_table(model)
        assert set(table.labels) == {n for n in asked if n in model.label_count}
        for name, (_prior, _denom, terms) in table.labels.items():
            assert set(terms) == asked[name] & set(model.feature_totals)
    assert ties and unlabeled


def test_select_top():
    model = BayesModel()
    train_incremental(model, {"SYM:p": 1.0}, {"ax1"})
    ranking = rank_premises(model, {"SYM:p": 1.0}, ["ax2", "ax1"])
    assert select_top(ranking, 1) == ["ax1"]
    assert select_top(ranking, 10) == ["ax1", "ax2"]
    assert select_top(ranking, 2)[:1] == select_top(ranking, 1)


def test_checkpoint_reload_reproduces_rankings(tmp_path):
    model = _hand_table_model()
    path = str(tmp_path / "model.json")
    save_model(model, path)
    back = load_model(path)
    query = {"SYM:p": 2.0, "SYM:q": 1.0}
    cands = ["ax1", "ax2", "ax3", "ax4"]
    assert rank_premises(back, query, cands) == rank_premises(model, query, cands)


class _Item:
    def __init__(self, name, role, formula, refs):
        self.name = name
        self.role = role
        self.formula = formula
        self.reference_premises = refs


class _GroupCorpus:
    """Per group: a base theorem (no refs) then members referencing it.

    The base's symbol recurs in every member, so once the first member
    has trained the base's label, later members rank it first.  A label
    never referenced before cannot outscore trained ones under the
    smoothed log-odds, so each group's first member is the warm-up.
    """

    def __init__(self, groups, members):
        self.items = []
        for g in range(groups):
            self.items.append(_Item(f"b{g}", "conjecture",
                                    atom(f"w{g}", const("c")), ()))
            for j in range(members):
                self.items.append(_Item(f"m{g}_{j}", "conjecture",
                                        atom(f"w{g}", const("c")), (f"b{g}",)))


def test_evaluate_selection_informative_groups():
    from proofbench.features import symbol_features
    from proofbench.learner import BayesModel, rank_premises, train_incremental
    corpus = _GroupCorpus(groups=5, members=4)

    # pointwise leave-one-out: every post-warm-up member hits at k=1
    model = BayesModel()
    for i, item in enumerate(corpus.items):
        feats = symbol_features(item.formula)
        if item.reference_premises and not item.name.endswith("_0"):
            candidates = [p.name for p in corpus.items[:i]]
            ranking = rank_premises(model, feats, candidates)
            assert select_top(ranking, 1) == list(item.reference_premises)
        train_incremental(model, feats, item.reference_premises)

    # aggregate: the warm-up member of every group but the first misses
    # (the first group's warm-up has a single candidate and hits trivially)
    table = evaluate_selection(corpus, [1], lambda f: symbol_features(f))
    assert table[1]["full_recall"] == 16 / 20


def test_evaluate_selection_random_features_near_baseline():
    rng = random.Random(6)
    items = [_Item("t0", "conjecture", atom("p0", const("c")), ())]
    for i in range(1, 30):
        items.append(_Item(f"t{i}", "conjecture", atom(f"p{i}", const("c")),
                           (f"t{i - 1}",)))
    corpus = type("C", (), {"items": items})()

    def feats(_f):
        return {f"SYM:r{rng.randint(0, 40)}": 1.0}

    table = evaluate_selection(corpus, [1, 30], feats)
    # with uninformative features recall@1 is near chance; @all it is 1.0
    assert table[30]["full_recall"] == 1.0
    assert table[1]["full_recall"] <= 0.6
