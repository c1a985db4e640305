import os

import pytest

from proofbench.clausify import clausal_problem
from proofbench.corpus import MANIFEST_NAME, load_corpus
from proofbench.fol import make_problem
from proofbench.generator import FAMILIES, GeneratorError, generate_corpus
from proofbench.prover import Limits, PROVED, prove


def _tree(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for fn in sorted(files):
            rel = os.path.relpath(os.path.join(dirpath, fn), root)
            with open(os.path.join(dirpath, fn), "rb") as fh:
                out[rel] = fh.read()
    return out


def test_unknown_family_rejected(tmp_path):
    with pytest.raises(GeneratorError):
        generate_corpus("nonsense", 5, str(tmp_path))


def test_size_zero_empty_corpus(tmp_path):
    generate_corpus("chain", 0, str(tmp_path / "c"))
    corpus = load_corpus(str(tmp_path / "c"))
    assert corpus.items == []


def test_chain_of_five_provable_shallow(tmp_path):
    generate_corpus("chain", 5, str(tmp_path / "c"))   # verification on
    corpus = load_corpus(str(tmp_path / "c"))
    by_name = {i.name: i for i in corpus.items}
    for _i, item in corpus.theorems():
        premises = [by_name[r].as_axiom() for r in item.reference_premises]
        cs = clausal_problem(make_problem(premises + [item.as_conjecture()]))
        res = prove(cs, Limits(inference_budget=100000, max_depth=3))
        assert res.status == PROVED
        assert res.stats.depth_reached <= 3


def test_group_family_verifies(tmp_path):
    generate_corpus("group", 8, str(tmp_path / "g"))
    corpus = load_corpus(str(tmp_path / "g"))
    assert len(corpus.items) == 8
    assert len(corpus.theorems()) == 6


def test_group_family_size_beyond_capacity_rejected(tmp_path):
    generate_corpus("group", 22, str(tmp_path / "full"), verify=False)
    assert len(load_corpus(str(tmp_path / "full")).items) == 22
    with pytest.raises(GeneratorError, match="at most 22"):
        generate_corpus("group", 30, str(tmp_path / "over"), verify=False)
    assert not (tmp_path / "over").exists()


def test_mixed_family_size_beyond_capacity_rejected(tmp_path):
    generate_corpus("mixed", 30, str(tmp_path / "full"), verify=False)
    assert len(load_corpus(str(tmp_path / "full")).items) == 30
    for size in (31, 40):
        over = tmp_path / f"over{size}"
        with pytest.raises(GeneratorError, match="at most 30"):
            generate_corpus("mixed", size, str(over), verify=False)
        assert not over.exists()


def test_same_seed_byte_identical(tmp_path):
    for family in FAMILIES:
        a = str(tmp_path / f"{family}_a")
        b = str(tmp_path / f"{family}_b")
        generate_corpus(family, 10, a, verify=False)
        generate_corpus(family, 10, b, verify=False)
        assert _tree(a) == _tree(b), family


def test_bundled_corpus_matches_regeneration(tmp_path):
    bundled = os.path.join(os.path.dirname(__file__), os.pardir,
                           "corpora", "mixed30")
    regen = str(tmp_path / "mixed30")
    generate_corpus("mixed", 30, regen, verify=False)
    assert _tree(bundled) == _tree(regen)


def test_generation_time_verification_catches_unprovable(tmp_path, monkeypatch):
    import proofbench.generator as gen

    real_chain = gen._chain_entries

    def broken_chain(size):
        entries = real_chain(size)
        # drop a reference so the last theorem loses a needed premise
        name, role, formula, refs = entries[-1]
        entries[-1] = (name, role, formula, refs[:1])
        return entries

    monkeypatch.setattr(gen, "_chain_entries", broken_chain)
    with pytest.raises(GeneratorError, match="not provable"):
        generate_corpus("chain", 5, str(tmp_path / "broken"))


def test_neardup_verification_replays_every_proof(tmp_path, monkeypatch):
    # the independent checker that `loop.prove_checked` calls rejects the
    # third problem's proof: generation fails and names that problem
    import proofbench.loop as loop

    checked = []

    def checker(proof, cs):
        checked.append(proof)
        return len(checked) < 3
    monkeypatch.setattr(loop, "check_proof", checker)
    with pytest.raises(loop.LoopInvariantError, match="prob_002"):
        generate_corpus("neardup", 5, str(tmp_path / "nd"))
    assert len(checked) == 3


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_writes_exactly_size_items(family, tmp_path):
    for size in range(4):
        root = str(tmp_path / f"{family}{size}")
        generate_corpus(family, size, root)
        problems = sorted(fn for fn in os.listdir(root) if fn.endswith(".p"))
        if family == "neardup":
            assert len(problems) == size
            continue
        with open(os.path.join(root, MANIFEST_NAME), encoding="utf-8") as fh:
            records = [line.split() for line in fh if line.strip()]
        assert len(records) == size, (family, size)
        assert sorted(r[1] for r in records) == problems
        assert len(load_corpus(root).items) == size
