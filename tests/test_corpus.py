import os

import pytest

from proofbench.corpus import (
    CorpusError, load_corpus, load_split, write_manifest,
)


def _write(root, name, text):
    path = os.path.join(root, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _make_corpus(tmp_path, records, files):
    for name, text in files.items():
        _write(str(tmp_path), name, text)
    write_manifest(str(tmp_path), records)
    return str(tmp_path)


def test_valid_backward_references(tmp_path):
    root = _make_corpus(
        tmp_path,
        [("a1", "a1.p", []), ("t1", "t1.p", []), ("t2", "t2.p", ["a1"])],
        {
            "a1.p": "fof(a1, axiom, p(c)).\n",
            "t1.p": "fof(t1, conjecture, p(c)).\n",
            "t2.p": "fof(t2, conjecture, p(c)).\n",
        })
    corpus = load_corpus(root)
    assert len(corpus.items) == 3
    assert corpus.items[0].role == "axiom"
    assert corpus.items[2].reference_premises == ("a1",)
    assert [i.name for i in corpus.eligible(2)] == ["a1", "t1"]


def test_forward_reference_rejected(tmp_path):
    root = _make_corpus(
        tmp_path,
        [("t1", "t1.p", ["t2"]), ("t2", "t2.p", [])],
        {
            "t1.p": "fof(t1, conjecture, p(c)).\n",
            "t2.p": "fof(t2, conjecture, p(c)).\n",
        })
    with pytest.raises(CorpusError, match="forward"):
        load_corpus(root)


def test_dangling_reference_rejected(tmp_path):
    root = _make_corpus(
        tmp_path,
        [("t1", "t1.p", ["ghost"])],
        {"t1.p": "fof(t1, conjecture, p(c)).\n"})
    with pytest.raises(CorpusError, match="dangling"):
        load_corpus(root)


def test_self_reference_rejected(tmp_path):
    root = _make_corpus(
        tmp_path,
        [("t1", "t1.p", ["t1"])],
        {"t1.p": "fof(t1, conjecture, p(c)).\n"})
    with pytest.raises(CorpusError):
        load_corpus(root)


def test_repeated_reference_rejected(tmp_path):
    root = _make_corpus(
        tmp_path,
        [("a", "a.p", []), ("t1", "t1.p", ["a", "a"])],
        {"a.p": "fof(a, axiom, p(c)).\n", "t1.p": "fof(t1, conjecture, p(c)).\n"})
    with pytest.raises(CorpusError, match="listed twice"):
        load_corpus(root)


def test_missing_formula_name_rejected(tmp_path):
    root = _make_corpus(
        tmp_path,
        [("t1", "t1.p", [])],
        {"t1.p": "fof(other, conjecture, p(c)).\n"})
    with pytest.raises(CorpusError, match="no formula named"):
        load_corpus(root)


def test_cross_item_arity_clash_rejected(tmp_path):
    root = _make_corpus(
        tmp_path,
        [("a1", "a1.p", []), ("a2", "a2.p", [])],
        {
            "a1.p": "fof(a1, axiom, p(c)).\n",
            "a2.p": "fof(a2, axiom, p(c,c)).\n",
        })
    with pytest.raises(Exception):
        load_corpus(root)


def test_split_file(tmp_path):
    root = _make_corpus(
        tmp_path,
        [("t1", "t1.p", []), ("t2", "t2.p", [])],
        {
            "t1.p": "fof(t1, conjecture, p(c)).\n",
            "t2.p": "fof(t2, conjecture, p(c)).\n",
        })
    corpus = load_corpus(root)
    split = _write(root, "split.txt", "train t1\ntest t2\n")
    train, test = load_split(split, corpus)
    assert (train, test) == (["t1"], ["t2"])

    bad = _write(root, "bad.txt", "train t1\ntest t1\n")
    with pytest.raises(CorpusError, match="overlap"):
        load_split(bad, corpus)


def test_split_rejects_an_item_that_is_not_a_theorem(tmp_path):
    # an axiom on the test side would shrink the evaluated set below the
    # test_size reported: the error names the file, the line and the item
    corpus = load_corpus(os.path.join(os.path.dirname(__file__), "..",
                                      "corpora", "mixed30"))
    split = _write(str(tmp_path), "split.txt",
                   "train fa_th1\ntest fb_th1\ntest fa_base\n")
    with pytest.raises(CorpusError) as err:
        load_split(split, corpus)
    assert str(err.value) == f"{split}:3: 'fa_base' is not a theorem"
