"""The rules every tab-separated input shares, checked on each of the seven formats."""

import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from mlbl._io import read_tsv
from mlbl.clustering import load_partition
from mlbl.corpus import Vocabulary
from mlbl.errors import DataError
from mlbl.evaluation import SimilarityDataset
from mlbl.morphology import (FactorVocabulary, WordFactorization, load_vectors,
                             parse_segmentations)

TYPES = ["<unk>", "<s>", "#a", "b"]


def _vocab():
    return Vocabulary(TYPES, np.array([0, 0, 3, 1]))


def _factors():
    fv = FactorVocabulary()
    for factor in [f"{t}|surface" for t in TYPES] + ["#x|stem"]:
        fv.add(factor)
    return fv


class Format(NamedTuple):
    read: Callable             # path -> the loaded object
    records: Callable          # loaded object -> one record per data line
    fmt: str                   # the fields, as the "expected ..." message names them
    lines: list[str]           # a valid file, one data line each
    bad_line: str              # a line with the wrong field count


FORMATS = {
    "vocabulary": Format(
        Vocabulary.load, lambda v: list(zip(v.types, v.counts.tolist())),
        "id<TAB>type<TAB>count",
        ["0\t<unk>\t0", "1\t<s>\t0", "2\t#a\t3", "3\tb\t1"], "1\t<s>"),
    "factors": Format(
        FactorVocabulary.load, lambda fv: fv.factors, "id<TAB>factor",
        ["0\t#a|surface", "1\t#x|stem"], "1\t#x|stem\t2"),
    "mu": Format(
        lambda p: WordFactorization.load(p, _vocab(), _factors()),
        lambda wf: [wf.mu(v) for v in range(wf.num_words)], "word<TAB>factors",
        ["<unk>\t<unk>|surface", "<s>\t<s>|surface", "#a\t#a|surface #x|stem",
         "b\tb|surface"], "<s>"),
    "segmentations": Format(
        parse_segmentations, lambda segs: list(segs.items()), "word<TAB>morpheme list",
        ["#a\t#x|stem a|suffix", "b\tb|stem"], "b\tb|stem\tb|stem"),
    "partition": Format(
        lambda p: load_partition(p, _vocab()), lambda part: part.class_of.tolist(),
        "class_id<TAB>word", ["0\t<unk>", "1\t<s>", "0\t#a", "1\tb"], "1"),
    "vectors": Format(
        load_vectors, lambda wm: list(zip(wm[0], wm[1].tolist())), "word<TAB>values",
        ["#a\t1.0 2.0", "b\t3.0 4.0"], "b\t3.0\t4.0"),
    "similarity": Format(
        SimilarityDataset.load, lambda ds: ds.pairs, "word1<TAB>word2<TAB>rating",
        ["#a\tb\t3.5", "b\t#a\t1.0"], "#a\tb"),
}

# a '#' put in front of line 1: read as data (None), or the DataError it gives at line 1
LEADING_HASH = {
    "mu": "word '#<unk>' does not match vocabulary order",
    "segmentations": None,
    "partition": "bad class id '#0'",
    "vectors": None,
    "similarity": None,
}


def _write(tmp_path, text):
    path = tmp_path / "input.tsv"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("name", list(FORMATS))
def test_shared_reader_rules(tmp_path, name):
    spec = FORMATS[name]
    compact = spec.records(spec.read(_write(tmp_path, "\n".join(spec.lines) + "\n")))
    assert len(compact) == len(spec.lines)

    # blank lines anywhere are skipped
    spaced = _write(tmp_path, "\n" + "\n\n".join(spec.lines) + "\n\n")
    assert spec.records(spec.read(spaced)) == compact

    # a wrong field count names the file, the line and the expected fields
    path = _write(tmp_path, "\n".join([spec.lines[0], spec.bad_line, *spec.lines[1:]]))
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}:2: expected {spec.fmt}')}$"):
        spec.read(path)


@pytest.mark.parametrize("name", list(LEADING_HASH))
def test_leading_hash_is_data(tmp_path, name):
    """Words and factors may begin with '#'; only the vocabulary has comment lines."""
    spec = FORMATS[name]
    path = _write(tmp_path, "\n".join(["#" + spec.lines[0], *spec.lines[1:]]) + "\n")
    error = LEADING_HASH[name]
    if error is None:
        records = spec.records(spec.read(path))
        assert len(records) == len(spec.lines)
        assert str(records[0]).startswith("('#")
    else:
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}:1: {error}')}"):
            spec.read(path)


def test_vocabulary_comment_lines_are_skipped(tmp_path):
    spec = FORMATS["vocabulary"]
    path = _write(tmp_path, "\n".join(["# kappa=0.5", *spec.lines, "# trailing note"]))
    vocab = Vocabulary.load(path)
    assert vocab.types == TYPES and vocab.kappa == 0.5


def test_read_tsv_yields_line_numbers(tmp_path):
    path = _write(tmp_path, "a\tb\n\nc\td\n")
    assert list(read_tsv(path, "x<TAB>y")) == [(1, ["a", "b"]), (3, ["c", "d"])]
