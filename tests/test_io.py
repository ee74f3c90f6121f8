"""The rules every tab-separated input shares, checked on each of the six formats."""

import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from mlbl._io import read_table
from mlbl.clustering import load_partition
from mlbl.corpus import Vocabulary
from mlbl.errors import DataError
from mlbl.evaluation import SimilarityDataset
from mlbl.morphology import FactorVocabulary, WordFactorization, parse_segmentations

TYPES = ["<unk>", "<s>", "#a", "b"]


def _vocab():
    return Vocabulary(TYPES, np.array([0, 0, 3, 1]))


def _factors():
    return FactorVocabulary([f"{t}|surface" for t in TYPES] + ["#x|stem"])


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
    "similarity": Format(
        SimilarityDataset.load, lambda ds: ds.pairs, "word1<TAB>word2<TAB>rating",
        ["#a\tb\t3.5", "b\t#a\t1.0"], "#a\tb"),
}

# a '#' put in front of line 1: read as data (None), or the DataError it gives at line 1
LEADING_HASH = {
    "mu": "word '#<unk>' does not match vocabulary order",
    "segmentations": None,
    "partition": "bad class id '#0'",
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


def test_read_table_numbers_lines_and_splits_columns(tmp_path):
    for text in ("a\tb\n\nc\td\n", "a\tb\r\n\r\nc\td", "a\tb\r\rc\td\r"):
        path = tmp_path / "input.tsv"
        path.write_bytes(text.encode("utf-8"))
        table = read_table(path, "x<TAB>y")
        assert list(table.linenos) == [1, 3] and table.columns == [["a", "c"], ["b", "d"]]
        assert table.comments == [] and table.fault is None


# Each reader's malformed files and the error it gives, "{path}" standing for
# the file. A file reports its first bad line, as when read line by line,
# whichever check that line fails; lines count blank ones.
VOCAB_FMT, FACTOR_FMT = "id<TAB>type<TAB>count", "id<TAB>factor"
PARTITION_FMT, SEGS_FMT = "class_id<TAB>word", "word<TAB>morpheme list"
READER_ERRORS = {
    "vocabulary": [
        (["0\t<unk>\t0", "1\t<s>", "2\ta\t1"], f"{{path}}:2: expected {VOCAB_FMT}"),
        (["0\t<unk>\t0", "1\t<s>\t0", "x\ta\t3"], "{path}:3: bad id 'x'"),
        (["0\t<unk>\t0", "1\t<s>\t0", "2\ta\t3.5"], "{path}:3: bad count '3.5'"),
        (["0\t<unk>\t0", "1\t<s>\t0", "# kappa=lots"], "{path}:3: bad kappa 'lots'"),
        (["0\t<unk>\t0", "2\t<s>\t0"], "{path}:2: ids must be dense and ordered"),
        (["0\t<unk>\t0", "1\t<s>\t0", "2\ta\ty", "3\tb"], "{path}:3: bad count 'y'"),
        (["0\t<unk>\t0", "1\t<s>", "x\ta\t1"], f"{{path}}:2: expected {VOCAB_FMT}"),
        (["0\t<unk>\t0", "1\t<s>\t0", "x\ta\t1", "# kappa=lots"], "{path}:3: bad id 'x'"),
        (["# kappa=lots", "0\t<unk>\t0", "x\ta\t1"], "{path}:1: bad kappa 'lots'"),
        (["0\t<unk>\t0", "1\t<s>\t0", "x\ta\ty"], "{path}:3: bad id 'x'"),
        (["0\t<unk>\t0", "1\t<s>\t0", "5\ta\ty"], "{path}:3: ids must be dense and ordered"),
        (["0\t<unk>\t0", "", "", "1\t<s>\t0", "", "2\ta\t1.0"], "{path}:6: bad count '1.0'"),
        (["0\t<unk>\t0", "1\t<s>\t0", "2\ta\t1", "4\tb\t1", "3\tc"],
         "{path}:4: ids must be dense and ordered"),
        ([], "{path}: empty vocabulary file"),
        (["# kappa=0.5", "# note"], "{path}: empty vocabulary file"),
        (["0\ta\t0", "1\t<s>\t0"], "vocabulary must reserve id 0 for <unk> and id 1 for <s>"),
    ],
    "factors": [
        (["0\ta|surface", "x\tb|surface"], "{path}:2: bad factor id 'x'"),
        (["0\ta|surface", "2\tb|surface"], "{path}:2: ids must be dense and ordered"),
        (["0\ta|surface", "1\tb|surface\tc"], f"{{path}}:2: expected {FACTOR_FMT}"),
        (["0\ta|surface", "1", "x\tb|surface"], f"{{path}}:2: expected {FACTOR_FMT}"),
        (["0\ta|surface", "", "x\tb|surface", "3"], "{path}:3: bad factor id 'x'"),
        (["0\ta|surface", "1.0\tb|surface"], "{path}:2: bad factor id '1.0'"),
    ],
    "mu": [
        (["<unk>\t<unk>|surface", "<s>\t<s>|surface", "#a\t#a|surface d|m", "b"],
         "{path}:3: unknown factor 'd|m'"),
        (["<unk>\t<unk>|surface", "<s>\t<s>|surface", "b\tq|m", "#a\t#a|surface"],
         "{path}:3: word 'b' does not match vocabulary order"),
        (["<unk>\t<unk>|surface", "<s>", "#a\tq|m"], "{path}:2: expected word<TAB>factors"),
        (["<unk>\t<unk>|surface", "<s>\t<s>|surface", "#a\t#a|surface", "b\tb|surface",
          "c\tc|surface"], "{path}:5: word 'c' does not match vocabulary order"),
        (["<unk>\t<unk>|surface", "<s>\t<s>|surface", "", "#a\t#a|surface  #x|stem"],
         "{path}:4: unknown factor ''"),
        (["<unk>\t<unk>|surface"], "{path}: 1 rows for 4 vocabulary words"),
    ],
    "partition": [
        (["0\t<unk>", "x\t<s>"], "{path}:2: bad class id 'x'"),
        (["0\t<unk>", "1\tzz"], "{path}:2: word 'zz' not in vocabulary"),
        (["0\t<unk>", "1\t<s>", "0\t<unk>"], "{path}:3: word '<unk>' listed twice"),
        (["0\t<unk>", "1\t<s>", "0\t#a"], "{path}: vocabulary word 'b' missing from partition"),
        (["0\t<unk>", "1\t<s>\t2"], f"{{path}}:2: expected {PARTITION_FMT}"),
        (["0\t<unk>", "x\tzz"], "{path}:2: bad class id 'x'"),
        (["0\t<unk>", "1\tzz", "0\t<unk>"], "{path}:2: word 'zz' not in vocabulary"),
        (["0\t<unk>", "0\t<unk>", "1\tzz"], "{path}:2: word '<unk>' listed twice"),
        (["0\t<unk>", "0\t<unk>", "x\tzz"], "{path}:2: word '<unk>' listed twice"),
        (["0\t<unk>", "", "1\t<s>", "1\t<s>", "0"], "{path}:4: word '<s>' listed twice"),
        (["0\t<unk>", "1\t<s>", "0\t#a", "1\tb", "1"], f"{{path}}:5: expected {PARTITION_FMT}"),
    ],
    "segmentations": [
        (["a\tx|stem", "\tx|stem"], f"{{path}}:2: expected {SEGS_FMT}"),
        (["a\tx|stem", "b\t"], f"{{path}}:2: expected {SEGS_FMT}"),
        (["A\tx|stem", "a\ty|stem"], "{path}:2: duplicate entry for 'a'"),
        (["a\tx|stem", "b\tx"], "{path}:2: morpheme 'x' lacks a |label"),
        (["a\tx|stem", "b\t|stem"], "{path}:2: empty morpheme or label in '|stem'"),
        (["a\tx|stem", "b\tx|"], "{path}:2: empty morpheme or label in 'x|'"),
        (["a\tx|surface"], "{path}:1: label 'surface' is reserved"),
        (["a\tx|stem", "b\t   "], "{path}:2: no morphemes listed"),
        (["a\tx|stem y", "b\ty"], "{path}:1: morpheme 'y' lacks a |label"),
        (["a\tx|stem", "b\tx|stem y|stem z", "c\tz"], "{path}:2: morpheme 'z' lacks a |label"),
        (["a\tx|stem", "A\tz"], "{path}:2: duplicate entry for 'a'"),
        (["a\tx|stem", "b\tz", "c"], "{path}:2: morpheme 'z' lacks a |label"),
        (["a\tx|stem", "b\t ", "c\tz"], "{path}:2: no morphemes listed"),
        (["a\tx|stem", "b\tz", "\tx|stem"], "{path}:2: morpheme 'z' lacks a |label"),
        (["a\tx|stem", "", "b\tx|stem\tz"], f"{{path}}:3: expected {SEGS_FMT}"),
        (["a\tx|stem", "b\ty|stem", "a\tz|surface"], "{path}:3: duplicate entry for 'a'"),
        (["a\t|"], "{path}:1: empty morpheme or label in '|'"),
    ],
    "similarity": [
        (["a\tb\t"], "{path}:1: bad rating ''"),
        (["a\tb\tinf"], "{path}:1: rating must be finite"),
        (["a\tb\t1.0", "", "a\tc\tx"], "{path}:3: bad rating 'x'"),
        (["a\tb\t1.0\t2.0"], "{path}:1: expected word1<TAB>word2<TAB>rating"),
        (["a\tb\t1.0", "a\tc\tx"], "{path}:2: bad rating 'x'"),
        (["a\tb\t1.0", "a\tc\tnan", "a\tc\tx"], "{path}:2: rating must be finite"),
        (["a\tb\t1.0", "a\tc\tx", "a\tc\tinf"], "{path}:2: bad rating 'x'"),
        (["a\tb\t-inf", "a\tc"], "{path}:1: rating must be finite"),
        (["a\tb\t1.0", "a\tc", "a\tc\tinf"], "{path}:2: expected word1<TAB>word2<TAB>rating"),
        ([""], "{path}: empty similarity dataset"),
    ],
}
READERS = {"vocabulary": Vocabulary.load, "factors": FactorVocabulary.load,
           "mu": FORMATS["mu"].read, "partition": FORMATS["partition"].read,
           "segmentations": parse_segmentations,
           "similarity": SimilarityDataset.load}


@pytest.mark.parametrize("name, lines, message", [
    (name, lines, message) for name, cases in READER_ERRORS.items() for lines, message in cases])
def test_reader_names_the_first_bad_line(tmp_path, name, lines, message):
    path = _write(tmp_path, "".join(line + "\n" for line in lines))
    with pytest.raises(DataError) as exc:
        READERS[name](path)
    assert str(exc.value) == message.format(path=path)


@pytest.mark.parametrize("name", list(READERS))
def test_reader_accepts_what_int_and_float_accept(tmp_path, name):
    """Numbers parse with int and float, so signs, spaces and underscores read
    as they always did; a file without a final newline reads whole."""
    lines = {
        "vocabulary": ["# kappa= 2.5e-1 ", "0\t<unk>\t+0", "1\t<s>\t0", " 2\t#a\t1_000",
                       "3 \tb\t-0"],
        "factors": ["0\t#a|surface", "+1\t#x|stem", "2_0"[0:1] + "\té|m"],
        "mu": FORMATS["mu"].lines,
        "partition": ["-5\t<unk>", " 7\t<s>", "1_0\t#a", "+7\tb"],
        "segmentations": ["#A\tX|stem  y0|Suffix ", "Ж9\tЖ|stem"],
        "similarity": ["a\tb\t 1_5 ", "b\ta\t-.5e1"],
    }[name]
    got = READERS[name](_write(tmp_path, "\n".join(lines)))
    records = {
        "vocabulary": lambda v: (v.kappa, v.types, v.counts.tolist()),
        "factors": lambda fv: fv.factors,
        "mu": FORMATS["mu"].records,
        "partition": lambda part: part.class_of.tolist(),
        "segmentations": lambda segs: segs,
        "similarity": lambda ds: ds.pairs,
    }[name](got)
    assert records == {
        "vocabulary": (0.25, TYPES, [0, 0, 1000, 0]),
        "factors": ["#a|surface", "#x|stem", "é|m"],
        "mu": [[(0, 1)], [(1, 1)], [(2, 1), (4, 1)], [(3, 1)]],
        "partition": [0, 1, 2, 1],
        "segmentations": {"#a": ["x|stem", "y0|Suffix"], "ж0": ["ж|stem"]},
        "similarity": [("a", "b", 15.0), ("b", "a", -5.0)],
    }[name]


@pytest.mark.parametrize("lines, message", [
    (["0\t<unk>\t0", "1\t<s>\t0", "2\ta\t-5"], "{path}:3: bad count '-5'"),
    (["0\t<unk>\t0", "1\t<s>\t-1", "2\ta\ty"], "{path}:2: bad count '-1'"),
    (["0\t<unk>\t0", "1\t<s>\t-1", "x\ta\t1"], "{path}:2: bad count '-1'"),
    (["0\t<unk>\t0", "x\t<s>\t-1", "2\ta\t1"], "{path}:2: bad id 'x'"),
])
def test_vocabulary_negative_count_is_a_bad_count(tmp_path, lines, message):
    """A negative count would train a NaN bias. It is a bad count, in the
    place of the fault order a malformed count takes."""
    path = _write(tmp_path, "".join(line + "\n" for line in lines))
    with pytest.raises(DataError) as exc:
        Vocabulary.load(path)
    assert str(exc.value) == message.format(path=path)


def test_vocabulary_repeated_type_is_a_data_error_at_its_line(tmp_path):
    path = _write(tmp_path, "# kappa=0.0\n0\t<unk>\t0\n1\t<s>\t0\n2\ta\t1\n\n3\ta\t2\nx\tb\t1\n")
    with pytest.raises(DataError) as exc:
        Vocabulary.load(path)
    assert str(exc.value) == f"{path}:6: duplicate type 'a' in vocabulary"


@pytest.mark.parametrize("lines, where, factor", [
    (["0\ta|m", "1\tb|m", "2\ta|m"], 3, "a|m"),             # the last line
    (["0\ta|m", "1\ta|m", "2\tb|m"], 2, "a|m"),             # a line before others
    (["0\ta|m", "1\tb|m", "2\tb|m", "x\tc|m"], 3, "b|m"),   # before a bad id
])
def test_factor_file_repeated_factor_is_a_data_error_at_its_line(tmp_path, lines, where, factor):
    path = _write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(DataError) as exc:
        FactorVocabulary.load(path)
    assert str(exc.value) == f"{path}:{where}: duplicate factor {factor!r}"
