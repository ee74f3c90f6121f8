"""The vocabulary-scale artifacts: the vocabulary, the factors, the mu table
and the class partition.

The bulk builders and writers are checked against per-word oracles in
``helpers``, and the files ``preprocess`` and ``cluster --method freq``
write against digests recorded from the per-word code they replaced.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from helpers import (morph_corpus, reference_build_factorization, reference_frequency_bin,
                     reference_parse_segmentations, reference_save_mu, write_corpus, write_segs)
from mlbl import _io
from mlbl.cli import main
from mlbl.clustering import default_num_classes, frequency_bin
from mlbl.corpus import PAD_TOKEN, UNK_TOKEN, apply_cyrillic_filter, build_vocabulary
from mlbl.errors import DataError
from mlbl.morphology import build_factorization, parse_segmentations

LATIN = "abcdeABCDE0123456789"
CYRILLIC = "абвгдАБВГДжЖ"


def _generated(seed: int, kappa: float, cyrillic_filter: bool):
    """A random vocabulary and a segmentation file for it with every case the
    builders must keep: morphemes repeated within a word, words without
    segmentations, segmentations for words not in the vocabulary, rows for
    the reserved symbols, and raw words and morphemes that normalize."""
    rng = random.Random(seed)
    pool = [rng.choice([LATIN, CYRILLIC, LATIN + CYRILLIC]) for _ in range(300)]
    types = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
             for alphabet in pool]
    sentences = [[rng.choice(types[:rng.randint(1, len(types))]) for _ in range(12)]
                 for _ in range(150)]
    sentences.append([UNK_TOKEN, PAD_TOKEN, "Слово", "слово"])
    if cyrillic_filter:
        sentences = [apply_cyrillic_filter(sent) for sent in sentences]
    vocab = build_vocabulary(sentences, kappa=kappa, seed=seed)
    morphemes = [f"{rng.choice(types)}|{rng.choice(['stem', 'suffix', 'Pre'])}"
                 for _ in range(40)]
    words = vocab.types[2:] + [UNK_TOKEN, PAD_TOKEN, "notinvocab", "ZZZ9"]
    segs = {}
    for word in words:
        if rng.random() < 0.3:
            continue                                       # no segmentation
        raw = word.upper() if rng.random() < 0.3 else word  # normalizes to the type
        if raw in segs or raw.lower() != word:
            raw = word
        segs[raw] = [rng.choice(morphemes) for _ in range(rng.randint(1, 5))]
    return vocab, segs


GENERATED = [(0, 0.0, False), (1, 0.5, False), (2, 0.3, True), (3, 1.0, True)]


@pytest.mark.parametrize("seed, kappa, cyrillic_filter", GENERATED)
def test_builders_and_mu_writer_equal_per_word_oracles(tmp_path, seed, kappa,
                                                       cyrillic_filter):
    vocab, segs = _generated(seed, kappa, cyrillic_filter)
    path = tmp_path / "segs.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        for word, morphs in segs.items():
            fh.write(f"{word}\t{'  '.join(morphs) if len(morphs) > 3 else ' '.join(morphs)}\n")
    got_segs = parse_segmentations(path)
    want_segs = reference_parse_segmentations(path)
    assert list(got_segs.items()) == list(want_segs.items())

    fv, wf = build_factorization(vocab, got_segs)
    want_fv, want_wf = reference_build_factorization(vocab, want_segs)
    assert fv.factors == want_fv.factors and fv.id_of == want_fv.id_of
    for name in ("indptr", "indices", "data"):
        got, want = getattr(wf, name), getattr(want_wf, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert wf.num_factors == want_wf.num_factors
    # the cases the generator promises
    assert max(wf.data) > 1
    assert any(len(got_segs.get(w, ())) == 0 for w in vocab.types)
    assert any(w not in vocab.id_of for w in got_segs)
    assert got_segs.keys() & {UNK_TOKEN, PAD_TOKEN}

    wf.save(tmp_path / "mu.tsv", vocab, fv)
    reference_save_mu(wf, tmp_path / "want.tsv", vocab, fv)
    assert (tmp_path / "mu.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


def _outcome(read, path):
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


def test_parse_segmentations_equals_oracle_on_random_malformed_files(tmp_path):
    """Whatever a file holds, the bulk reader returns what the line-by-line
    oracle returns, or raises its error at the same line."""
    rng = random.Random(9)
    words = ["a", "A", "b", "", "Ж1", "c"]
    items = ["x|stem", "X|stem", "x", "|s", "y|", "y|surface", "", "z|Suf", "1|n"]
    path = tmp_path / "segs.tsv"
    outcomes = set()
    for _ in range(400):
        lines = []
        for _ in range(rng.randint(1, 5)):
            line = rng.choice(words) + "\t" + " ".join(rng.choices(items, k=rng.randint(1, 3)))
            lines.append(rng.choice([line, line, line, "", line + "\tq", rng.choice(words)]))
        path.write_text("\n".join(lines) + rng.choice(["", "\n"]), encoding="utf-8")
        got, want = _outcome(parse_segmentations, path), _outcome(reference_parse_segmentations,
                                                                  path)
        assert got == want, lines
        outcomes.add(want if isinstance(want, str) else "ok")
    assert len(outcomes) > 12      # many different errors and lines were met


@pytest.mark.parametrize("seed, kappa, cyrillic_filter", GENERATED)
def test_frequency_bin_equals_per_word_oracle(seed, kappa, cyrillic_filter):
    vocab, _ = _generated(seed, kappa, cyrillic_filter)
    for k in sorted({1, 2, 3, default_num_classes(len(vocab)), len(vocab) - 1, len(vocab)}):
        got, want = frequency_bin(vocab, k), reference_frequency_bin(vocab, k)
        assert got.class_of.tobytes() == want.class_of.tobytes(), k


def test_frequency_bin_on_tied_and_zero_counts_equals_oracle():
    rng = np.random.default_rng(4)
    vocab, _ = _generated(0, 0.0, False)
    for counts in (np.zeros(len(vocab), dtype=np.int64),
                   rng.integers(0, 3, size=len(vocab)),
                   np.full(len(vocab), 7),
                   rng.integers(0, 10**15, size=len(vocab))):
        vocab.counts = np.asarray(counts, dtype=np.int64)
        for k in (1, 5, len(vocab) // 2, len(vocab)):
            got, want = frequency_bin(vocab, k), reference_frequency_bin(vocab, k)
            assert got.class_of.tobytes() == want.class_of.tobytes(), k

# mixed case, digits, Cyrillic, literal reserved symbols and singletons
EXTRA_SENTENCES = [
    "Stаaakaa STAAAKAA 1999 год 2024 Годы <unk> <s>",
    "привет мир Привет мир hello Wörld wörld 3.14",
    "mixed Cyrillicмир одно-слово одно-слово",
]


def _inputs(root):
    sentences, segs = morph_corpus(3000, n_stems=40, n_suffixes=6, seed=5)
    sentences = sentences + [line.split() for line in EXTRA_SENTENCES]
    segs = {word: morphs for i, (word, morphs) in enumerate(sorted(segs.items()))
            if i % 5}                                  # words without segmentations
    segs["notinvocab"] = ["not|stem", "in|stem", "vocab|stem"]
    segs["Привет"] = ["ПРИ|prefix", "вет|stem"]
    segs["одно-слово"] = ["слово|stem", "одно|stem", "слово|stem"]   # a repeated morpheme
    segs["1999"] = ["19|num", "99|num"]
    write_corpus(root / "corpus.txt", sentences)
    write_segs(root / "segs.tsv", segs)


RUNS = {
    "segmented": (["--segmentations", "segs.tsv", "--kappa", "0.3", "--seed", "2"], []),
    "surface": (["--cyrillic-filter"], ["--num-classes", "7"]),
}

GOLDEN = {
    "segmented": {
        "vocab.tsv": "781684db5762719a9dd350bdea1c71c91d3a48fa4504476c6ad80214ba7f98d0",
        "factors.tsv": "188f7e76861641277d48be64df1af7035a8b20867b2486854450517a7e2ff29c",
        "mu.tsv": "5a35aa486359c6591d46f1737c28f5f27b7065cd317e47cdcbe9a48b26da3703",
        "classes.tsv": "dce15c82cb5e3dbf67b12a8a34431160317bd2800f780ff86ec21e616a2233ca",
    },
    "surface": {
        "vocab.tsv": "48b4e5f5ff5ee04db018064f706be648016b393178547edb649bbf16bcb02f58",
        "factors.tsv": "e6ae7cc823df9297c982fd0c8b561b4963b85a66d306017314fe7b5d10b700ab",
        "mu.tsv": "2d6846ca1e4e9580cdc753a2e7bacf0cfc272f42c58cbb5fec44f7291a68809a",
        "classes.tsv": "e341ef9cfc5ebb6408210ab48fa4a799e55253a0fc5f2dfbfde2f13d79b1627c",
    },
}


@pytest.mark.parametrize("run", list(RUNS))
def test_preprocess_and_freq_cluster_write_recorded_bytes(tmp_path, monkeypatch, run):
    monkeypatch.chdir(tmp_path)
    _inputs(tmp_path)
    pre_args, cluster_args = RUNS[run]
    assert main(["preprocess", "--input", "corpus.txt", "--out-dir", "pre", *pre_args]) == 0
    assert main(["cluster", "--vocab", "pre/vocab.tsv", "--method", "freq",
                 "--out", "pre/classes.tsv", *cluster_args]) == 0
    got = {name: hashlib.sha256((tmp_path / "pre" / name).read_bytes()).hexdigest()
           for name in GOLDEN[run]}
    assert got == GOLDEN[run]


def test_preprocess_digests_each_input_once(tmp_path, monkeypatch):
    """The three sidecars list the same input digests, from one read of each input."""
    monkeypatch.chdir(tmp_path)
    _inputs(tmp_path)
    opened = []

    class Counted(_io._HashingFile):
        def __init__(self, path, *args):
            opened.append(str(path))
            super().__init__(path, *args)

    monkeypatch.setattr(_io, "_HashingFile", Counted)
    assert main(["preprocess", "--input", "corpus.txt", "--out-dir", "pre",
                 "--segmentations", "segs.tsv"]) == 0
    assert sorted(p for p in opened if not p.startswith("pre")) == ["corpus.txt", "segs.tsv"]
    inputs = [json.loads((tmp_path / "pre" / f"{name}.manifest.json").read_text())["inputs"]
              for name in ("vocab.tsv", "factors.tsv", "mu.tsv")]
    want = {p: hashlib.sha256((tmp_path / p).read_bytes()).hexdigest()
            for p in ("corpus.txt", "segs.tsv")}
    assert inputs == [want] * 3
