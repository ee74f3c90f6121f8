import numpy as np
import pytest

from helpers import reference_bigram_counts, reference_build_vocabulary, reference_ngrams
from mlbl.cli import _bigram_counts
from mlbl.corpus import (PAD_ID, PAD_TOKEN, UNK_ID, UNK_TOKEN, Vocabulary,
                         apply_cyrillic_filter, build_vocabulary, ngram_arrays,
                         normalize_token)
from mlbl.errors import DataError


class TestNormalizeToken:
    def test_lowercases(self):
        assert normalize_token("Perfectly") == "perfectly"

    def test_digits_to_zero(self):
        assert normalize_token("1984") == "0000"

    def test_per_character(self):
        assert normalize_token("a1b2") == "a0b0"

    def test_non_ascii(self):
        assert normalize_token("Füße42") == "füße00"


def corpus_with_singletons():
    # a, b, c, d occur once; x occurs three times
    return [["x", "a", "x"], ["b", "c", "x", "d"]]


class TestBuildVocabulary:
    def test_full_pruning(self):
        v = build_vocabulary(corpus_with_singletons(), kappa=1.0, seed=3)
        assert v.counts[UNK_ID] == 4
        for w in "abcd":
            assert w not in v.id_of
        assert "x" in v.id_of

    def test_no_pruning(self):
        v = build_vocabulary(corpus_with_singletons(), kappa=0.0, seed=3)
        assert v.counts[UNK_ID] == 0
        assert all(w in v.id_of for w in "abcd")

    def test_half_pruning_is_seeded(self):
        v1 = build_vocabulary(corpus_with_singletons(), kappa=0.5, seed=1)
        assert v1.counts[UNK_ID] == 2
        assert sum(w in v1.id_of for w in "abcd") == 2
        v2 = build_vocabulary(corpus_with_singletons(), kappa=0.5, seed=1)
        assert v1.types == v2.types
        assert np.array_equal(v1.counts, v2.counts)

    def test_reserved_ids(self):
        v = build_vocabulary(corpus_with_singletons(), kappa=0.0, seed=0)
        assert v.types[UNK_ID] == UNK_TOKEN
        assert v.types[PAD_ID] == PAD_TOKEN
        assert v.counts[PAD_ID] == 0

    def test_mass_conservation(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n_sent = int(rng.integers(1, 10))
            sents = [[f"t{rng.integers(0, 30)}" for _ in range(rng.integers(1, 12))]
                     for _ in range(n_sent)]
            tokens = sum(len(s) for s in sents)
            for kappa in (0.0, 0.3, 1.0):
                v = build_vocabulary(sents, kappa=kappa, seed=trial)
                assert int(v.counts.sum()) == tokens

    def test_rebuild_is_bit_stable(self):
        sents, _ = _bigger_corpus()
        a = build_vocabulary(sents, kappa=0.4, seed=11)
        b = build_vocabulary(sents, kappa=0.4, seed=11)
        assert a.types == b.types and np.array_equal(a.counts, b.counts)

    def test_empty_stream_errors(self):
        with pytest.raises(DataError):
            build_vocabulary([], kappa=0.0, seed=0)

    def test_kappa_range_checked(self):
        with pytest.raises(ValueError):
            build_vocabulary(corpus_with_singletons(), kappa=1.5, seed=0)

    def test_counts_normalized_types(self):
        v = build_vocabulary([["Dog", "dog", "DOG"]], kappa=0.0, seed=0)
        assert v.counts[v.id_of["dog"]] == 3

    @pytest.mark.parametrize("kappa,seed", [(0.0, 0), (0.3, 1), (0.5, 2), (1.0, 3)])
    def test_matches_per_token_oracle(self, tmp_path, kappa, seed):
        # raw variants of one normalized type whose first occurrences
        # interleave with other types', non-ASCII digits and reserved literals
        pool = ["B", "a", "b", "A", "x1", "X2", "x9", "d\u0663", "D\u0664", "q\uff15",
                "\u00c9t\u00e9", "\u00e9t\u00e9", "<UNK>", "<unk>", "<S>", "<s>", "zz", "ZZ"]
        rng = np.random.default_rng(seed)
        for trial in range(5):
            sents = [[pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 9))]
                     for _ in range(int(rng.integers(1, 8)))]
            paths = tmp_path / f"fast{trial}.tsv", tmp_path / f"oracle{trial}.tsv"
            build_vocabulary(iter(sents), kappa=kappa, seed=trial).save(paths[0])
            reference_build_vocabulary(sents, kappa=kappa, seed=trial).save(paths[1])
            assert paths[0].read_bytes() == paths[1].read_bytes()


def _bigger_corpus():
    rng = np.random.default_rng(5)
    words = [f"word{i}" for i in range(40)]
    sents = [[words[rng.integers(0, 40)] for _ in range(10)] for _ in range(30)]
    return sents, words


class TestExtractNgrams:
    def test_full_padding(self):
        ctx, tgt = ngram_arrays([[5]], 3)
        assert ctx.tolist() == [[PAD_ID, PAD_ID]] and tgt.tolist() == [5]

    def test_shift_by_one(self):
        ctx, tgt = ngram_arrays([[5, 7]], 2)
        assert ctx.tolist() == [[PAD_ID], [5]] and tgt.tolist() == [5, 7]

    def test_sliding_window(self):
        ctx, tgt = ngram_arrays([[1, 2, 3]], 3)
        assert ctx.shape == (3, 2)
        assert ctx[-1].tolist() == [1, 2] and tgt[-1] == 3

    def test_instance_count_matches_tokens(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sent = list(rng.integers(2, 9, size=rng.integers(0, 15)))
            ctx, tgt = ngram_arrays([sent], 4)
            assert ctx.shape == (len(sent), 3) and tgt.shape == (len(sent),)

    def test_empty_sentence(self):
        ctx, tgt = ngram_arrays([[]], 3)
        assert ctx.shape == (0, 2) and tgt.shape == (0,)

    def test_order_checked(self):
        with pytest.raises(ValueError):
            ngram_arrays([[1, 2]], 1)

    def test_arrays_match_instances(self):
        sents = [[2, 3, 4], [5], [6, 7]]
        ctx, tgt = ngram_arrays(sents, 3)
        want_ctx, want_tgt = reference_ngrams(sents, 3)
        assert ctx.shape == (6, 2)
        assert np.array_equal(ctx, want_ctx) and np.array_equal(tgt, want_tgt)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_windowing_equals_scalar_reference(n):
    """ngram_arrays and the bigram counts built on it equal the scalar loops."""
    rng = np.random.default_rng(n)
    inputs = [[], [[]] * 3]  # no sentences, only empty ones: shape (0, n - 1)
    for _ in range(30):
        # lengths 0 .. n-2 give sentences shorter than one full context
        sents = [rng.integers(0, 40, size=rng.integers(0, 3 * n)) for _ in
                 range(rng.integers(1, 12))]
        inputs.append(sents)
        inputs.append([s.tolist() for s in sents])
    for sents in inputs:
        want = reference_ngrams(sents, n)
        got = ngram_arrays(sents, n)
        for w, g in zip(want, got):
            assert g.dtype == np.int64 and g.flags.c_contiguous
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert _bigram_counts(sents) == reference_bigram_counts(sents)


class TestVocabularyFile:
    def test_roundtrip(self, tmp_path):
        v = build_vocabulary(corpus_with_singletons(), kappa=0.5, seed=2)
        path = tmp_path / "vocab.tsv"
        v.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.types == v.types
        assert np.array_equal(loaded.counts, v.counts)
        assert loaded.kappa == v.kappa

    def test_file_format(self, tmp_path):
        v = build_vocabulary([["a", "a", "b"]], kappa=0.0, seed=0)
        path = tmp_path / "vocab.tsv"
        v.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1] == f"0\t{UNK_TOKEN}\t0"
        assert lines[2] == f"1\t{PAD_TOKEN}\t0"
        assert lines[3] == "2\ta\t2"

    def test_malformed(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("0\t<unk>\n", encoding="utf-8")
        with pytest.raises(DataError):
            Vocabulary.load(path)

    @pytest.mark.parametrize("line,what", [("x\ta\t3", "id 'x'"), ("2\ta\t3.5", "count '3.5'"),
                                           ("# kappa=lots", "kappa 'lots'")])
    def test_malformed_number_reports_line(self, tmp_path, line, what):
        path = tmp_path / "vocab.tsv"
        path.write_text(f"0\t<unk>\t0\n1\t<s>\t0\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"vocab\.tsv:3: bad {what}"):
            Vocabulary.load(path)


class TestEncode:
    def test_oov_maps_to_unk(self):
        v = build_vocabulary([["a", "a", "b"]], kappa=0.0, seed=0)
        assert v.encode_corpus([["A", "zzz", "b"]]) == [[v.id_of["a"], UNK_ID, v.id_of["b"]]]

    def test_literal_pad_token_reads_as_unk(self):
        # padding is never input: a literal <s> is text, as in build_vocabulary
        v = build_vocabulary([["a", "a", "b"]], kappa=0.0, seed=0)
        assert v.encode_corpus([["a", "<s>", "<S>"]]) == [[v.id_of["a"], UNK_ID, UNK_ID]]
        assert v.lookup(PAD_TOKEN) == v.find(PAD_TOKEN) == UNK_ID
        assert v.find("zzz") is None and v.find("b") == v.id_of["b"]
        assert v.id_of[PAD_TOKEN] == PAD_ID


class TestCyrillicFilter:
    def test_replaces_low_ratio_tokens(self):
        toks = apply_cyrillic_filter(["привет", "hello", "миp"])  # 'миp' has latin p
        assert toks[0] == "привет"
        assert toks[1] == UNK_TOKEN
        assert toks[2] == UNK_TOKEN  # 2/3 cyrillic misses the 0.8 bar
