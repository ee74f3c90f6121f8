import hashlib
import itertools
import math

import numpy as np
import pytest

from helpers import (class_members, make_vocab, morph_corpus, reference_bigram_counts,
                     sentence_ids)
from mlbl import _kernels
from mlbl.cli import _bigram_counts
from mlbl.clustering import (brown_cluster, default_num_classes, frequency_bin,
                             load_partition)
from mlbl.corpus import build_vocabulary
from mlbl.errors import DataError


def pair_arrays(bigrams: dict):
    """A bigram dict as the (rows, cols, counts) arrays of ``cli._bigram_counts``."""
    return (np.array([u for u, _ in bigrams], dtype=np.int64),
            np.array([v for _, v in bigrams], dtype=np.int64), np.array(list(bigrams.values())))


def reference_ami(bigrams: dict, class_of) -> float:
    """Independent AMI: sum over class pairs of p(c,c') log [p(c,c')/(p(c)p(c'))]."""
    total = sum(bigrams.values())
    joint = {}
    left = {}
    right = {}
    for (u, v), cnt in bigrams.items():
        cu, cv = class_of[u], class_of[v]
        joint[(cu, cv)] = joint.get((cu, cv), 0) + cnt
        left[cu] = left.get(cu, 0) + cnt
        right[cv] = right.get(cv, 0) + cnt
    ami = 0.0
    for (cu, cv), cnt in joint.items():
        p = cnt / total
        ami += p * math.log(p / ((left[cu] / total) * (right[cv] / total)))
    return ami


class TestDefaultNumClasses:
    def test_exact_square(self):
        assert default_num_classes(10000) == 100

    def test_degenerate(self):
        assert default_num_classes(1) == 1

    def test_large_vocab(self):
        assert default_num_classes(206000) == 454


class TestFrequencyBin:
    def test_equal_mass(self):
        v = make_vocab(6, counts=[0, 0, 5, 5, 5, 5])
        part = frequency_bin(v, 2)
        sizes = sorted(len(m) for m in class_members(part))
        # four equal-count words split 2/2; the zero-count reserved ids ride along
        words = [2, 3, 4, 5]
        cls = [part.class_of[w] for w in words]
        assert cls[:2] != cls[2:]
        assert cls[0] == cls[1] and cls[2] == cls[3]
        assert sizes[0] >= 1

    def test_head_heavy_split(self):
        counts = [0, 0, 8, 1, 1, 1, 1, 1, 1, 1, 1]
        v = make_vocab(11, counts=counts)
        part = frequency_bin(v, 2)
        top = v.id_of["waaa"]
        assert len(class_members(part)[part.class_of[top]]) == 1

    def test_single_bin(self):
        v = make_vocab(5)
        part = frequency_bin(v, 1)
        assert part.num_classes == 1
        assert len(class_members(part)[0]) == 5

    def test_partition_invariants(self):
        v = make_vocab(23, seed=3)
        for k in (1, 2, 5, 10):
            part = frequency_bin(v, k)
            assert part.num_classes == k
            all_ids = np.concatenate(class_members(part))
            assert sorted(all_ids) == list(range(len(v)))


class TestLoadPartition:
    def test_roundtrip(self, tmp_path):
        v = make_vocab(8, seed=1)
        part = frequency_bin(v, 3)
        path = tmp_path / "classes.tsv"
        part.save(path, v)
        loaded = load_partition(path, v)
        assert np.array_equal(loaded.class_of, part.class_of)

    def test_singleton_classes(self, tmp_path):
        v = build_vocabulary([["a", "b"]], kappa=0.0, seed=0)
        path = tmp_path / "classes.tsv"
        path.write_text("0\t<unk>\n1\t<s>\n2\ta\n3\tb\n", encoding="utf-8")
        part = load_partition(path, v)
        assert part.num_classes == 4

    def test_missing_word_named(self, tmp_path):
        v = build_vocabulary([["a", "b"]], kappa=0.0, seed=0)
        path = tmp_path / "classes.tsv"
        path.write_text("0\t<unk>\n0\t<s>\n0\ta\n", encoding="utf-8")
        with pytest.raises(DataError, match="'b'"):
            load_partition(path, v)

    def test_duplicate_word(self, tmp_path):
        v = build_vocabulary([["a"]], kappa=0.0, seed=0)
        path = tmp_path / "classes.tsv"
        path.write_text("0\t<unk>\n0\t<s>\n0\ta\n1\ta\n", encoding="utf-8")
        with pytest.raises(DataError, match="twice"):
            load_partition(path, v)

    def test_unknown_word(self, tmp_path):
        v = build_vocabulary([["a"]], kappa=0.0, seed=0)
        path = tmp_path / "classes.tsv"
        path.write_text("0\t<unk>\n0\t<s>\n0\ta\n1\tzz\n", encoding="utf-8")
        with pytest.raises(DataError, match="'zz'"):
            load_partition(path, v)


class TestBrownCluster:
    def test_alternating_corpus_matches_exhaustive_search(self):
        v = build_vocabulary([["a", "b"] * 3], kappa=0.0, seed=0)
        bigrams = reference_bigram_counts(sentence_ids(*v.encode_corpus([["a", "b"] * 3])))
        part = brown_cluster(bigrams, len(v), 2)
        # exhaustive search over assignments of the words with bigram mass
        massy = sorted({u for (u, _) in bigrams} | {w for (_, w) in bigrams})
        best = -np.inf
        for assign in itertools.product((0, 1), repeat=len(massy)):
            if len(set(assign)) < 2:
                continue
            cls = {w: c for w, c in zip(massy, assign)}
            best = max(best, reference_ami(bigrams, cls))
        achieved = reference_ami(bigrams, {w: part.class_of[w] for w in massy})
        assert achieved == pytest.approx(best, abs=1e-12)
        assert part.class_of[v.id_of["a"]] != part.class_of[v.id_of["b"]]

    def test_saturated_partition(self):
        # every word has bigram mass, one class per word: nothing can move
        bigrams = {(0, 1): 2, (1, 2): 2, (2, 3): 2, (3, 0): 2}
        trace = []
        part = brown_cluster(bigrams, 4, 4, trace=trace)
        assert part.num_classes == 4
        assert sorted(len(m) for m in class_members(part)) == [1, 1, 1, 1]
        assert trace == []

    def test_single_class(self):
        bigrams = {(0, 1): 3, (1, 0): 2}
        part = brown_cluster(bigrams, 3, 1)
        assert part.num_classes == 1
        assert len(class_members(part)[0]) == 3

    def test_too_many_classes_rejected(self):
        bigrams = {(0, 1): 1}
        with pytest.raises(DataError):
            brown_cluster(bigrams, 5, 3)

    def test_ami_nondecreasing_over_moves(self):
        rng = np.random.default_rng(12)
        n_words = 12
        stream = list(rng.integers(0, n_words, size=400))
        bigrams = reference_bigram_counts([stream])
        trace = []
        part = brown_cluster(bigrams, n_words, 4, trace=trace)
        # replay the recorded moves from the same initial state
        mass = np.zeros(n_words, dtype=np.int64)
        for (u, w), cnt in bigrams.items():
            mass[u] += cnt
            mass[w] += cnt
        ranks = np.lexsort((np.arange(n_words), -mass))
        class_of = np.empty(n_words, dtype=np.int64)
        for rank, w in enumerate(ranks):
            class_of[w] = rank if rank < 4 else rank % 4
        ami = reference_ami(bigrams, class_of)
        assert trace, "expected at least one accepted move on this corpus"
        for w, frm, to in trace:
            assert class_of[w] == frm
            class_of[w] = to
            new_ami = reference_ami(bigrams, class_of)
            assert new_ami >= ami - 1e-12
            ami = new_ami
        assert np.array_equal(class_of, part.class_of)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        stream = list(rng.integers(0, 9, size=300))
        bigrams = reference_bigram_counts([stream])
        a = brown_cluster(bigrams, 9, 3)
        b = brown_cluster(bigrams, 9, 3)
        assert np.array_equal(a.class_of, b.class_of)

    @pytest.mark.parametrize("count", [0, -2, 1.5, float("nan")])
    def test_counts_must_be_positive_integers(self, count):
        # a zero count used to register its class twice in the exchange pass
        # and leave negative class-bigram counts behind
        bigrams = {(0, 1): count, (0, 2): 3, (1, 2): 4, (2, 0): 4}
        with pytest.raises(DataError, match=r"bigram \(0, 1\) has count .*positive integers"):
            brown_cluster(bigrams, 3, 2)

    @pytest.mark.parametrize("count", [0, -2, 1.5, float("nan")])
    def test_array_counts_must_be_positive_integers(self, count):
        bigrams = {(0, 1): count, (0, 2): 3, (1, 2): 4, (2, 0): 4}
        with pytest.raises(DataError, match=r"bigram \(0, 1\) has count .*positive integers"):
            brown_cluster(pair_arrays(bigrams), 3, 2)

    @pytest.mark.parametrize("as_arrays", [False, True])
    @pytest.mark.parametrize("pair", [(0, 3), (3, 0), (-1, 2), (2, -1)])
    def test_pairs_must_lie_in_the_vocabulary(self, pair, as_arrays):
        bigrams = {(0, 1): 2, pair: 1, (1, 2): 4}
        with pytest.raises(DataError, match=rf"bigram \({pair[0]}, {pair[1]}\) outside "
                                            r"vocabulary of size 3"):
            brown_cluster(pair_arrays(bigrams) if as_arrays else bigrams, 3, 2)

    def test_arrays_in_any_order_equal_the_mapping(self):
        sents = morph_corpus(6000, n_stems=80, seed=5, zipf_a=1.1, persist=0.3)[0]
        vocab = build_vocabulary(sents)
        ids, lengths = vocab.encode_corpus(sents)
        rows, cols, counts = _bigram_counts(ids, lengths, len(vocab))
        bigrams = reference_bigram_counts(sentence_ids(ids, lengths))
        want_trace = []
        want = brown_cluster(bigrams, len(vocab), 9, trace=want_trace)
        assert len(want_trace) > 50
        order = np.random.default_rng(0).permutation(rows.shape[0])
        for triple in ((rows, cols, counts), (rows[order], cols[order], counts[order])):
            trace = []
            part = brown_cluster(triple, len(vocab), 9, trace=trace)
            assert part.class_of.tobytes() == want.class_of.tobytes()
            assert trace == want_trace

    def test_one_exchange_pass_call_per_pass_counts_the_trace(self, monkeypatch):
        # perfbench counts passes and moves by wrapping the module attribute
        real, returned = _kernels.exchange_pass, []

        def spy(*args):
            returned.append(real(*args))
            return returned[-1]

        monkeypatch.setattr(_kernels, "exchange_pass", spy)
        rng = np.random.default_rng(4)
        bigrams = reference_bigram_counts([list(rng.integers(1, 30, size=600))])
        for max_iters in (1, 2, 20):
            returned.clear()
            trace = []
            brown_cluster(bigrams, 30, 4, max_iters=max_iters, trace=trace)
            assert sum(returned) == len(trace) > 0
            if max_iters < 20:
                assert len(returned) == max_iters and returned[-1] > 0
            else:
                assert 2 < len(returned) < 20 and returned[-1] == 0

    def test_zero_mass_words_keep_initial_class(self):
        # word 4 never occurs; the partition must still cover it
        bigrams = {(0, 1): 4, (1, 2): 4, (2, 0): 4, (0, 3): 1}
        part = brown_cluster(bigrams, 5, 2)
        assert 0 <= part.class_of[4] < 2
        assert sorted(np.concatenate(class_members(part))) == list(range(5))

    def test_realistic_corpus_keeps_its_partition_and_moves(self):
        # 50k tokens: |V| = 3,443, K = 59, 26,708 distinct bigrams; the passes
        # converge at the 16th with 5,760 moves. The digests were recorded from
        # the implementation that split the bigrams into successor and
        # predecessor maps and carried the class counts between passes.
        sents = morph_corpus(50_000, n_stems=500, seed=11, n_suffixes=8, zipf_a=1.1,
                             agree=0.75, persist=0.3)[0]
        vocab = build_vocabulary(sents)
        bigrams = reference_bigram_counts(sentence_ids(*vocab.encode_corpus(sents)))
        trace = []
        part = brown_cluster(bigrams, len(vocab), default_num_classes(len(vocab)),
                             max_iters=20, trace=trace)
        assert (len(vocab), part.num_classes, len(bigrams), len(trace)) == (3443, 59, 26708,
                                                                          5760)
        digests = [hashlib.sha256(np.asarray(x, dtype="<i8").tobytes()).hexdigest()
                   for x in (part.class_of, trace)]
        assert digests == ["b6488557e330699d713b959bef13c6432061bd9a2ada2cb4547d0e2d754f6cce",
                           "e66181175258e344702ed5d29a3246632b518c897c1cc754b63454ed26ace331"]
