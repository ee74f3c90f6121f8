import itertools
import math

import numpy as np
import pytest

from helpers import make_vocab, reference_bigram_counts
from mlbl.clustering import (brown_cluster, default_num_classes, frequency_bin,
                             load_partition)
from mlbl.corpus import build_vocabulary
from mlbl.errors import DataError


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
        sizes = sorted(len(m) for m in part.members)
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
        assert len(part.members[part.class_of[top]]) == 1

    def test_single_bin(self):
        v = make_vocab(5)
        part = frequency_bin(v, 1)
        assert part.num_classes == 1
        assert len(part.members[0]) == 5

    def test_partition_invariants(self):
        v = make_vocab(23, seed=3)
        for k in (1, 2, 5, 10):
            part = frequency_bin(v, k)
            assert part.num_classes == k
            all_ids = np.concatenate(part.members)
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
        ids = v.encode_corpus([["a", "b"] * 3])
        bigrams = reference_bigram_counts(ids)
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
        assert sorted(len(m) for m in part.members) == [1, 1, 1, 1]
        assert trace == []

    def test_single_class(self):
        bigrams = {(0, 1): 3, (1, 0): 2}
        part = brown_cluster(bigrams, 3, 1)
        assert part.num_classes == 1
        assert len(part.members[0]) == 3

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

    def test_zero_mass_words_keep_initial_class(self):
        # word 4 never occurs; the partition must still cover it
        bigrams = {(0, 1): 4, (1, 2): 4, (2, 0): 4, (0, 3): 1}
        part = brown_cluster(bigrams, 5, 2)
        assert 0 <= part.class_of[4] < 2
        assert sorted(np.concatenate(part.members)) == list(range(5))
