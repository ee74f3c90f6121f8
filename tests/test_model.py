import hashlib
import sys

import numpy as np
import pytest

from helpers import (ReferenceCache, assert_same_digest_at_one_and_two_blas_threads, csr_rows,
                     make_vocab, random_factorization, random_model, random_partition,
                     reference_distribution, reference_log_prob_at, reference_scatter_rows,
                     reference_score_sentence, scorer_distributions, zeroed)
from mlbl import _kernels
from mlbl.clustering import ClassPartition
from mlbl.corpus import PAD_ID, UNK_ID, build_vocabulary
from mlbl.model import (GROUP_MIN, VARIANTS, LanguageModel, ModelConfig, NormalizerCache,
                        Querier, QueryStats)
from mlbl.morphology import (build_factorization, compile_word_table, compose_vector,
                             known_factors)
from mlbl.training import init_params


def word_level_model(n_types=5, d=2, n=3, class_based=False, num_classes=2, seed=0):
    cfg = ModelConfig(n=n, d=d, class_based=class_based)
    vocab = make_vocab(n_types, seed=seed)
    fv, wf = build_factorization(vocab, None)
    partition = random_partition(n_types, num_classes, seed) if class_based else None
    params = init_params(cfg, vocab, fv, wf, partition, init_sigma=0.3, seed=seed)
    return LanguageModel(cfg, vocab, fv, wf, params, partition)


def test_class_members_equal_per_class_loop():
    """Class members, offsets and scorable classes equal the per-class loop bitwise."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        V = int(rng.integers(3, 40))
        K = int(rng.integers(1, V))
        others = random_partition(V - 1, K, seed).class_of
        # odd seeds: PAD is the only member of a class, relabelled to any id
        pad_class = K if seed % 2 else int(rng.integers(0, K))
        relabel = rng.permutation(K + seed % 2)
        class_of = relabel[np.insert(others, PAD_ID, pad_class)]
        partition = ClassPartition(class_of)
        members = [[] for _ in range(partition.num_classes)]
        for w, c in enumerate(class_of.tolist()):
            members[c].append(w)
        keep = [[w for w in m if w != PAD_ID] for m in members]
        flat, indptr = partition.group(np.arange(V, dtype=np.int64))
        assert [m.tolist() for m in np.split(flat, indptr[1:-1])] == members
        assert flat.dtype == np.int64 and indptr.dtype == np.int64

        cfg = ModelConfig(n=2, d=2, class_based=True)
        vocab = make_vocab(V, seed=seed)
        fv, wf = build_factorization(vocab, None)
        m = LanguageModel(cfg, vocab, fv, wf, init_params(cfg, vocab, fv, wf, partition),
                          partition)
        want = (np.asarray([w for k in keep for w in k], dtype=np.int64),
                np.cumsum([0] + [len(k) for k in keep], dtype=np.int64),
                np.asarray([c for c, k in enumerate(keep) if k], dtype=np.int64))
        for w, g in zip(want, (m.members_flat, m.members_indptr, m.scorable_classes)):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        # each scorable word's class row and own row of the stacked tables
        bounds, rows = m.table_layout
        scorable = [(w, c) for w, c in enumerate(class_of.tolist()) if w != PAD_ID]
        assert [(rows[0, w], rows[1, w] - bounds[c]) for w, c in scorable] == \
            [(want[2].tolist().index(c), keep[c].index(w)) for w, c in scorable]


class TestPredict:
    def test_identity_transform(self):
        m = word_level_model(n_types=5, d=3, n=2)
        m.params.C[0] = np.eye(3)
        m.recompile()
        assert np.array_equal(m.predict(m.params.Q[[2]]), m.params.Q[2])

    def test_zero_context_vectors(self):
        m = zeroed(word_level_model(n_types=5, d=3, n=3))
        assert np.array_equal(m.predict(m.params.Q[[2, 3]]), np.zeros(3))

    def test_hand_linear_algebra(self):
        m = word_level_model(n_types=5, d=2, n=3)
        m.params.Qf[2] = [1.0, 0.0]
        m.params.Qf[3] = [0.0, 1.0]
        m.params.C[0] = np.eye(2)
        m.params.C[1] = 2.0 * np.eye(2)
        m.recompile()
        assert np.array_equal(m.predict(m.params.Q[[2, 3]]), np.array([1.0, 2.0]))

    def test_context_length_checked(self):
        m = word_level_model(n=3)
        with pytest.raises(ValueError):
            m.predict(m.params.Q[[2]])


def _hand_scored(m, p, c, tau, nu):
    """Querier.log_prob's value for a prediction p, target class c, class
    score tau and word score nu: the two normalizers from the model, the
    scores as the test sets them."""
    return (tau - m._log_norm_classes(p)) + (nu - m._log_norm_words(p[None], [c])[0])


class TestScores:
    """The class score p . s_c + t_c and the word score p . r_w + b_w inside
    ``Querier.log_prob``, on hand-set parameters."""

    def test_bias_only(self):
        m = zeroed(word_level_model(d=3))
        m.params.b[2] = 0.75
        assert Querier(m).log_prob([3, 4], 2) == _hand_scored(m, np.zeros(3), 0, 0.0, 0.75)

    def test_dot_plus_bias(self):
        m = word_level_model(d=2, n=2)
        m.params.C[0] = np.eye(2)
        m.params.Qf[3] = [1.0, 1.0]
        m.params.Rf[2] = [2.0, 3.0]
        m.params.b[2] = 0.5
        m.recompile()
        p = np.array([1.0, 1.0])
        assert Querier(m).log_prob([3], 2) == _hand_scored(m, p, 0, 0.0, 5.5)

    def test_pad_never_scored(self):
        m = word_level_model()
        for use_cache in (True, False):
            with pytest.raises(ValueError):
                Querier(m, use_cache).log_prob([2, 3], PAD_ID)
        with pytest.raises(ValueError, match="padding"):
            m.logprobs_batch([[2, 3], [3, 4]], [2, PAD_ID])

    @pytest.mark.parametrize("bad", [-1, -30, 30, 31])
    def test_ids_outside_the_vocabulary_are_rejected(self, bad):
        """A negative id would index from the end of a table, and scored
        another word; an id of |V| or more raised a bare IndexError."""
        m = random_model("clbl++", n_types=30, seed=2)
        for use_cache in (True, False):
            q = Querier(m, use_cache)
            for context, w in (([2, 5], bad), ([2, bad], 5), ([bad, 5], 5)):
                with pytest.raises(ValueError, match=r"\[0, 30\)"):
                    q.log_prob(context, w)
        for contexts, targets in (([[2, 5]], [bad]), ([[2, bad]], [5]),
                                  ([[2, 5], [bad, 5]], [5, 5])):
            with pytest.raises(ValueError, match=r"\[0, 30\)"):
                m.logprobs_batch(contexts, targets)
        assert Querier(m).log_prob([2, 5], 29) == m.logprobs_batch([[2, 5]], [29])[0]

    def test_log_prob_names_each_fault(self):
        """``log_prob`` checks its ids as plain integers, with the messages
        of ``logprobs_batch``, and takes numpy integers as ids; a float id
        is never truncated to a word."""
        m = random_model("clbl++", n_types=30, seed=2)
        outside = "word ids must lie in [0, 30)"
        for context, w, message in (([2, 30], 5, f"context {outside}"),
                                    ([-1, 5], 5, f"context {outside}"),
                                    ([2, 5], 30, f"target {outside}"),
                                    ([2, 5], -1, f"target {outside}"),
                                    ([2, 5], PAD_ID,
                                     "the padding symbol is never scored as a target"),
                                    ([2.7, 5], 7, "context word ids must be integers"),
                                    ([2, np.float64(5.0)], 7,
                                     "context word ids must be integers"),
                                    ([2, 5], 7.0, "target word ids must be integers"),
                                    ([2, 5], np.float32(7.5),
                                     "target word ids must be integers"),
                                    ([2.5, 5], 7.5, "context word ids must be integers")):
            for score in (lambda: Querier(m).log_prob(context, w),
                          lambda: Querier(m, use_cache=False).log_prob(context, w),
                          lambda: m.logprobs_batch([context], [w])):
                with pytest.raises(ValueError) as raised:
                    score()
                assert str(raised.value) == message
        value = Querier(m).log_prob([2, 5], 7)
        assert Querier(m).log_prob(np.array([2, 5]), np.int64(7)) == value
        assert Querier(m).log_prob([np.int32(2), np.int64(5)], np.int32(7)) == value
        assert m.logprobs_batch(np.array([[2, 5]], dtype=np.uint16),
                                np.array([7], dtype=np.int32))[0] == value
        with pytest.raises(ValueError, match="^context word ids must be integers$"):
            m.logprobs_batch(np.array([[2.0, 5.0]]), [7])

    def test_class_score(self):
        m = word_level_model(class_based=True, n=2)
        m.params.C[0] = np.eye(2)
        m.params.Qf[3] = [1.0, 0.0]
        m.params.S[1] = [3.0, 9.0]
        m.params.t[1] = -1.0
        m.recompile()
        p = np.array([1.0, 0.0])
        members = m.members_flat[m.members_indptr[1]:m.members_indptr[2]]
        assert len(members) > 0
        for w in members:
            nu = float(np.dot(p, m.params.R[w]) + m.params.b[w])
            assert Querier(m).log_prob([3], int(w)) == _hand_scored(m, p, 1, 2.0, nu)

    def test_single_class_softmax_is_one(self):
        m = word_level_model(n_types=6, class_based=True, num_classes=1)
        p = m.predict(m.params.Q[[2, 3]])
        q = Querier(m)
        for w in m.scorable_ids:
            nu = float(np.dot(p, m.params.R[w]) + m.params.b[w])
            # the class term tau - log(exp(tau)) is exactly zero
            assert q.log_prob([2, 3], int(w)) == nu - m._log_norm_words(p[None], [0])[0]


class TestLogProbFull:
    def test_uniform_scores(self):
        # 10 scorable words with equal scores
        m = zeroed(word_level_model(n_types=11, d=2, n=2))
        lp = Querier(m).log_prob([2], 5)
        assert lp == pytest.approx(np.log(1.0 / 10.0), abs=1e-14)

    def test_two_word_vocab(self):
        v = build_vocabulary([["a", "a"]], kappa=0.0, seed=0)
        fv, wf = build_factorization(v, None)
        cfg = ModelConfig(n=2, d=2)
        params = init_params(cfg, v, fv, wf, None, 0.2, seed=0)
        m = zeroed(LanguageModel(cfg, v, fv, wf, params))
        # scorable words are <unk> and "a", both with score 0
        assert Querier(m).log_prob([PAD_ID], v.id_of["a"]) == pytest.approx(np.log(0.5), abs=1e-15)

    def test_sums_to_one(self):
        m = word_level_model(n_types=7, d=3, n=3, seed=4)
        q = Querier(m)
        total = 0.0
        for w in m.scorable_ids:
            total += np.exp(q.log_prob([2, 3], int(w)))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestLogProbClassed:
    def test_single_class_equals_full_exactly(self):
        vocab = make_vocab(9, seed=2)
        fv, wf = build_factorization(vocab, None)
        part = ClassPartition(np.zeros(9, dtype=np.int64))
        cfg_c = ModelConfig(n=3, d=4, class_based=True)
        params_c = init_params(cfg_c, vocab, fv, wf, part, 0.4, seed=5)
        classed = LanguageModel(cfg_c, vocab, fv, wf, params_c, part)
        cfg_f = ModelConfig(n=3, d=4, class_based=False)
        params_f = init_params(cfg_f, vocab, fv, wf, None, 0.4, seed=5)
        flat = LanguageModel(cfg_f, vocab, fv, wf, params_f)
        rng = np.random.default_rng(0)
        contexts = rng.integers(0, 9, size=(50, 2))
        targets = rng.choice(classed.scorable_ids, size=50)
        q_classed, q_flat = Querier(classed), Querier(flat)
        for ctx, w in zip(contexts, targets):
            assert q_classed.log_prob(ctx, int(w)) == q_flat.log_prob(ctx, int(w))
            for a, b in zip(scorer_distributions(classed, ctx), scorer_distributions(flat, ctx)):
                assert np.array_equal(a, b)
        assert np.array_equal(classed.logprobs_batch(contexts, targets),
                              flat.logprobs_batch(contexts, targets))

    def test_singleton_classes_reduce_to_class_softmax(self):
        n_types = 7
        vocab = make_vocab(n_types, seed=1)
        fv, wf = build_factorization(vocab, None)
        part = ClassPartition(np.arange(n_types, dtype=np.int64))
        cfg = ModelConfig(n=2, d=3, class_based=True)
        params = init_params(cfg, vocab, fv, wf, part, 0.4, seed=2)
        m = LanguageModel(cfg, vocab, fv, wf, params, part)
        p = m.predict(m.params.Q[[3]])
        q = Querier(m)
        for w in m.scorable_ids:
            w = int(w)
            c = int(m.class_of[w])
            tau = float(np.dot(p, m.params.S[c]) + m.params.t[c])
            # the word term nu - log(exp(nu)) is exactly zero
            assert q.log_prob([3], w) == tau - m._log_norm_classes(p)

    def test_sums_to_one_over_vocabulary(self):
        m = word_level_model(n_types=9, d=3, n=3, class_based=True, num_classes=3, seed=6)
        q = Querier(m)
        total = sum(np.exp(q.log_prob([2, 4], int(w))) for w in m.scorable_ids)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestFullDistribution:
    """The program's scorers over every word: exp of ``Querier.log_prob`` and
    of ``logprobs_batch``, against 1 and against the dense oracle."""

    def test_uniform_parameters(self):
        m = zeroed(word_level_model(n_types=8, n=2))
        scorable = m.scorable_ids
        per_token, batch = scorer_distributions(m, [2])
        assert np.array_equal(per_token, batch)
        for dist in (per_token, reference_distribution(m, [2])):
            np.testing.assert_allclose(dist[scorable], 1.0 / len(scorable), atol=1e-15)
            assert dist[PAD_ID] == 0.0

    def test_matches_log_prob(self):
        for variant in ("lbl", "clbl", "lbl++", "clbl++"):
            m = random_model(variant, seed=8)
            ctx = [2, 5]
            dist = reference_distribution(m, ctx)
            per_token, batch = scorer_distributions(m, ctx)
            assert np.array_equal(per_token, batch)
            for w in m.scorable_ids:
                assert per_token[w] == pytest.approx(dist[w], rel=1e-12)

    def test_shift_invariance(self):
        m = random_model("clbl++", seed=9)
        ctx = [3, 6]
        base = scorer_distributions(m, ctx)
        m.params.b += 3.7
        m.params.t -= 1.3
        m.recompile()
        for before, shifted in zip(base, scorer_distributions(m, ctx)):
            np.testing.assert_allclose(shifted, before, atol=1e-12)
            assert np.argmax(shifted) == np.argmax(before)

    def test_normalization_all_variants(self):
        rng = np.random.default_rng(10)
        for variant in VARIANTS:
            m = random_model(variant, seed=11)
            for _ in range(10):
                ctx = rng.integers(0, 30, size=2)
                dist = reference_distribution(m, ctx)
                for scored in scorer_distributions(m, ctx):
                    assert abs(scored.sum() - 1.0) <= 1e-10
                    np.testing.assert_allclose(scored, dist, rtol=1e-12, atol=0)


class TestVariantReduction:
    def test_identity_factorization_reduces_to_word_level(self):
        vocab = make_vocab(12, seed=3)
        fv, wf = build_factorization(vocab, None)  # identity map
        part = random_partition(12, 3, seed=4)
        shared = dict(n=3, d=4)
        cfg_pp = ModelConfig(class_based=True, context_additive=True,
                             output_additive=True, **shared)
        cfg_w = ModelConfig(class_based=True, **shared)
        params_pp = init_params(cfg_pp, vocab, fv, wf, part, 0.3, seed=7)
        params_w = init_params(cfg_w, vocab, fv, wf, part, 0.3, seed=7)
        m_pp = LanguageModel(cfg_pp, vocab, fv, wf, params_pp, part)
        m_w = LanguageModel(cfg_w, vocab, fv, wf, params_w, part)
        q_pp, q_w = Querier(m_pp), Querier(m_w)
        rng = np.random.default_rng(1)
        for _ in range(100):
            ctx = rng.integers(0, 12, size=2)
            w = int(rng.choice(m_pp.scorable_ids))
            assert q_pp.log_prob(ctx, w) == q_w.log_prob(ctx, w)


class TestNormalizerCache:
    def test_cache_transparency_exact(self):
        m = random_model("clbl++", n_types=25, seed=13)
        rng = np.random.default_rng(2)
        queries = [(tuple(rng.integers(0, 25, size=2)), int(rng.choice(m.scorable_ids)))
                   for _ in range(60)]
        queries = queries * 3
        rng.shuffle(queries)
        cached = Querier(m, use_cache=True)
        uncached = Querier(m, use_cache=False)
        for ctx, w in queries:
            assert cached.log_prob(list(ctx), w) == uncached.log_prob(list(ctx), w)
        assert cached.cache.hits > 0

    def test_cached_value_matches_fresh_computation(self):
        m = random_model("clbl", n_types=20, seed=14)
        q = Querier(m)
        ctx = [2, 3]
        q.log_prob(ctx, 4)
        cache = q.cache
        p = m.predict(m.params.Q[ctx])
        # the context's slot holds its prediction vector, then its class normalizer
        (row,) = cache.terms([cache.contexts[tuple(ctx)]])
        assert np.array_equal(row[:-1], p)
        assert row[-1] == m._log_norm_classes(p)
        c = int(m.class_of[4])
        assert cache.words[tuple(ctx), c] == m._log_norm_words(p[None], [c])[0]

    def test_operation_counters(self):
        m = random_model("clbl", n_types=24, num_classes=4, seed=15)
        q = Querier(m, use_cache=True)
        ctx, w = [3, 5], 7
        c = int(m.class_of[w])
        size_c = int(m.members_indptr[c + 1] - m.members_indptr[c])
        n_classes = len(m.scorable_classes)
        q.log_prob(ctx, w)
        cold_ops = q.stats.score_ops
        assert cold_ops == n_classes + size_c + 2
        q.stats = QueryStats()
        q.log_prob(ctx, w)
        assert q.stats.score_ops == 2
        assert q.stats.score_ops <= size_c + 1

    @staticmethod
    def _sentences_sharing_contexts(m, oov, seed):
        """Sentences over known words and ``oov`` tokens, many repeated
        outright or with the same prefix and a different last token."""
        rng = np.random.default_rng(seed)
        known = [m.vocab.types[int(w)] for w in m.scorable_ids]
        pool = known[:6] + oov
        sents = [[pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(1, 7)))]
                 for _ in range(40)]
        sents += [s[:-1] + [known[int(rng.integers(0, len(known)))]] for s in sents[:20]]
        return [sents[i] for i in rng.permutation(len(sents))] + sents[:10]

    def test_cached_equals_uncached_across_shared_contexts(self):
        for variant in VARIANTS:
            m = random_model(variant, n_types=30, n_factors=10, num_classes=5, d=5,
                             seed=21)
            segs = {"zzone": ["f1|m", "f4|m"], "zztwo": ["f4|m"], "zzthree": ["f2|m", "f1|m"],
                    "zznone": ["nope|m"]}
            sents = self._sentences_sharing_contexts(m, list(segs), seed=22)
            for use_segs in (None, segs):
                cached = Querier(m, segs=use_segs)
                uncached = Querier(m, use_cache=False, segs=use_segs)
                for sent in sents:
                    assert cached.score_sentence(sent) == uncached.score_sentence(sent), variant
                assert cached.cache.hits > cached.cache.misses > 0
                assert cached.stats.score_ops < uncached.stats.score_ops
                oov_keys = [k for k in cached.cache.contexts
                            if any(isinstance(marker, tuple) for marker in k)]
                assert bool(oov_keys) == (use_segs is not None and m.config.context_additive)

    def test_bounded_cache_evicts_and_stays_exact(self):
        m = random_model("clbl++", n_types=40, num_classes=6, seed=23)
        sents = self._sentences_sharing_contexts(m, ["zzoov"], seed=24) * 3
        uncached = Querier(m, use_cache=False)
        q = Querier(m)
        q.cache = NormalizerCache(capacity=8)
        for sent in sents:
            assert q.score_sentence(sent) == uncached.score_sentence(sent)
            assert len(q.cache.contexts) <= 8
        assert q.cache.evictions > 0 and q.cache.hits > 0
        # every miss stores one entry, and every entry is evicted once or still held
        assert q.cache.misses == q.cache.evictions + len(q.cache)
        with pytest.raises(ValueError):
            NormalizerCache(capacity=0)


class TestBlockScoring:
    """``Querier`` scores a sentence as one block. Its values and counters
    equal the per-token oracle's bitwise: ``reference_score_sentence``
    computes each product alone, one token at a time."""

    SEGS = {"zzone": ["f1|m", "f4|m"], "zztwo": ["f4|m"], "zznone": ["nope|m"]}

    def _sentences(self, m, seed):
        rng = np.random.default_rng(seed)
        known = [m.vocab.types[int(w)] for w in m.scorable_ids]
        pool = known[:8] + list(self.SEGS) + ["<s>", "<unk>", "12", "ZZONE", "qq7"]
        sents = [[pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(1, 10)))]
                 for _ in range(40)]
        a, b = known[:2]
        # a context repeated within a sentence; more new contexts in one
        # sentence than a capacity-8 cache holds; literal <s>; 1-token and
        # empty sentences
        sents += [[a, b, a, b, a, b, a], known[:12] + known[:12], ["<s>", "<s>", a, "<s>"],
                  [a], ["<s>"], ["zzone"], [], ["zzone", a, "zzone", a]]
        return sents + sents[:20]

    def _assert_matches_oracle(self, m, sents, segs, capacity):
        """Returns the sentences in whose scoring the cache evicted."""
        querier = Querier(m, use_cache=capacity is not None, segs=segs)
        cache = None
        if capacity is not None:
            querier.cache = NormalizerCache(capacity)
            cache = ReferenceCache(capacity)
        stats = QueryStats()
        evicted = []
        for i, sent in enumerate(sents):
            before = None if cache is None else cache.evictions
            assert querier.score_sentence(sent) == reference_score_sentence(m, sent, cache,
                                                                            stats, segs)
            if cache is not None and cache.evictions > before:
                evicted.append(i)
        assert querier.stats.score_ops == stats.score_ops
        if cache is not None:
            got = querier.cache
            assert ((got.hits, got.misses, got.evictions, len(got))
                    == (cache.hits, cache.misses, cache.evictions, len(cache)))
        return evicted

    @staticmethod
    def _filling_sentence(m, sents, segs):
        """The last sentence of most new contexts when the stream is scored
        into an unbounded cache, and the contexts held after it: its new
        contexts fill a cache of that capacity exactly."""
        cache, new = ReferenceCache(), []
        for sent in sents:
            before = len(cache.contexts)
            reference_score_sentence(m, sent, cache, None, segs)
            new.append(len(cache.contexts) - before)
        i = len(new) - 1 - int(np.argmax(new[::-1]))
        return i, sum(new[:i + 1])

    def test_equals_per_token_oracle(self):
        """At capacities the stream never fills; that its first sentence
        fills exactly (8), so that the next new context evicts; that a later
        sentence's new contexts fill exactly, stored at once; and that they
        exceed by one, stored in token order with an eviction."""
        for variant in VARIANTS:
            m = random_model(variant, n_types=30, n_factors=10, num_classes=5, d=5, seed=31)
            sents = self._sentences(m, 32)
            for segs in (None, self.SEGS):
                for capacity in (None, 65_536, 8):
                    evicted = self._assert_matches_oracle(m, sents, segs, capacity)
                    assert bool(evicted) == (capacity == 8)
                i, filled = self._filling_sentence(m, sents, segs)
                assert i > 0 and filled > 8
                assert i not in self._assert_matches_oracle(m, sents, segs, filled)
                assert self._assert_matches_oracle(m, sents, segs, filled - 1)[0] == i

    def test_equals_per_token_oracle_at_other_orders(self):
        for n in (2, 5):
            m = random_model("clbl++", n_types=30, n_factors=10, num_classes=5, d=7, n=n,
                             seed=33)
            sents = self._sentences(m, 34)
            for capacity in (None, 8):
                evicted = self._assert_matches_oracle(m, sents, self.SEGS, capacity)
                assert bool(evicted) == (capacity == 8)

    def test_blocks_equal_one_sentence_at_a_time(self, monkeypatch):
        """``score_sentences`` gives blocks of 1, 3 and 7 sentences and the
        whole stream the values, cache counters and ``score_ops`` of
        ``score_sentence`` on each sentence in turn: all eight variants,
        with and without the cache and composed unknown contexts, and at a
        capacity of 8, which evicts inside a block. Some block has a class
        with ``GROUP_MIN`` missing pairs, which share one product."""
        widest = []
        log_norm_words = LanguageModel._log_norm_words

        def spy(model, P, classes):
            widest.append(max(classes.count(c) for c in classes))
            return log_norm_words(model, P, classes)

        monkeypatch.setattr(LanguageModel, "_log_norm_words", spy)

        def querier(m, segs, capacity):
            q = Querier(m, use_cache=capacity is not None, segs=segs)
            if capacity is not None:
                q.cache = NormalizerCache(capacity)
            return q

        for variant in VARIANTS:
            m = random_model(variant, n_types=30, n_factors=10, num_classes=5, d=5, seed=31)
            sents = self._sentences(m, 32)
            for segs in (None, self.SEGS):
                for capacity in (None, 65_536, 8):
                    one = querier(m, segs, capacity)
                    want = [one.score_sentence(sent) for sent in sents]
                    for size in (1, 3, 7, len(sents)):
                        q = querier(m, segs, capacity)
                        got = [scored for i in range(0, len(sents), size)
                               for scored in q.score_sentences(sents[i:i + size])]
                        assert got == want
                        assert q.stats.score_ops == one.stats.score_ops
                        if capacity is not None:
                            c, ref = q.cache, one.cache
                            assert ((c.hits, c.misses, c.evictions, len(c))
                                    == (ref.hits, ref.misses, ref.evictions, len(ref)))
                    assert (capacity == 8) == (one.cache is not None
                                               and one.cache.evictions > 0)
        assert max(widest) >= GROUP_MIN
        assert Querier(m).score_sentences([]) == [] and Querier(m).score_sentences([[]]) == [[]]

    def test_log_prob_equals_per_token_oracle(self):
        m = random_model("clbl++", n_types=25, num_classes=4, seed=35)
        rng = np.random.default_rng(36)
        queries = [(list(rng.integers(0, 25, size=2)), int(rng.choice(m.scorable_ids)))
                   for _ in range(30)] * 4
        querier, stats = Querier(m), QueryStats()
        querier.cache, cache = NormalizerCache(8), ReferenceCache(8)
        for ctx, w in queries:
            expected = reference_log_prob_at(m, m.params.Q[ctx], tuple(ctx), w, cache, stats)
            assert querier.log_prob(ctx, w) == expected
        got = querier.cache
        assert ((got.hits, got.misses, got.evictions, len(got), querier.stats.score_ops)
                == (cache.hits, cache.misses, cache.evictions, len(cache), stats.score_ops))
        assert cache.evictions > 0

    def test_many_evictions_in_one_block(self):
        """One ``score_sentences`` block with over 1,500 distinct contexts,
        at capacities 1 and 2: more evictions than Python's recursion limit,
        with the uncached values and the per-token oracle's counters."""
        m = random_model("clbl++", n_types=60, num_classes=5, d=4, seed=37)
        rng = np.random.default_rng(38)
        known = [m.vocab.types[int(w)] for w in m.scorable_ids]
        # hits: a repeated word repeats its context, and a repeated pair
        # alternates two contexts, which a capacity of 2 holds
        sents = [[known[i] for i in rng.integers(0, len(known), size=int(rng.integers(1, 30)))]
                 for _ in range(150)] + [known[:1] * 6, known[:2] * 4]
        want = Querier(m, use_cache=False).score_sentences(sents)
        for capacity in (1, 2):
            querier, stats = Querier(m), QueryStats()
            querier.cache, cache = NormalizerCache(capacity), ReferenceCache(capacity)
            assert querier.score_sentences(sents) == want
            assert want == [reference_score_sentence(m, sent, cache, stats) for sent in sents]
            got = querier.cache
            assert ((got.hits, got.misses, got.evictions, len(got), querier.stats.score_ops)
                    == (cache.hits, cache.misses, cache.evictions, len(cache), stats.score_ops))
            assert len(got.contexts) <= capacity and got.hits > 0
        keys = {tuple(([PAD_ID] * 2 + [m.vocab.lookup(t) for t in s])[i:i + 2])
                for s in sents for i in range(len(s))}
        # at capacity 1 each distinct context but the first is stored after an eviction
        assert len(keys) >= 1_500 and len(keys) > sys.getrecursionlimit() + 1


def word_normalizer_digest(seeds: int = 40) -> str:
    """Within-class log-normalizers of blocks of (vector, class) pairs
    (``LanguageModel._log_norm_words``), each asserted equal bitwise to its
    pair computed alone from the gathered rows of R and b; returns the
    sha256 of them all.

    Each model scores three blocks, each in a shuffled order: every scorable
    class once and some again (the ragged pass, whose segments then start
    at odd offsets); every class ``GROUP_MIN`` times (one product per class,
    so every class size from 1 to the largest); and each class 1, 2,
    ``GROUP_MIN`` or ``GROUP_MIN + 1`` times (both ways in one block).
    """
    digest = hashlib.sha256()
    singletons = odd_starts = grouped = mixed = 0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        variant = ["clbl", "clbl++", "lbl", "lbl+o"][seed % 4]
        if seed % 5:
            # odd dimensions, and up to one class fewer than words, so some
            # classes have a single member
            n_types = int(rng.integers(5, 60))
            num_classes, d = int(rng.integers(1, n_types)), int(rng.choice([1, 3, 5, 7, 33]))
        else:
            # classes of hundreds of rows, whose gemv OpenBLAS may split over threads
            n_types, num_classes, d = int(rng.integers(300, 1500)), int(rng.integers(1, 4)), 33
        m = random_model(variant, n_types=n_types, num_classes=num_classes, d=d, seed=seed)
        ids = m.scorable_classes
        counts = rng.choice([1, 2, GROUP_MIN, GROUP_MIN + 1], size=len(ids))
        blocks = (np.concatenate([ids, rng.choice(ids, size=5)]), np.repeat(ids, GROUP_MIN),
                  np.repeat(ids, counts))
        for classes in blocks:
            rng.shuffle(classes)
            P = rng.normal(size=(len(classes), m.config.d))
            got = m._log_norm_words(P, classes.tolist())
            for p, c, value in zip(P, classes, got):
                members = m.members_flat[m.members_indptr[c]:m.members_indptr[c + 1]]
                want = _kernels._logsumexp(m.params.R[members] @ p + m.params.b[members])
                assert value == want, (seed, c)
            digest.update(got.tobytes())
        sizes = np.diff(m.members_indptr)[blocks[0]]
        singletons += np.any(sizes == 1)
        odd_starts += np.any(np.cumsum(sizes)[:-1] % 2 == 1)
        grouped += np.any(counts >= GROUP_MIN)
        mixed += np.any(counts >= GROUP_MIN) and np.any(counts < GROUP_MIN)
    assert singletons and odd_starts and grouped and mixed
    return digest.hexdigest()


def predict_digest(seeds: int = 24) -> str:
    """Prediction vectors of stacked contexts (``LanguageModel.predict``),
    each asserted equal by bytes to the per-position loop from zeros over
    that context alone; returns the sha256 of them all.

    Orders 2 to 5; the contexts hold random rows, all-zero rows and rows of
    -0.0, and bytes differ where a -0.0 stands for the loop's +0.0.
    """
    digest = hashlib.sha256()
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        n, d = 2 + seed % 4, int(rng.choice([1, 3, 8, 32, 33]))
        m = random_model("clbl++", n_types=20, num_classes=3, d=d, n=n, seed=seed)
        V = rng.normal(size=(int(rng.integers(1, 40)), n - 1, d))
        V[rng.random(V.shape[:2]) < 0.3] = 0.0
        V[rng.random(V.shape[:2]) < 0.3] = -0.0
        V[0] = -0.0
        for stacked in (m.predict(V), np.array([m.predict(v) for v in V])):
            for i, v in enumerate(V):
                want = np.zeros(d)
                for j in range(n - 1):
                    want += v[j] @ m.params.C[j]
                assert stacked[i].tobytes() == want.tobytes(), (seed, i)
            digest.update(stacked.tobytes())
    return digest.hexdigest()


class TestClassOrderedTargets:
    def test_word_normalizers_equal_gathered_rows(self):
        word_normalizer_digest()

    def test_word_normalizers_are_identical_at_one_and_two_blas_threads(self):
        assert_same_digest_at_one_and_two_blas_threads("test_model", "word_normalizer_digest()")

    def test_predictions_equal_the_per_position_loop(self):
        predict_digest()

    def test_predictions_are_identical_at_one_and_two_blas_threads(self):
        assert_same_digest_at_one_and_two_blas_threads("test_model", "predict_digest()")

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_training_tables_keep_the_word_order_bits(self, variant):
        """R composed in class order has the rows of R in word order, and a
        gradient in class order scatters as the same gradient in word order
        does, PAD's row included."""
        m = random_model(variant, n_types=40, n_factors=25, num_classes=6, d=5, seed=8,
                         init_sigma=0.3)
        order = m.class_order
        mr, entry_rows = m.class_ordered_targets
        assert order[-1] == PAD_ID and order[:-1].tobytes() == m.members_flat.tobytes()
        assert m.class_row[order].tolist() == list(range(len(order)))
        assert compile_word_table(mr, m.params.Rf).tobytes() == m.params.R[order].tobytes()

        assert m.mr.indptr[PAD_ID + 1] > m.mr.indptr[PAD_ID]   # PAD's row has factors
        rng = np.random.default_rng(2)
        shape = m.params.R.shape
        grad = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        want = reference_scatter_rows(csr_rows(m.mr.indptr), m.mr.indices, m.mr.data, grad,
                                      np.zeros_like(m.params.Rf))
        got = _kernels.scatter_rows(entry_rows, m.mr.indices, m.mr.data, grad[order],
                                    np.zeros_like(m.params.Rf))
        assert got.tobytes() == want.tobytes()

    def test_recompile_reaches_a_fresh_querier(self):
        # every block a query reads, changed in place after a query built the
        # query path's table copies, then recompiled
        for name in ("Rf", "b", "S", "t"):
            m = random_model("clbl++", n_types=30, num_classes=5, seed=25)
            sentence = [m.vocab.types[int(w)] for w in m.scorable_ids[:8]]
            before = Querier(m).score_sentence(sentence)
            block = m.params.blocks()[name]
            block += np.random.default_rng(26).normal(size=block.shape)
            m.recompile()
            fresh = LanguageModel(m.config, m.vocab, m.factor_vocab, m.factorization,
                                  m.params.copy(), m.partition)
            after = Querier(m).score_sentence(sentence)
            assert after == Querier(fresh).score_sentence(sentence), name
            assert after != before, name

    def test_querier_built_before_recompile_drops_its_cache(self):
        m = random_model("clbl++", n_types=30, num_classes=5, seed=27)
        sentence = [m.vocab.types[int(w)] for w in m.scorable_ids[:10]] * 2
        querier = Querier(m)
        before = querier.score_sentence(sentence)
        m.params.Rf *= 1.5
        m.recompile()
        after = querier.score_sentence(sentence)
        want = Querier(m).score_sentence(sentence)
        assert [np.float64(v).tobytes() for _, v in after] == \
            [np.float64(v).tobytes() for _, v in want]
        assert after != before
        cache = querier.cache
        assert cache.evictions > 0
        assert cache.misses == cache.evictions + len(cache)
        probs = np.exp([querier.log_prob([2, 3], int(w)) for w in m.scorable_ids])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestOovContextComposition:
    def _fixture(self):
        vocab = build_vocabulary([["redo", "undo", "doing"]], kappa=0.0, seed=0)
        segs = {"redo": ["re|prefix", "do|stem"],
                "undo": ["un|prefix", "do|stem"],
                "doing": ["do|stem", "ing|suffix"]}
        fv, wf = build_factorization(vocab, segs)
        cfg = ModelConfig(n=2, d=3, context_additive=True, output_additive=True)
        params = init_params(cfg, vocab, fv, wf, None, 0.4, seed=1)
        m = LanguageModel(cfg, vocab, fv, wf, params)
        return m, {"redoing": ["re|prefix", "do|stem", "ing|suffix"]}

    def test_unknown_context_defaults_to_unk(self):
        m, _ = self._fixture()
        q = Querier(m)
        scored = q.score_sentence(["redoing", "undo"])
        # "redoing" is OOV: as context it behaves exactly like <unk>
        expected = Querier(m).log_prob([UNK_ID], m.vocab.id_of["undo"])
        assert scored[1][1] == expected

    def test_composed_context_differs_and_uses_known_factors(self):
        m, segs = self._fixture()
        q = Querier(m, segs=segs)
        scored = q.score_sentence(["redoing", "undo"])
        w = m.vocab.id_of["undo"]
        vec = compose_vector(m.params.Qf, known_factors(m.factor_vocab, segs, "redoing"))
        assert scored[1][1] == reference_log_prob_at(m, [vec], ("oov", "redoing"), w)
        assert scored[1][1] != q_default_logprob(m, w)

    def test_oov_with_no_known_factors_falls_back_to_unk(self):
        m, segs = self._fixture()
        q = Querier(m, segs=segs)
        scored = q.score_sentence(["zzz", "undo"])
        expected = Querier(m).log_prob([UNK_ID], m.vocab.id_of["undo"])
        assert scored[1][1] == expected

    def test_last_token_gets_no_context_item(self):
        m, segs = self._fixture()
        composed = []
        compose = m.compose_unknown

        def counted(token, token_segs):
            composed.append(token)
            return compose(token, token_segs)

        m.compose_unknown = counted
        q = Querier(m, segs=segs)
        q.score_sentence(["undo", "redoing"])
        assert composed == []
        q.score_sentence(["redoing", "undo", "redoing"])
        assert composed == ["redoing"]

    def test_segs_unused_on_known_words(self):
        for variant in VARIANTS:
            m = random_model(variant, n_types=20, seed=18)
            rng = np.random.default_rng(4)
            known = [m.vocab.types[int(w)] for w in m.scorable_ids]
            sentence = [known[i] for i in rng.integers(0, len(known), size=12)]
            segs = {word: [m.factor_vocab.factors[0]] for word in known}
            plain = Querier(m).score_sentence(sentence)
            assert Querier(m, segs=segs).score_sentence(sentence) == plain

    def test_only_additive_contexts_are_composed(self):
        # every variant shares a factor vocabulary with morphemes, as `mlbl
        # preprocess --segmentations` writes it; only +c and ++ models have a
        # context factor table those morphemes index
        segs = {"zzunknown": ["f3|m", "f5|m", "f3|m", "nope|m"]}
        vocab = make_vocab(20, seed=7)
        fv, wf = random_factorization(20, 8, seed=8)
        sentence = [vocab.types[5], "zzunknown", vocab.types[7], vocab.types[9]]
        for variant in VARIANTS:
            cfg = ModelConfig.from_variant(variant, n=3, d=4)
            partition = random_partition(20, 4, 9) if cfg.class_based else None
            params = init_params(cfg, vocab, fv, wf, partition, 0.5, seed=10)
            m = LanguageModel(cfg, vocab, fv, wf, params, partition)
            if cfg.context_additive:
                q = compose_vector(m.params.Qf, known_factors(fv, segs, "zzunknown"))
            else:
                q = m.params.Q[UNK_ID]
            expected = [reference_log_prob_at(m, [m.params.Q[5], q], None, 7),
                        reference_log_prob_at(m, [q, m.params.Q[7]], None, 9)]
            for use_cache in (True, False):
                scored = Querier(m, use_cache, segs).score_sentence(sentence)
                assert [lp for _, lp in scored[2:]] == expected, variant
            if not cfg.context_additive:
                q = Querier(m, use_cache=False)
                assert expected == [q.log_prob([5, UNK_ID], 7), q.log_prob([UNK_ID, 7], 9)]


def q_default_logprob(m, w):
    return Querier(m).log_prob([UNK_ID], w)


class TestBatchedLogprobs:
    def test_matches_query_path(self):
        for variant in ("clbl++", "lbl++", "clbl", "lbl"):
            m = random_model(variant, n_types=20, seed=17)
            rng = np.random.default_rng(3)
            ctx = rng.integers(0, 20, size=(40, 2))
            tgt = np.asarray(rng.choice(m.scorable_ids, size=40), dtype=np.int64)
            batched = m.logprobs_batch(ctx, tgt)
            q = Querier(m)
            for i in range(40):
                assert batched[i] == q.log_prob(list(ctx[i]), int(tgt[i]))
