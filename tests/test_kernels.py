"""Each kernel checked against a plain reference computation."""

import numpy as np

from helpers import random_factorization, random_model
from mlbl import _kernels
from mlbl.clustering import _bigram_csr


def dense_of(wf):
    """The word-by-factor multiplicity matrix M of a factorization."""
    M = np.zeros((wf.num_words, wf.num_factors))
    for v in range(wf.num_words):
        for f, m in wf.mu(v):
            M[v, f] = m
    return M


def test_compose_rows_matches_dense_product():
    _, wf = random_factorization(40, 15, seed=1)
    table = np.random.default_rng(0).normal(size=(15, 6))
    out = np.zeros((40, 6))
    _kernels.compose_rows(wf.indptr, wf.indices, wf.data, table, out)
    np.testing.assert_allclose(out, dense_of(wf) @ table, rtol=1e-14, atol=1e-14)


def test_scatter_rows_matches_transposed_product():
    _, wf = random_factorization(40, 15, seed=2)
    grad_rows = np.random.default_rng(1).normal(size=(40, 6))
    out = np.zeros((15, 6))
    _kernels.scatter_rows(wf.indptr, wf.indices, wf.data, grad_rows, out)
    np.testing.assert_allclose(out, dense_of(wf).T @ grad_rows, rtol=1e-14, atol=1e-14)


def _classed_inputs(seed, L=64):
    m = random_model("clbl++", n_types=40, n_factors=16, num_classes=6, d=5,
                     seed=seed)
    rng = np.random.default_rng(seed)
    contexts = rng.integers(0, 40, size=(L, 2)).astype(np.int64)
    targets = np.asarray(rng.choice(m.scorable_ids, size=L), dtype=np.int64)
    return m, contexts, targets


def _softmax_args(m):
    return (m.class_of, m.members_flat, m.members_indptr, m.scorable_classes,
            m.params.S, m.params.t, m.params.R, m.params.b)


def test_classed_logprobs_is_the_forward_of_fwd_bwd():
    m, contexts, targets = _classed_inputs(seed=3)
    p = m.predictions_batch(contexts)
    logps = _kernels.classed_logprobs(p, targets, *_softmax_args(m), np.empty(len(targets)))

    K, V, d = m.partition.num_classes, len(m.vocab), m.config.d
    fwd = np.empty(len(targets))
    _kernels.classed_fwd_bwd(p, targets, *_softmax_args(m), fwd, np.zeros_like(p),
                             np.zeros((K, d)), np.zeros(K), np.zeros((V, d)), np.zeros(V))
    assert np.array_equal(logps, fwd)

    for i in range(len(targets)):
        probs = m.full_distribution(contexts[i])
        assert abs(logps[i] - np.log(probs[targets[i]])) < 1e-12


def test_logsumexp_matches_naive_formula():
    x = np.random.default_rng(4).normal(size=(7, 11))
    np.testing.assert_allclose(_kernels._logsumexp(x), np.log(np.exp(x).sum(axis=1)),
                               rtol=1e-14)
    assert _kernels._logsumexp(x[0]) == _kernels._logsumexp(x)[0]
    assert _kernels._logsumexp(np.array([1000.0, 1000.0])) == 1000.0 + np.log(2.0)


def class_counts(bigrams, class_of, K):
    ncc = np.zeros((K, K))
    lcnt = np.zeros(K)
    rcnt = np.zeros(K)
    for (u, v), cnt in bigrams.items():
        ncc[class_of[u], class_of[v]] += cnt
        lcnt[class_of[u]] += cnt
        rcnt[class_of[v]] += cnt
    return ncc, lcnt, rcnt, np.bincount(class_of, minlength=K).astype(np.int64)


def test_exchange_pass_keeps_counts_consistent():
    rng = np.random.default_rng(5)
    n_words, K = 20, 4
    stream = rng.integers(0, n_words, size=600)
    bigrams = {}
    for u, v in zip(stream[:-1], stream[1:]):
        bigrams[(int(u), int(v))] = bigrams.get((int(u), int(v)), 0) + 1
    (oi, oc, ov), (ii, ic, iv) = _bigram_csr(bigrams, n_words)
    start = (np.arange(n_words) % K).astype(np.int64)
    class_of = start.copy()
    ncc, lcnt, rcnt, csize = class_counts(bigrams, class_of, K)
    mv = [np.empty(n_words, dtype=np.int64) for _ in range(3)]

    nmoves = _kernels.exchange_pass(oi, oc, ov, ii, ic, iv, class_of, ncc, lcnt, rcnt,
                                    csize, np.arange(n_words, dtype=np.int64), *mv)

    changed = np.flatnonzero(class_of != start)
    assert nmoves == len(changed) > 0
    assert sorted(mv[0][:nmoves]) == list(changed)
    assert np.array_equal(mv[1][:nmoves], start[mv[0][:nmoves]])
    assert np.array_equal(mv[2][:nmoves], class_of[mv[0][:nmoves]])
    for got, want in zip((ncc, lcnt, rcnt, csize), class_counts(bigrams, class_of, K)):
        assert np.array_equal(got, want)
