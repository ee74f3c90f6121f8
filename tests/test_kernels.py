"""Each kernel checked against a plain reference computation."""

import hashlib
import threading
import time

import numpy as np
import pytest

from helpers import (assert_same_digest_at_one_and_two_blas_threads, csr_rows, mu_pairs,
                     pool_on, querier_logprobs, random_factorization, random_model,
                     reference_add_rows, reference_compose_rows, reference_distribution,
                     reference_scatter_rows)
from mlbl import _kernels
from mlbl.clustering import _bigram_csr


def dense_of(wf):
    """The word-by-factor multiplicity matrix M of a factorization."""
    M = np.zeros((wf.num_words, wf.num_factors))
    for v in range(wf.num_words):
        for f, m in mu_pairs(wf, v):
            M[v, f] = m
    return M


def bits(x):
    """The bit patterns of x, every NaN as the same NaN.

    When two NaNs meet in an addition, which one numpy returns depends on
    its inner loop (``a += b`` and ``a = a + b`` differ), not on the
    summation order, so NaN signs and payloads are not compared.
    """
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


def random_factor_map(rng, n_rows=None, empty=slice(0), full=slice(0)):
    """A CSR map with empty rows, multiplicities up to 3 and factors in any order.

    Rows in the ``empty`` slice have no entries, rows in ``full`` at least one.
    """
    if n_rows is None:
        n_rows = int(rng.integers(0, 25))
    n_factors = int(rng.integers(1, 12))
    lengths = rng.integers(0, min(n_factors, 5) + 1, size=n_rows)
    lengths[rng.random(n_rows) < 0.2] = 0
    lengths[full] = np.maximum(lengths[full], 1)
    lengths[empty] = 0
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.concatenate([rng.permutation(n_factors)[:k] for k in lengths] + [[]])
    data = rng.integers(1, 4, size=indptr[-1]).astype(np.float64)
    return indptr, indices.astype(np.int64), data, n_factors


def wide_values(rng, shape):
    """Values spanning 16 orders of magnitude, so summation order shows in the bits."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


def special_rows(rng, x):
    """Overwrite random rows of x with +0.0, -0.0, mixed zeros, NaN and inf."""
    for fill in (0.0, -0.0, None, np.nan, np.inf, -np.inf):
        if x.shape[0] == 0 or rng.random() < 0.3:
            continue
        r = int(rng.integers(0, x.shape[0]))
        if fill is None:
            x[r] = np.where(rng.random(x.shape[1]) < 0.5, 0.0, -0.0)
        elif np.isfinite(fill):
            x[r] = fill
        else:
            x[r, int(rng.integers(0, x.shape[1]))] = fill
    return x


@np.errstate(invalid="ignore")
def test_compose_rows_equals_reference_bitwise():
    rng = np.random.default_rng(11)
    block = 2048
    # the last maps span several blocks of 2048 rows: partial last blocks whose
    # last row has entries, whole blocks only, and a block without entries
    last = slice(-1, None)
    big = [dict(n_rows=2 * block + 517, empty=slice(block, 2 * block), full=last),
           dict(n_rows=3 * block + 1, empty=slice(block, 2 * block), full=last),
           dict(n_rows=2 * block), dict(n_rows=block + 1, full=last)]
    for case, shape in enumerate([{}] * 300 + big):
        indptr, indices, data, n_factors = random_factor_map(rng, **shape)
        d = int(rng.integers(1, 6))
        table = special_rows(rng, wide_values(rng, (n_factors, d)))
        out = (np.zeros((indptr.shape[0] - 1, d)) if case % 3 == 0
               else special_rows(rng, wide_values(rng, (indptr.shape[0] - 1, d))))
        want = reference_compose_rows(indptr, indices, data, table, out.copy())
        narrow = _kernels.compose_rows(indptr.astype(np.int32), indices.astype(np.int32),
                                       data, table, out.copy())
        got = _kernels.compose_rows(indptr, indices, data, table, out)
        assert got is out
        assert np.array_equal(bits(got), bits(want)), f"case {case}"
        assert np.array_equal(bits(narrow), bits(want)), f"case {case}"
    # the reference is the product with the multiplicity matrix
    _, wf = random_factorization(40, 15, seed=1)
    table = np.random.default_rng(0).normal(size=(15, 6))
    out = reference_compose_rows(wf.indptr, wf.indices, wf.data, table, np.zeros((40, 6)))
    np.testing.assert_allclose(out, dense_of(wf) @ table, rtol=1e-14, atol=1e-14)
    # malformed maps and tables raise before the unchecked loop writes anything
    indptr, indices, data = np.array([0, 1, 3]), np.array([0, 2, 1]), np.ones(3)
    table, out = np.ones((3, 2)), np.zeros((2, 2))
    for bad in (dict(indices=np.array([0, 3, 1])), dict(indices=np.array([0, -1, 1])),
                dict(indptr=np.array([0, 1])), dict(indptr=np.array([0, 1, 2])),
                dict(indptr=np.array([0, 1, 4])), dict(indptr=np.array([1, 1, 3])),
                dict(data=np.ones(2)), dict(data=np.ones(3, dtype=np.float32)),
                dict(indices=np.array([0.0, 2.0, 1.0])), dict(table=np.ones((3, 3))),
                dict(table=np.ones((3, 2), dtype=np.float32)),
                dict(table=np.ones((2, 3)).T), dict(out=np.zeros((2, 4))[:, ::2]),
                dict(out=np.zeros((4, 4))[:2, :2]),
                dict(out=np.zeros((2, 2), dtype=np.float32))):
        args = dict(indptr=indptr, indices=indices, data=data, table=table, out=out) | bad
        with pytest.raises((IndexError, TypeError, ValueError)):
            _kernels.compose_rows(**args)
        assert not args["out"].any(), bad


@np.errstate(invalid="ignore")
def test_scatter_rows_equals_reference_bitwise():
    rng = np.random.default_rng(12)
    seen = dict.fromkeys(("empty row", "multiplicity > 1", "+0.0 row", "-0.0 in a zero row",
                          "NaN row", "non-zero out", "zero row onto -0.0 out"), 0)
    for case in range(300):
        indptr, indices, data, n_factors = random_factor_map(rng)
        d = int(rng.integers(1, 6))
        grad_rows = special_rows(rng, wide_values(rng, (indptr.shape[0] - 1, d)))
        grad_rows[rng.random(grad_rows.shape[0]) < 0.4] = 0.0
        out = (np.zeros((n_factors, d)) if case % 3 == 0
               else special_rows(rng, wide_values(rng, (n_factors, d))))
        rows = csr_rows(indptr)
        want = reference_scatter_rows(rows, indices, data, grad_rows, out.copy())
        # the same grad rows in another order, each entry given its row there
        order = rng.permutation(grad_rows.shape[0])
        place = np.argsort(order)
        mapped = _kernels.scatter_rows(place[rows], indices, data, grad_rows[order], out.copy())
        narrow = _kernels.scatter_rows(rows.astype(np.int32), indices.astype(np.int32),
                                       data, grad_rows, out.copy())
        zero = ~grad_rows.any(axis=1)
        negative_zero = (out == 0.0) & np.signbit(out)
        seen["zero row onto -0.0 out"] += bool(negative_zero[indices[zero[rows]]].any())
        got = _kernels.scatter_rows(rows, indices, data, grad_rows, out)
        assert got is out
        assert np.array_equal(bits(got), bits(want)), f"case {case}"
        assert np.array_equal(bits(mapped), bits(want)), f"case {case}"
        assert np.array_equal(bits(narrow), bits(want)), f"case {case}"
        seen["empty row"] += bool((np.diff(indptr) == 0).any())
        seen["multiplicity > 1"] += bool((data > 1).any())
        seen["+0.0 row"] += bool(zero.any())
        seen["-0.0 in a zero row"] += bool(np.signbit(grad_rows[zero]).any())
        seen["NaN row"] += bool(np.isnan(grad_rows).any())
        seen["non-zero out"] += case % 3 != 0
    assert min(seen.values()) >= 20, seen
    _, wf = random_factorization(40, 15, seed=2)
    grad_rows = np.random.default_rng(1).normal(size=(40, 6))
    out = reference_scatter_rows(csr_rows(wf.indptr), wf.indices, wf.data, grad_rows,
                                 np.zeros((15, 6)))
    np.testing.assert_allclose(out, dense_of(wf).T @ grad_rows, rtol=1e-14, atol=1e-14)
    # a grad row's entries need not be adjacent: row 2 and row 0 recur apart
    rows, indices = np.array([2, 0, 2, 1, 0]), np.array([1, 0, 1, 2, 1])
    data, grad_rows = np.array([1.0, 2.0, 3.0, 1.0, 2.0]), wide_values(rng, (3, 4))
    want = reference_scatter_rows(rows, indices, data, grad_rows, np.zeros((3, 4)))
    got = _kernels.scatter_rows(rows, indices, data, grad_rows, np.zeros((3, 4)))
    assert np.array_equal(bits(got), bits(want))
    # malformed maps and tables raise before the unchecked loop writes anything
    out = np.zeros((3, 4))
    for bad in (dict(indices=np.array([1, 0, 3, 2, 1])), dict(indices=np.array([1, 0, -1, 2, 1])),
                dict(rows=np.array([2, 0, 3, 1, 0])), dict(rows=np.array([2, 0, -1, 1, 0])),
                dict(rows=np.array([2, 0, 2, 1])), dict(data=np.ones(4)),
                dict(data=np.ones(5, dtype=np.float32)), dict(rows=rows.astype(np.float64)),
                dict(grad_rows=np.ones((3, 3))), dict(grad_rows=np.ones((3, 4), dtype=np.float32)),
                dict(grad_rows=np.ones((4, 3)).T), dict(out=np.zeros((3, 8))[:, ::2]),
                dict(out=np.zeros((6, 8))[:3, :4]),
                dict(out=np.zeros((3, 4), dtype=np.float32))):
        args = dict(rows=rows, indices=indices, data=data, grad_rows=grad_rows, out=out) | bad
        with pytest.raises((IndexError, TypeError, ValueError)):
            _kernels.scatter_rows(**args)
        assert not args["out"].any(), bad


def test_scatter_rows_chunks_keep_each_factors_order():
    """A factor whose terms come from many words, zero rows among them, sums
    them in CSR order: the bits of the reference."""
    rng = np.random.default_rng(15)
    n_words, d = 50, 4
    # every word lists factor 0, then one of factors 1..5, so factor 0 has 50
    # terms and every other factor has terms from several words
    indptr = np.arange(0, 2 * n_words + 1, 2, dtype=np.int64)
    indices = np.stack((np.zeros(n_words, dtype=np.int64),
                        rng.integers(1, 6, size=n_words)), axis=1).reshape(-1)
    data = rng.integers(1, 4, size=2 * n_words).astype(np.float64)
    grad_rows = wide_values(rng, (n_words, d))
    grad_rows[rng.random(n_words) < 0.2] = 0.0
    rows = csr_rows(indptr)
    want = reference_scatter_rows(rows, indices, data, grad_rows, np.zeros((6, d)))
    # the same terms added in the opposite order give other bits
    backwards = reference_scatter_rows(rows, indices.reshape(-1, 2)[::-1].reshape(-1),
                                       data.reshape(-1, 2)[::-1].reshape(-1),
                                       grad_rows[::-1], np.zeros((6, d)))
    assert not np.array_equal(bits(want), bits(backwards))
    got = _kernels.scatter_rows(rows, indices, data, grad_rows, np.zeros((6, d)))
    assert np.array_equal(bits(got), bits(want))


@np.errstate(invalid="ignore")
def test_scatter_rows_adds_a_zero_rows_terms():
    # a +0.0 term turns a -0.0 out into +0.0, as np.add.at does; a -0.0 term
    # leaves it -0.0
    indices = np.array([0, 1, 2, 2])
    grad_rows = np.array([[0.0, -0.0], [np.nan, 0.0], [-0.0, -0.0], [np.inf, 1.0]])
    out = np.array([[-0.0, -0.0], [-0.0, -0.0], [-0.0, -0.0]])
    want = reference_scatter_rows(np.arange(4), indices, np.ones(4), grad_rows, out.copy())
    got = _kernels.scatter_rows(np.arange(4), indices, np.ones(4), grad_rows, out)
    assert np.array_equal(bits(got), bits(want))
    assert np.signbit(got[0]).tolist() == [False, True]
    assert np.isnan(got[1, 0]) and bits(got[1, 1]) == bits(0.0)
    assert got[2].tolist() == [np.inf, 1.0]


@np.errstate(invalid="ignore")
def test_add_rows_equals_reference_bitwise():
    rng = np.random.default_rng(13)
    for case in range(100):
        n_out, d, n = int(rng.integers(1, 10)), int(rng.integers(1, 6)), int(rng.integers(0, 40))
        rows = rng.integers(0, n_out, size=n)
        values = special_rows(rng, wide_values(rng, (n, d)))
        out = special_rows(rng, wide_values(rng, (n_out, d)))
        want = reference_add_rows(out.copy(), rows, values)
        assert np.array_equal(bits(_kernels.add_rows(out, rows, values)), bits(want))


def _classed_inputs(seed, L=64):
    m = random_model("clbl++", n_types=40, n_factors=16, num_classes=6, d=5,
                     seed=seed)
    rng = np.random.default_rng(seed)
    contexts = rng.integers(0, 40, size=(L, 2)).astype(np.int64)
    targets = np.asarray(rng.choice(m.scorable_ids, size=L), dtype=np.int64)
    return m, contexts, targets


def _logprobs(m, p, targets):
    return _kernels.classed_logprobs(p, targets, m.class_of, *m._query_tables(),
                                     np.empty(len(targets)))


def test_classed_logprobs_is_the_forward_of_fwd_bwd():
    """Both kernels take the class-ordered R and b of the query path; the
    scoring kernel's products are row by row and the training kernel's are
    gemm, so each is compared with the dense oracle."""
    m, contexts, targets = _classed_inputs(seed=3)
    p = m.predict(m.params.Q[contexts])
    logps = _logprobs(m, p, targets)

    K, V, d = m.partition.num_classes, len(m.vocab), m.config.d
    fwd = np.empty(len(targets))
    SR, tb, bounds, _ = m._query_tables()
    R, b = SR[bounds[0]:], tb[bounds[0]:]
    _kernels.classed_fwd_bwd(p, targets, m.class_of, m.member_pos, m.members_indptr,
                             m.scorable_classes, m.params.S, m.params.t, R, b, fwd,
                             np.zeros_like(p), np.zeros((K, d)), np.zeros(K),
                             np.zeros((V, d)), np.zeros(V))
    for i in range(len(targets)):
        want = np.log(reference_distribution(m, contexts[i])[targets[i]])
        assert abs(logps[i] - want) < 1e-12
        assert abs(fwd[i] - want) < 1e-12


def test_pooled_classed_logprobs_equals_serial_and_the_querier_bitwise(monkeypatch):
    m, contexts, targets = _classed_inputs(seed=5, L=500)
    p = m.predict(m.params.Q[contexts])
    serial = _logprobs(m, p, targets)
    assert serial.tolist() == querier_logprobs(m, contexts, targets, use_cache=False)

    pool_on(monkeypatch)
    monkeypatch.setattr(_kernels, "SCORE_ROWS", 7)   # several tasks per class
    threads = set()
    log_norms = _kernels._log_norms

    def spy(*args):
        threads.add(threading.get_ident())
        time.sleep(0.001)   # long enough for the worker to take the next task
        return log_norms(*args)

    monkeypatch.setattr(_kernels, "_log_norms", spy)
    assert np.array_equal(bits(_logprobs(m, p, targets)), bits(serial))
    assert len(threads) > 1


def test_logsumexp_matches_naive_formula():
    x = np.random.default_rng(4).normal(size=(7, 11))
    np.testing.assert_allclose(_kernels._logsumexp(x), np.log(np.exp(x).sum(axis=1)),
                               rtol=1e-14)
    assert _kernels._logsumexp(x[0]) == _kernels._logsumexp(x)[0]
    assert _kernels._logsumexp(np.array([1000.0, 1000.0])) == 1000.0 + np.log(2.0)


def _operand(rng, shape):
    """A random float64 array of ``shape``: contiguous, Fortran-ordered, a
    transposed view, or a view sliced out of a larger array with an offset
    or every other row."""
    kind = int(rng.integers(0, 5))
    if kind == 1:
        return np.asfortranarray(rng.normal(size=shape))
    if kind == 2:
        return rng.normal(size=shape[::-1]).T
    if kind == 3:
        return rng.normal(size=(shape[0] + 3, shape[1] + 2))[2:2 + shape[0], 1:1 + shape[1]]
    if kind == 4:
        return rng.normal(size=(2 * shape[0], shape[1]))[::2]
    return rng.normal(size=shape)


def row_product_digest(seed: int, shapes: int = 40) -> str:
    """Stacked products on random shapes and views, each row asserted equal
    bitwise to the product computed alone; returns the sha256 of them all.

    The forms are those of the query path: matrix times each row (class
    normalizers), each row times a matrix (prediction vectors), one dot
    product per row, and two per row from a stack of two tables (class and
    word scores), and a row-wise logsumexp.
    """
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for _ in range(shapes):
        M, d, H = int(rng.integers(1, 65)), int(rng.integers(1, 65)), int(rng.integers(1, 1501))
        P, W = _operand(rng, (M, d)), _operand(rng, (H, d))
        C, X = _operand(rng, (d, int(rng.integers(1, 65)))), _operand(rng, (M, d))
        Y = np.stack([_operand(rng, (M, d)), _operand(rng, (M, d))])
        for stacked, single in (
                (_kernels.row_products(P, W.T), lambda i: W @ P[i]),
                (_kernels.row_products(P, C), lambda i: P[i] @ C),
                (_kernels.row_products(P, X[:, :, None])[:, 0], lambda i: np.dot(P[i], X[i])),
                (_kernels.row_products(P, Y[..., None])[..., 0].T,
                 lambda i: np.array([np.dot(P[i], Y[0, i]), np.dot(P[i], Y[1, i])]))):
            for i in range(M):
                assert np.array_equal(bits(stacked[i]), bits(single(i))), (M, d, H, i)
            digest.update(stacked.tobytes())
        scores = _kernels.row_products(P, W.T)
        lse = _kernels._logsumexp(scores)
        for i in range(M):
            assert lse[i] == _kernels._logsumexp(scores[i]), (M, H, i)
        digest.update(lse.tobytes())
    return digest.hexdigest()


def test_row_products_equal_single_products_bitwise():
    row_product_digest(5)


def test_row_products_are_identical_at_one_and_two_blas_threads():
    assert_same_digest_at_one_and_two_blas_threads("test_kernels", "row_product_digest(6)")


def bigram_maps(bigrams, n_words):
    """The neighbour map (``_bigram_csr``) of a bigram dict."""
    keys = list(bigrams)
    rows = np.array([u for u, _ in keys], dtype=np.int64).reshape(-1)
    cols = np.array([v for _, v in keys], dtype=np.int64).reshape(-1)
    vals = np.array([bigrams[k] for k in keys], dtype=np.float64).reshape(-1)
    return _bigram_csr(rows, cols, vals, n_words)


def class_counts(bigrams, class_of, K):
    ncc = np.zeros((K, K))
    lcnt = np.zeros(K)
    rcnt = np.zeros(K)
    for (u, v), cnt in bigrams.items():
        ncc[class_of[u], class_of[v]] += cnt
        lcnt[class_of[u]] += cnt
        rcnt[class_of[v]] += cnt
    return ncc, lcnt, rcnt, np.bincount(class_of, minlength=K).astype(np.int64)


def test_bigram_csr_lists_sorted_successors_and_predecessors():
    bigrams = {(2, 0): 1, (0, 2): 3, (0, 1): 2, (1, 1): 4, (2, 1): 5}
    indptr, entries, counts, out_tot, in_tot, self_loops = bigram_maps(bigrams, 4)
    # predecessor u of a word is entry 4 + u; the self loop (1, 1) is no entry
    assert indptr.tolist() == [0, 3, 5, 8, 8]
    assert entries.tolist() == [1, 2, 6, 4, 6, 0, 1, 4]
    assert counts.tolist() == [2, 3, 1, 2, 5, 1, 5, 3]
    assert out_tot.tolist() == [5, 4, 6, 0] and in_tot.tolist() == [1, 11, 3, 0]
    assert self_loops.tolist() == [0, 4, 0, 0]


def test_bigram_csr_matches_sorted_pairs_in_any_dict_order():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n_words = int(rng.integers(1, 40))
        # distinct pairs, inserted in a random order
        packed = rng.permutation(n_words * n_words)[:int(rng.integers(1, n_words * n_words + 1))]
        bigrams = {(int(k // n_words), int(k % n_words)): int(rng.integers(1, 50))
                   for k in packed}
        pairs = sorted(bigrams.items())
        want = [[(v, cnt) for (u, v), cnt in pairs if u == w != v]
                + [(n_words + u, cnt) for (u, v), cnt in pairs if v == w != u]
                for w in range(n_words)]
        indptr, entries, counts, *totals = bigram_maps(bigrams, n_words)
        assert indptr.dtype == entries.dtype == np.int64 and counts.dtype == np.float64
        assert indptr.shape == (n_words + 1,) and indptr[0] == 0
        got = list(zip(entries.tolist(), counts.tolist()))
        assert [got[lo:hi] for lo, hi in zip(indptr[:-1], indptr[1:])] == want
        for total, side in zip(totals, (lambda u, v: u, lambda u, v: v,
                                        lambda u, v: u if u == v else None)):
            want_total = [0] * n_words
            for (u, v), cnt in pairs:
                if side(u, v) is not None:
                    want_total[side(u, v)] += cnt
            assert total.dtype == np.int64 and total.tolist() == want_total


def test_exchange_pass_keeps_counts_consistent():
    # the counts are recounted from class_of at each pass, so the recorded
    # moves are the whole state a pass hands on
    rng = np.random.default_rng(5)
    n_words, K = 20, 4
    stream = rng.integers(0, n_words, size=600)
    bigrams = {}
    for u, v in zip(stream[:-1], stream[1:]):
        bigrams[(int(u), int(v))] = bigrams.get((int(u), int(v)), 0) + 1
    neighbours = bigram_maps(bigrams, n_words)
    start = (np.arange(n_words) % K).astype(np.int64)
    class_of, visit = start.copy(), np.arange(n_words, dtype=np.int64)
    moves = [(-1, -1, -1)]

    nmoves = _kernels.exchange_pass(neighbours, class_of, K, visit, moves)

    changed = np.flatnonzero(class_of != start)
    assert nmoves == len(changed) == len(moves) - 1 > 0 and moves[0] == (-1, -1, -1)
    assert sorted(w for w, _, _ in moves[1:]) == changed.tolist()
    assert all(type(x) is int for move in moves[1:] for x in move)
    replayed = start.copy()
    for w, frm, to in moves[1:]:
        assert replayed[w] == frm != to
        replayed[w] = to
    assert np.array_equal(replayed, class_of)
    # a second pass from the moved partition is the pass a fresh call makes
    again, fresh = [], []
    resumed = _kernels.exchange_pass(neighbours, class_of, K, visit, again)
    restart = replayed.copy()
    assert _kernels.exchange_pass(neighbours, restart, K, visit, fresh) == resumed
    assert again == fresh and np.array_equal(restart, class_of)


def _xlogx(x: float) -> float:
    return x * np.log(x) if x > 0.0 else 0.0


class ReferenceExchange:
    """The exchange pass as a scalar loop over words, neighbours and classes.

    The oracle for ``_kernels.exchange_pass``: the same moves, with the same
    gains added in the same order, from the bigram dict alone. It sorts each
    word's successors and predecessors itself, counts the classes of its
    first partition once and carries those counts from pass to pass. It
    needs positive counts: a zero count would register its class twice in
    ``touched_o``/``touched_i``.
    """

    def __init__(self, bigrams, class_of, K):
        n_words = len(class_of)
        self.succ = [[] for _ in range(n_words)]
        self.pred = [[] for _ in range(n_words)]
        for (u, v), cnt in sorted(bigrams.items()):
            self.succ[u].append((v, cnt))
        for (v, u), cnt in sorted(((v, u), cnt) for (u, v), cnt in bigrams.items()):
            self.pred[v].append((u, cnt))
        self.class_of = np.array(class_of, dtype=np.int64)
        self.ncc, self.lcnt, self.rcnt, self.csize = class_counts(bigrams, self.class_of, K)

    def exchange_pass(self, visit, moves):
        class_of, ncc, lcnt, rcnt, csize = (self.class_of, self.ncc, self.lcnt, self.rcnt,
                                            self.csize)
        K = ncc.shape[0]
        o = np.zeros(K)
        i_ = np.zeros(K)
        nmoves = 0
        for w in visit.tolist():
            a = int(class_of[w])
            if csize[a] <= 1:
                continue
            touched_o = []
            touched_i = []
            s = 0.0
            out_tot = 0.0
            in_tot = 0.0
            for v, val in self.succ[w]:
                out_tot += val
                if v == w:
                    s += val
                else:
                    c2 = class_of[v]
                    if o[c2] == 0.0:
                        touched_o.append(c2)
                    o[c2] += val
            for u, val in self.pred[w]:
                in_tot += val
                if u == w:
                    continue
                c2 = class_of[u]
                if i_[c2] == 0.0:
                    touched_i.append(c2)
                i_[c2] += val
            if out_tot == 0.0 and in_tot == 0.0:
                continue
            # detach w from class a
            for c2 in touched_o:
                if c2 != a:
                    ncc[a, c2] -= o[c2]
            for c2 in touched_i:
                if c2 != a:
                    ncc[c2, a] -= i_[c2]
            ncc[a, a] -= o[a] + i_[a] + s
            lcnt[a] -= out_tot
            rcnt[a] -= in_tot
            csize[a] -= 1

            def ins_gain(bb):
                gain = 0.0
                for c2 in touched_o:
                    if c2 == bb:
                        continue
                    nv = ncc[bb, c2]
                    gain += _xlogx(nv + o[c2]) - _xlogx(nv)
                for c2 in touched_i:
                    if c2 == bb:
                        continue
                    nv = ncc[c2, bb]
                    gain += _xlogx(nv + i_[c2]) - _xlogx(nv)
                diag = o[bb] + i_[bb] + s
                if diag > 0.0:
                    gain += _xlogx(ncc[bb, bb] + diag) - _xlogx(ncc[bb, bb])
                gain -= _xlogx(lcnt[bb] + out_tot) - _xlogx(lcnt[bb])
                gain -= _xlogx(rcnt[bb] + in_tot) - _xlogx(rcnt[bb])
                return gain

            best = a
            best_gain = ins_gain(a)
            for bb in range(K):
                if bb == a:
                    continue
                gg = ins_gain(bb)
                if gg > best_gain:
                    best_gain = gg
                    best = bb
            # attach w to the winning class
            for c2 in touched_o:
                if c2 != best:
                    ncc[best, c2] += o[c2]
            for c2 in touched_i:
                if c2 != best:
                    ncc[c2, best] += i_[c2]
            ncc[best, best] += o[best] + i_[best] + s
            lcnt[best] += out_tot
            rcnt[best] += in_tot
            csize[best] += 1
            class_of[w] = best
            if best != a:
                moves.append((w, a, best))
                nmoves += 1
            for c2 in touched_o:
                o[c2] = 0.0
            for c2 in touched_i:
                i_[c2] = 0.0
        return nmoves


def random_exchange_input(seed):
    """Bigram counts, a partition and a visit order drawn from ``seed``.

    Streams are uniform (even seeds) or Zipf-distributed (odd seeds, so a
    few words repeat and form self-loops); every tenth input has K = 1;
    words outside a drawn subset never occur and keep zero mass.
    """
    rng = np.random.default_rng(seed)
    n_words = int(rng.integers(2, 30))
    K = 1 if seed % 10 == 0 else int(rng.integers(2, min(n_words, 8) + 1))
    used = rng.permutation(n_words)[:int(rng.integers(1, n_words + 1))]
    size = int(rng.integers(2, 300))
    if seed % 2:
        p = 1.0 / np.arange(1, used.shape[0] + 1) ** rng.uniform(1.0, 2.0)
        stream = used[rng.choice(used.shape[0], size=size, p=p / p.sum())]
    else:
        stream = used[rng.integers(0, used.shape[0], size=size)]
    weight = int(rng.integers(1, 4))
    bigrams = {}
    for u, v in zip(stream[:-1].tolist(), stream[1:].tolist()):
        bigrams[(u, v)] = bigrams.get((u, v), 0) + weight
    class_of = rng.integers(0, K, size=n_words)
    class_of[rng.permutation(n_words)[:K]] = np.arange(K)
    return bigrams, n_words, K, class_of.astype(np.int64), rng.permutation(n_words)


def test_exchange_pass_equals_scalar_reference_bitwise():
    seen = {"K=1": 0, "self-loop": 0, "zero-mass word": 0, "singleton class": 0,
            "moves in a later pass": 0}
    # seeds 566 and 1589 come close enough to a tie that summing the gain
    # terms in class-id order instead of first-touch order changes a move
    for seed in [*range(240), 566, 1589]:
        bigrams, n_words, K, start, visit = random_exchange_input(seed)
        want, got = (exchange_record(kernel, bigrams, n_words, K, start, visit)
                     for kernel in (False, True))
        differ = [f"pass {k + 1} {name}"
                  for k, (x, y) in enumerate(zip(want, got))
                  for name, a, b in zip(("nmoves", "class_of", "moves"), x, y) if a != b]
        assert not differ, f"seed {seed}: {differ}"
        mass = np.zeros(n_words)
        for (u, v), cnt in bigrams.items():
            mass[u] += cnt
            mass[v] += cnt
        seen["K=1"] += K == 1
        seen["self-loop"] += any(u == v for u, v in bigrams)
        seen["zero-mass word"] += bool((mass == 0).any())
        seen["singleton class"] += bool((np.bincount(start, minlength=K) == 1).any())
        seen["moves in a later pass"] += want[1][0] > 0
    assert min(seen.values()) >= 10, seen


def exchange_record(kernel, bigrams, n_words, K, start, visit, passes=3):
    """Each pass's move count, the partition it leaves and its moves, from
    ``_kernels.exchange_pass`` if ``kernel`` else from ``ReferenceExchange``;
    the reference's carried counts are checked against a recount."""
    if kernel:
        neighbours, class_of = bigram_maps(bigrams, n_words), start.copy()
    else:
        reference = ReferenceExchange(bigrams, start, K)
        class_of = reference.class_of
    record = []
    for _ in range(passes):
        moves = []
        nmoves = (_kernels.exchange_pass(neighbours, class_of, K, visit, moves) if kernel
                  else reference.exchange_pass(visit, moves))
        record.append([nmoves, class_of.tobytes(), moves])
        if not kernel:
            recount = class_counts(bigrams, class_of, K)
            carried = (reference.ncc, reference.lcnt, reference.rcnt, reference.csize)
            assert all(np.array_equal(x, y) for x, y in zip(carried, recount))
    return record


def test_exchange_pass_reads_the_top_of_the_xlogx_table():
    # every bigram joins words of class 0, so its diagonal, left and right
    # counts start at the corpus total, and keeping a word there reads the
    # last entry of the pass's xlogx table; the other classes hold one word
    # without bigrams each. Counts are log-uniform in 1..10**6.
    moved = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 4))
        n_active = int(rng.integers(2, 5))
        n_words = n_active + K - 1
        bigrams = {}
        for _ in range(int(rng.integers(1, 4))):
            u, v = rng.integers(0, n_active, size=2).tolist()
            bigrams[(u, v)] = bigrams.get((u, v), 0) + int(10 ** rng.uniform(0, 6))
        start = np.zeros(n_words, dtype=np.int64)
        start[n_active:] = np.arange(1, K)
        visit = rng.permutation(n_words)
        want, got = (exchange_record(kernel, bigrams, n_words, K, start, visit)
                     for kernel in (False, True))
        assert want == got, f"seed {seed}"
        moved += want[0][0] > 0
    assert 0 < moved < 40


def test_exchange_pass_breaks_ties_toward_current_then_lowest_class():
    # words: z (class 0, heavy self-loop), y1, y2 (the only members of
    # classes 1 and 2 once w leaves), w (visited). w -> y1 and w -> y2 make
    # classes 1 and 2 mirror images, so inserting w into either has exactly
    # the same gain, and both beat class 0.
    bigrams = {(0, 0): 5, (3, 1): 2, (3, 2): 2}
    neighbours = bigram_maps(bigrams, 4)

    def visit_w(start):
        class_of = np.asarray(start, dtype=np.int64)
        _kernels.exchange_pass(neighbours, class_of, 3, np.array([3]), [])
        return int(class_of[3])

    # a candidate whose gain only equals the current class's: w stays
    assert visit_w([0, 1, 2, 1]) == 1
    assert visit_w([0, 1, 2, 2]) == 2
    # equal improvements: the lowest class id wins
    assert visit_w([0, 1, 2, 0]) == 1
