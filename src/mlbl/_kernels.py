"""Hot numeric kernels: word-table compilation, the class-factored softmax,
row-invariant products for the query path and the exchange-clustering
pass, in plain numpy.

All kernels take plain numpy arrays and write into caller-allocated
outputs. Sparse word-to-factor maps are passed CSR-style as
(indptr, indices, data): int64 indptr/indices and float64 data holding
integer multiplicities, so row v of the map lists the factors of word v.
Every kernel is deterministic: the same inputs give the same bits.

The factor-map products add in CSR order: each output row receives its
terms one at a time, in the order the map lists them, as a sequential
``np.add.at`` over the entries does.
"""

from __future__ import annotations

import numpy as np


# rows per block of compose_rows: its temporaries stay cache-sized
COMPOSE_BLOCK = 2048


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over the last axis, shifted by the maximum."""
    m = x.max(axis=-1)
    e = x - m[..., None]
    np.exp(e, out=e)
    return m + np.log(e.sum(axis=-1))


def row_products(P: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Row i is P[i] @ W, or P[i] @ W[i] for a stack of matrices W; a 1-D P
    is one row.

    Each row is its own vector-matrix product (BLAS gemv, or a dot product
    for a one-column W), so it has the bits of that product computed alone,
    at any number of rows and of BLAS threads. A matrix-matrix product (gemm)
    rounds a row differently depending on the rows beside it. ``P[i] @ W.T``
    has the bits of ``W @ P[i]``.
    """
    return np.matmul(P[..., None, :], W)[..., 0, :]


def _expand_rows(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(indptr.shape[0] - 1, dtype=np.int64), np.diff(indptr))


def compose_rows(indptr, indices, data, table, out):
    """out[v] += sum_f multiplicity(v,f) * table[f] for every row v.

    The rows are taken in blocks of ``COMPOSE_BLOCK``. Within a block, step
    j adds the j-th term of every row that has one, so each row sums in
    CSR order.
    """
    for lo in range(0, indptr.shape[0] - 1, COMPOSE_BLOCK):
        ptr = indptr[lo:lo + COMPOSE_BLOCK + 1]
        block = out[lo:lo + COMPOSE_BLOCK]
        lengths = np.diff(ptr)
        for j in range(int(lengths.max(initial=0))):
            rows = np.flatnonzero(lengths > j)
            e = ptr[rows] + j
            terms = np.take(table, indices[e], axis=0)
            terms *= data[e, None]
            block[rows] += terms
    return out


def scatter_rows(indptr, indices, data, grad_rows, out):
    """out[f] += sum_v multiplicity(v,f) * grad_rows[v] (transpose of compose).

    Each factor row sums in CSR order. Entries whose grad_rows row is all
    zero are skipped: adding a zero changes only a -0.0, and an ``out`` that
    starts at +0.0, as a gradient accumulator does, never holds one.
    """
    rows = _expand_rows(indptr)
    keep = np.flatnonzero(grad_rows.any(axis=1)[rows])
    return add_rows(out, indices[keep], data[keep, None] * grad_rows[rows[keep]])


def add_rows(out, rows, values):
    """out[rows[i]] += values[i] in order of i, for a C-contiguous 2-D out.

    One 1-D ``np.add.at`` over the flat slots (numpy's fast path) adds in
    the same order as the row-wise ``np.add.at(out, rows, values)``.
    """
    d = out.shape[1]
    slots = rows[:, None] * d + np.arange(d)
    np.add.at(np.reshape(out, -1, copy=False), slots.reshape(-1), values.reshape(-1))
    return out


def _classed_softmaxes(p, targets, class_of, mem_flat, mem_indptr,
                       scorable_cls, S, t, R, b, logps):
    """Forward pass of the class-factored softmax, filling ``logps``.

    Yields ``(rows, ids, scores, lse, pos)`` once for the class softmax
    (rows is every instance, ids the scorable classes) and then once per
    within-class softmax (rows the instances of that class, ids its
    members): the scores, their log-normalizers and each row's target
    column, which is what a backward pass needs.
    """
    cls = class_of[targets]
    A = p @ S[scorable_cls].T
    A += t[scorable_cls]
    lse = _logsumexp(A)
    col = np.searchsorted(scorable_cls, cls)
    logps[:] = A[np.arange(len(targets)), col] - lse
    yield slice(None), scorable_cls, A, lse, col
    # one stable sort by class: each class's instances are one slice, ascending
    order = np.argsort(cls, kind="stable")
    grouped = cls[order]
    bounds = np.flatnonzero(np.diff(grouped, prepend=-1)).tolist() + [len(cls)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        idx = order[lo:hi]
        c = grouped[lo]
        mem = mem_flat[mem_indptr[c]:mem_indptr[c + 1]]
        sc = p[idx] @ R[mem].T
        sc += b[mem]
        lse2 = _logsumexp(sc)
        pos = np.searchsorted(mem, targets[idx])
        logps[idx] += sc[np.arange(len(idx)), pos] - lse2
        yield idx, mem, sc, lse2, pos


def classed_logprobs(p, targets, class_of, mem_flat, mem_indptr,
                     scorable_cls, S, t, R, b, logps):
    """Log probability of each target under the class-factored softmax."""
    for _ in _classed_softmaxes(p, targets, class_of, mem_flat, mem_indptr,
                                scorable_cls, S, t, R, b, logps):
        pass
    return logps


def classed_fwd_bwd(p, targets, class_of, mem_flat, mem_indptr,
                    scorable_cls, S, t, R, b,
                    logps, dp, gS, gt, gR, gb):
    """classed_logprobs plus the gradients of -sum(logps).

    Accumulates into dp (prediction vectors), gS/gt (class vectors and
    biases) and gR/gb (target word vectors and biases).
    """
    softmaxes = _classed_softmaxes(p, targets, class_of, mem_flat, mem_indptr,
                                   scorable_cls, S, t, R, b, logps)
    for k, (rows, ids, scores, lse, pos) in enumerate(softmaxes):
        W, gW, gbias = (S, gS, gt) if k == 0 else (R, gR, gb)
        G = scores  # the forward is done with them
        G -= lse[:, None]
        np.exp(G, out=G)
        G[np.arange(len(pos)), pos] -= 1.0
        gW[ids] += G.T @ p[rows]
        gbias[ids] += G.sum(axis=0)
        dp[rows] += G @ W[ids]
    return logps


def _neighbour_map(out_indptr, out_cols, out_vals, in_indptr, in_cols, in_vals):
    """Each word's neighbours other than itself as one CSR map.

    Row w lists w's successors, then its predecessors shifted by the number
    of words n, each in CSR order. Returns the map as (indptr list, entries,
    counts), then each word's total out count, total in count and
    self-loop count, as lists.
    """
    n = out_indptr.shape[0] - 1
    out_rows, in_rows = _expand_rows(out_indptr), _expand_rows(in_indptr)
    self_loop = out_cols == out_rows
    totals = (np.bincount(out_rows, weights=out_vals, minlength=n).tolist(),
              np.bincount(in_rows, weights=in_vals, minlength=n).tolist(),
              np.bincount(out_rows[self_loop], weights=out_vals[self_loop],
                          minlength=n).tolist())
    keep = np.flatnonzero(np.concatenate((~self_loop, in_cols != in_rows)))
    rows = np.concatenate((out_rows, in_rows))[keep]
    del out_rows, in_rows, self_loop  # bigram-sized; free them before the next ones
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    keep = keep[np.argsort(rows, kind="stable")]
    del rows
    entries = np.concatenate((out_cols, in_cols + n))[keep]
    counts = np.concatenate((out_vals, in_vals))[keep]
    return (indptr.tolist(), entries, counts) + totals


def exchange_pass(out_indptr, out_cols, out_vals, in_indptr, in_cols, in_vals,
                  class_of, ncc, lcnt, rcnt, csize, visit,
                  mv_w, mv_from, mv_to):
    """One full exchange pass over ``visit``; returns the number of moves.

    The bigram counts come as two CSR maps, successors (out_*) and
    predecessors (in_*) of each word, with positive integer counts.
    ``class_of``, the class-bigram counts ``ncc``, the left/right class
    counts ``lcnt``/``rcnt`` and the class sizes ``csize`` are updated in
    place; move i is recorded as (mv_w[i], mv_from[i], mv_to[i]).

    Each visited word is detached from its class and the gain of inserting
    it into each of the K classes is computed at once. It joins the first
    class of largest gain if that gain is strictly greater than its own
    class's, else it stays. A gain is a sum of ``xlogx(n + delta) -
    xlogx(n)`` terms added in a fixed order: one per class the word's
    successors touch, then one per class its predecessors touch (each in
    order of first touch), then the diagonal, minus the left-count and
    the right-count terms. Counts are integers stored as float64, so
    updates are exact in any order and re-inserting a word into its own
    class restores the counts; accepted moves therefore strictly increase
    the clustering objective.
    """
    K = ncc.shape[0]
    n = class_of.shape[0]
    diag, left, right = 2 * K, 2 * K + 1, 2 * K + 2
    ptr, entries, counts, out_tot, in_tot, self_loops = _neighbour_map(
        out_indptr, out_cols, out_vals, in_indptr, in_cols, in_vals)
    # an entry's key: a successor's class, or K plus a predecessor's class
    key_of = np.concatenate((class_of, class_of + K))
    # Column b of E holds the counts the gain terms of candidate class b read,
    # one row per key: row c is ncc[b, c] (successor class c), row K + c is
    # ncc[c, b] (predecessor class c), then ncc[b, b], lcnt[b] and rcnt[b].
    # ncc, lcnt and rcnt are written back from E after the pass.
    E = np.concatenate((ncc.T, ncc, ncc.diagonal()[None], lcnt[None], rcnt[None]))
    key_rows = np.arange(2 * K)
    # d[r]: what the visited word adds to row r of its own class's column
    d = np.zeros(2 * K + 3)
    nmoves = 0
    for w in visit.tolist():
        a = int(class_of[w])
        if csize[a] <= 1 or (out_tot[w] == 0.0 and in_tot[w] == 0.0):
            continue
        lo, hi = ptr[w], ptr[w + 1]
        keys = key_of[entries[lo:hi]]
        oi = np.bincount(keys, weights=counts[lo:hi], minlength=2 * K)
        o, i_ = oi[:K], oi[K:]
        s = self_loops[w]
        d[:diag] = oi
        d[left] = out_tot[w]
        d[right] = in_tot[w]

        # detach w from class a; ncc[a, a] sits in three rows of column a
        d[diag] = o[a] + i_[a] + s
        E[:, a] -= d
        E[a] -= i_
        E[K + a] -= o
        E[a, a] -= s
        E[K + a, a] -= s

        # the gain terms in summation order (dict keys keep the first touch):
        # xlogx(after) - xlogx(before), where after = before + what w adds
        rows = np.array(list(dict.fromkeys(keys.tolist())) + [diag, left, right])
        t = rows.shape[0] - 3
        both = np.empty((2, t + 3, K))
        after, before = both
        np.take(E, rows, axis=0, out=before)
        d[diag] = 0.0
        np.add(before, d[rows, None], out=after)
        after[t] += o + i_ + s  # the diagonal's increment depends on the candidate
        both *= np.log(np.maximum(both, 1.0))  # xlogx; counts are 0 or >= 1
        terms = after - before
        terms[key_rows[:t], rows[:t] % K] = 0.0  # no term for the candidate's own class
        terms[t + 1:] *= -1.0
        gain = np.add.reduce(terms, axis=0)
        best = int(gain.argmax())
        if not gain[best] > gain[a]:
            best = a

        # attach w to the winning class
        d[diag] = o[best] + i_[best] + s
        E[:, best] += d
        E[best] += i_
        E[K + best] += o
        E[best, best] += s
        E[K + best, best] += s
        csize[a] -= 1
        csize[best] += 1
        class_of[w] = key_of[w] = best
        key_of[n + w] = K + best
        if best != a:
            mv_w[nmoves] = w
            mv_from[nmoves] = a
            mv_to[nmoves] = best
            nmoves += 1
    ncc[:] = E[K:diag]
    lcnt[:] = E[left]
    rcnt[:] = E[right]
    return nmoves
