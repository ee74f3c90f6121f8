"""Hot numeric kernels: word-table compilation, the class-factored softmax
and the exchange-clustering pass, in plain numpy.

All kernels take plain numpy arrays and write into caller-allocated
outputs. Sparse word-to-factor maps are passed CSR-style as
(indptr, indices, data): int64 indptr/indices and float64 data holding
integer multiplicities, so row v of the map lists the factors of word v.
Every kernel is deterministic: the same inputs give the same bits.
"""

from __future__ import annotations

import numpy as np


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over the last axis, shifted by the maximum."""
    m = x.max(axis=-1)
    return m + np.log(np.exp(x - m[..., None]).sum(axis=-1))


def _expand_rows(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(indptr.shape[0] - 1, dtype=np.int64), np.diff(indptr))


def compose_rows(indptr, indices, data, table, out):
    """out[v] += sum_f multiplicity(v,f) * table[f] for every row v."""
    if indices.shape[0]:
        rows = _expand_rows(indptr)
        np.add.at(out, rows, data[:, None] * table[indices])
    return out


def scatter_rows(indptr, indices, data, grad_rows, out):
    """out[f] += sum_v multiplicity(v,f) * grad_rows[v] (transpose of compose)."""
    if indices.shape[0]:
        rows = _expand_rows(indptr)
        np.add.at(out, indices, data[:, None] * grad_rows[rows])
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
    A = p @ S[scorable_cls].T + t[scorable_cls]
    lse = _logsumexp(A)
    col = np.searchsorted(scorable_cls, cls)
    logps[:] = A[np.arange(len(targets)), col] - lse
    yield slice(None), scorable_cls, A, lse, col
    for c in np.unique(cls):
        idx = np.where(cls == c)[0]
        mem = mem_flat[mem_indptr[c]:mem_indptr[c + 1]]
        sc = p[idx] @ R[mem].T + b[mem]
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
        G = np.exp(scores - lse[:, None])
        G[np.arange(len(pos)), pos] -= 1.0
        gW[ids] += G.T @ p[rows]
        gbias[ids] += G.sum(axis=0)
        dp[rows] += G @ W[ids]
    return logps


def _xlogx(x: float) -> float:
    return x * np.log(x) if x > 0.0 else 0.0


def exchange_pass(out_indptr, out_cols, out_vals, in_indptr, in_cols, in_vals,
                  class_of, ncc, lcnt, rcnt, csize, visit,
                  mv_w, mv_from, mv_to):
    """One full exchange pass over ``visit``; returns the number of moves.

    The bigram counts come as two CSR maps, successors (out_*) and
    predecessors (in_*) of each word. ``class_of``, the class-bigram
    counts ``ncc``, the left/right class counts ``lcnt``/``rcnt`` and the
    class sizes ``csize`` are updated in place; move i is recorded as
    (mv_w[i], mv_from[i], mv_to[i]).

    Counts are integers stored as float64, so removing a word and
    re-inserting it into its own class cancels exactly; accepted moves
    therefore strictly increase the clustering objective.
    """
    K = ncc.shape[0]
    o = np.zeros(K)
    i_ = np.zeros(K)
    nmoves = 0
    for w in visit:
        a = class_of[w]
        if csize[a] <= 1:
            continue
        touched_o = []
        touched_i = []
        s = 0.0
        out_tot = 0.0
        in_tot = 0.0
        for k in range(out_indptr[w], out_indptr[w + 1]):
            v = out_cols[k]
            val = out_vals[k]
            out_tot += val
            if v == w:
                s += val
            else:
                c2 = class_of[v]
                if o[c2] == 0.0:
                    touched_o.append(c2)
                o[c2] += val
        for k in range(in_indptr[w], in_indptr[w + 1]):
            u = in_cols[k]
            val = in_vals[k]
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
            mv_w[nmoves] = w
            mv_from[nmoves] = a
            mv_to[nmoves] = best
            nmoves += 1
        for c2 in touched_o:
            o[c2] = 0.0
        for c2 in touched_i:
            i_[c2] = 0.0
    return nmoves
