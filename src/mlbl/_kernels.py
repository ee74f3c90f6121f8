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

``parallel`` spreads independent tasks over the calling thread and a lazily
created pool of worker threads, one per further CPU the process may run on.
Tasks that write separate arrays give the same bits in any schedule.
``one_blas_thread`` keeps OpenBLAS from adding threads of its own meanwhile.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np


# rows per block of compose_rows: its temporaries stay cache-sized
COMPOSE_BLOCK = 2048
# entries per add of scatter_rows: its nnz-by-d temporaries stay bounded
SCATTER_CHUNK = 4096
# float64 values below which a parallel() call runs its tasks serially: a call
# that uses the pool costs about 85 microseconds more (2-core x86 VM)
PARALLEL_MIN = 1 << 16

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()

log = logging.getLogger("mlbl.kernels")


def workers() -> int:
    """Threads a ``parallel`` call may use: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, workers() - 1), thread_name_prefix="mlbl")
        return _pool


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: it makes its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def parallel(tasks: list, size: int) -> list:
    """Call every task and return their results, in task order.

    ``tasks[0]`` runs on the calling thread; each other task runs on
    whichever thread is free first, the calling thread included once
    ``tasks[0]`` is done. The tasks must not write what another task reads
    or writes. Each runs in a copy of the caller's context, so the caller's
    ``np.errstate`` holds on every thread. With one CPU, or when ``size``
    (roughly the float64 values the tasks touch) is below ``PARALLEL_MIN``,
    the tasks run serially on the calling thread. A task's exception is
    raised once every thread has stopped taking tasks.
    """
    threads = min(workers(), len(tasks))
    if threads <= 1 or size < PARALLEL_MIN:
        return [task() for task in tasks]
    results: list = [None] * len(tasks)
    lock = threading.Lock()
    taken = [0]

    def drain() -> None:
        while True:
            with lock:
                taken[0] += 1
                i = taken[0]
            if i >= len(tasks):
                return
            results[i] = tasks[i]()

    pool = _executor()
    futures = [pool.submit(contextvars.copy_context().run, drain)
               for _ in range(threads - 1)]
    try:
        results[0] = tasks[0]()
        drain()
    finally:
        wait(futures)
    for f in futures:
        f.result()
    return results


# (get, set) thread-count functions of each loaded OpenBLAS, found on first use
_blas: list[tuple] | None = None
# one_blas_thread calls in progress, and the counts the first of them found
_blas_holds = 0
_blas_saved: list[int] = []
_blas_lock = threading.Lock()


def _openblas() -> list[tuple]:
    """The (get, set) thread-count functions of every OpenBLAS the process
    has loaded, found through ``/proc/self/maps``; empty under another BLAS
    or where the map cannot be read."""
    global _blas
    if _blas is None:
        try:
            with open("/proc/self/maps", encoding="utf-8") as fh:
                libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        except OSError:
            libs = []
        _blas = []
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                                   ("openblas", "")):
                get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    _blas.append((get, put))
                    break
        if not _blas:
            log.info("no OpenBLAS found; the BLAS thread count is left as it is")
    return _blas


@contextlib.contextmanager
def one_blas_thread():
    """Hold every loaded OpenBLAS at one thread, then restore the caller's
    counts, also when the body raises; usable as a decorator.

    A matrix product's last bits depend on how BLAS splits it over threads,
    so under this the results do not depend on ``OPENBLAS_NUM_THREADS``, and
    ``parallel`` supplies the other cores. The count is global to the
    process: another thread that calls BLAS meanwhile gets one thread too.
    Nested and concurrent holds share one: the last to end restores the
    counts the first one found. Under another BLAS this does nothing.
    """
    global _blas_holds
    with _blas_lock:
        if _blas_holds == 0:
            _blas_saved[:] = [get() for get, _ in _openblas()]
            for _, put in _openblas():
                put(1)
        _blas_holds += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holds -= 1
            if _blas_holds == 0:
                for (_, put), count in zip(_openblas(), _blas_saved):
                    put(count)


def _logsumexp(x: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """log(sum(exp(x))) over the last axis, shifted by the maximum; with
    ``overwrite`` the shifted exponentials are computed in x itself."""
    m = x.max(axis=-1)
    e = np.subtract(x, m[..., None], out=x if overwrite else None)
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
            if rows.shape[0] == block.shape[0]:   # every row has a j-th term
                block += terms
            else:
                block[rows] += terms
    return out


def scatter_rows(rows, indices, data, grad_rows, out):
    """out[indices[e]] += data[e] * grad_rows[rows[e]] for each entry e of a
    map: the transpose of compose when rows[e] is the row holding entry e,
    or that row's place in a reordered grad_rows.

    Each factor row sums in entry order: the entries are added
    ``SCATTER_CHUNK`` at a time, in order. Entries whose grad_rows row is
    all zero are skipped: adding a zero changes only a -0.0, and an ``out``
    that starts at +0.0, as a gradient accumulator does, never holds one.
    """
    keep = np.flatnonzero(grad_rows.any(axis=1)[rows])
    for lo in range(0, keep.shape[0], SCATTER_CHUNK):
        e = keep[lo:lo + SCATTER_CHUNK]
        add_rows(out, indices[e], data[e, None] * grad_rows[rows[e]])
    return out


# Worker threads call the factor-map kernels by these names. A tracer wraps the
# public names, and its span stack belongs to the calling thread.
_compose_rows, _scatter_rows = compose_rows, scatter_rows


def add_rows(out, rows, values):
    """out[rows[i]] += values[i] in order of i, for a C-contiguous 2-D out.

    One 1-D ``np.add.at`` over the flat slots (numpy's fast path) adds in
    the same order as the row-wise ``np.add.at(out, rows, values)``.
    """
    d = out.shape[1]
    slots = rows[:, None] * d + np.arange(d)
    np.add.at(np.reshape(out, -1, copy=False), slots.reshape(-1), values.reshape(-1))
    return out


def _class_groups(cls, mem_indptr):
    """(rows, lo, hi) of each class among the rows' classes ``cls``: its
    rows ascending, by one stable sort by class, and the bounds of its
    members in class order."""
    order = np.argsort(cls, kind="stable")
    grouped = cls[order]
    bounds = np.flatnonzero(np.diff(grouped, prepend=-1)).tolist() + [len(cls)]
    first = grouped[bounds[:-1]]
    return list(zip([order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])],
                    mem_indptr[first].tolist(), mem_indptr[first + 1].tolist()))


def _softmax(P, W, bias, pos):
    """Scores P @ W.T + bias, their log-normalizers, and the log
    probability of column pos[i] in row i."""
    scores = P @ W.T
    scores += bias
    lse = _logsumexp(scores)
    return scores, lse, scores[np.arange(len(pos)), pos] - lse


def _log_softmax_at(P, W, bias, pos):
    """``_softmax``'s log probabilities alone: its scores are overwritten
    by their exponentials, so no second score-sized array is made."""
    scores = P @ W.T
    scores += bias
    logp = scores[np.arange(len(pos)), pos]
    logp -= _logsumexp(scores, overwrite=True)
    return logp


def _softmax_backward(P, W, scores, lse, pos, ids, gW, gbias):
    """Gradients of -sum of ``_softmax``'s log probabilities: adds those
    of the weights and biases into rows ``ids`` (an index array or a
    slice) of gW and gbias, and returns those of the rows of P."""
    G = scores  # the forward is done with them
    G -= lse[:, None]
    np.exp(G, out=G)
    G[np.arange(len(pos)), pos] -= 1.0
    gW[ids] += G.T @ P
    gbias[ids] += G.sum(axis=0)
    return G @ W


def classed_logprobs(p, targets, class_of, member_pos, mem_flat, mem_indptr,
                     scorable_cls, S, t, R, b, logps):
    """Log probability of each target under the class-factored softmax.

    Class c's members are the words ``mem_flat[mem_indptr[c]:mem_indptr[c+1]]``,
    ascending, and word w is the ``member_pos[w]``-th member of its class;
    R and b are indexed by word. The class softmax runs on the calling
    thread beside the within-class softmaxes (``parallel``); each class
    writes its instances' rows of a buffer that is added to logps last.
    """
    cls, pos = class_of[targets], member_pos[targets]
    within = np.empty_like(logps)

    def class_softmax():
        logps[:] = _log_softmax_at(p, S[scorable_cls], t[scorable_cls],
                                   np.searchsorted(scorable_cls, cls))

    def within_class(rows, lo, hi):
        mem = mem_flat[lo:hi]
        within[rows] = _log_softmax_at(p[rows], R[mem], b[mem], pos[rows])

    parallel([class_softmax] + [partial(within_class, *g)
                                for g in _class_groups(cls, mem_indptr)], p.size)
    logps += within
    return logps


def classed_fwd_bwd(p, targets, class_of, member_pos, mem_indptr,
                    scorable_cls, S, t, R, b,
                    logps, dp, gS, gt, gR, gb):
    """classed_logprobs plus the gradients of -sum(logps), with the target
    tables in class order: R, b, gR and gb hold class c's members in rows
    ``mem_indptr[c]:mem_indptr[c+1]``, each class's ascending.

    Accumulates into dp (prediction vectors), gS/gt (class vectors and
    biases) and gR/gb (target word vectors and biases). The class softmax
    runs on the calling thread beside the within-class softmaxes; each
    class writes only its members' rows of gR/gb and its instances' rows
    of two per-row buffers, which are added to logps and dp last. Every
    row has one within-class term, so that is the serial order of adds.
    """
    cls, pos = class_of[targets], member_pos[targets]
    within = np.empty_like(logps)
    dp_within = np.empty_like(dp)

    def class_softmax():
        W, col = S[scorable_cls], np.searchsorted(scorable_cls, cls)
        scores, lse, logps[:] = _softmax(p, W, t[scorable_cls], col)
        dp[:] += _softmax_backward(p, W, scores, lse, col, scorable_cls, gS, gt)

    def within_class(rows, lo, hi):
        P, W, at = p[rows], R[lo:hi], pos[rows]
        scores, lse, within[rows] = _softmax(P, W, b[lo:hi], at)
        dp_within[rows] = _softmax_backward(P, W, scores, lse, at, slice(lo, hi), gR, gb)

    parallel([class_softmax] + [partial(within_class, *g)
                                for g in _class_groups(cls, mem_indptr)], p.size)
    logps += within
    dp += dp_within
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
