"""Hot numeric kernels: word-table compilation, the class-factored softmax,
row-invariant products for scoring and the exchange-clustering pass, in
numpy, with the factor-map products on scipy's compiled CSR/CSC loops.

All kernels take plain numpy arrays and write into caller-allocated
outputs. Sparse word-to-factor maps are passed CSR-style as
(indptr, indices, data): int64 indptr/indices and float64 data holding
integer multiplicities, so row v of the map lists the factors of word v.
Every kernel is deterministic: the same inputs give the same bits.

The factor-map products add in CSR order: each output row receives its
terms one at a time, in the order the map lists them, as a sequential
``np.add.at`` over the entries does: scipy's private CSR/CSC loops add
each term into ``out`` as ``y += a * x`` (``csr_array @ X`` would add a
finished sum, with other bits). Those loops index without bounds checks,
so the kernels check their inputs first.

``parallel`` spreads independent tasks over the calling thread and a lazily
created pool of worker threads, one per further CPU the process may run on.
Tasks that write separate arrays give the same bits in any schedule.
``one_blas_thread`` keeps OpenBLAS from adding threads of its own meanwhile.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import importlib.util
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import cache, partial
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np


# rows per within-class task of classed_logprobs: bounds a large class's scores
SCORE_ROWS = 1024
# float64 values below which a parallel() call runs its tasks serially: a call
# that uses the pool costs about 85 microseconds more (2-core x86 VM)
PARALLEL_MIN = 1 << 16
# entries per block of the exchange pass's xlogx table: bounds its temporaries
XLOGX_BLOCK = 1 << 14

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


@cache
def _sparsetools():
    """scipy's sparse product loops, ``scipy.sparse._sparsetools``, loaded on
    first use from their extension file: importing the scipy.sparse package
    to reach them would add about 300 modules and 20 MB to every process
    that composes, and take 0.12 s."""
    scipy = importlib.util.find_spec("scipy")
    sparse = os.path.join(scipy.submodule_search_locations[0], "sparse") if scipy else ""
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(sparse, "_sparsetools" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.sparse._sparsetools", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError("the factor-map kernels need scipy (scipy.sparse._sparsetools)")


def _index(a, size: int, name: str) -> np.ndarray:
    """``a`` as a contiguous 1-D int64 array, checked to lie in ``range(size)``."""
    a = np.ascontiguousarray(np.asarray(a).astype(np.int64, casting="same_kind", copy=False))
    if a.ndim != 1 or a.size and (a.min() < 0 or a.max() >= size):
        raise IndexError(f"{name} must be 1-D, in range(0, {size})")
    return a


def _flat(a: np.ndarray, name: str, width: int) -> np.ndarray:
    """A C-contiguous float64 table ``width`` wide as a flat view, else raises."""
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[1] != width or not a.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous float64 array of {width} columns")
    return np.reshape(a, -1, copy=False)


def compose_rows(indptr, indices, data, table, out):
    """out[v] += sum_f multiplicity(v,f) * table[f] for every row v.

    scipy's CSR loop adds each term into its row of ``out`` in CSR order,
    once every index and shape is checked.
    """
    n, d = out.shape
    flat_out, flat_table = _flat(out, "out", d), _flat(table, "table", d)
    indices = _index(indices, table.shape[0], "indices")
    indptr = _index(indptr, indices.shape[0] + 1, "indptr")
    if (indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.shape[0]
            or data.shape != indices.shape or data.dtype != np.float64):
        raise ValueError("need an indptr of one more entry than out has rows, running "
                         "from 0 to the number of entries, and float64 data for each")
    _sparsetools().csr_matvecs(n, table.shape[0], d, indptr, indices, data, flat_table, flat_out)
    return out


def scatter_rows(rows, indices, data, grad_rows, out):
    """out[indices[e]] += data[e] * grad_rows[rows[e]] for each entry e of a
    map: the transpose of compose when rows[e] is the row holding entry e,
    or that row's place in a reordered grad_rows.

    Each run of entries with equal rows[e] is one column of scipy's CSC
    loop, so each factor row sums in entry order, a zero row's terms
    included, with the bits of ``np.add.at``; the inputs are checked first.
    """
    n, d = out.shape
    flat_out, _ = _flat(out, "out", d), _flat(grad_rows, "grad_rows", d)
    indices, rows = _index(indices, n, "indices"), _index(rows, grad_rows.shape[0], "rows")
    if not rows.shape == indices.shape == data.shape or data.dtype != np.float64:
        raise ValueError("need rows, indices and float64 data, one of each per entry")
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    _sparsetools().csc_matvecs(n, starts.shape[0], d, np.append(starts, rows.shape[0]),
                               indices, data, grad_rows[rows[starts]].reshape(-1), flat_out)
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


def _class_groups(cls, bounds):
    """(rows, lo, hi) of each class among the rows' classes ``cls``: its
    rows ascending, by one stable sort by class, and its members' rows
    lo:hi of the stacked tables, whose ``bounds`` they are."""
    order = np.argsort(cls, kind="stable")
    grouped = cls[order]
    cuts = np.flatnonzero(np.diff(grouped, prepend=-1)).tolist() + [len(cls)]
    first = grouped[cuts[:-1]]
    return list(zip([order[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])],
                    bounds[first].tolist(), bounds[first + 1].tolist()))


def _softmax(P, W, bias, pos):
    """Scores P @ W.T + bias, their log-normalizers, and the log
    probability of column pos[i] in row i."""
    scores = P @ W.T
    scores += bias
    lse = _logsumexp(scores)
    return scores, lse, scores[np.arange(len(pos)), pos] - lse


def _softmax_backward(P, W, scores, lse, pos, gW, gbias):
    """Gradients of -sum of ``_softmax``'s log probabilities: adds those
    of the weights and biases into gW and gbias (slices of the gradient
    tables, shaped as W and the biases), and returns those of the rows of P."""
    G = scores  # the forward is done with them
    G -= lse[:, None]
    np.exp(G, out=G)
    G[np.arange(len(pos)), pos] -= 1.0
    gW += G.T @ P
    gbias += G.sum(axis=0)
    return G @ W


def _log_norms(P, W, bias):
    """Log-normalizer of each row of P over the scores P @ W.T + bias, each
    row's scores one product computed alone (``row_products``)."""
    scores = row_products(P, W.T)
    scores += bias
    return _logsumexp(scores, overwrite=True)


def _target_logprobs(P, rows, SR, tb, norm_c, norm_w):
    """Log probability of target i from P[i] and its log-normalizers: its
    class row rows[0, i] and its own row rows[1, i] of the stacked tables SR
    and tb give its class and word scores, each one dot (``row_products``)."""
    scores = row_products(P, SR[rows][..., None])[..., 0]
    scores += tb[rows]
    return (scores[0] - norm_c) + (scores[1] - norm_w)


def classed_logprobs(p, targets, class_of, SR, tb, bounds, rows, logps):
    """Log probability of each target under the class-factored softmax, with
    the bits of ``Querier.log_prob``: every product is row by row.

    The tables are laid out as ``LanguageModel.table_layout`` describes.
    The class normalizers run on the calling thread beside the within-class
    ones (``parallel``), in tasks of at most ``SCORE_ROWS`` rows of one
    class.
    """
    cls = class_of[targets]
    norm_c, norm_w = np.empty_like(logps), np.empty_like(logps)

    def norms(out, at, lo, hi):
        out[at] = _log_norms(p[at], SR[lo:hi], tb[lo:hi])

    parallel([partial(norms, norm_c, slice(None), 0, bounds[0])]
             + [partial(norms, norm_w, at[i:i + SCORE_ROWS], lo, hi)
                for at, lo, hi in _class_groups(cls, bounds)
                for i in range(0, at.shape[0], SCORE_ROWS)], p.size)
    logps[:] = _target_logprobs(p, rows[:, targets], SR, tb, norm_c, norm_w)
    return logps


def classed_fwd_bwd(p, targets, class_of, SR, tb, bounds, rows, logps, dp, gSR, gtb):
    """``classed_logprobs``' log probabilities, on the same tables, through
    gemm softmaxes (other bits); adds the gradients of -sum(logps) into dp
    (prediction vectors) and gSR/gtb (laid out as SR/tb). The class softmax
    runs on the calling thread beside the within-class softmaxes; each class
    writes only its members' rows of gSR/gtb and its instances' rows of two
    per-row buffers, which are added to logps and dp last. Every row has one
    within-class term, so that is the serial order of adds.
    """
    K = bounds[0]
    col, own = rows[:, targets]
    within = np.empty_like(logps)
    dp_within = np.empty_like(dp)

    def class_softmax():
        scores, lse, logps[:] = _softmax(p, SR[:K], tb[:K], col)
        dp[:] += _softmax_backward(p, SR[:K], scores, lse, col, gSR[:K], gtb[:K])

    def within_class(at, lo, hi):
        P, W, pos = p[at], SR[lo:hi], own[at] - lo
        scores, lse, within[at] = _softmax(P, W, tb[lo:hi], pos)
        dp_within[at] = _softmax_backward(P, W, scores, lse, pos, gSR[lo:hi], gtb[lo:hi])

    parallel([class_softmax] + [partial(within_class, *g)
                                for g in _class_groups(class_of[targets], bounds)], p.size)
    logps += within
    dp += dp_within
    return logps


def _xlogx_table(total: int) -> np.ndarray:
    """X[n] = n * log(max(n, 1)) for n in 0..total, as float64.

    Built in place a block at a time, so its temporaries stay small, with
    the ufuncs that computing the same values on the fly would use.
    """
    X = np.arange(total + 1, dtype=np.float64)
    for block in np.split(X, range(XLOGX_BLOCK, total + 1, XLOGX_BLOCK)):
        block *= np.log(np.maximum(block, 1.0))
    return X


def exchange_pass(neighbours, class_of, num_classes, visit, moves):
    """One full exchange pass over ``visit``; returns the number of moves.

    ``neighbours`` is ``clustering._bigram_csr``'s map of the bigram counts
    (positive integers): each word's successors, then its predecessors
    shifted by the number of words n, and each word's out, in and self-loop
    totals. ``class_of`` is updated in place, and each move is appended to
    ``moves`` as (word, from_class, to_class).

    Each visited word is detached from its class and the gain of inserting
    it into each of the K classes is computed at once. It joins the first
    class of largest gain if that gain is strictly greater than its own
    class's, else it stays. A gain is a sum of ``xlogx(n + delta) -
    xlogx(n)`` terms added in a fixed order: one per class the word's
    successors touch, then one per class its predecessors touch (each in
    order of first touch), then the diagonal, minus the left-count and
    the right-count terms.

    The class-bigram, left and right counts and the class sizes are
    recounted from ``class_of`` at the start of the pass and held as int64,
    so detaching and attaching a word are exact integer adds, and
    re-inserting a word into its own class restores them; accepted moves
    therefore strictly increase the clustering objective. ``xlogx`` is read
    from a table of ``n * log(max(n, 1))`` for n up to the number of bigram
    tokens: one float64 per bigram token, held for the length of the pass.
    """
    indptr, entries, counts, out_tot, in_tot, self_loops = neighbours
    K = num_classes
    n = class_of.shape[0]
    diag, left, right = 2 * K, 2 * K + 1, 2 * K + 2
    # the class-bigram counts: each successor entry's pair, then each self loop
    succ = entries < n
    pairs = np.concatenate((np.repeat(class_of * K, np.diff(indptr))[succ]
                            + class_of[entries[succ]], class_of * (K + 1)))
    ncc = np.bincount(pairs, weights=np.concatenate((counts[succ], self_loops)),
                      minlength=K * K).reshape(K, K)
    del succ, pairs
    # an entry's key: a successor's class, or K plus a predecessor's class
    key_of = np.concatenate((class_of, class_of + K))
    # Column b of E holds the counts the gain terms of candidate class b read,
    # one row per key: row c is ncc[b, c] (successor class c), row K + c is
    # ncc[c, b] (predecessor class c), then ncc[b, b] and the left and right
    # counts of b. The candidate's own class has no successor or predecessor
    # term: cells (c, c) and (K + c, c) hold a sentinel so far below zero that
    # it stays negative whatever a pass adds, so take(mode="clip") reads X[0]
    # for it before and after and its term is 0.
    E = np.empty((2 * K + 3, K), dtype=np.int64)
    E[:K], E[K:diag], E[diag] = ncc.T, ncc, ncc.diagonal()
    E[left] = np.bincount(class_of, weights=out_tot, minlength=K)
    E[right] = np.bincount(class_of, weights=in_tot, minlength=K)
    own = np.arange(K)
    E[own, own] = E[K + own, own] = np.iinfo(np.int64).min // 4
    # d[r]: what the visited word adds to row r of its own class's column
    d = np.zeros(2 * K + 3, dtype=np.int64)
    o, i_ = d[:K], d[K:diag]
    X = _xlogx_table(int(out_tot.sum()))
    ptr, out_tot, in_tot, self_loops = (a.tolist() for a in (indptr, out_tot, in_tot, self_loops))
    cls, size = class_of.tolist(), np.bincount(class_of, minlength=K).tolist()
    before_pass = len(moves)
    for w in visit.tolist():
        a = cls[w]
        if size[a] <= 1 or (out_tot[w] == 0 and in_tot[w] == 0):
            continue
        lo, hi = ptr[w], ptr[w + 1]
        keys = key_of[entries[lo:hi]]
        d[:diag] = np.bincount(keys, weights=counts[lo:hi], minlength=2 * K)
        d[left] = out_tot[w]
        d[right] = in_tot[w]
        # the diagonal's increment, by candidate class
        inc = o + i_
        if self_loops[w]:
            inc += self_loops[w]

        # detach w from class a
        d[diag] = inc[a]
        E[:, a] -= d
        E[a] -= i_
        E[K + a] -= o

        # the gain terms in summation order (dict keys keep the first touch):
        # xlogx(after) - xlogx(before), where after = before + what w adds
        rows = np.array([*dict.fromkeys(keys.tolist()), diag, left, right])
        t = rows.shape[0] - 3
        before = E.take(rows, axis=0)
        d[diag] = 0
        after = before + d[rows][:, None]
        after[t] += inc
        terms = X.take(after, mode="clip")
        terms -= X.take(before, mode="clip")
        terms[t + 1:] *= -1.0
        gain = np.add.reduce(terms, axis=0)
        best = int(gain.argmax())
        if not gain[best] > gain[a]:
            best = a

        # attach w to the winning class
        d[diag] = inc[best]
        E[:, best] += d
        E[best] += i_
        E[K + best] += o
        size[a] -= 1
        size[best] += 1
        cls[w] = key_of[w] = best
        key_of[n + w] = K + best
        if best != a:
            moves.append((w, a, best))
    class_of[:] = cls
    return len(moves) - before_pass
