"""Vocabulary partitioning for the class-factored softmax.

Three constructors are available: exchange clustering that greedily
maximizes the average mutual information (AMI) of adjacent class pairs,
frequency binning into near-equal probability-mass bins, and loading an
externally produced partition file.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping

import numpy as np

from . import _kernels
from ._io import atomic_open, find, first_repeat, read_table
from .corpus import Vocabulary
from .errors import DataError


class ClassPartition:
    """Hard partition of the vocabulary into dense class ids."""

    def __init__(self, class_of: np.ndarray):
        self.class_of = np.asarray(class_of, dtype=np.int64)
        self.num_classes = int(self.class_of.max()) + 1 if self.class_of.size else 0
        if np.any(np.bincount(self.class_of, minlength=self.num_classes) == 0):
            raise DataError("every class must be non-empty")

    def group(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``words`` ordered by class, stably, and the CSR offsets of each class in it."""
        classes = self.class_of[words]
        indptr = np.zeros(self.num_classes + 1, dtype=np.int64)
        np.cumsum(np.bincount(classes, minlength=self.num_classes), out=indptr[1:])
        return words[np.argsort(classes, kind="stable")], indptr

    def __len__(self) -> int:
        return self.class_of.shape[0]

    def save(self, path: str | Path, vocab: Vocabulary) -> None:
        with atomic_open(path) as fh:
            fh.write("".join([f"{c}\t{w}\n" for c, w in
                              zip(self.class_of.tolist(), vocab.types, strict=True)]))


def default_num_classes(vocab_size: int) -> int:
    """Square-root rule: round(sqrt(|V|)), at least 1."""
    if vocab_size < 1:
        raise ValueError("vocabulary size must be positive")
    return max(1, int(round(math.sqrt(vocab_size))))


def _bigram_csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, num_words: int):
    """The neighbour map of bigram counts (row, col, count) that the exchange pass reads.

    Row w of the CSR map (indptr, entries, counts) lists w's successors v,
    then its predecessors u stored as num_words + u, each ascending; self
    loops are left out. One stable sort of the packed key
    ``word * 2 * num_words + entry`` orders it. Each word's total out count,
    total in count and self-loop count follow, as int64.
    """
    n2 = 2 * num_words
    loop = rows == cols
    totals = tuple(np.bincount(at, weights=w, minlength=num_words).astype(np.int64)
                   for at, w in ((rows, vals), (cols, vals), (rows[loop], vals[loop])))
    keep = np.flatnonzero(~loop)
    key = np.concatenate((rows[keep] * n2 + cols[keep],
                          cols[keep] * n2 + (rows[keep] + num_words)))
    order = np.argsort(key, kind="stable")
    key = key[order]
    counts = np.tile(vals[keep], 2)[order]
    del keep, order  # bigram-sized; free them before the next ones
    indptr = np.zeros(num_words + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n2, minlength=num_words), out=indptr[1:])
    np.remainder(key, n2, out=key)
    return (indptr, key, counts) + totals


def ami_of_partition(bigram_counts: Mapping[tuple[int, int], int],
                     class_of: np.ndarray) -> float:
    """Average mutual information of adjacent class pairs under a partition."""
    class_of = np.asarray(class_of, dtype=np.int64)
    total = float(sum(bigram_counts.values()))
    if total == 0.0:
        return 0.0
    ncc: dict[tuple[int, int], float] = {}
    lc: dict[int, float] = {}
    rc: dict[int, float] = {}
    for (u, v), cnt in bigram_counts.items():
        cu, cv = int(class_of[u]), int(class_of[v])
        ncc[(cu, cv)] = ncc.get((cu, cv), 0.0) + cnt
        lc[cu] = lc.get(cu, 0.0) + cnt
        rc[cv] = rc.get(cv, 0.0) + cnt
    ami = 0.0
    for (cu, cv), cnt in ncc.items():
        ami += (cnt / total) * math.log(cnt * total / (lc[cu] * rc[cv]))
    return ami


def _exchange_start(bigrams, num_words: int, num_classes: int):
    """Validate the counts; return their neighbour map (``_bigram_csr``), the
    initial partition and the words in descending mass order.

    ``bigrams`` is a (rows, cols, counts) triple of arrays (``cli._bigram_counts``)
    or a ``{(row, col): count}`` mapping, which is turned into that triple
    here. A function of its own so that its bigram-sized temporaries are
    freed before the exchange passes allocate theirs.
    """
    if isinstance(bigrams, Mapping):
        pairs = np.array(list(bigrams), dtype=np.int64).reshape(-1, 2)
        bigrams = pairs[:, 0], pairs[:, 1], list(bigrams.values())
    rows, cols = (np.asarray(a, dtype=np.int64) for a in bigrams[:2])
    vals = np.asarray(bigrams[2], dtype=np.float64)
    outside = (rows < 0) | (rows >= num_words) | (cols < 0) | (cols >= num_words)
    if outside.any():
        i = np.flatnonzero(outside)[0]
        raise DataError(f"bigram ({rows[i]}, {cols[i]}) outside vocabulary of size {num_words}")
    bad = ~(np.isfinite(vals) & (vals > 0) & (vals == np.floor(vals)))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise DataError(f"bigram ({rows[i]}, {cols[i]}) has count {float(vals[i]):g}; "
                        f"counts must be positive integers")
    neighbours = _bigram_csr(rows, cols, vals, num_words)
    mass = neighbours[3] + neighbours[4]
    nonzero = int((mass > 0).sum())
    if num_classes < 1:
        raise ValueError("need at least one class")
    if num_classes > nonzero:
        raise DataError(
            f"num_classes={num_classes} exceeds the {nonzero} word types with bigram mass")

    # descending mass, ties broken by lowest word id
    ranks = np.lexsort((np.arange(num_words), -mass))
    class_of = np.empty(num_words, dtype=np.int64)
    class_of[ranks] = np.arange(num_words) % num_classes
    return neighbours, class_of, ranks


def brown_cluster(bigrams, num_words: int, num_classes: int, max_iters: int = 20,
                  trace: list | None = None) -> ClassPartition:
    """Exchange clustering of word ids 0..num_words-1 into AMI-maximizing classes,
    from adjacent-pair counts as (rows, cols, counts) arrays (``cli._bigram_counts``)
    or as a ``{(row, col): count}`` mapping.

    Initialization assigns the num_classes highest-mass words to
    singleton classes and every other word to class (rank mod
    num_classes), mass being the word's total bigram occurrence count.
    Passes then move each word (in descending mass order) to the class
    with the largest AMI gain, preferring the current class on ties and
    the lowest class id among equal improvements, until a full pass
    makes no move or max_iters passes elapse. Words with zero bigram
    mass keep their initial class; no move may empty a class.

    Raises DataError for a bigram outside the vocabulary or a count that
    is not a positive integer. If ``trace`` is a list, accepted moves are
    appended to it as (word, from_class, to_class) tuples in order.
    """
    neighbours, class_of, visit = _exchange_start(bigrams, num_words, num_classes)
    for _ in range(max_iters):
        moves = [] if trace is None else trace
        if _kernels.exchange_pass(neighbours, class_of, num_classes, visit, moves) == 0:
            break
    return ClassPartition(class_of)


def frequency_bin(vocab: Vocabulary, num_classes: int) -> ClassPartition:
    """Contiguous frequency bins of near-equal unigram probability mass.

    Words are sorted by descending count (ties by id); a bin closes once
    its cumulative mass reaches its proportional share, or when exactly
    enough words remain to keep the later bins non-empty.
    """
    n = len(vocab)
    if num_classes < 1:
        raise ValueError("need at least one class")
    if num_classes > n:
        raise DataError(f"num_classes={num_classes} exceeds vocabulary size {n}")
    order = np.lexsort((np.arange(n), -vocab.counts))
    total = float(vocab.counts.sum())
    bins = []
    cum = 0.0
    bin_id = 0
    last = num_classes - 1
    for i, count in enumerate(vocab.counts[order].astype(np.float64).tolist()):
        bins.append(bin_id)
        cum += count
        if bin_id < last and (cum >= total * (bin_id + 1) / num_classes
                              or n - i - 1 == last - bin_id):
            bin_id += 1
    class_of = np.empty(n, dtype=np.int64)
    class_of[order] = bins
    return ClassPartition(class_of)


def load_partition(path: str | Path, vocab: Vocabulary) -> ClassPartition:
    """Load a ``class_id<TAB>word`` file covering every vocabulary word exactly once."""
    table = read_table(path, "class_id<TAB>word")
    cids, cid_fault = table.parse(int, 0, "class id")
    words = table.columns[1]
    wids = list(map(vocab.id_of.get, words))
    unknown = find(wids, None)
    table.check(cid_fault,
                table.fault_at(unknown, lambda i: f"word {words[i]!r} not in vocabulary"),
                table.fault_at(first_repeat(wids[:unknown]),
                               lambda i: f"word {words[i]!r} listed twice"))
    listed = np.zeros(len(vocab), dtype=bool)
    listed[wids] = True
    if not listed.all():
        missing = vocab.types[int(np.argmin(listed))]
        raise DataError(f"{path}: vocabulary word {missing!r} missing from partition")
    dense = {c: i for i, c in enumerate(sorted(set(cids)))}
    class_of = np.empty(len(vocab), dtype=np.int64)
    class_of[wids] = list(map(dense.__getitem__, cids))
    return ClassPartition(class_of)
