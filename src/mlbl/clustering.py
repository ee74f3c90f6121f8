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
from .corpus import Vocabulary
from .errors import DataError


class ClassPartition:
    """Hard partition of the vocabulary into dense class ids."""

    def __init__(self, class_of: np.ndarray):
        self.class_of = np.asarray(class_of, dtype=np.int64)
        self.num_classes = int(self.class_of.max()) + 1 if self.class_of.size else 0
        members: list[list[int]] = [[] for _ in range(self.num_classes)]
        for w, c in enumerate(self.class_of):
            members[c].append(w)
        if any(not m for m in members):
            raise DataError("every class must be non-empty")
        self.members = [np.asarray(m, dtype=np.int64) for m in members]

    def __len__(self) -> int:
        return self.class_of.shape[0]

    def save(self, path: str | Path, vocab: Vocabulary) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for w, c in enumerate(self.class_of):
                fh.write(f"{int(c)}\t{vocab.types[w]}\n")


def default_num_classes(vocab_size: int) -> int:
    """Square-root rule: round(sqrt(|V|)), at least 1."""
    if vocab_size < 1:
        raise ValueError("vocabulary size must be positive")
    return max(1, int(round(math.sqrt(vocab_size))))


def _bigram_csr(bigram_counts: Mapping[tuple[int, int], int], num_words: int):
    """Split bigram counts into outgoing and incoming CSR adjacency."""
    items = sorted(bigram_counts.items())
    n = len(items)
    out_rows = np.fromiter((u for (u, _), _ in items), dtype=np.int64, count=n)
    out_cols = np.fromiter((v for (_, v), _ in items), dtype=np.int64, count=n)
    vals = np.fromiter((c for _, c in items), dtype=np.float64, count=n)
    out_indptr = np.zeros(num_words + 1, dtype=np.int64)
    np.add.at(out_indptr, out_rows + 1, 1)
    out_indptr = np.cumsum(out_indptr)

    order = np.lexsort((out_rows, out_cols))
    in_cols = out_rows[order]
    in_vals = vals[order]
    in_rows = out_cols[order]
    in_indptr = np.zeros(num_words + 1, dtype=np.int64)
    np.add.at(in_indptr, in_rows + 1, 1)
    in_indptr = np.cumsum(in_indptr)
    return (out_indptr, out_cols, vals), (in_indptr, in_cols, in_vals)


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


def brown_cluster(bigram_counts: Mapping[tuple[int, int], int], num_words: int,
                  num_classes: int, max_iters: int = 20,
                  trace: list | None = None) -> ClassPartition:
    """Exchange clustering of word ids 0..num_words-1 into AMI-maximizing classes.

    Initialization assigns the num_classes highest-mass words to
    singleton classes and every other word to class (rank mod
    num_classes), mass being the word's total bigram occurrence count.
    Passes then move each word (in descending mass order) to the class
    with the largest AMI gain, preferring the current class on ties and
    the lowest class id among equal improvements, until a full pass
    makes no move or max_iters passes elapse. Words with zero bigram
    mass keep their initial class; no move may empty a class.

    If ``trace`` is a list, accepted moves are appended to it as
    (word, from_class, to_class) tuples in order.
    """
    mass = np.zeros(num_words, dtype=np.int64)
    for (u, v), cnt in bigram_counts.items():
        if not (0 <= u < num_words and 0 <= v < num_words):
            raise DataError(f"bigram ({u}, {v}) outside vocabulary of size {num_words}")
        mass[u] += cnt
        mass[v] += cnt
    nonzero = int((mass > 0).sum())
    if num_classes < 1:
        raise ValueError("need at least one class")
    if num_classes > nonzero:
        raise DataError(
            f"num_classes={num_classes} exceeds the {nonzero} word types with bigram mass")

    # descending mass, ties broken by lowest word id
    ranks = np.lexsort((np.arange(num_words), -mass))
    class_of = np.empty(num_words, dtype=np.int64)
    for rank, w in enumerate(ranks):
        class_of[w] = rank if rank < num_classes else rank % num_classes

    (out_indptr, out_cols, out_vals), (in_indptr, in_cols, in_vals) = \
        _bigram_csr(bigram_counts, num_words)

    K = num_classes
    ncc = np.zeros((K, K), dtype=np.float64)
    lcnt = np.zeros(K, dtype=np.float64)
    rcnt = np.zeros(K, dtype=np.float64)
    for (u, v), cnt in bigram_counts.items():
        cu, cv = class_of[u], class_of[v]
        ncc[cu, cv] += cnt
        lcnt[cu] += cnt
        rcnt[cv] += cnt
    csize = np.bincount(class_of, minlength=K).astype(np.int64)

    visit = ranks
    mv_w = np.empty(num_words, dtype=np.int64)
    mv_from = np.empty(num_words, dtype=np.int64)
    mv_to = np.empty(num_words, dtype=np.int64)
    for _ in range(max_iters):
        nmoves = _kernels.exchange_pass(
            out_indptr, out_cols, out_vals, in_indptr, in_cols, in_vals,
            class_of, ncc, lcnt, rcnt, csize, visit, mv_w, mv_from, mv_to)
        if trace is not None:
            for i in range(nmoves):
                trace.append((int(mv_w[i]), int(mv_from[i]), int(mv_to[i])))
        if nmoves == 0:
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
    class_of = np.empty(n, dtype=np.int64)
    cum = 0.0
    bin_id = 0
    for i, w in enumerate(order):
        class_of[w] = bin_id
        cum += float(vocab.counts[w])
        words_left = n - i - 1
        bins_left = num_classes - bin_id - 1
        if bins_left == 0:
            continue
        if cum >= total * (bin_id + 1) / num_classes or words_left == bins_left:
            bin_id += 1
    return ClassPartition(class_of)


def load_partition(path: str | Path, vocab: Vocabulary) -> ClassPartition:
    """Load a ``class_id<TAB>word`` file covering every vocabulary word exactly once."""
    raw: dict[int, int] = {}
    file_classes: set[int] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected class_id<TAB>word")
            try:
                cid = int(parts[0])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad class id {parts[0]!r}") from exc
            word = parts[1]
            wid = vocab.id_of.get(word)
            if wid is None:
                raise DataError(f"{path}:{lineno}: word {word!r} not in vocabulary")
            if wid in raw:
                raise DataError(f"{path}:{lineno}: word {word!r} listed twice")
            raw[wid] = cid
            file_classes.add(cid)
    missing = [vocab.types[w] for w in range(len(vocab)) if w not in raw]
    if missing:
        raise DataError(f"{path}: vocabulary word {missing[0]!r} missing from partition")
    dense = {c: i for i, c in enumerate(sorted(file_classes))}
    class_of = np.asarray([dense[raw[w]] for w in range(len(vocab))], dtype=np.int64)
    return ClassPartition(class_of)
