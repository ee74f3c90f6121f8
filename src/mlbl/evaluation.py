"""Perplexity with diagnostic breakdowns, and word-similarity scoring.

Perplexity is exp(-(1/N) sum ln P(w_i)) over all predicted tokens,
including UNK targets (the model reserves UNK mass; comparisons are
only meaningful at a fixed vocabulary). Breakdowns group tokens by
training-corpus frequency decade or by externally supplied labels.
Similarity evaluation scores cosine of concatenated [context; target]
vectors against human ratings with Spearman's rank correlation; given
segmentations, out-of-vocabulary vectors are composed from known
morphological factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import _kernels
from ._io import find, read_table
from .corpus import (PAD_TOKEN, UNK_ID, UNK_TOKEN, Vocabulary, index_tokens, ngram_arrays,
                     normalize_token, read_sentences)
from .errors import DataError
from .model import LanguageModel

UNSEEN_BIN = "unseen"
REST_LABEL = "Rest"
UNLABELED = "-"


@dataclass
class GroupStat:
    ppl: float
    share: float
    count: int
    nll: float


@dataclass
class EvalReport:
    total_ppl: float
    token_count: int
    groups: dict[str, GroupStat] = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = [f"tokens {self.token_count}  ppl {self.total_ppl:.4f}"]
        for label, g in self.groups.items():
            out.append(f"  {label:>12}  ppl {g.ppl:>12.4f}  share {g.share:7.4f}  n {g.count}")
        return out


@dataclass
class EvalCorpus:
    """Test text prepared for scoring: instance arrays, aligned surfaces, sentence lengths."""

    contexts: np.ndarray
    targets: np.ndarray
    surfaces: list[str]
    lengths: np.ndarray


def prepare_eval_corpus(vocab: Vocabulary, sentences: Sequence[Sequence[str]],
                        n: int) -> EvalCorpus:
    """Normalize, map through the vocabulary (OOV -> UNK) and extract instances,
    on the flat form of ``Vocabulary.encode_corpus``."""
    types, index, lengths = index_tokens(sentences)
    if not index.size:
        raise DataError("empty test set")
    ids = np.fromiter(map(vocab.lookup, types), np.int64, len(types))[index]
    contexts, targets = ngram_arrays(ids, lengths, n)
    return EvalCorpus(contexts, targets, list(map(types.__getitem__, index.tolist())), lengths)


def load_eval_corpus(path: str | Path, vocab: Vocabulary, n: int) -> EvalCorpus:
    sentences = list(read_sentences(path))
    if not sentences:
        raise DataError(f"{path}: no tokens to score")
    return prepare_eval_corpus(vocab, sentences, n)


def report_from_logps(logps: np.ndarray,
                      group_labels: Optional[Sequence[str]] = None) -> EvalReport:
    """Assemble perplexities from per-token log probabilities.

    Group perplexities decompose the total: the token-share weighted
    mean of group log-perplexities equals the total log-perplexity.
    """
    n = logps.shape[0]
    if n == 0:
        raise DataError("no scored tokens")
    total_nll = -float(logps.sum())
    report = EvalReport(total_ppl=math.exp(total_nll / n), token_count=n)
    if group_labels is not None:
        if len(group_labels) != n:
            raise DataError(f"{len(group_labels)} labels for {n} tokens")
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for lp, lab in zip(logps, group_labels):
            sums[lab] = sums.get(lab, 0.0) - float(lp)
            counts[lab] = counts.get(lab, 0) + 1
        for lab in sorted(sums):
            c = counts[lab]
            report.groups[lab] = GroupStat(
                ppl=math.exp(sums[lab] / c), share=c / n, count=c, nll=sums[lab])
    return report


@_kernels.one_blas_thread()
def perplexity(model: LanguageModel, contexts: np.ndarray, targets: np.ndarray,
               labels: Optional[Sequence[str]] = None) -> EvalReport:
    """Corpus perplexity over all predicted (non-PAD) tokens, grouped by a
    per-token label when ``labels`` are given (``frequency_labels``,
    ``stream_labels``). Each token's log probability has the bits of
    ``Querier.log_prob`` (``LanguageModel.logprobs_batch``) at any BLAS
    thread count. OpenBLAS still runs at one thread meanwhile
    (``_kernels.one_blas_thread``), so that the worker threads of
    ``_kernels.parallel``, not OpenBLAS, take the second core. An empty
    test set raises DataError (``report_from_logps``)."""
    return report_from_logps(model.logprobs_batch(contexts, targets), labels)


def frequency_bin_label(count: int) -> str:
    """Decade bin of a training count: "unseen" for 0, otherwise floor(log10)."""
    if count <= 0:
        return UNSEEN_BIN
    return str(int(math.floor(math.log10(count))))


def frequency_labels(vocab: Vocabulary, surfaces: Sequence[str],
                     train_counts: Optional[Mapping[str, int]] = None) -> list[str]:
    """Each test token's bin by how often its type was seen in training.

    A bin labelled x holds tokens whose type occurred in [10^x, 10^(x+1))
    training tokens; types never seen in training fall in "unseen". By
    default counts come from the vocabulary, so pruned singletons count
    as unseen; pass raw pre-pruning counts to bin by true corpus frequency.
    The reserved symbols are never a seen type, whatever the counts say.
    """
    if train_counts is None:
        train_counts = zip(vocab.types, vocab.counts.tolist())
    counts = dict(train_counts)
    counts.pop(UNK_TOKEN, None)
    counts.pop(PAD_TOKEN, None)
    return [frequency_bin_label(counts.get(s, 0)) for s in surfaces]


def stream_labels(labels: Sequence[str]) -> list[str]:
    """A per-token label stream with each "-" grouped under "Rest"."""
    return [REST_LABEL if lab == UNLABELED else lab for lab in labels]


def read_labels(path: str | Path, lengths: np.ndarray) -> list[str]:
    """``stream_labels`` of a file whose i-th non-blank line labels each token
    of the i-th test sentence (``EvalCorpus.lengths``), checked line by line."""
    with open(path, encoding="utf-8") as fh:
        rows = [(lineno, row) for lineno, line in enumerate(fh, 1) if (row := line.split())]
    end = (rows[-1][0] if rows else 0) + 1   # the line a missing row would be on
    rows += [(end, [])] * (len(lengths) - len(rows))
    counts = lengths.tolist() + [0] * (len(rows) - len(lengths))
    for (lineno, row), count in zip(rows, counts):
        if len(row) != count:
            raise DataError(f"{path}:{lineno}: {len(row)} labels for {count} tokens")
    return stream_labels([lab for _, row in rows for lab in row])


# ----------------------------------------------------------------------
# word similarity
# ----------------------------------------------------------------------

@dataclass
class SimilarityDataset:
    pairs: list[tuple[str, str, float]]

    @classmethod
    def load(cls, path: str | Path) -> "SimilarityDataset":
        table = read_table(path, "word1<TAB>word2<TAB>rating")
        ratings, fault = table.parse(float, 2, "rating")
        table.check(fault, table.fault_at(find(list(map(math.isfinite, ratings)), False),
                                          lambda i: "rating must be finite"))
        if not ratings:
            raise DataError(f"{path}: empty similarity dataset")
        return cls(list(zip(*table.columns[:2], ratings)))


@dataclass
class SimilarityResult:
    model_scores: list[float]
    rho: float
    oov_count: int
    zero_vector_pairs: int


def cosine(u: np.ndarray, v: np.ndarray) -> tuple[float, bool]:
    """Cosine similarity; a zero vector yields (0.0, flagged=True)."""
    duu = float(np.dot(u, u))
    dvv = float(np.dot(v, v))
    if duu == 0.0 or dvv == 0.0:
        return 0.0, True
    return float(np.dot(u, v) / math.sqrt(duu * dvv)), False


def word_vector(model: LanguageModel, word: str,
                segs: Optional[Mapping[str, list[str]]] = None) -> tuple[np.ndarray, bool]:
    """The [context; target] vector of a raw word, and whether it is unknown.

    An unknown word's additive sides sum its known factor vectors (its surface
    factor and its morphemes in ``segs``; ``LanguageModel.compose_unknown``).
    Other sides, and a word with no known factor, take the UNK vector. Surface
    factors exist for vocabulary types only: without ``segs`` that is every
    unknown word."""
    token = normalize_token(word)
    wid = model.vocab.find(token)
    if wid is not None:
        return np.concatenate([model.params.Q[wid], model.params.R[wid]]), False
    q, r = model.compose_unknown(token, segs)
    return np.concatenate([model.params.Q[UNK_ID] if q is None else q,
                           model.params.R[UNK_ID] if r is None else r]), True


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """Ranks from 1..n with ties receiving the average of their positions: one
    stable argsort, then each run of equal sorted values gets the mean of its
    positions (a NaN equals nothing, so it ranks alone, after every number)."""
    a = np.asarray(values, dtype=np.float64)
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], a.shape[0]]
    ranks = np.empty(a.shape[0], dtype=np.float64)
    ranks[order] = np.repeat((starts + ends - 1) / 2.0 + 1.0, ends - starts)
    return ranks


def spearman(model_scores: Sequence[float], human: Sequence[float]) -> float:
    """Spearman's rho: Pearson correlation of average-ranked data.

    Returns NaN when either input is constant (the correlation is
    undefined, not zero).
    """
    if len(model_scores) != len(human):
        raise ValueError("score lists must have equal length")
    if len(model_scores) < 2:
        raise ValueError("need at least two pairs")
    rx = average_ranks(model_scores)
    ry = average_ranks(human)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = float((dx * dx).sum())
    vy = float((dy * dy).sum())
    if vx == 0.0 or vy == 0.0:
        return float("nan")
    return float((dx * dy).sum() / math.sqrt(vx * vy))


def evaluate_similarity(model: LanguageModel, dataset: SimilarityDataset,
                        segs: Optional[Mapping[str, list[str]]] = None) -> SimilarityResult:
    """Cosine of each pair's ``word_vector``s and their Spearman correlation
    with the human ratings (NaN when undefined). Unknown words are composed
    from their known factors exactly when ``segs`` are given."""
    scores = []
    oov = flagged = 0
    for w1, w2, _ in dataset.pairs:
        u, oov1 = word_vector(model, w1, segs)
        v, oov2 = word_vector(model, w2, segs)
        sim, zero = cosine(u, v)
        scores.append(sim)
        oov += oov1 + oov2
        flagged += zero
    rho = (spearman(scores, [r for _, _, r in dataset.pairs]) if len(scores) >= 2
           else float("nan"))
    return SimilarityResult(model_scores=scores, rho=rho, oov_count=oov,
                            zero_vector_pairs=flagged)

