"""Perplexity with diagnostic breakdowns, and word-similarity scoring.

Perplexity is exp(-(1/N) sum ln P(w_i)) over all predicted tokens,
including UNK targets (the model reserves UNK mass; comparisons are
only meaningful at a fixed vocabulary). Breakdowns group tokens by
training-corpus frequency decade or by externally supplied labels.
Similarity evaluation scores cosine of concatenated [context; target]
vectors against human ratings with Spearman's rank correlation, with
out-of-vocabulary vectors composed from known morphological factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import _kernels
from ._io import find, read_table
from .corpus import (PAD_TOKEN, UNK_TOKEN, Vocabulary, map_types, ngram_arrays,
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
    """Test text prepared for scoring: instance arrays plus aligned surfaces."""

    contexts: np.ndarray
    targets: np.ndarray
    surfaces: list[str]


def prepare_eval_corpus(vocab: Vocabulary, sentences: Sequence[Sequence[str]],
                        n: int) -> EvalCorpus:
    """Normalize, map through the vocabulary (OOV -> UNK) and extract instances."""
    normalized = map_types(normalize_token, sentences)
    surfaces = list(itertools.chain.from_iterable(normalized))
    if not surfaces:
        raise DataError("empty test set")
    contexts, targets = ngram_arrays(map_types(vocab.lookup, normalized), n)
    return EvalCorpus(contexts, targets, surfaces)


def load_eval_corpus(path: str | Path, vocab: Vocabulary, n: int) -> EvalCorpus:
    return prepare_eval_corpus(vocab, list(read_sentences(path)), n)


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
    ``stream_labels``). OpenBLAS runs at one thread meanwhile
    (``_kernels.one_blas_thread``), so the bits do not depend on its
    thread count."""
    if targets.shape[0] == 0:
        raise DataError("empty test set")
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
    human_scores: list[float]
    rho: float
    rho_defined: bool
    oov_count: int
    zero_vector_pairs: int


def cosine(u: np.ndarray, v: np.ndarray) -> tuple[float, bool]:
    """Cosine similarity; a zero vector yields (0.0, flagged=True)."""
    duu = float(np.dot(u, u))
    dvv = float(np.dot(v, v))
    if duu == 0.0 or dvv == 0.0:
        return 0.0, True
    return float(np.dot(u, v) / math.sqrt(duu * dvv)), False


class SimilarityScorer:
    """Builds [context; target] vectors for arbitrary words, composing OOVs.

    In compose mode an out-of-vocabulary word gets, on each additive side,
    the sum of its known factor vectors (surface form plus segmentation
    morphemes; ``LanguageModel.compose_unknown``). A side that is not
    additive, or a word with no known factor, takes the UNK vector, as
    does every OOV word with composition disabled.
    """

    def __init__(self, model: LanguageModel, segs: Optional[Mapping[str, list[str]]] = None,
                 compose: bool = True):
        self.model = model
        self.segs = segs
        self.compose = compose

    def vector(self, word: str) -> tuple[np.ndarray, bool]:
        """The 2d-vector for a word and whether the word was OOV."""
        model = self.model
        token = normalize_token(word)
        wid = model.vocab.find(token)
        if wid is not None:
            return np.concatenate([model.params.Q[wid], model.params.R[wid]]), False
        q, r = model.compose_unknown(token, self.segs) if self.compose else (None, None)
        unk = model.vocab.unk_id
        return np.concatenate([model.params.Q[unk] if q is None else q,
                               model.params.R[unk] if r is None else r]), True

    def pair(self, w1: str, w2: str) -> tuple[float, int, bool]:
        """Cosine of the pair's vectors, OOV count and zero-vector flag."""
        u, oov1 = self.vector(w1)
        v, oov2 = self.vector(w2)
        sim, flagged = cosine(u, v)
        return sim, int(oov1) + int(oov2), flagged


def pair_similarity(model: LanguageModel, w1: str, w2: str,
                    segs: Optional[Mapping[str, list[str]]] = None,
                    compose: bool = True) -> float:
    return SimilarityScorer(model, segs, compose).pair(w1, w2)[0]


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """Ranks from 1..n with ties receiving the average of their positions."""
    a = np.asarray(values, dtype=np.float64)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.shape[0], dtype=np.float64)
    i = 0
    while i < a.shape[0]:
        j = i
        while j + 1 < a.shape[0] and a[order[j + 1]] == a[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
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
                        segs: Optional[Mapping[str, list[str]]] = None,
                        compose: bool = True) -> SimilarityResult:
    scorer = SimilarityScorer(model, segs, compose)
    scores = []
    oov = 0
    flagged = 0
    for w1, w2, _ in dataset.pairs:
        sim, n_oov, zero = scorer.pair(w1, w2)
        scores.append(sim)
        oov += n_oov
        flagged += int(zero)
    human = [r for _, _, r in dataset.pairs]
    rho = spearman(scores, human) if len(scores) >= 2 else float("nan")
    return SimilarityResult(model_scores=scores, human_scores=human, rho=rho,
                            rho_defined=not math.isnan(rho), oov_count=oov,
                            zero_vector_pairs=flagged)


def nearest_neighbors(query: str | np.ndarray, words: Sequence[str],
                      matrix: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Top-k rows by cosine; a word query is excluded from its own results.

    Ties are broken by row order (lowest id first).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    exclude = -1
    if isinstance(query, str):
        try:
            exclude = list(words).index(query)
        except ValueError as exc:
            raise DataError(f"query word {query!r} not in the table") from exc
        qvec = matrix[exclude]
    else:
        qvec = np.asarray(query, dtype=np.float64)
    qn = np.linalg.norm(qvec)
    norms = np.linalg.norm(matrix, axis=1)
    sims = np.zeros(matrix.shape[0], dtype=np.float64)
    ok = (norms > 0)
    if qn > 0:
        sims[ok] = (matrix[ok] @ qvec) / (norms[ok] * qn)
    if exclude >= 0:
        sims[exclude] = -np.inf
    order = np.lexsort((np.arange(len(sims)), -sims))
    top = order[:k]
    return [(words[i], float(sims[i])) for i in top]
