"""The log-bilinear scorer family.

A prediction vector is formed from the compiled context vectors of the
n-1 preceding words through position-specific transforms; the target
word's score is the dot product with its compiled target vector plus a
bias. Probabilities come from a class softmax times a within-class
softmax; a flat model is the one-class case, its one class holding every
scorable word. The padding symbol is never a prediction target and is
excluded from every normalization scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from . import _kernels
from .clustering import ClassPartition
from .corpus import PAD_ID, Vocabulary, normalize_token
from .errors import ModelFormatError
from .morphology import (FactorVocabulary, WordFactorization, compile_word_table,
                         compose_vector, known_factors)

VARIANTS = {
    "lbl": (False, False, False),
    "lbl+c": (True, False, False),
    "lbl+o": (False, True, False),
    "lbl++": (True, True, False),
    "clbl": (False, False, True),
    "clbl+c": (True, False, True),
    "clbl+o": (False, True, True),
    "clbl++": (True, True, True),
}

# instances ``logprobs_batch`` scores per block
BATCH_ROWS = 8192


@dataclass(frozen=True)
class ModelConfig:
    """Model order, dimensionality and variant flags."""

    n: int
    d: int
    context_additive: bool = False
    output_additive: bool = False
    class_based: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n-gram order must be >= 2")
        if self.d < 1:
            raise ValueError("embedding dimension must be >= 1")

    @property
    def variant(self) -> str:
        for name, flags in VARIANTS.items():
            if flags == (self.context_additive, self.output_additive, self.class_based):
                return name
        raise AssertionError

    @classmethod
    def from_variant(cls, variant: str, n: int, d: int) -> "ModelConfig":
        key = variant.lower()
        if key not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; choose from {sorted(VARIANTS)}")
        c, o, cb = VARIANTS[key]
        return cls(n=n, d=d, context_additive=c, output_additive=o, class_based=cb)


class ModelParameters:
    """All trainable blocks plus the compiled word-table caches.

    ``C`` holds the n-1 position transforms (each d-by-d), ``Qf``/``Rf``
    the context/target factor tables, ``b`` the word biases, and
    ``S``/``t`` the class vectors and biases when the model is
    class-factored. ``Q``/``R`` are the compiled word tables; they are
    caches, rebuilt from the factor tables, never trained directly.
    """

    def __init__(self, C: np.ndarray, Qf: np.ndarray, Rf: np.ndarray, b: np.ndarray,
                 S: Optional[np.ndarray] = None, t: Optional[np.ndarray] = None):
        self.C = np.ascontiguousarray(C, dtype=np.float64)
        self.Qf = np.ascontiguousarray(Qf, dtype=np.float64)
        self.Rf = np.ascontiguousarray(Rf, dtype=np.float64)
        self.b = np.ascontiguousarray(b, dtype=np.float64)
        self.S = None if S is None else np.ascontiguousarray(S, dtype=np.float64)
        self.t = None if t is None else np.ascontiguousarray(t, dtype=np.float64)
        self.Q: Optional[np.ndarray] = None
        self.R: Optional[np.ndarray] = None

    def blocks(self) -> dict[str, np.ndarray]:
        """Trainable blocks in canonical order (excludes compiled caches)."""
        out = {"C": self.C, "Qf": self.Qf, "Rf": self.Rf, "b": self.b}
        if self.S is not None:
            out["S"] = self.S
            out["t"] = self.t
        return out

    @classmethod
    def zeros_like(cls, other: "ModelParameters") -> "ModelParameters":
        """Zero blocks shaped like other's, e.g. to accumulate gradients in."""
        return cls(*(None if block is None else np.zeros_like(block) for block in
                     (other.C, other.Qf, other.Rf, other.b, other.S, other.t)))

    def copy(self) -> "ModelParameters":
        return ModelParameters(
            self.C.copy(), self.Qf.copy(), self.Rf.copy(), self.b.copy(),
            None if self.S is None else self.S.copy(),
            None if self.t is None else self.t.copy())

    def set_from(self, other: "ModelParameters") -> None:
        for name, block in self.blocks().items():
            block[...] = other.blocks()[name]


class NormalizerCache:
    """Memo of the context-specific terms of a query.

    One entry per context key holds the context's prediction vector and
    its class log-normalizer, computed together the first time the key is
    seen: about (d+1)*8 bytes of numbers plus Python object overhead. One
    entry per (context key, class id) holds that class's within-class
    log-normalizer. Every value is exactly what the fresh computation
    produces, so cached and uncached queries agree bitwise.

    At most ``capacity`` contexts are held. A new context that would
    exceed it first drops every entry and adds their number to
    ``evictions``, so the cache stays bounded in a long stream at
    amortized O(1) cost per miss and none per hit.
    """

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.contexts: dict[tuple, tuple[np.ndarray, float]] = {}
        self.words: dict[tuple, float] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self.contexts) + len(self.words)

    def clear(self) -> None:
        self.contexts.clear()
        self.words.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def context(self, key: tuple, compute: Callable[[], tuple[np.ndarray, float]]
                ) -> tuple[np.ndarray, float]:
        """The (prediction vector, class log-normalizer) of a context key;
        a miss computes and stores them."""
        entry = self.contexts.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        if len(self.contexts) >= self.capacity:
            self.evictions += len(self)
            self.contexts.clear()
            self.words.clear()
        entry = self.contexts[key] = compute()
        return entry

    def word_norm(self, key: tuple, c: int, compute: Callable[[], float]) -> float:
        """The within-class log-normalizer of class c after a context key;
        a miss computes and stores it."""
        value = self.words.get((key, c))
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = self.words[key, c] = compute()
        return value


@dataclass
class QueryStats:
    """Operation counters for the query path (one unit = one scored vector)."""

    score_ops: int = 0

    def reset(self) -> None:
        self.score_ops = 0


class LanguageModel:
    """Bundles configuration, vocabulary, factorization, classes and parameters."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary,
                 factor_vocab: FactorVocabulary, factorization: WordFactorization,
                 params: ModelParameters, partition: Optional[ClassPartition] = None):
        if factorization.num_words != len(vocab):
            raise ModelFormatError("factorization rows do not match vocabulary size")
        if config.class_based:
            if partition is None:
                raise ModelFormatError("class-factored model requires a partition")
            if len(partition) != len(vocab):
                raise ModelFormatError("partition does not cover the vocabulary")
        self.config = config
        self.vocab = vocab
        self.factor_vocab = factor_vocab
        self.factorization = factorization
        self.partition = partition if config.class_based else None
        self.params = params

        V = len(vocab)
        identity = WordFactorization(np.arange(V + 1), np.arange(V), np.ones(V), V)
        self.mq = factorization if config.context_additive else identity
        self.mr = factorization if config.output_additive else identity
        nfq = len(factor_vocab) if config.context_additive else V
        nfr = len(factor_vocab) if config.output_additive else V
        if params.Qf.shape != (nfq, config.d):
            raise ModelFormatError(
                f"context factor table is {params.Qf.shape}, expected {(nfq, config.d)}")
        if params.Rf.shape != (nfr, config.d):
            raise ModelFormatError(
                f"target factor table is {params.Rf.shape}, expected {(nfr, config.d)}")
        if params.b.shape != (V,):
            raise ModelFormatError("bias vector does not match vocabulary size")

        scorable = np.arange(V, dtype=np.int64)
        self.scorable_ids = scorable[scorable != PAD_ID]
        if not config.class_based:
            # a flat model is the one-class case: one class holds every
            # word, with a class vector and bias fixed at zero that are
            # never trained or stored
            partition = ClassPartition(np.zeros(V, dtype=np.int64))
            self._one_class = (np.zeros((1, config.d)), np.zeros(1))
        self.class_of = partition.class_of
        self.members_flat, self.members_indptr = partition.group(self.scorable_ids)
        self.scorable_classes = np.flatnonzero(np.diff(self.members_indptr))
        self.recompile()

    # ------------------------------------------------------------------
    # compiled tables
    # ------------------------------------------------------------------

    def recompile(self) -> None:
        """Drop the class-ordered copy of R the query path builds, then
        rebuild the compiled word tables Q and R from the factor tables."""
        self._R_by_class: Optional[np.ndarray] = None
        self.params.Q = compile_word_table(self.mq, self.params.Qf)
        self.params.R = compile_word_table(self.mr, self.params.Rf)

    def compose_unknown(self, token: str, segs: Optional[Mapping[str, list[str]]]
                        ) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Context and target vectors of an unknown normalized token.

        On an additive side the vector is the sum of the token's known
        factor vectors (its surface factor and its morphemes in ``segs``).
        A side that is not additive, or a token with no known factor, gets
        None: the caller uses the UNK row.
        """
        items = known_factors(self.factor_vocab, segs, token)
        cfg = self.config
        q = compose_vector(self.params.Qf, items) if items and cfg.context_additive else None
        r = compose_vector(self.params.Rf, items) if items and cfg.output_additive else None
        return q, r

    @property
    def class_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Class vectors S and biases t (fixed zeros for a flat model's one class)."""
        if self.config.class_based:
            return self.params.S, self.params.t
        return self._one_class

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def predict(self, vectors) -> np.ndarray:
        """Prediction vector: sum of the n-1 context vectors, each through its
        position transform. The vectors are compiled rows of Q, or vectors
        composed for unknown words."""
        if len(vectors) != self.config.n - 1:
            raise ValueError(f"context must have {self.config.n - 1} vectors")
        p = np.zeros(self.config.d, dtype=np.float64)
        for j, q in enumerate(vectors):
            p += q @ self.params.C[j]
        return p

    def _log_norm_words(self, p: np.ndarray, c: int, stats: Optional[QueryStats]) -> float:
        # the rows of R in class order, built on the first query, so a
        # class's members are one contiguous slice instead of a gather
        if self._R_by_class is None:
            self._R_by_class = self.params.R[self.members_flat]
        lo, hi = int(self.members_indptr[c]), int(self.members_indptr[c + 1])
        if stats is not None:
            stats.score_ops += hi - lo
        b = self.params.b[self.members_flat[lo:hi]]
        return float(_kernels._logsumexp(self._R_by_class[lo:hi] @ p + b))

    def _log_norm_classes(self, p: np.ndarray, stats: Optional[QueryStats]) -> float:
        ids = self.scorable_classes
        if stats is not None:
            stats.score_ops += len(ids)
        S, t = self.class_tables
        return float(_kernels._logsumexp(S[ids] @ p + t[ids]))

    def log_prob_at(self, vectors, key: tuple, w: int,
                    cache: Optional[NormalizerCache] = None,
                    stats: Optional[QueryStats] = None) -> float:
        """Log probability of w after the n-1 context vectors, which the
        context key names in the normalizer cache.

        The prediction vector and the class log-normalizer depend on the
        context alone and are cached per key, so a hit skips ``predict``;
        the within-class log-normalizer is cached per key and class. The
        class score p . s_c + t_c and the word score p . r_w + b_w are
        always computed fresh, so a warm cache answers a query with two
        score operations.
        """
        if w == PAD_ID:
            raise ValueError("the padding symbol is never scored as a target")
        c = int(self.class_of[w])

        def context_terms() -> tuple[np.ndarray, float]:
            p = self.predict(vectors)
            return p, self._log_norm_classes(p, stats)

        if cache is None:
            p, norm_c = context_terms()
            norm_w = self._log_norm_words(p, c, stats)
        else:
            p, norm_c = cache.context(key, context_terms)
            norm_w = cache.word_norm(key, c, lambda: self._log_norm_words(p, c, stats))
        if stats is not None:
            stats.score_ops += 2
        S, t = self.class_tables
        tau = float(np.dot(p, S[c]) + t[c])
        nu = float(np.dot(p, self.params.R[w]) + self.params.b[w])
        return (tau - norm_c) + (nu - norm_w)

    # ------------------------------------------------------------------
    # batched evaluation
    # ------------------------------------------------------------------

    def predictions_batch(self, contexts: np.ndarray) -> np.ndarray:
        Qc = self.params.Q[contexts]
        p = np.zeros((contexts.shape[0], self.config.d), dtype=np.float64)
        for j in range(self.config.n - 1):
            p += Qc[:, j, :] @ self.params.C[j]
        return p

    def logprobs_batch(self, contexts: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per-instance log probabilities for evaluation, from the compiled
        tables as they are: call ``recompile`` after changing factor tables."""
        targets = np.asarray(targets, dtype=np.int64)
        contexts = np.asarray(contexts, dtype=np.int64)
        out = np.empty(targets.shape[0], dtype=np.float64)
        S, t = self.class_tables
        for lo in range(0, targets.shape[0], BATCH_ROWS):
            hi = min(lo + BATCH_ROWS, targets.shape[0])
            p = self.predictions_batch(contexts[lo:hi])
            _kernels.classed_logprobs(
                p, targets[lo:hi], self.class_of, self.members_flat, self.members_indptr,
                self.scorable_classes, S, t, self.params.R, self.params.b, out[lo:hi])
        return out


class Querier:
    """Stateful query interface with normalizer caching and operation counters.

    The one per-token scoring entry point, the path a decoder feature
    function would call: repeated probability lookups for (context, word)
    pairs. Each context's prediction vector and normalizers are computed
    once and cached across queries, for at most 65,536 contexts
    (``NormalizerCache``). Enabling or disabling the cache never changes a
    returned value.

    Unknown context words normally take the UNK context vector. Passing
    segmentations opts in to composing vectors for unknown context words
    from their known factors instead (``LanguageModel.compose_unknown``).
    """

    def __init__(self, model: LanguageModel, use_cache: bool = True,
                 segs: Optional[Mapping[str, list[str]]] = None):
        self.model = model
        self.cache = NormalizerCache() if use_cache else None
        self.stats = QueryStats()
        self.segs = segs

    def log_prob(self, context, w: int) -> float:
        """Log probability of w after the n-1 context word ids."""
        key = tuple(int(c) for c in context)
        return self.model.log_prob_at(self.model.params.Q[list(key)], key, w,
                                      self.cache, self.stats)

    def _context_item(self, token: str) -> tuple[np.ndarray, object]:
        """Context vector and cache-key marker of one normalized token.

        Known words give their compiled row and id (a literal ``<s>`` reads
        as UNK). With segmentations set, an unknown word gets its composed
        context vector where the model has one; otherwise it takes the UNK
        row.
        """
        vocab, Q = self.model.vocab, self.model.params.Q
        wid = vocab.find(token)
        if wid is not None:
            return Q[wid], wid
        if self.segs is not None:
            q, _ = self.model.compose_unknown(token, self.segs)
            if q is not None:
                return q, ("oov", token)
        return Q[vocab.unk_id], vocab.unk_id

    def score_sentence(self, tokens: list[str]) -> list[tuple[str, float]]:
        """Per-token log probabilities of a raw token sequence.

        Each token's prediction vector and normalizers are computed from
        that token's context alone, never batched across the sentence: BLAS
        rounds a row of a matrix product differently depending on how many
        rows the product has, so a normalizer cached from one sentence
        would differ in the last bits from the one another sentence computes.
        The last token is never a context, so it gets no context item.
        """
        model = self.model
        n = model.config.n
        norm = [normalize_token(t) for t in tokens]
        items = [(model.params.Q[PAD_ID], PAD_ID)] * (n - 1)
        items += [self._context_item(t) for t in norm[:-1]]
        vectors = [vec for vec, _ in items]
        markers = [marker for _, marker in items]
        out = []
        for i, tok in enumerate(norm):
            lp = model.log_prob_at(vectors[i:i + n - 1], tuple(markers[i:i + n - 1]),
                                   model.vocab.lookup(tok), self.cache, self.stats)
            out.append((tokens[i], lp))
        return out
