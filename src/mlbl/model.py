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

import array
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

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
# raw tokens a Querier's memo holds before it starts again
TOKEN_MEMO = 65_536


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
    seen. They are row ``contexts[key]`` (the key's slot) of one growable
    float64 array: (d+1)*8 bytes per context plus its dict entry. One
    entry per (context key, class id) holds that class's within-class
    log-normalizer. Every value is exactly what the fresh computation
    produces, so cached and uncached queries agree bitwise.

    At most ``capacity`` contexts are held. A new context that would
    exceed it first drops every entry, adds their number to ``evictions``
    and starts the slots again at 0, so the cache stays bounded in a long
    stream at amortized O(1) cost per miss and none per hit.
    """

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.contexts: dict[tuple, int] = {}
        self.words: dict[tuple, float] = {}
        # the slots' rows back to back; array.array grows by realloc, so the
        # room it keeps ahead is neither copied nor written
        self._rows = array.array("d")
        self._width = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self.contexts) + len(self.words)

    def clear(self) -> None:
        self.contexts.clear()
        self.words.clear()
        del self._rows[:]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def evict(self) -> None:
        """Drop every entry, adding their number to ``evictions``; the slots
        start again at 0."""
        self.evictions += len(self)
        self.contexts.clear()
        self.words.clear()

    def terms(self, slots: list[int]) -> np.ndarray:
        """Copies of the rows of ``slots``: a prediction vector followed by
        its class log-normalizer."""
        return np.frombuffer(self._rows).reshape(-1, self._width)[slots]

    def record(self, keys: list[tuple], classes: list[int], P: np.ndarray,
               norm_c: np.ndarray, norm_w: list[float]) -> tuple[int, list[int]]:
        """Look up each token's context key, then its (key, class), in token
        order, as one query at a time would; a miss stores the token's
        prediction vector P[i] and log-normalizers norm_c[i] or norm_w[i].

        Returns the number of context misses and the classes of the
        within-class misses.
        """
        contexts, words = self.contexts, self.words
        hits = context_misses = 0
        word_misses = []
        stored = {}   # slot -> the token whose terms it holds
        for i, key in enumerate(keys):
            if key in contexts:
                hits += 1
            else:
                context_misses += 1
                if len(contexts) >= self.capacity:
                    self.evict()
                    stored.clear()
                slot = contexts[key] = len(contexts)
                stored[slot] = i
            c = classes[i]
            if (key, c) in words:
                hits += 1
            else:
                word_misses.append(c)
                words[key, c] = norm_w[i]
        self.hits += hits
        self.misses += context_misses + len(word_misses)
        if stored:
            # the new slots run from the first one to the last slot in use
            rows = list(stored.values())
            self._width = P.shape[1] + 1
            del self._rows[next(iter(stored)) * self._width:]
            self._rows.frombytes(np.column_stack((P[rows], norm_c[rows])).tobytes())
        return context_misses, word_misses


@dataclass
class QueryStats:
    """Operation counters for the query path (one unit = one scored vector)."""

    score_ops: int = 0


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
        # each word's place among its class's members (0 for PAD, in no class)
        self.member_pos = np.zeros(V, dtype=np.int64)
        self.member_pos[self.members_flat] = (
            np.arange(self.members_flat.shape[0])
            - np.repeat(self.members_indptr[:-1], np.diff(self.members_indptr)))
        # the words in class order, each class's members in turn and PAD
        # last: word w is row members_indptr[c] + member_pos[w] of a table
        # in this order, so a class's members are one slice of it
        self.class_order = np.append(self.members_flat, PAD_ID)
        self.compiles = 0
        self.recompile()

    # ------------------------------------------------------------------
    # compiled tables
    # ------------------------------------------------------------------

    def recompile(self) -> None:
        """Drop the table copies the query path builds, then rebuild the
        compiled word tables Q and R from the factor tables. Call it after
        changing any parameter block. Counted in ``compiles``, by which a
        Querier sees that its cache is stale."""
        self.compiles += 1
        self._tables: Optional[tuple[np.ndarray, ...]] = None
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

    @cached_property
    def class_ordered_targets(self) -> tuple[WordFactorization, np.ndarray]:
        """The target map with its rows in ``class_order``, and the row in
        that order of each entry of ``mr``, by which a gradient table in
        class order scatters through ``mr`` in its own entry order."""
        order = self.class_order
        row_of = np.empty_like(order)
        row_of[order] = np.arange(order.shape[0])
        return self.mr.select(order), row_of[self.mr.entry_rows()]

    @property
    def class_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Class vectors S and biases t (fixed zeros for a flat model's one class)."""
        if self.config.class_based:
            return self.params.S, self.params.t
        return self._one_class

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def _query_tables(self) -> tuple[np.ndarray, ...]:
        """R and b in ``class_order``, so a class's members are one
        contiguous slice instead of a gather, and S and t of the scorable
        classes. Copied on the first query after a recompile."""
        if self._tables is None:
            S, t = self.class_tables
            ids, order = self.scorable_classes, self.class_order
            self._tables = (self.params.R[order], self.params.b[order], S[ids], t[ids])
        return self._tables

    def predict(self, V: np.ndarray) -> np.ndarray:
        """Prediction vectors from context vectors V of shape (..., n-1, d):
        the sum of the n-1 vectors, each through its position transform. The
        vectors are compiled rows of Q, or vectors composed for unknown
        words. Each row has the bits of its context computed alone."""
        if V.shape[-2] != self.config.n - 1:
            raise ValueError(f"context must have {self.config.n - 1} vectors")
        p = np.zeros(V.shape[:-2] + (self.config.d,), dtype=np.float64)
        for j in range(self.config.n - 1):
            p += _kernels.row_products(V[..., j, :], self.params.C[j])
        return p

    def _log_norm_classes(self, P: np.ndarray) -> np.ndarray:
        """Class log-normalizer of each prediction vector in P (..., d)."""
        S, t = self._query_tables()[2:]
        scores = _kernels.row_products(P, S.T)
        scores += t
        return _kernels._logsumexp(scores)

    def _log_norm_words(self, p: np.ndarray, c: int) -> float:
        """Within-class log-normalizer of class c for one prediction vector.

        One gemv over the class's contiguous rows. Classes differ in size,
        and a gemv's bits depend on the matrix's height, so they are never
        padded to one height and stacked.
        """
        R, b = self._query_tables()[:2]
        lo, hi = int(self.members_indptr[c]), int(self.members_indptr[c + 1])
        return float(_kernels._logsumexp(R[lo:hi] @ p + b[lo:hi]))

    # ------------------------------------------------------------------
    # batched evaluation
    # ------------------------------------------------------------------

    def predictions_batch(self, contexts: np.ndarray, Q: Optional[np.ndarray] = None
                          ) -> np.ndarray:
        """Prediction vectors of a batch of contexts, whose ids index the
        rows of Q (the compiled table by default), through BLAS gemm."""
        Qc = (self.params.Q if Q is None else Q)[contexts]
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
                p, targets[lo:hi], self.class_of, self.member_pos, self.members_flat,
                self.members_indptr, self.scorable_classes, S, t, self.params.R,
                self.params.b, out[lo:hi])
        return out


class Querier:
    """Stateful query interface with normalizer caching and operation counters.

    The one per-token scoring entry point, the path a decoder feature
    function would call: repeated probability lookups for (context, word)
    pairs. Each context's prediction vector and normalizers are computed
    once and cached across queries, for at most 65,536 contexts
    (``NormalizerCache``). Enabling or disabling the cache never changes a
    returned value. Raw tokens map to ids through a memo of at most 65,536
    tokens, so a token repeated across sentences is normalized once.

    Unknown context words normally take the UNK context vector. Passing
    segmentations opts in to composing vectors for unknown context words
    from their known factors instead (``LanguageModel.compose_unknown``).
    A change to the model's parameters takes effect through
    ``LanguageModel.recompile``; the next query then evicts every cached
    entry, since it was computed from the old tables.
    """

    def __init__(self, model: LanguageModel, use_cache: bool = True,
                 segs: Optional[Mapping[str, list[str]]] = None):
        self.model = model
        self.cache = NormalizerCache() if use_cache else None
        self.stats = QueryStats()
        self.segs = segs
        self._tokens: dict[str, tuple[int, object]] = {}
        self._class_sizes = np.diff(model.members_indptr).tolist()
        self._compiles = model.compiles

    def log_prob(self, context, w: int) -> float:
        """Log probability of w after the n-1 context word ids."""
        if w == PAD_ID:
            raise ValueError("the padding symbol is never scored as a target")
        key = tuple(int(c) for c in context)
        if len(key) != self.model.config.n - 1:
            raise ValueError(f"context must have {self.model.config.n - 1} word ids")
        return self._score([key], [w], {})[0]

    def _token(self, raw: str) -> tuple[int, object]:
        """Target id and context marker of a raw token, through the memo.

        A known word's marker is its id (a literal ``<s>`` reads as UNK).
        An unknown word's is the UNK id, or with segmentations set its
        normalized text: the sentence composes its vector when it is a
        context.
        """
        entry = self._tokens.get(raw)
        if entry is None:
            if len(self._tokens) >= TOKEN_MEMO:
                self._tokens.clear()
            token = normalize_token(raw)
            wid = self.model.vocab.find(token)
            unk = self.model.vocab.unk_id
            if wid is not None:
                entry = (wid, wid)
            else:
                entry = (unk, unk if self.segs is None else token)
            self._tokens[raw] = entry
        return entry

    def score_sentence(self, tokens: list[str]) -> list[tuple[str, float]]:
        """Per-token log probabilities of a raw token sequence.

        The sentence is scored as one block: its new contexts' prediction
        vectors and class normalizers in stacked products, one gemv per
        new (context, class) within-class normalizer, and every token's
        class and word scores in two stacked products. Each row of a
        stacked product has the bits of the product computed alone
        (``_kernels.row_products``), so a token's value is the same in any
        sentence, cached or not. The cache then sees the lookups in token
        order, with the hits, misses, evictions and ``score_ops`` of one
        query at a time. The last token is never a context, so an unknown
        last word is not composed.
        """
        if not tokens:
            return []
        n, unk = self.model.config.n, self.model.vocab.unk_id
        entries = [self._token(raw) for raw in tokens]
        markers = [PAD_ID] * (n - 1) + [marker for _, marker in entries[:-1]]
        composed: dict[tuple, np.ndarray] = {}
        if self.segs is not None:
            for i, marker in enumerate(markers):
                if isinstance(marker, str):
                    q, _ = self.model.compose_unknown(marker, self.segs)
                    if q is None:
                        markers[i] = unk
                    else:
                        markers[i] = ("oov", marker)
                        composed[markers[i]] = q
        keys = [tuple(markers[i:i + n - 1]) for i in range(len(tokens))]
        scores = self._score(keys, [w for w, _ in entries], composed)
        return list(zip(tokens, scores))

    def _context_vectors(self, keys: list[tuple], composed: dict[tuple, np.ndarray]
                         ) -> np.ndarray:
        """Context vectors (M, n-1, d) of M context keys: rows of Q by id,
        and the composed vectors of unknown words."""
        Q = self.model.params.Q
        if not composed:
            return Q[np.array(keys)]
        V = Q[np.array([[m if isinstance(m, int) else PAD_ID for m in key] for key in keys])]
        for i, key in enumerate(keys):
            for j, marker in enumerate(key):
                if not isinstance(marker, int):
                    V[i, j] = composed[marker]
        return V

    def _score(self, keys: list[tuple], targets: list[int],
               composed: dict[tuple, np.ndarray]) -> list[float]:
        """Log probability of each target after its context key, as one block."""
        model, cache = self.model, self.cache
        if self._compiles != model.compiles:
            self._compiles = model.compiles
            if cache is not None:
                cache.evict()
        classes = model.class_of[targets].tolist()
        distinct = list(dict.fromkeys(keys))
        row_of = {key: r for r, key in enumerate(distinct)}
        rows = [row_of[key] for key in keys]
        if cache is None:
            slots = [None] * len(distinct)
        else:
            slots = [cache.contexts.get(key) for key in distinct]
        new = [r for r, slot in enumerate(slots) if slot is None]
        held = [r for r, slot in enumerate(slots) if slot is not None]
        P = np.empty((len(distinct), model.config.d))
        norm_c = np.empty(len(distinct))
        if held:
            terms = cache.terms([slots[r] for r in held])
            P[held] = terms[:, :-1]
            norm_c[held] = terms[:, -1]
        if new:
            fresh = model.predict(self._context_vectors([distinct[r] for r in new], composed))
            P[new] = fresh
            norm_c[new] = model._log_norm_classes(fresh)
        norm_w: dict[tuple[int, int], float] = {}
        for pair in zip(rows, classes):
            if pair not in norm_w:
                r, c = pair
                value = None if cache is None else cache.words.get((distinct[r], c))
                norm_w[pair] = model._log_norm_words(P[r], c) if value is None else value
        token_norm_w = [norm_w[pair] for pair in zip(rows, classes)]

        P, norm_c = P[rows], norm_c[rows]
        S, t = model.class_tables
        R, b = model.params.R, model.params.b
        tau = _kernels.row_products(P, S[classes][:, :, None])[:, 0] + t[classes]
        nu = _kernels.row_products(P, R[targets][:, :, None])[:, 0] + b[targets]
        scores = ((tau - norm_c) + (nu - np.array(token_norm_w))).tolist()

        sizes, num_classes = self._class_sizes, len(model.scorable_classes)
        if cache is None:
            ops = len(keys) * (num_classes + 2) + sum(sizes[c] for c in classes)
        else:
            context_misses, word_misses = cache.record(keys, classes, P, norm_c,
                                                       token_norm_w)
            ops = (context_misses * num_classes + sum(sizes[c] for c in word_misses)
                   + 2 * len(keys))
        self.stats.score_ops += ops
        return scores
