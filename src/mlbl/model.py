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
from itertools import accumulate, pairwise
from operator import eq, index
from typing import Mapping, Optional

import numpy as np

from . import _kernels
from .clustering import ClassPartition
from .corpus import PAD_ID, UNK_ID, Vocabulary, normalize_token
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

# instances ``logprobs_batch`` scores per block: it bounds the block's
# temporaries only, since every value is computed row by row
BATCH_ROWS = 8192
# raw tokens a Querier's memo holds before it starts again
TOKEN_MEMO = 65_536
# missing within-class normalizers of one class in a block from which they
# share one product over the class's rows (``LanguageModel._log_norm_words``)
GROUP_MIN = 6


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

    It is a plain store: ``record`` adds a block's entries and counts its
    lookups. ``Querier`` keeps it to at most ``capacity`` contexts, calling
    ``evict`` (drop every entry, add their number to ``evictions``, start
    the slots again at 0) wherever one query at a time would find a new
    context with the cache full, so the cache stays bounded in a long
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

    def evict(self) -> None:
        """Drop every entry, adding their number to ``evictions``; the slots
        start again at 0."""
        self.evictions += len(self)
        self.contexts.clear()
        self.words.clear()
        del self._rows[:]

    def terms(self, slots: list[int]) -> np.ndarray:
        """Copies of the rows of ``slots``: a prediction vector followed by
        its class log-normalizer."""
        return np.frombuffer(self._rows).reshape(-1, self._width)[slots]

    def record(self, lookups: int, terms: np.ndarray, norm_w: dict[tuple[tuple, int], float],
               new: list[tuple], missing: list[tuple[tuple, int]]) -> None:
        """Store a block's new contexts ``new``, whose terms are the first
        rows of ``terms``, and its missing (context key, class) pairs, whose
        within-class log-normalizers ``norm_w`` holds; count each of them as
        a miss and the block's other ``lookups`` as hits. The caller keeps
        the new contexts within ``capacity``."""
        first = len(self.contexts)
        self.contexts.update(zip(new, range(first, first + len(new))))
        self.words.update((pair, norm_w[pair]) for pair in missing)
        self.hits += lookups - len(new) - len(missing)
        self.misses += len(new) + len(missing)
        self._width = terms.shape[1]
        self._rows.frombytes(terms[:len(new)].tobytes())


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
        self.class_of = partition.class_of
        self.members_flat, self.members_indptr = partition.group(self.scorable_ids)
        self.scorable_classes = np.flatnonzero(np.diff(self.members_indptr))
        # the words in class order, each class's members one slice and PAD
        # last: word w is row class_row[w] of a table in this order
        self.class_order = np.append(self.members_flat, PAD_ID)
        self.class_row = np.empty_like(self.class_order)
        self.class_row[self.class_order] = np.arange(V)
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
        return self.mr.select(self.class_order), self.class_row[self.mr.entry_rows()]

    @cached_property
    def table_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """``bounds`` and ``rows`` of the stacked tables SR and tb that every
        class softmax reads, in training and scoring: SR holds the vectors of
        the K scorable classes, then the target word vectors in
        ``class_order``, and tb their biases likewise. Class c's members are
        rows bounds[c]:bounds[c+1], with bounds = K + ``members_indptr``; word
        w's class row is rows[0, w] and its own row rows[1, w]."""
        K = len(self.scorable_classes)
        return self.members_indptr + K, np.stack(
            (np.searchsorted(self.scorable_classes, self.class_of), self.class_row + K))

    def fill_class_rows(self, SR: np.ndarray, tb: np.ndarray) -> None:
        """Fill ``table_layout``'s tables but SR's word rows: S and t of the
        scorable classes (zeros for a flat model's one class), b in class order."""
        K = len(self.scorable_classes)
        if self.config.class_based:
            np.take(self.params.S, self.scorable_classes, axis=0, out=SR[:K])
            np.take(self.params.t, self.scorable_classes, out=tb[:K])
        else:
            SR[:K], tb[:K] = 0.0, 0.0
        np.take(self.params.b, self.class_order, out=tb[K:])

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def _query_tables(self) -> tuple[np.ndarray, ...]:
        """SR, tb, bounds and rows (``table_layout``) with the compiled R as
        SR's word rows, built on the first scoring call after a recompile,
        with the per-token path's ``_lookups``: each word's class and each
        class's size as lists, and each class's slices of SR and tb."""
        if self._tables is None:
            bounds, rows = self.table_layout
            K = bounds[0]
            # filled in place: a concatenation would hold a second copy
            SR, tb = np.empty((K + len(self.vocab), self.config.d)), np.empty(K + len(self.vocab))
            self.fill_class_rows(SR, tb)
            np.take(self.params.R, self.class_order, axis=0, out=SR[K:])
            self._tables = (SR, tb, bounds, rows)
            spans = list(pairwise(bounds.tolist()))
            self._lookups = (self.class_of.tolist(), [hi - lo for lo, hi in spans],
                             [SR[lo:hi] for lo, hi in spans], [tb[lo:hi] for lo, hi in spans])
        return self._tables

    def predict(self, V: np.ndarray) -> np.ndarray:
        """Prediction vectors from context vectors V of shape (..., n-1, d):
        the sum of the n-1 vectors, each through its position transform. The
        vectors are compiled rows of Q, or vectors composed for unknown
        words. One stacked product gives each vector's gemv
        (``_kernels.row_products``), and the sum adds them in position order
        from zeros, so each row has the bits of its context computed alone."""
        if V.shape[-2] != self.config.n - 1:
            raise ValueError(f"context must have {self.config.n - 1} vectors")
        return np.add.reduce(np.matmul(V[..., None, :], self.params.C)[..., 0, :], axis=-2,
                             initial=0.0)

    def _log_norm_classes(self, P: np.ndarray) -> np.ndarray:
        """Class log-normalizer of each prediction vector in P (..., d)."""
        SR, tb, bounds, _ = self._query_tables()
        return _kernels._log_norms(P, SR[:bounds[0]], tb[:bounds[0]])

    def _log_norm_words(self, P: np.ndarray, classes: list[int]) -> np.ndarray:
        """Within-class log-normalizer of class ``classes[i]`` for prediction
        vector P[i], for a block of pairs.

        A class with at least ``GROUP_MIN`` pairs in the block gets one
        ``_kernels._log_norms`` over its pairs' rows of P, on its one slice
        of R: stacking one class's rows pads nothing. The other pairs run in
        one ragged pass: each pair's scores are one gemv over its class's
        contiguous rows of R, as for the pair alone, laid end to end in one
        buffer. The biases, shift, exponentials and logarithms then run once
        over the buffer, elementwise, and the maxima (``np.maximum.reduceat``)
        are exact; each pair's segment is summed on its own, as one
        contiguous array, since ``np.add.reduceat`` would sum it in another
        order. So each value has the bits of
        ``_kernels._logsumexp(R[lo:hi] @ P[i] + b[lo:hi])``, with ``lo:hi``
        the class's rows, whichever way it is computed.
        """
        self._query_tables()
        _, size, R, b = self._lookups
        order = range(len(classes))
        out = None
        ranked = sorted(classes)
        # some class has GROUP_MIN pairs where the sorted classes repeat
        # GROUP_MIN - 1 places on: cheaper than grouping a block with none
        if any(map(eq, ranked, ranked[GROUP_MIN - 1:])):
            pairs_of: dict[int, list[int]] = {}
            for i, c in enumerate(classes):
                pairs_of.setdefault(c, []).append(i)
            out, order = np.empty(len(classes)), []
            for c, at in pairs_of.items():
                if len(at) >= GROUP_MIN:
                    out[at] = _kernels._log_norms(P[at], R[c], b[c])
                else:
                    order += at
            if not order:
                return out
            classes = [classes[i] for i in order]
        sizes = [size[c] for c in classes]
        ends = list(accumulate(sizes))
        starts = [0] + ends[:-1]
        scores = np.empty(ends[-1])
        for i, c, s, e in zip(order, classes, starts, ends):
            np.matmul(R[c], P[i], out=scores[s:e])
        scores += np.concatenate([b[c] for c in classes])
        m = np.maximum.reduceat(scores, starts)
        scores -= np.repeat(m, sizes)
        np.exp(scores, out=scores)
        norms = m + np.log([scores[s:e].sum() for s, e in zip(starts, ends)])
        if out is None:
            return norms
        out[order] = norms
        return out

    def _check_ids(self, contexts: np.ndarray, targets: np.ndarray) -> None:
        """Raise ValueError unless every id is an integer and a word of the
        vocabulary, and no target is PAD."""
        V = len(self.vocab)
        for name, ids in (("context", contexts), ("target", targets)):
            if ids.size and ids.dtype.kind not in "iu":
                raise ValueError(f"{name} word ids must be integers")
            if ids.size and (ids.min() < 0 or ids.max() >= V):
                raise ValueError(f"{name} word ids must lie in [0, {V})")
        if np.any(targets == PAD_ID):
            raise ValueError("the padding symbol is never scored as a target")

    # ------------------------------------------------------------------
    # batched evaluation
    # ------------------------------------------------------------------

    def predictions_batch(self, contexts: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """Prediction vectors of a batch of contexts, whose ids index the
        rows of Q, through BLAS gemm."""
        Qc = Q[contexts]
        p = np.zeros((contexts.shape[0], self.config.d), dtype=np.float64)
        for j in range(self.config.n - 1):
            p += Qc[:, j, :] @ self.params.C[j]
        return p

    def logprobs_batch(self, contexts: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Per-instance log probabilities for evaluation, from the compiled
        tables as they are: call ``recompile`` after changing factor tables.

        Each value has the bits of ``Querier.log_prob`` for the same context
        ids and target, cached or not, at any ``BATCH_ROWS`` and BLAS thread
        count: both read ``_query_tables`` and compute every product row by
        row (``predict``, ``_kernels.classed_logprobs``). A context id is a
        row of Q: no unknown word is composed here. Raises ValueError for an
        id that is not an integer or outside the vocabulary, or a PAD target.
        """
        targets, contexts = np.asarray(targets), np.asarray(contexts)
        self._check_ids(contexts, targets)
        targets = targets.astype(np.int64, copy=False)
        contexts = contexts.astype(np.int64, copy=False)
        out = np.empty(targets.shape[0], dtype=np.float64)
        for lo in range(0, targets.shape[0], BATCH_ROWS):
            hi = min(lo + BATCH_ROWS, targets.shape[0])
            p = self.predict(self.params.Q[contexts[lo:hi]])
            _kernels.classed_logprobs(p, targets[lo:hi], self.class_of, *self._query_tables(),
                                      out[lo:hi])
        return out


def _word_ids(ids, name: str) -> tuple[int, ...]:
    """``ids`` as ints; ValueError naming ``name`` for one that is not an integer."""
    try:
        return tuple(map(index, ids))
    except TypeError:
        raise ValueError(f"{name} word ids must be integers") from None


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
        self._compiles = model.compiles

    def log_prob(self, context, w: int) -> float:
        """Log probability of w after the n-1 context word ids; ValueError
        for an id that is not an integer (numpy integers are) or outside the
        vocabulary, or a PAD target."""
        key = _word_ids(context, "context")
        (w,) = _word_ids([w], "target")
        if len(key) != self.model.config.n - 1:
            raise ValueError(f"context must have {self.model.config.n - 1} word ids")
        V = len(self.model.vocab)
        if min(key) < 0 or max(key) >= V:
            raise ValueError(f"context word ids must lie in [0, {V})")
        if not 0 <= w < V:
            raise ValueError(f"target word ids must lie in [0, {V})")
        if w == PAD_ID:
            raise ValueError("the padding symbol is never scored as a target")
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
            if wid is not None:
                entry = (wid, wid)
            else:
                entry = (UNK_ID, UNK_ID if self.segs is None else token)
            self._tokens[raw] = entry
        return entry

    def score_sentences(self, sentences: list[list[str]]) -> list[list[tuple[str, float]]]:
        """Per-token log probabilities of raw token sequences, one list per
        sentence, scored as one block.

        The block's new contexts get their prediction vectors and class
        normalizers in stacked products, its new (context, class) pairs their
        within-class normalizers in one pass (``LanguageModel._log_norm_words``:
        one product per class with ``GROUP_MIN`` pairs or more, one ragged
        pass for the rest), and every token its class and word scores in one
        stacked product. Each row of a stacked product, and each pair of the
        ragged pass, has the bits of the product computed alone
        (``_kernels.row_products``), so a token's value is the same in any
        block, cached or not. The cache then stores the block's new entries
        at once (``NormalizerCache.record``), or, when they would evict, the
        block is cut where one query at a time would evict and each piece is
        stored after an eviction; either way with the hits, misses,
        evictions and ``score_ops`` of one query at a time, so a block of
        sentences counts as the sentences one at a time. A sentence's last
        token is never a context, so an unknown last word is not composed.
        """
        n, segs = self.model.config.n, self.segs
        get = self._tokens.get
        keys: list[tuple] = []
        targets: list[int] = []
        composed: dict[tuple, np.ndarray] = {}
        for tokens in sentences:
            if not tokens:
                continue
            entries = [get(raw) or self._token(raw) for raw in tokens]
            markers = [PAD_ID] * (n - 1) + [marker for _, marker in entries[:-1]]
            if segs is not None:
                for i, marker in enumerate(markers):
                    if isinstance(marker, str):
                        q, _ = self.model.compose_unknown(marker, segs)
                        if q is None:
                            markers[i] = UNK_ID
                        else:
                            markers[i] = ("oov", marker)
                            composed[markers[i]] = q
            keys += zip(*(markers[j:] for j in range(n - 1)))
            targets += [w for w, _ in entries]
        scores = self._score(keys, targets, composed) if keys else []
        out, end = [], 0
        for tokens in sentences:
            start, end = end, end + len(tokens)
            out.append(list(zip(tokens, scores[start:end])))
        return out

    def score_sentence(self, tokens: list[str]) -> list[tuple[str, float]]:
        """Per-token log probabilities of a raw token sequence: the
        one-sentence case of ``score_sentences``."""
        return self.score_sentences([tokens])[0]

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
        """Log probability of each target after its context key, as one
        block, or as the pieces of ``_score_evicting`` when the block's new
        contexts exceed the cache's room."""
        model, cache = self.model, self.cache
        if self._compiles != model.compiles:
            self._compiles = model.compiles
            if cache is not None:
                cache.evict()
        SR, tb, _, rows = model._query_tables()
        class_of, size = model._lookups[:2]
        classes = [class_of[w] for w in targets]
        # row r of terms: context r's prediction vector, then its class
        # log-normalizer; the new contexts first
        if cache is None:
            new, held = list(dict.fromkeys(keys)), []
        else:
            new, held, contexts = [], [], cache.contexts
            for key in dict.fromkeys(keys):
                (held if key in contexts else new).append(key)
            if len(contexts) + len(new) > cache.capacity:
                return self._score_evicting(keys, targets, composed)
        row_of = {key: r for r, key in enumerate(new + held)}
        at = [row_of[key] for key in keys]
        terms = np.empty((len(row_of), model.config.d + 1))
        if new:
            fresh = model.predict(self._context_vectors(new, composed))
            terms[:len(new), :-1] = fresh
            terms[:len(new), -1] = model._log_norm_classes(fresh)
        if held:
            terms[len(new):] = cache.terms([contexts[key] for key in held])
        # each token's (context key, class): the key of its within-class normalizer
        pairs = list(zip(keys, classes))
        words = {} if cache is None else cache.words
        norm_w = {pair: words.get(pair) for pair in pairs}
        missing = [pair for pair, value in norm_w.items() if value is None]
        if missing:
            norm_w.update(zip(missing, model._log_norm_words(
                terms[[row_of[key] for key, _ in missing], :-1],
                [c for _, c in missing]).tolist()))

        T = terms[at]
        scores = _kernels._target_logprobs(
            T[:, :-1], rows[:, targets], SR, tb, T[:, -1],
            np.array([norm_w[pair] for pair in pairs])).tolist()

        num_classes = len(model.scorable_classes)
        if cache is None:
            ops = len(keys) * (num_classes + 2) + sum(size[c] for c in classes)
        else:
            cache.record(2 * len(keys), terms, norm_w, new, missing)
            ops = len(new) * num_classes + sum(size[c] for _, c in missing) + 2 * len(keys)
        self.stats.score_ops += ops
        return scores

    def _score_evicting(self, keys: list[tuple], targets: list[int],
                        composed: dict[tuple, np.ndarray]) -> list[float]:
        """``_score`` of a block whose new contexts exceed the cache's room:
        one pass over the tokens cuts it at each token where one query at a
        time would evict, and each piece is scored as a block after an
        eviction (the first piece, when not empty, without one)."""
        cache = self.cache
        cuts, seen, room = [0], set(), cache.capacity - len(cache.contexts)
        for i, key in enumerate(keys):
            # before the first cut, a context the cache holds is no miss
            if key not in seen and (len(cuts) > 1 or key not in cache.contexts):
                if len(seen) == room:
                    cuts.append(i)
                    seen, room = set(), cache.capacity
                seen.add(key)
        cuts.append(len(keys))
        scores = self._score(keys[:cuts[1]], targets[:cuts[1]], composed) if cuts[1] else []
        for a, b in zip(cuts[1:], cuts[2:]):
            cache.evict()
            scores += self._score(keys[a:b], targets[a:b], composed)
        return scores
