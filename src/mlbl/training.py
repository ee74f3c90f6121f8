"""Parameter estimation.

Class-factored models train against the exact L2-regularized log
likelihood (normalization is over a class set and a member set, both
small). Flat models train with noise-contrastive estimation to avoid
normalizing over the vocabulary; they are still normalized exactly at
evaluation time. Updates are AdaGrad over shuffled minibatches, with
early stopping on development perplexity.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import _kernels
from ._io import open_text
from .clustering import ClassPartition
from .corpus import PAD_ID, Vocabulary
from .errors import DataError
from .model import LanguageModel, ModelConfig, ModelParameters
from .morphology import FactorVocabulary, WordFactorization, compile_word_table

log = logging.getLogger("mlbl.training")

# rows per block of adagrad_step: its temporaries stay cache-sized
ADAGRAD_BLOCK = 2048


# a field's declared type -> the parser of its text values; a bool is one of six words
PARSERS: dict[str, Callable[[str], object]] = {
    "int": int, "int | None": lambda val: int(val) if val else None, "float": float, "str": str,
    "bool": lambda val: ("false", "0", "no", "true", "1", "yes").index(val.lower()) > 2}

# each setting with a range -> the range; every one must also be finite
RANGES = {**dict.fromkeys(("minibatch_size", "step_size", "nce_noise_k", "init_sigma",
                           "adagrad_epsilon", "max_epochs"), "positive"),
          "l2_lambda": "non-negative", "seed": "non-negative"}


@dataclass
class TrainingConfig:
    """Optimizer and initialization settings; every default is overridable.

    The one place a training setting is parsed and checked, whatever its
    source: ``with_overrides`` parses text by each field's declared type
    (``PARSERS``), and construction checks every field: ``n``, ``d`` and
    ``variant`` through ``ModelConfig.from_variant``, which makes the variant
    lowercase, and the ranged ones against ``RANGES``.
    """

    d: int | None = None
    n: int = 4
    variant: str = "clbl++"
    minibatch_size: int = 10000
    step_size: float = 0.05
    l2_lambda: float = 1e-5
    nce_noise_k: int = 10
    init_sigma: float = 0.01
    adagrad_epsilon: float = 1e-8
    max_epochs: int = 20
    seed: int = 1
    regularize_biases: bool = True

    def __post_init__(self):
        for name, kind in RANGES.items():
            val = getattr(self, name)
            if not (0 < val < math.inf or kind == "non-negative" and val == 0):
                raise ValueError(f"{name} must be {kind} and finite, got {val!r}")
        # n and the variant are checked while d is still unset too
        self.variant = ModelConfig.from_variant(
            self.variant, self.n, 1 if self.d is None else self.d).variant

    @classmethod
    def from_file(cls, path: str | Path) -> "TrainingConfig":
        values = {}
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DataError(f"{path}:{lineno}: expected key=value")
                key, val = (part.strip() for part in line.split("=", 1))
                if key in values:
                    raise DataError(f"{path}:{lineno}: key {key!r} given twice")
                values[key] = val
        try:
            return cls().with_overrides(values)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc

    def with_overrides(self, values: dict[str, str]) -> "TrainingConfig":
        types = {f.name: f.type for f in fields(self)}
        kwargs = {}
        for key, val in values.items():
            if key not in types:
                raise ValueError(f"unknown configuration key {key!r}")
            try:
                kwargs[key] = PARSERS[types[key]](val)
            except ValueError as exc:
                raise ValueError(f"bad value {val!r} for {key}") from exc
        return replace(self, **kwargs)

    def model_config(self) -> ModelConfig:
        if self.d is None:
            raise ValueError("embedding dimension d must be set explicitly")
        return ModelConfig.from_variant(self.variant, n=self.n, d=self.d)


def laplace_unigram(vocab: Vocabulary) -> np.ndarray:
    """Add-one smoothed unigram over scorable words; PAD gets zero mass."""
    counts = vocab.counts.astype(np.float64)
    probs = np.zeros(len(vocab), dtype=np.float64)
    scorable = np.arange(len(vocab)) != PAD_ID
    total = counts[scorable].sum() + scorable.sum()
    probs[scorable] = (counts[scorable] + 1.0) / total
    return probs


def init_params(config: ModelConfig, vocab: Vocabulary, factor_vocab: FactorVocabulary,
                factorization: WordFactorization,
                partition: Optional[ClassPartition] = None,
                init_sigma: float = 0.01, seed: int = 1) -> ModelParameters:
    """Gaussian init for all tables, biases set to smoothed log unigrams.

    Word biases are the add-one smoothed log unigram probabilities over
    scorable words (pruned-singleton mass is part of the UNK count and
    therefore included); class biases likewise over class counts.
    """
    rng = np.random.default_rng(seed)
    V = len(vocab)
    nfq = len(factor_vocab) if config.context_additive else V
    nfr = len(factor_vocab) if config.output_additive else V
    C = rng.normal(0.0, init_sigma, size=(config.n - 1, config.d, config.d))
    Qf = rng.normal(0.0, init_sigma, size=(nfq, config.d))
    Rf = rng.normal(0.0, init_sigma, size=(nfr, config.d))
    b = np.zeros(V, dtype=np.float64)
    scorable = np.arange(V) != PAD_ID
    b[scorable] = np.log(laplace_unigram(vocab)[scorable])
    S = t = None
    if config.class_based:
        if partition is None:
            raise DataError("class-factored model needs a partition for initialization")
        S = rng.normal(0.0, init_sigma, size=(partition.num_classes, config.d))
        class_counts = np.zeros(partition.num_classes, dtype=np.float64)
        np.add.at(class_counts, partition.class_of[scorable],
                  vocab.counts[scorable].astype(np.float64))
        scorable_cls = np.unique(partition.class_of[scorable])
        total = class_counts[scorable_cls].sum() + len(scorable_cls)
        t = np.zeros(partition.num_classes, dtype=np.float64)
        t[scorable_cls] = np.log((class_counts[scorable_cls] + 1.0) / total)
    return ModelParameters(C, Qf, Rf, b, S, t)


def _context_rows(model: LanguageModel, contexts: np.ndarray
                  ) -> tuple[WordFactorization, np.ndarray, np.ndarray]:
    """The batch's distinct context words, ascending, as a sub-map of the
    context map; their composed rows of Q; and each context position's row
    among them."""
    words, local = np.unique(contexts, return_inverse=True)
    mq = model.mq.select(words)
    return mq, compile_word_table(mq, model.params.Qf), local.reshape(contexts.shape)


def _context_backward(model: LanguageModel, mq: WordFactorization, Q: np.ndarray,
                      contexts: np.ndarray, dp: np.ndarray, grads: ModelParameters) -> None:
    """Chain dp back through the position transforms and the factor map.

    ``contexts`` index the rows of Q, which are the composed rows of the
    sub-map ``mq``; their gradients scatter into the factor rows through it.
    """
    params = model.params
    Qc = Q[contexts]
    gQ = np.zeros_like(Q)
    for j in range(model.config.n - 1):
        grads.C[j] += Qc[:, j, :].T @ dp
        _kernels.add_rows(gQ, contexts[:, j], dp @ params.C[j].T)
    _kernels.scatter_rows(mq.entry_rows(), mq.indices, mq.data, gQ, grads.Qf)


def _add_l2(model: LanguageModel, grads: ModelParameters, l2_lambda: float,
            regularize_biases: bool) -> float:
    """Adds the L2 gradient into each block, spread over threads; the
    blocks' sums of squares are added in block order."""
    if l2_lambda == 0.0:
        return 0.0
    gblocks = grads.blocks()

    def l2(block: np.ndarray, g: np.ndarray) -> float:
        tmp = np.multiply(block, block)
        term = float(tmp.sum())
        g += np.multiply(2.0 * l2_lambda, block, out=tmp)
        return term

    blocks = [(block, gblocks[name]) for name, block in model.params.blocks().items()
              if regularize_biases or name not in ("b", "t")]
    term = 0.0
    for block_term in _kernels.parallel([partial(l2, *bg) for bg in blocks],
                                        sum(block.size for block, _ in blocks)):
        term += block_term
    return l2_lambda * term


class StepBuffers:
    """Arrays a training step fills, allocated once and zero-filled on each use.

    A run keeps one in its ``TrainState`` for the steps of an epoch; a loss
    called without one allocates fresh arrays.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def zeros(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is None or arr.shape != shape:
            arr = self._arrays[name] = np.zeros(shape)
        else:
            arr.fill(0.0)
        return arr

    def grads(self, params: ModelParameters) -> ModelParameters:
        """Zero gradient blocks shaped like params'."""
        return ModelParameters(**{name: self.zeros("grad " + name, block.shape)
                                  for name, block in params.blocks().items()})


def minibatch_loss_and_grad(model: LanguageModel, contexts: np.ndarray,
                            targets: np.ndarray, l2_lambda: float = 0.0,
                            regularize_biases: bool = True,
                            buffers: Optional[StepBuffers] = None
                            ) -> tuple[float, ModelParameters]:
    """Exact negative log likelihood of a batch plus L2, with gradients.

    Class-factored models only: both softmaxes are normalized exactly.
    The word tables are composed from the factor tables: the rows of the
    batch's context words and, since every word is in some normalizer, all
    of R. So the loss is a pure function of the current parameters, and the
    compiled tables ``params.Q``/``params.R`` are neither read nor written.
    Factor-table gradients accumulate over every batch word sharing a
    factor. The class softmax reads the stacked tables of the scoring path
    (``LanguageModel.table_layout``), with R composed into their word rows,
    in class order; the gradient of those rows scatters through the target
    map in its own entry order. With ``buffers``, the gradients and the
    stacked tables live in its arrays, which the next call overwrites.
    Composing R runs beside the context rows and predictions, and the
    scatter of R's gradient beside the context backward pass
    (``_kernels.parallel``): each side writes its own arrays, so the bits
    are those of running them in turn.
    """
    if not model.config.class_based:
        raise DataError("exact-likelihood training requires a class-factored model")
    contexts = np.asarray(contexts, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    buffers = StepBuffers() if buffers is None else buffers
    params = model.params
    grads = buffers.grads(params)
    mr, entry_rows = model.class_ordered_targets
    bounds, rows = model.table_layout
    K = bounds[0]
    shape = (K + len(model.vocab), model.config.d)
    SR, tb = buffers.zeros("SR", shape), buffers.zeros("tb", shape[:1])
    model.fill_class_rows(SR, tb)

    def context_rows():
        mq, Q, local = _context_rows(model, contexts)
        return mq, Q, local, model.predictions_batch(local, Q)

    compose_R = partial(_kernels._compose_rows, mr.indptr, mr.indices, mr.data, params.Rf,
                        SR[K:])
    (mq, Q, local, p), _ = _kernels.parallel([context_rows, compose_R], SR.size)

    logps = np.empty(targets.shape[0], dtype=np.float64)
    dp = np.zeros_like(p)
    gSR, gtb = buffers.zeros("grad SR", shape), buffers.zeros("grad tb", shape[:1])
    _kernels.classed_fwd_bwd(p, targets, model.class_of, SR, tb, bounds, rows,
                             logps, dp, gSR, gtb)
    grads.S[model.scorable_classes] += gSR[:K]
    grads.t[model.scorable_classes] += gtb[:K]
    grads.b[model.class_order] += gtb[K:]
    _kernels.parallel([partial(_context_backward, model, mq, Q, local, dp, grads),
                       partial(_kernels._scatter_rows, entry_rows, model.mr.indices,
                               model.mr.data, gSR[K:], grads.Rf)],
                      gSR.size)

    loss = -float(logps.sum())
    loss += _add_l2(model, grads, l2_lambda, regularize_biases)
    return loss, grads


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def nce_loss_and_grad(model: LanguageModel, contexts: np.ndarray, targets: np.ndarray,
                      k: int, noise_probs: np.ndarray, seed,
                      l2_lambda: float = 0.0, regularize_biases: bool = True,
                      buffers: Optional[StepBuffers] = None
                      ) -> tuple[float, ModelParameters]:
    """Noise-contrastive loss for flat models, with gradients.

    Each datum is contrasted against k seeded draws from the noise
    distribution; model scores stay unnormalized. With Delta(x) =
    score(x) - log(k * P_noise(x)), the loss per datum is
    -log sigma(Delta(target)) - sum_i log(1 - sigma(Delta(noise_i))).
    The same seed reproduces the same noise words, so the loss is a
    deterministic function of the parameters. A word's bias and target-row
    gradients add its terms in order: the target terms by datum, then the
    noise terms by datum and draw. The word vectors are composed from the
    factor tables for the batch's context words, targets and noise words
    only; the compiled tables ``params.Q``/``params.R`` are neither read nor
    written. With ``buffers``, the gradients live in its arrays, which the
    next call overwrites.
    """
    if k < 1:
        raise ValueError("need at least one noise sample per datum")
    contexts = np.asarray(contexts, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    buffers = StepBuffers() if buffers is None else buffers
    params = model.params
    grads = buffers.grads(params)
    L = targets.shape[0]

    rng = np.random.default_rng(seed)
    noise = rng.choice(len(model.vocab), size=(L, k), p=noise_probs)
    mq, Q, local = _context_rows(model, contexts)
    p = model.predictions_batch(local, Q)
    # the targets and noise words, ascending, as rows of a composed R
    words, rows = np.unique(np.concatenate((targets, noise.reshape(-1))),
                            return_inverse=True)
    mr = model.mr.select(words)
    R = compile_word_table(mr, params.Rf)
    rows_t, rows_n = rows[:L], rows[L:].reshape(L, k)

    log_kpn = np.full_like(noise_probs, -np.inf)
    np.log(k * noise_probs, out=log_kpn, where=noise_probs > 0)
    nu_t = (p * R[rows_t]).sum(axis=1) + params.b[targets]
    delta_t = nu_t - log_kpn[targets]
    Rn = R[rows_n]
    nu_n = np.einsum("ld,lkd->lk", p, Rn) + params.b[noise]
    delta_n = nu_n - log_kpn[noise]

    loss = float(np.logaddexp(0.0, -delta_t).sum() + np.logaddexp(0.0, delta_n).sum())

    g_t = -_sigmoid(-delta_t)
    g_n = _sigmoid(delta_n)
    gR = np.zeros_like(R)
    np.add.at(grads.b, targets, g_t)
    np.add.at(grads.b, noise.reshape(-1), g_n.reshape(-1))
    _kernels.add_rows(gR, rows_t, g_t[:, None] * p)
    _kernels.add_rows(gR, rows_n.reshape(-1), g_n[..., None] * p[:, None, :])
    dp = g_t[:, None] * R[rows_t] + np.einsum("lk,lkd->ld", g_n, Rn)
    _kernels.scatter_rows(mr.entry_rows(), mr.indices, mr.data, gR, grads.Rf)
    _context_backward(model, mq, Q, local, dp, grads)

    loss += _add_l2(model, grads, l2_lambda, regularize_biases)
    return loss, grads


class TrainState:
    """Parameters, their AdaGrad accumulators and the epoch's step buffers."""

    def __init__(self, params: ModelParameters):
        self.params = params
        self.accum = {name: np.zeros_like(block) for name, block in params.blocks().items()}
        self.buffers = StepBuffers()


def adagrad_step(state: TrainState, grads: ModelParameters, step_size: float,
                 epsilon: float) -> None:
    """accum += g*g; theta -= step_size * g / (sqrt(accum) + epsilon).

    Where the denominator is not positive the update is 0, so entries with
    zero gradient and empty accumulator stay untouched even when epsilon
    is zero. Each block is walked ``ADAGRAD_BLOCK`` rows at a time, the
    row blocks spread over threads; every element gets the same operations
    in the same order.
    """
    blocks = state.params.blocks()
    tasks = []
    for name, g in grads.blocks().items():
        theta, acc = blocks[name], state.accum[name]
        for lo in range(0, g.shape[0], ADAGRAD_BLOCK):
            rows = slice(lo, lo + ADAGRAD_BLOCK)
            tasks.append(partial(_adagrad_rows, theta[rows], acc[rows], g[rows],
                                 step_size, epsilon))
    _kernels.parallel(tasks, sum(g.size for g in grads.blocks().values()))


def _adagrad_rows(theta, acc, g, step_size, epsilon):
    tmp = np.multiply(g, g)
    acc += tmp
    np.sqrt(acc, out=tmp)
    tmp += epsilon
    positive = tmp > 0
    np.divide(g, tmp, out=tmp, where=positive)
    tmp[~positive] = 0.0
    tmp *= step_size
    theta -= tmp


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_ppl: float
    seconds: float


@dataclass
class TrainResult:
    params: ModelParameters
    history: list[EpochRecord] = field(default_factory=list)
    stopped_early: bool = False
    best_dev_ppl: float = float("inf")


@_kernels.one_blas_thread()
def train(model: LanguageModel, train_data: tuple[np.ndarray, np.ndarray],
          dev_data: tuple[np.ndarray, np.ndarray], config: TrainingConfig,
          dev_ppl_fn: Optional[Callable[[LanguageModel, int], float]] = None,
          log_fn: Optional[Callable[[EpochRecord], None]] = None) -> TrainResult:
    """Epochs of shuffled minibatches with per-epoch early stopping.

    After each epoch the word tables are recompiled and development
    perplexity measured (or taken from ``dev_ppl_fn`` when supplied,
    which tests use to inject schedules). Training halts at the first
    epoch whose dev perplexity exceeds the previous epoch's or is not
    finite, or at the first minibatch whose loss is not finite (its step
    is never applied), returning the previous epoch's parameters; or it
    runs ``max_epochs``.
    The model's parameters are updated in place; the returned parameters
    are the selected snapshot. OpenBLAS runs at one thread meanwhile
    (``_kernels.one_blas_thread``), so the bits do not depend on its
    thread count.
    """
    contexts, targets = train_data
    if targets.shape[0] == 0:
        raise DataError("empty training stream")
    if dev_ppl_fn is None:
        if dev_data[1].shape[0] == 0:
            raise DataError("empty development set: no tokens to measure perplexity on")
        from .evaluation import perplexity

        def dev_ppl_fn(m: LanguageModel, epoch: int) -> float:
            return perplexity(m, dev_data[0], dev_data[1]).total_ppl

    state = TrainState(model.params)
    rng = np.random.default_rng(config.seed)
    noise_probs = None if model.config.class_based else laplace_unigram(model.vocab)
    result = TrainResult(params=model.params)
    prev_ppl = None
    snapshot = None
    n_instances = targets.shape[0]
    L = config.minibatch_size

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n_instances)
        epoch_loss = 0.0
        bad_loss = None
        for bi, lo in enumerate(range(0, n_instances, L)):
            idx = order[lo:lo + L]
            bc, bt = contexts[idx], targets[idx]
            if model.config.class_based:
                loss, grads = minibatch_loss_and_grad(
                    model, bc, bt, config.l2_lambda, config.regularize_biases,
                    state.buffers)
            else:
                loss, grads = nce_loss_and_grad(
                    model, bc, bt, config.nce_noise_k, noise_probs,
                    seed=[config.seed, epoch, bi],
                    l2_lambda=config.l2_lambda,
                    regularize_biases=config.regularize_biases,
                    buffers=state.buffers)
            if not math.isfinite(loss):
                bad_loss = loss
                break
            adagrad_step(state, grads, config.step_size, config.adagrad_epsilon)
            epoch_loss += loss
        # no step runs until the next epoch: free the step buffers before the
        # evaluation allocates its block temporaries
        state.buffers = StepBuffers()
        kept = "these parameters" if snapshot is None else f"the epoch {epoch - 1} parameters"
        if bad_loss is not None:
            log.warning("epoch %d: training loss is %s; stopping with %s", epoch, bad_loss, kept)
        else:
            model.recompile()
            dev_ppl = float(dev_ppl_fn(model, epoch))
            record = EpochRecord(epoch, epoch_loss, dev_ppl, time.perf_counter() - started)
            result.history.append(record)
            if log_fn is not None:
                log_fn(record)
            else:
                log.info("epoch %d train_loss %.4f dev_ppl %.4f %.1fs",
                         record.epoch, record.train_loss, record.dev_ppl, record.seconds)
            finite = math.isfinite(dev_ppl)
            if finite and (prev_ppl is None or dev_ppl <= prev_ppl):
                prev_ppl = dev_ppl
                snapshot = model.params.copy()
                continue
            if not finite:
                log.warning("epoch %d: dev perplexity is %s; stopping with %s",
                            epoch, dev_ppl, kept)
        if snapshot is not None:
            model.params.set_from(snapshot)
        model.recompile()
        result.stopped_early = True
        break
    result.best_dev_ppl = prev_ppl if prev_ppl is not None else float("inf")
    result.params = model.params
    return result
