"""Shared builders for synthetic vocabularies, factorizations, models and corpora."""

from __future__ import annotations

import os
import random
import struct
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from mlbl import _kernels
from mlbl.clustering import ClassPartition
from mlbl.corpus import PAD_ID, PAD_TOKEN, UNK_ID, UNK_TOKEN, Vocabulary, normalize_token
from mlbl.errors import DataError
from mlbl.model import LanguageModel, ModelConfig, ModelParameters, Querier, QueryStats
from mlbl.morphology import (SURFACE_LABEL, FactorVocabulary, WordFactorization,
                             build_factorization)
from mlbl.training import init_params, laplace_unigram


def _letters(i: int, width: int = 3) -> str:
    out = []
    for _ in range(width):
        out.append(chr(ord("a") + i % 26))
        i //= 26
    return "".join(reversed(out))


def make_vocab(n_types: int, counts=None, seed: int = 0) -> Vocabulary:
    """Vocabulary with n_types entries including the two reserved symbols.

    Type names avoid digits so they survive token normalization.
    """
    assert n_types >= 3
    types = [UNK_TOKEN, PAD_TOKEN] + [f"w{_letters(i)}" for i in range(n_types - 2)]
    if counts is None:
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 60, size=n_types)
        counts[0] = int(rng.integers(0, 5))
        counts[1] = 0
    return Vocabulary(types, np.asarray(counts, dtype=np.int64), 0.0)


def random_factorization(n_words: int, n_factors: int, seed: int = 0,
                         max_factors: int = 3, max_mult: int = 2):
    """Arbitrary sparse factorization (no surface-factor structure)."""
    rng = np.random.default_rng(seed)
    fv = FactorVocabulary(f"f{i}|m" for i in range(n_factors))
    rows = []
    for _ in range(n_words):
        k = int(rng.integers(1, max_factors + 1))
        fids = rng.choice(n_factors, size=k, replace=False)
        rows.append({int(f): int(rng.integers(1, max_mult + 1)) for f in fids})
    return fv, factorization_from_rows(rows, n_factors)


def factorization_from_rows(rows: list[dict[int, int]], num_factors: int):
    """A factorization from one ``{factor_id: multiplicity}`` dict per word,
    each row's factors ascending."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indices = []
    data = []
    for v, row in enumerate(rows):
        if not row:
            raise DataError(f"word id {v} has an empty factorization")
        for fid in sorted(row):
            indices.append(fid)
            data.append(float(row[fid]))
        indptr[v + 1] = indptr[v] + len(row)
    return WordFactorization(indptr, np.asarray(indices, dtype=np.int64),
                             np.asarray(data, dtype=np.float64), num_factors)


def random_partition(n_words: int, num_classes: int, seed: int = 0) -> ClassPartition:
    rng = np.random.default_rng(seed)
    class_of = rng.integers(0, num_classes, size=n_words)
    firsts = rng.permutation(n_words)[:num_classes]
    class_of[firsts] = np.arange(num_classes)
    return ClassPartition(class_of.astype(np.int64))


def class_members(part: ClassPartition) -> list[list[int]]:
    """Each class's words, ascending, by a loop over ``part.class_of``."""
    members = [[] for _ in range(part.num_classes)]
    for w, c in enumerate(part.class_of.tolist()):
        members[c].append(w)
    return members


def csr_rows(indptr):
    """The row of each entry of a CSR map."""
    return np.repeat(np.arange(indptr.shape[0] - 1, dtype=np.int64), np.diff(indptr))


def reference_compose_rows(indptr, indices, data, table, out):
    """Oracle for ``_kernels.compose_rows``: one 2-D ``np.add.at`` over all entries."""
    np.add.at(out, csr_rows(indptr), data[:, None] * table[indices])
    return out


def reference_scatter_rows(rows, indices, data, grad_rows, out):
    """Oracle for ``_kernels.scatter_rows``: one 2-D ``np.add.at`` over all entries."""
    np.add.at(out, indices, data[:, None] * grad_rows[rows])
    return out


def reference_add_rows(out, rows, values):
    """Oracle for ``_kernels.add_rows``: the row-wise ``np.add.at``."""
    np.add.at(out, rows, values.reshape(rows.shape[0], out.shape[1]))
    return out


def pool_on(monkeypatch, workers: int = 2) -> None:
    """Make every ``_kernels.parallel`` call spread its tasks over ``workers``
    threads, whatever the size of its work and the CPUs of the machine."""
    monkeypatch.setattr(_kernels, "PARALLEL_MIN", 0)
    monkeypatch.setattr(_kernels, "workers", lambda: workers)


def assert_same_digest_at_one_and_two_blas_threads(module: str, call: str) -> None:
    """Run ``module.call`` (a test module's digest function, which asserts
    each value it digests) in one subprocess per BLAS thread count, as the
    count is fixed when numpy loads; each must succeed and print the same
    digest."""
    tests = Path(__file__).resolve().parent
    code = f"import {module}; print({module}.{call})"
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert digests[0] == digests[1]


def zero_grads(params: ModelParameters) -> ModelParameters:
    """Zero blocks shaped like the trainable blocks of params."""
    return ModelParameters(**{name: np.zeros_like(block)
                              for name, block in params.blocks().items()})


def reference_classed_fwd_bwd(p, targets, class_of, mem_flat, mem_indptr,
                              scorable_cls, S, t, R, b, logps, dp, gS, gt, gR, gb):
    """Oracle for ``_kernels.classed_fwd_bwd``: finds each class's instances
    with one ``np.where`` scan of the batch per class."""
    cls = class_of[targets]
    A = p @ S[scorable_cls].T
    A += t[scorable_cls]
    col = np.searchsorted(scorable_cls, cls)
    lse = _kernels._logsumexp(A)
    logps[:] = A[np.arange(len(targets)), col] - lse
    softmaxes = [(slice(None), scorable_cls, A, lse, col, S, gS, gt)]
    for c in np.unique(cls):
        idx = np.where(cls == c)[0]
        mem = mem_flat[mem_indptr[c]:mem_indptr[c + 1]]
        sc = p[idx] @ R[mem].T
        sc += b[mem]
        lse2 = _kernels._logsumexp(sc)
        pos = np.searchsorted(mem, targets[idx])
        logps[idx] += sc[np.arange(len(idx)), pos] - lse2
        softmaxes.append((idx, mem, sc, lse2, pos, R, gR, gb))
    for rows, ids, G, lse, pos, W, gW, gbias in softmaxes:
        G -= lse[:, None]
        np.exp(G, out=G)
        G[np.arange(len(pos)), pos] -= 1.0
        gW[ids] += G.T @ p[rows]
        gbias[ids] += G.sum(axis=0)
        dp[rows] += G @ W[ids]
    return logps


def reference_add_l2(model, grads, l2_lambda, regularize_biases):
    """``training._add_l2`` in its allocating form."""
    if l2_lambda == 0.0:
        return 0.0
    term = 0.0
    for name, block in model.params.blocks().items():
        if not regularize_biases and name in ("b", "t"):
            continue
        term += float((block * block).sum())
        grads.blocks()[name] += 2.0 * l2_lambda * block
    return l2_lambda * term


def reference_context_backward(model, contexts, dp, grads):
    """``training._context_backward`` over the full compiled Q: a V-row
    gradient table filled by row-wise ``np.add.at``, scattered through the
    whole context map."""
    params = model.params
    Qc = params.Q[contexts]
    gQ = np.zeros_like(params.Q)
    for j in range(model.config.n - 1):
        grads.C[j] += Qc[:, j, :].T @ dp
        np.add.at(gQ, contexts[:, j], dp @ params.C[j].T)
    mq = model.mq
    reference_scatter_rows(csr_rows(mq.indptr), mq.indices, mq.data, gQ, grads.Qf)


def reference_minibatch_loss_and_grad(model, contexts, targets, l2_lambda=0.0,
                                      regularize_biases=True):
    """Full-table oracle for ``training.minibatch_loss_and_grad``: recompiles
    all of Q and R, fills a V-row context gradient and scans the batch once
    per class."""
    model.recompile()
    contexts = np.asarray(contexts, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    params = model.params
    grads = zero_grads(params)
    p = model.predictions_batch(contexts, params.Q)
    logps = np.empty(targets.shape[0], dtype=np.float64)
    dp = np.zeros_like(p)
    gR = np.zeros_like(params.R)
    reference_classed_fwd_bwd(
        p, targets, model.class_of, model.members_flat, model.members_indptr,
        model.scorable_classes, params.S, params.t, params.R, params.b,
        logps, dp, grads.S, grads.t, gR, grads.b)
    mr = model.mr
    reference_scatter_rows(csr_rows(mr.indptr), mr.indices, mr.data, gR, grads.Rf)
    reference_context_backward(model, contexts, dp, grads)
    loss = -float(logps.sum())
    loss += reference_add_l2(model, grads, l2_lambda, regularize_biases)
    return loss, grads


def reference_save_model(model: LanguageModel, path) -> None:
    """Oracle for ``container.save_model``: one ``struct.pack`` per field."""
    cfg, vocab, fv, wf, params = (model.config, model.vocab, model.factor_vocab,
                                  model.factorization, model.params)

    def write_strs(fh, strings) -> None:
        raws = [s.encode("utf-8") for s in strings]
        for raw in raws:
            fh.write(struct.pack("<I", len(raw)))
        for raw in raws:
            fh.write(raw)

    with open(path, "wb") as fh:
        fh.write(b"MLBL")
        fh.write(struct.pack("<I", 2))
        fh.write(struct.pack("<II", cfg.n, cfg.d))
        fh.write(struct.pack("<BBBB", cfg.context_additive, cfg.output_additive,
                             cfg.class_based, 0))
        num_classes = model.partition.num_classes if cfg.class_based else 0
        fh.write(struct.pack("<QQQQQ", len(vocab), len(fv),
                             params.Qf.shape[0], params.Rf.shape[0], num_classes))
        fh.write(struct.pack("<d", vocab.kappa))
        write_strs(fh, vocab.types)
        for count in vocab.counts:
            fh.write(struct.pack("<Q", int(count)))
        write_strs(fh, fv.factors)
        rows = [wf.mu(v) for v in range(len(vocab))]
        for row in rows:
            fh.write(struct.pack("<I", len(row)))
        for row in rows:
            for fid, mult in row:
                fh.write(struct.pack("<QQ", fid, mult))
        if cfg.class_based:
            for c in model.partition.class_of:
                fh.write(struct.pack("<Q", int(c)))
        for block in params.blocks().values():
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def reference_load_model(path) -> dict:
    """Oracle for ``container.load_model`` on a valid container: one
    ``struct.unpack`` per field. Returns each stored field by name, the
    parameter blocks under their ``ModelParameters.blocks`` names."""

    with open(path, "rb") as fh:
        def unpack(fmt: str):
            return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))

        def read_strs(count: int) -> list[str]:
            sizes = [unpack("<I")[0] for _ in range(count)]
            return [fh.read(k).decode("utf-8") for k in sizes]

        assert fh.read(4) == b"MLBL" and unpack("<I") == (2,)
        n, d = unpack("<II")
        _, _, class_based, _ = unpack("<BBBB")
        nv, nf, nfq, nfr, nc = unpack("<QQQQQ")
        (kappa,) = unpack("<d")
        out = {"kappa": kappa, "indptr": [0], "indices": [], "data": []}
        out["types"] = read_strs(nv)
        out["counts"] = [unpack("<Q")[0] for _ in range(nv)]
        out["factors"] = read_strs(nf)
        for nnz in [unpack("<I")[0] for _ in range(nv)]:
            for _ in range(nnz):
                fid, mult = unpack("<QQ")
                out["indices"].append(fid)
                out["data"].append(float(mult))
            out["indptr"].append(out["indptr"][-1] + nnz)
        if class_based:
            out["class_of"] = [unpack("<Q")[0] for _ in range(nv)]
        shapes = {"C": (n - 1, d, d), "Qf": (nfq, d), "Rf": (nfr, d), "b": (nv,)}
        if class_based:
            shapes.update(S=(nc, d), t=(nc,))
        for name, shape in shapes.items():
            count = int(np.prod(shape))
            out[name] = np.array(unpack(f"<{count}d"), dtype=np.float64).reshape(shape)
        assert fh.read(1) == b""
    return out


def reference_ngrams(sentences_ids, n: int):
    """Scalar windowing oracle: per token, its n-1 predecessors left-padded with PAD."""
    contexts, targets = [], []
    for sent in sentences_ids:
        sent = [int(w) for w in sent]
        for i, target in enumerate(sent):
            contexts.append([PAD_ID] * max(0, n - 1 - i) + sent[max(0, i - n + 1):i])
            targets.append(target)
    return (np.asarray(contexts, dtype=np.int64).reshape(len(targets), n - 1),
            np.asarray(targets, dtype=np.int64))


def flat_ids(sentences_ids) -> tuple[np.ndarray, np.ndarray]:
    """Lists of ids in the flat (ids, lengths) form of ``Vocabulary.encode_corpus``."""
    sents = [[int(w) for w in sent] for sent in sentences_ids]
    return (np.array([w for sent in sents for w in sent], dtype=np.int64),
            np.array([len(sent) for sent in sents], dtype=np.int64))


def sentence_ids(ids, lengths) -> list[list[int]]:
    """The flat (ids, lengths) form split back into one id list per sentence."""
    ends = np.cumsum(lengths)
    return [ids[end - length:end].tolist() for end, length in zip(ends, lengths)]


def reference_build_vocabulary(sentences, kappa: float = 0.0, seed: int = 0) -> Vocabulary:
    """Oracle for ``build_vocabulary``: normalizes and counts token by token."""
    counts: dict[str, int] = {}
    reserved_hits = 0
    for sent in sentences:
        for tok in sent:
            tok = normalize_token(tok)
            if tok == UNK_TOKEN or tok == PAD_TOKEN:
                reserved_hits += 1
                continue
            counts[tok] = counts.get(tok, 0) + 1
    if not counts and reserved_hits == 0:
        raise DataError("empty corpus: no tokens found")
    singletons = sorted(t for t, c in counts.items() if c == 1)
    shuffled = list(singletons)
    random.Random(seed).shuffle(shuffled)
    pruned = set(shuffled[:int(kappa * len(singletons) + 0.5)])
    kept = [(t, c) for t, c in counts.items() if t not in pruned]
    types = [UNK_TOKEN, PAD_TOKEN] + [t for t, _ in kept]
    kept_counts = [len(pruned) + reserved_hits, 0] + [c for _, c in kept]
    return Vocabulary(types, np.asarray(kept_counts, dtype=np.int64), kappa)


def unigram_perplexity(vocab: Vocabulary, targets: np.ndarray) -> float:
    """Perplexity of the add-one smoothed unigram baseline on a target stream."""
    probs = laplace_unigram(vocab)
    logps = np.log(probs[targets])
    return float(np.exp(-logps.mean()))


def reference_parse_segmentations(path) -> dict[str, list[str]]:
    """Oracle for ``parse_segmentations``: checks and normalizes line by line,
    item by item."""
    segs: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0] or not fields[1]:
                raise DataError(f"{path}:{lineno}: expected word<TAB>morpheme list")
            word = normalize_token(fields[0])
            if word in segs:
                raise DataError(f"{path}:{lineno}: duplicate entry for {word!r}")
            morphs = []
            for item in fields[1].split(" "):
                if not item:
                    continue
                if "|" not in item:
                    raise DataError(f"{path}:{lineno}: morpheme {item!r} lacks a |label")
                text, label = item.rsplit("|", 1)
                if not text or not label:
                    raise DataError(f"{path}:{lineno}: empty morpheme or label in {item!r}")
                if label == SURFACE_LABEL:
                    raise DataError(f"{path}:{lineno}: label {SURFACE_LABEL!r} is reserved")
                morphs.append(f"{normalize_token(text)}|{label}")
            if not morphs:
                raise DataError(f"{path}:{lineno}: no morphemes listed")
            segs[word] = morphs
    return segs


def reference_build_factorization(vocab: Vocabulary, segs=None):
    """Oracle for ``build_factorization``: one factor dict per word, factor
    ids added one at a time in first-encounter order."""
    segs = segs or {}
    id_of: dict[str, int] = {}
    rows: list[dict[int, int]] = []
    for word in vocab.types:
        row: dict[int, int] = {}
        for factor in [f"{word}|{SURFACE_LABEL}", *segs.get(word, ())]:
            fid = id_of.setdefault(factor, len(id_of))
            row[fid] = row.get(fid, 0) + 1
        rows.append(row)
    return FactorVocabulary(id_of), factorization_from_rows(rows, len(id_of))


def reference_save_mu(wf: WordFactorization, path, vocab: Vocabulary,
                      factor_vocab: FactorVocabulary) -> None:
    """Oracle for ``WordFactorization.save``: one line write per word."""
    with open(path, "w", encoding="utf-8") as fh:
        for v, word in enumerate(vocab.types):
            parts = []
            for fid, mult in wf.mu(v):
                parts.extend([factor_vocab.factors[fid]] * mult)
            fh.write(f"{word}\t{' '.join(parts)}\n")


def reference_frequency_bin(vocab: Vocabulary, num_classes: int) -> ClassPartition:
    """Oracle for ``frequency_bin``: one bin decision per word, on numpy scalars."""
    n = len(vocab)
    order = np.lexsort((np.arange(n), -vocab.counts))
    total = float(vocab.counts.sum())
    class_of = np.empty(n, dtype=np.int64)
    cum = 0.0
    bin_id = 0
    for i, w in enumerate(order):
        class_of[w] = bin_id
        cum += float(vocab.counts[w])
        bins_left = num_classes - bin_id - 1
        if bins_left == 0:
            continue
        if cum >= total * (bin_id + 1) / num_classes or n - i - 1 == bins_left:
            bin_id += 1
    return ClassPartition(class_of)


def reference_bigram_counts(sentences_ids) -> dict:
    """Scalar adjacent-pair counts with PAD before each sentence."""
    counts = {}
    for sent in sentences_ids:
        prev = PAD_ID
        for w in map(int, sent):
            counts[(prev, w)] = counts.get((prev, w), 0) + 1
            prev = w
    return counts


def reference_ranks(vals) -> list[float]:
    """Brute-force average ranks: 1 plus the number of smaller values plus
    half the number of other equal ones."""
    return [1.0 + sum(1 for o in vals if o < v)
            + 0.5 * sum(1 for j, o in enumerate(vals) if o == v and j != i)
            for i, v in enumerate(vals)]


def random_model(variant: str, n_types: int = 30, n_factors: int = 12,
                 num_classes: int = 5, d: int = 4, n: int = 3, seed: int = 0,
                 init_sigma: float = 0.5) -> LanguageModel:
    """A fully random model of any variant, usable for property tests."""
    cfg = ModelConfig.from_variant(variant, n=n, d=d)
    vocab = make_vocab(n_types, seed=seed)
    if cfg.context_additive or cfg.output_additive:
        fv, wf = random_factorization(n_types, n_factors, seed=seed + 1)
    else:
        fv, wf = build_factorization(vocab, None)
    partition = random_partition(n_types, num_classes, seed + 2) if cfg.class_based else None
    params = init_params(cfg, vocab, fv, wf, partition, init_sigma=init_sigma,
                         seed=seed + 3)
    return LanguageModel(cfg, vocab, fv, wf, params, partition)


def class_tables(model: LanguageModel) -> tuple[np.ndarray, np.ndarray]:
    """Class vectors S and biases t by class id: zeros for a flat model's one class."""
    if model.config.class_based:
        return model.params.S, model.params.t
    return np.zeros((1, model.config.d)), np.zeros(1)


def reference_distribution(model: LanguageModel, context) -> np.ndarray:
    """Dense oracle: probabilities of every word id given a context (PAD gets zero)."""
    p = model.predict(model.params.Q[list(context)])
    probs = np.zeros(len(model.vocab), dtype=np.float64)
    S, t = class_tables(model)
    cls = model.scorable_classes
    tau = S[cls] @ p + t[cls]
    m = tau.max()
    e = np.exp(tau - m)
    pc = e / e.sum()
    for pci, c in zip(pc, cls):
        lo, hi = model.members_indptr[c], model.members_indptr[c + 1]
        members = model.members_flat[lo:hi]
        scores = model.params.R[members] @ p + model.params.b[members]
        mw = scores.max()
        ew = np.exp(scores - mw)
        probs[members] = pci * (ew / ew.sum())
    return probs


class ReferenceCache:
    """Oracle for ``NormalizerCache``'s counters: one dict entry per context
    key holding its prediction vector and class log-normalizer, one per
    (context key, class) holding the within-class log-normalizer."""

    def __init__(self, capacity: int = 65_536) -> None:
        self.capacity = capacity
        self.contexts: dict = {}
        self.words: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self.contexts) + len(self.words)

    def context(self, key: tuple, compute: Callable):
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

    def word_norm(self, key: tuple, c: int, compute: Callable) -> float:
        value = self.words.get((key, c))
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = self.words[key, c] = compute()
        return value


def reference_log_prob_at(model: LanguageModel, vectors, key, w: int,
                          cache: ReferenceCache | None = None,
                          stats: QueryStats | None = None) -> float:
    """Per-token oracle for the query path: log probability of w after the
    n-1 context vectors, each product computed alone (gemv and dot)."""
    stats = QueryStats() if stats is None else stats
    c = int(model.class_of[w])
    S, t = class_tables(model)

    def context_terms():
        p = np.zeros(model.config.d, dtype=np.float64)
        for j, q in enumerate(vectors):
            p += q @ model.params.C[j]
        ids = model.scorable_classes
        stats.score_ops += len(ids)
        return p, float(_kernels._logsumexp(S[ids] @ p + t[ids]))

    def word_terms(p):
        members = model.members_flat[model.members_indptr[c]:model.members_indptr[c + 1]]
        stats.score_ops += len(members)
        return float(_kernels._logsumexp(model.params.R[members] @ p
                                         + model.params.b[members]))

    if cache is None:
        p, norm_c = context_terms()
        norm_w = word_terms(p)
    else:
        p, norm_c = cache.context(key, context_terms)
        norm_w = cache.word_norm(key, c, lambda: word_terms(p))
    stats.score_ops += 2
    tau = float(np.dot(p, S[c]) + t[c])
    nu = float(np.dot(p, model.params.R[w]) + model.params.b[w])
    return (tau - norm_c) + (nu - norm_w)


def reference_score_sentence(model: LanguageModel, tokens, cache: ReferenceCache | None = None,
                             stats: QueryStats | None = None, segs=None):
    """Per-token oracle for ``Querier.score_sentence``: each token normalized,
    looked up and scored on its own, in order."""
    vocab, Q, n = model.vocab, model.params.Q, model.config.n

    def context_item(token):
        wid = vocab.find(token)
        if wid is not None:
            return Q[wid], wid
        if segs is not None:
            q, _ = model.compose_unknown(token, segs)
            if q is not None:
                return q, ("oov", token)
        return Q[UNK_ID], UNK_ID

    norm = [normalize_token(t) for t in tokens]
    items = [(Q[PAD_ID], PAD_ID)] * (n - 1) + [context_item(t) for t in norm[:-1]]
    vectors = [vec for vec, _ in items]
    markers = [marker for _, marker in items]
    return [(tokens[i], reference_log_prob_at(model, vectors[i:i + n - 1],
                                              tuple(markers[i:i + n - 1]),
                                              vocab.lookup(tok), cache, stats))
            for i, tok in enumerate(norm)]


def scorer_distributions(model: LanguageModel, context) -> tuple[np.ndarray, np.ndarray]:
    """The program's probabilities of every word id given a context (PAD gets
    zero): exp of ``Querier.log_prob``, and exp of ``logprobs_batch``."""
    words = model.scorable_ids
    querier = Querier(model, use_cache=False)
    per_token = np.zeros(len(model.vocab), dtype=np.float64)
    batch = np.zeros(len(model.vocab), dtype=np.float64)
    per_token[words] = np.exp([querier.log_prob(context, int(w)) for w in words])
    contexts = np.tile(np.asarray(context, dtype=np.int64), (len(words), 1))
    batch[words] = np.exp(model.logprobs_batch(contexts, words))
    return per_token, batch


def scoring_instances(variant: str, n: int, L: int = 400, n_types: int = 40, d: int = 5,
                      seed: int = 4) -> tuple[LanguageModel, np.ndarray, np.ndarray]:
    """A random model and L random (context, target) instances for it."""
    model = random_model(variant, n_types=n_types, n_factors=17, num_classes=6, d=d, n=n,
                         seed=seed)
    rng = np.random.default_rng(seed)
    contexts = rng.integers(0, n_types, size=(L, n - 1))
    targets = np.asarray(rng.choice(model.scorable_ids, size=L), dtype=np.int64)
    return model, contexts, targets


def querier_logprobs(model: LanguageModel, contexts, targets, use_cache: bool) -> list[float]:
    """``Querier.log_prob`` of each instance, in order, through one Querier."""
    q = Querier(model, use_cache=use_cache)
    return [q.log_prob(c, w) for c, w in zip(np.asarray(contexts).tolist(),
                                             np.asarray(targets).tolist())]


def toy_morph_model(n_types=20, n_factors=12, num_classes=4, d=5, n=3, seed=0,
                    variant="clbl++", init_sigma=0.3):
    """Small model with a shared-factor map (|F| < |V|) for gradient checks."""
    cfg = ModelConfig.from_variant(variant, n=n, d=d)
    vocab = make_vocab(n_types, seed=seed)
    fv, wf = random_factorization(n_types, n_factors, seed=seed + 1)
    partition = random_partition(n_types, num_classes, seed + 2) if cfg.class_based else None
    params = init_params(cfg, vocab, fv, wf, partition, init_sigma, seed=seed + 3)
    return LanguageModel(cfg, vocab, fv, wf, params, partition)


def random_batch(model, size, seed=0):
    rng = np.random.default_rng(seed)
    V = len(model.vocab)
    ctx = rng.integers(0, V, size=(size, model.config.n - 1)).astype(np.int64)
    tgt = np.asarray(rng.choice(model.scorable_ids, size=size), dtype=np.int64)
    return ctx, tgt


def fd_check(model, loss_fn, rel_tol=1e-4, h=1e-5):
    """Central finite differences against analytic gradients, blockwise."""
    loss0, grads = loss_fn()
    worst = 0.0
    for name, block in model.params.blocks().items():
        g = grads.blocks()[name]
        flat = block.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_fn()
            flat[i] = orig - h
            lm, _ = loss_fn()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-8)
            worst = max(worst, rel)
            assert rel <= rel_tol, f"{name}[{i}]: analytic {gflat[i]} vs fd {fd}"
    return worst


def zeroed(model: LanguageModel) -> LanguageModel:
    """Zero every parameter block in place (biases included) and recompile."""
    for block in model.params.blocks().values():
        block[...] = 0.0
    model.recompile()
    return model


def morph_corpus(n_tokens: int, n_stems: int = 60, n_suffixes: int = 8,
                 seed: int = 0, zipf_a: float = 1.6, agree: float = 0.75,
                 persist: float = 0.0, sent_len: int = 18):
    """Synthetic morphology-rich corpus: stem+suffix tokens with suffix agreement.

    Stems are Zipf-distributed; each token's suffix repeats the previous
    token's suffix with probability ``agree`` (uniform otherwise), so
    suffixes are predictable from context while rare stems produce rare
    surface forms. With ``persist`` > 0 a token also repeats the previous
    stem with that probability, giving stems contextual signal. Returns
    (sentences, segmentations) where sentences is a list of token lists
    and segmentations maps each surface form to its labelled morphemes.
    """
    rng = np.random.default_rng(seed)
    stems = ["st" + _letters(i) for i in range(n_stems)]
    suffixes = ["k" + _letters(j, 2) for j in range(n_suffixes)]
    stem_p = 1.0 / np.arange(1, n_stems + 1) ** zipf_a
    stem_p /= stem_p.sum()

    stem_draws = rng.choice(n_stems, size=n_tokens, p=stem_p)
    stay = rng.random(n_tokens) < agree
    hold = rng.random(n_tokens) < persist
    jump = rng.integers(0, n_suffixes, size=n_tokens)

    sentences = []
    segs = {}
    sent: list[str] = []
    suffix = int(jump[0])
    stem = int(stem_draws[0])
    for i in range(n_tokens):
        if not sent or not stay[i]:
            suffix = int(jump[i])
        if not sent or not hold[i]:
            stem = int(stem_draws[i])
        word = stems[stem] + suffixes[suffix]
        if word not in segs:
            segs[word] = [f"{stems[stem]}|stem", f"{suffixes[suffix]}|suffix"]
        sent.append(word)
        if len(sent) == sent_len:
            sentences.append(sent)
            sent = []
    if sent:
        sentences.append(sent)
    return sentences, segs


def write_corpus(path, sentences) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            fh.write(" ".join(sent) + "\n")


def write_segs(path, segs: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word in sorted(segs):
            fh.write(word + "\t" + " ".join(segs[word]) + "\n")
