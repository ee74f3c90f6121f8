"""Binary model container: everything needed to reload and query a model.

Layout (all integers and reals little-endian):

  magic "MLBL", u32 format version
  u32 n, u32 d, u8 context_additive, u8 output_additive, u8 class_based,
  u8 reserved, u64 |V|, u64 |F|, u64 |F_q|, u64 |F_r|, u64 |C|, f64 kappa
  vocabulary:      |V| x (u32 byte length, utf-8 bytes, u64 count)
  factor vocab:    |F| x (u32 byte length, utf-8 bytes)
  factorization:   |V| x (u32 nnz, nnz x (u64 factor id, u64 multiplicity))
  partition:       |V| x u64 class id            (only when class-based)
  parameter blocks, row-major f64: C, Qf, Rf, b, then S and t when
  class-based. Compiled word tables are caches and are rebuilt on load.

A factorization row lists at least one factor, by strictly increasing id,
each with a positive multiplicity; ``load_model`` rejects any other row.
``save_model`` builds each variable-length section in one buffer and
writes the parameter blocks from the arrays themselves.

Round-trips are bit-exact: saving a loaded model reproduces the file
byte for byte, and queries agree exactly before and after a reload.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ._io import atomic_open
from .clustering import ClassPartition
from .corpus import Vocabulary
from .errors import ModelFormatError
from .model import LanguageModel, ModelConfig, ModelParameters
from .morphology import FactorVocabulary, WordFactorization

MAGIC = b"MLBL"
VERSION = 1


def _read_exact(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise ModelFormatError("truncated model container")
    return raw


def _read_str(fh) -> str:
    (n,) = struct.unpack("<I", _read_exact(fh, 4))
    return _read_exact(fh, n).decode("utf-8")


def _records(prefix: np.ndarray, payload: np.ndarray, sizes: np.ndarray,
             suffix: np.ndarray | None = None) -> np.ndarray:
    """Records back to back, as bytes: record i is u32 prefix[i], then its
    sizes[i] bytes of ``payload`` (the records' payloads concatenated),
    then the bytes of row i of ``suffix``."""
    n = len(sizes)
    suffix = np.empty((n, 0), np.uint8) if suffix is None else suffix
    head = 4 + suffix.shape[1]
    ends = np.cumsum(sizes + head)
    out = np.empty(int(ends[-1]) if n else 0, np.uint8)
    starts = ends - sizes - head
    out[starts[:, None] + np.arange(4)] = prefix.astype("<u4").view(np.uint8).reshape(n, 4)
    out[np.repeat(starts + 4 - np.cumsum(sizes) + sizes, sizes)
        + np.arange(int(sizes.sum()))] = payload
    out[(ends - suffix.shape[1])[:, None] + np.arange(suffix.shape[1])] = suffix
    return out


def _strings(strings: list[str], suffix: np.ndarray | None = None) -> np.ndarray:
    """Length-prefixed utf-8 records of ``strings``, each followed by its
    row of ``suffix``."""
    raw = [s.encode("utf-8") for s in strings]
    sizes = np.fromiter(map(len, raw), dtype=np.int64, count=len(raw))
    return _records(sizes, np.frombuffer(b"".join(raw), np.uint8), sizes, suffix)


def _read_array(fh, shape: tuple[int, ...]) -> np.ndarray:
    count = int(np.prod(shape)) if shape else 1
    raw = _read_exact(fh, count * 8)
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def save_model(model: LanguageModel, path: str | Path) -> None:
    cfg = model.config
    vocab = model.vocab
    fv = model.factor_vocab
    wf = model.factorization
    params = model.params
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<II", cfg.n, cfg.d))
        fh.write(struct.pack("<BBBB", cfg.context_additive, cfg.output_additive,
                             cfg.class_based, 0))
        num_classes = model.partition.num_classes if cfg.class_based else 0
        fh.write(struct.pack("<QQQQQ", len(vocab), len(fv),
                             params.Qf.shape[0], params.Rf.shape[0], num_classes))
        fh.write(struct.pack("<d", vocab.kappa))
        counts = np.ascontiguousarray(vocab.counts, dtype="<u8")
        fh.write(_strings(vocab.types, counts.view(np.uint8).reshape(-1, 8)))
        fh.write(_strings(fv.factors))
        nnz = np.diff(wf.indptr)
        pairs = np.empty((len(wf.indices), 2), dtype="<u8")
        pairs[:, 0] = wf.indices
        pairs[:, 1] = wf.data
        fh.write(_records(nnz, pairs.view(np.uint8).reshape(-1), 16 * nnz))
        if cfg.class_based:
            fh.write(np.ascontiguousarray(model.partition.class_of, dtype="<u8"))
        for block in params.blocks().values():
            fh.write(np.ascontiguousarray(block, dtype="<f8"))


def load_model(path: str | Path) -> LanguageModel:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MAGIC:
            raise ModelFormatError(f"{path}: not a model container (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != VERSION:
            raise ModelFormatError(f"{path}: unsupported container version {version}")
        n, d = struct.unpack("<II", _read_exact(fh, 8))
        ctx_add, out_add, class_based, _ = struct.unpack("<BBBB", _read_exact(fh, 4))
        nv, nf, nfq, nfr, nc = struct.unpack("<QQQQQ", _read_exact(fh, 40))
        (kappa,) = struct.unpack("<d", _read_exact(fh, 8))
        cfg = ModelConfig(n=n, d=d, context_additive=bool(ctx_add),
                          output_additive=bool(out_add), class_based=bool(class_based))

        types = []
        counts = np.empty(nv, dtype=np.int64)
        for i in range(nv):
            types.append(_read_str(fh))
            (counts[i],) = struct.unpack("<Q", _read_exact(fh, 8))
        vocab = Vocabulary(types, counts, kappa)

        fv = FactorVocabulary()
        for _ in range(nf):
            fv.add(_read_str(fh))
        if len(fv) != nf:
            raise ModelFormatError(f"{path}: duplicate factor strings in container")

        rows = []
        for v in range(nv):
            (nnz,) = struct.unpack("<I", _read_exact(fh, 4))
            if nnz == 0:
                raise ModelFormatError(f"{path}: word id {v} has an empty factorization")
            row = {}
            prev = -1
            for _ in range(nnz):
                fid, mult = struct.unpack("<QQ", _read_exact(fh, 16))
                if fid >= nf:
                    raise ModelFormatError(f"{path}: factor id {fid} out of range")
                if fid <= prev:
                    raise ModelFormatError(f"{path}: factor ids of word id {v} are not "
                                           f"strictly increasing")
                if mult == 0:
                    raise ModelFormatError(f"{path}: factor {fid} of word id {v} has "
                                           f"multiplicity 0")
                prev = fid
                row[int(fid)] = int(mult)
            rows.append(row)
        wf = WordFactorization.from_rows(rows, nf)

        partition = None
        if class_based:
            class_of = np.empty(nv, dtype=np.int64)
            for i in range(nv):
                (class_of[i],) = struct.unpack("<Q", _read_exact(fh, 8))
            partition = ClassPartition(class_of)
            if partition.num_classes != nc:
                raise ModelFormatError(f"{path}: partition has {partition.num_classes} "
                                       f"classes, header says {nc}")

        C = _read_array(fh, (n - 1, d, d))
        Qf = _read_array(fh, (nfq, d))
        Rf = _read_array(fh, (nfr, d))
        b = _read_array(fh, (nv,))
        S = t = None
        if class_based:
            S = _read_array(fh, (nc, d))
            t = _read_array(fh, (nc,))
        if fh.read(1):
            raise ModelFormatError(f"{path}: trailing bytes in container")

    params = ModelParameters(C, Qf, Rf, b, S, t)
    return LanguageModel(cfg, vocab, fv, wf, params, partition)
