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


def _write_str(fh, s: str) -> None:
    raw = s.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)


def _read_exact(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise ModelFormatError("truncated model container")
    return raw


def _read_str(fh) -> str:
    (n,) = struct.unpack("<I", _read_exact(fh, 4))
    return _read_exact(fh, n).decode("utf-8")


def _write_array(fh, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


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
        for i, word in enumerate(vocab.types):
            _write_str(fh, word)
            fh.write(struct.pack("<Q", int(vocab.counts[i])))
        for factor in fv.factors:
            _write_str(fh, factor)
        for v in range(len(vocab)):
            row = wf.mu(v)
            fh.write(struct.pack("<I", len(row)))
            for fid, mult in row:
                fh.write(struct.pack("<QQ", fid, mult))
        if cfg.class_based:
            for c in model.partition.class_of:
                fh.write(struct.pack("<Q", int(c)))
        _write_array(fh, params.C)
        _write_array(fh, params.Qf)
        _write_array(fh, params.Rf)
        _write_array(fh, params.b)
        if cfg.class_based:
            _write_array(fh, params.S)
            _write_array(fh, params.t)


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
        for _ in range(nv):
            (nnz,) = struct.unpack("<I", _read_exact(fh, 4))
            row = {}
            for _ in range(nnz):
                fid, mult = struct.unpack("<QQ", _read_exact(fh, 16))
                if fid >= nf:
                    raise ModelFormatError(f"{path}: factor id {fid} out of range")
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
