"""Binary model container: everything needed to reload and query a model.

Layout, format 2 (all integers and reals little-endian):

  magic "MLBL", u32 format version
  u32 n, u32 d, u8 context_additive, u8 output_additive, u8 class_based,
  u8 reserved, u64 |V|, u64 |F|, u64 |F_q|, u64 |F_r|, u64 |C|, f64 kappa
    (one struct, ``_HEADER``, which ``save_model`` and ``load_model`` share)
  vocabulary:      u32[|V|] utf-8 byte lengths, the strings back to back,
                   then u64[|V|] counts
  factor vocab:    u32[|F|] utf-8 byte lengths, the strings back to back
  factorization:   u32[|V|] nnz, then sum(nnz) x (u64 factor id, u64 multiplicity)
  partition:       |V| x u64 class id            (only when class-based)
  parameter blocks, row-major finite f64: C, Qf, Rf, b, then S and t when
  class-based. Compiled word tables are caches and are rebuilt on load.

A container of any other version is refused; a model saved in format 1
must be retrained.

A factorization row lists at least one factor, by strictly increasing id,
each with a positive multiplicity; ``load_model`` rejects any other row.
A count must fit in int64.

Every section is an array, or a lengths array followed by the bytes it
measures, so each is written from the arrays and read with one read,
whose size is checked against the file's before anything is allocated.
``save_model`` encodes a string section's text in one call and counts
each string's byte length only when the text is not ASCII. ``load_model``
decodes a string section in one call, with a byte the strings do not
hold between them. When that fails, or no ASCII byte is free, each
string is decoded by itself: the fallback finds the first string that is
not utf-8 on its own, even where its neighbours would complete its
bytes, and names the byte within it. Each parameter block is read into
its final aligned array. Every fault names the path, ``LanguageModel``'s
own checks included, and the first fault in file order is the one
reported (within the factorization, the first in word order).

Round-trips are bit-exact: saving a loaded model reproduces the file
byte for byte, and queries agree exactly before and after a reload.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from ._io import atomic_open, open_file
from .clustering import ClassPartition
from .corpus import Vocabulary
from .errors import DataError, ModelFormatError
from .model import LanguageModel, ModelConfig, ModelParameters
from .morphology import FactorVocabulary, WordFactorization

MAGIC = b"MLBL"
VERSION = 2

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<IIBBBBQQQQQd")


def _read_exact(fh, n: int, end: int) -> bytes:
    """The next ``n`` bytes; ``end`` is the file's size, checked before
    they are allocated."""
    if fh.tell() + n > end:
        raise ModelFormatError("truncated model container")
    raw = fh.read(n)
    if len(raw) != n:
        raise ModelFormatError("truncated model container")
    return raw


def _read_sizes(fh, count: int, end: int) -> np.ndarray:
    """A section's ``count`` u32 lengths, as int64."""
    return np.frombuffer(_read_exact(fh, 4 * count, end), "<u4").astype(np.int64)


def _strings(strings: list[str]) -> tuple[np.ndarray, bytes]:
    """The u32 utf-8 byte length of each string, and the strings' utf-8
    bytes back to back."""
    text = "".join(strings)
    raw = text.encode("utf-8")
    sizes = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    if len(raw) != len(text):   # not ASCII: count the utf-8 bytes of each string
        code = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
        ends = np.zeros(len(code) + 1, dtype=np.int64)
        np.cumsum(1 + (code > 0x7F) + (code > 0x7FF) + (code > 0xFFFF), out=ends[1:])
        chars = np.zeros(len(strings) + 1, dtype=np.int64)
        np.cumsum(sizes, out=chars[1:])
        sizes = np.diff(ends[chars])
    return sizes.astype("<u4"), raw


def _decode(data: bytes, sizes: np.ndarray) -> list[str]:
    """``data`` cut into strings of ``sizes`` bytes, each decoded from utf-8."""
    cuts = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=cuts[1:])
    sep = next((c for c in range(128) if c not in data), None)
    if sep is not None and len(sizes):
        # each string after the separator, decoded in one call
        text = np.insert(np.frombuffer(data, np.uint8), cuts[:-1], sep)
        try:
            return text.tobytes().decode("utf-8").split(chr(sep))[1:]
        except UnicodeDecodeError:
            pass
    cuts = cuts.tolist()
    try:
        return [data[a:b].decode("utf-8") for a, b in zip(cuts, cuts[1:])]
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"string is not utf-8 ({exc})") from exc


def _read_array(fh, name: str, shape: tuple[int, ...], end: int) -> np.ndarray:
    """Parameter block ``name`` read into its own float64 array and checked
    finite; ``end`` is the file's size, checked before the array is allocated."""
    nbytes = 8 * math.prod(shape)
    if fh.tell() + nbytes > end:
        raise ModelFormatError("truncated model container")
    out = np.empty(shape, "<f8")
    if fh.readinto(out.reshape(-1).view(np.uint8)) != nbytes:
        raise ModelFormatError("truncated model container")
    return _finite(name, out.astype(np.float64, copy=False))


def _finite(name: str, block: np.ndarray) -> np.ndarray:
    """``block``; a ModelFormatError names its first value that is not finite."""
    finite = np.isfinite(block)
    if not finite.all():
        at = np.unravel_index(np.argmin(finite), block.shape)
        raise ModelFormatError(f"parameter {name}[{', '.join(map(str, at))}] "
                               f"is not finite ({block[at]})")
    return block


def save_model(model: LanguageModel, path: str | Path) -> None:
    cfg = model.config
    vocab = model.vocab
    fv = model.factor_vocab
    wf = model.factorization
    params = model.params
    num_classes = model.partition.num_classes if cfg.class_based else 0
    try:
        with atomic_open(path, "wb") as fh:
            fh.write(MAGIC + _U32.pack(VERSION))
            fh.write(_HEADER.pack(cfg.n, cfg.d, cfg.context_additive, cfg.output_additive,
                                  cfg.class_based, 0, len(vocab), len(fv), params.Qf.shape[0],
                                  params.Rf.shape[0], num_classes, vocab.kappa))
            fh.writelines(_strings(vocab.types))
            fh.write(np.ascontiguousarray(vocab.counts, dtype="<u8"))
            fh.writelines(_strings(fv.factors))
            pairs = np.empty((len(wf.indices), 2), dtype="<u8")
            pairs[:, 0] = wf.indices
            pairs[:, 1] = wf.data
            fh.writelines([np.diff(wf.indptr).astype("<u4"), pairs])
            if cfg.class_based:
                fh.write(np.ascontiguousarray(model.partition.class_of, dtype="<u8"))
            for name, block in params.blocks().items():
                fh.write(_finite(name, np.ascontiguousarray(block, dtype="<f8")))
    except ModelFormatError as exc:   # a parameter that is not finite: no file is written
        raise ModelFormatError(f"{path}: {exc}") from exc


def load_model(path: str | Path) -> LanguageModel:
    try:
        with open_file(path, "rb") as fh:
            return _read_model(fh)
    except (ValueError, DataError, ModelFormatError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def _read_model(fh) -> LanguageModel:
    end = os.fstat(fh.fileno()).st_size
    if _read_exact(fh, 4, end) != MAGIC:
        raise ModelFormatError("not a model container (bad magic)")
    (version,) = _U32.unpack(_read_exact(fh, 4, end))
    if version != VERSION:
        raise ModelFormatError(f"unsupported container version {version}")
    n, d, ctx_add, out_add, class_based, _, nv, nf, nfq, nfr, nc, kappa = \
        _HEADER.unpack(_read_exact(fh, _HEADER.size, end))
    cfg = ModelConfig(n=n, d=d, context_additive=bool(ctx_add),
                      output_additive=bool(out_add), class_based=bool(class_based))

    sizes = _read_sizes(fh, nv, end)
    text = _read_exact(fh, int(sizes.sum()), end)
    counts = np.frombuffer(_read_exact(fh, 8 * nv, end), dtype="<u8")
    vocab = Vocabulary(_decode(text, sizes), counts.astype(np.int64), kappa)
    big = np.flatnonzero(vocab.counts < 0)
    if big.size:
        raise ModelFormatError(f"word id {big[0]} has count {counts[big[0]]}, "
                               "which does not fit in int64")

    sizes = _read_sizes(fh, nf, end)
    fv = FactorVocabulary(_decode(_read_exact(fh, int(sizes.sum()), end), sizes))
    if len(fv.id_of) != nf:
        raise ModelFormatError("duplicate factor strings in container")

    nnz = _read_sizes(fh, nv, end)
    pairs = np.frombuffer(_read_exact(fh, 16 * int(nnz.sum()), end), dtype="<u8")
    wf = _factorization(pairs.reshape(-1, 2), nnz, nf)

    partition = None
    if class_based:
        class_of = np.frombuffer(_read_exact(fh, nv * 8, end), dtype="<u8")
        bad = np.flatnonzero(class_of >= min(nc, nv))   # before bincount allocates
        if bad.size:
            raise ModelFormatError(f"word id {bad[0]} has class id {class_of[bad[0]]}, "
                                   f"header says {nc} classes for {nv} words")
        partition = ClassPartition(class_of.astype(np.int64))
        if partition.num_classes != nc:
            raise ModelFormatError(f"partition has {partition.num_classes} classes, "
                                   f"header says {nc}")

    C = _read_array(fh, "C", (n - 1, d, d), end)
    Qf = _read_array(fh, "Qf", (nfq, d), end)
    Rf = _read_array(fh, "Rf", (nfr, d), end)
    b = _read_array(fh, "b", (nv,), end)
    S = t = None
    if class_based:
        S = _read_array(fh, "S", (nc, d), end)
        t = _read_array(fh, "t", (nc,), end)
    if fh.read(1):
        raise ModelFormatError("trailing bytes in container")
    return LanguageModel(cfg, vocab, fv, wf, ModelParameters(C, Qf, Rf, b, S, t), partition)


def _factorization(pairs: np.ndarray, nnz: np.ndarray, nf: int) -> WordFactorization:
    """The factorization section's rows, from each row's entry count and
    the (factor id, multiplicity) pairs of all rows, checked; the first
    fault in word order is the one reported."""
    fids, mults = pairs[:, 0], pairs[:, 1]
    indptr = np.zeros(len(nnz) + 1, dtype=np.int64)
    np.cumsum(nnz, out=indptr[1:])
    # an entry's faults in the order they are checked: its id is out of range,
    # not above the previous id of its row, or its multiplicity is 0
    faults = np.zeros((3, len(fids)), dtype=bool)
    faults[0] = fids >= nf
    faults[1, 1:] = fids[1:] <= fids[:-1]
    faults[1, indptr[:-1][nnz > 0]] = False   # a row's first id has no previous one
    faults[2] = mults == 0
    bad = np.flatnonzero(faults.any(axis=0))
    empty = np.flatnonzero(nnz == 0)
    if empty.size and (not bad.size or indptr[empty[0]] <= bad[0]):
        raise ModelFormatError(f"word id {empty[0]} has an empty factorization")
    if bad.size:
        e = int(bad[0])
        v = int(np.searchsorted(indptr, e, side="right")) - 1
        fid = int(fids[e])
        if faults[0, e]:
            raise ModelFormatError(f"factor id {fid} out of range")
        if faults[1, e]:
            raise ModelFormatError(f"factor ids of word id {v} are not strictly increasing")
        raise ModelFormatError(f"factor {fid} of word id {v} has multiplicity 0")
    return WordFactorization(indptr, fids.astype(np.int64), mults.astype(np.float64), nf)
