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

The three variable sections are runs of records ``u32 k, k items, a fixed
tail``. ``save_model`` builds each section in one buffer: a string
section's text is encoded in one call, with each string's byte length
counted only when the text is not ASCII, and the payloads, prefixes and
tails are placed through one boolean mask of the payload bytes. The
parameter blocks are written from the arrays themselves.

``load_model`` reads the variable sections in one read, sized from the
file and the header, and walks their length prefixes over that buffer; a
walk that runs past it, as in a damaged file, reads the rest of the file.
A string section is decoded in one call, with a byte the strings do not
hold between them. When that fails, or no ASCII byte is free, each
string is decoded by itself: the fallback finds the first string that is not utf-8 on its own, even where
its neighbours would complete its bytes, and names the byte within it.
Each parameter block is read into its final aligned array. Every fault
names the path, ``LanguageModel``'s own checks included, and the first
fault in file order is the one reported.

Round-trips are bit-exact: saving a loaded model reproduces the file
byte for byte, and queries agree exactly before and after a reload.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from ._io import atomic_open
from .clustering import ClassPartition
from .corpus import Vocabulary
from .errors import DataError, ModelFormatError
from .model import LanguageModel, ModelConfig, ModelParameters
from .morphology import FactorVocabulary, WordFactorization

MAGIC = b"MLBL"
VERSION = 1

_U32 = struct.Struct("<I")


def _read_exact(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise ModelFormatError("truncated model container")
    return raw


def _body(sizes: np.ndarray, tail: int, head: int = 4) -> np.ndarray:
    """Mask of the payload bytes of records laid out back to back, each as
    ``head`` bytes, sizes[i] payload bytes, then ``tail`` bytes."""
    if not len(sizes):
        return np.zeros(0, dtype=bool)
    runs = np.full(2 * len(sizes) + 1, head + tail)   # a tail and the next head
    runs[0], runs[-1] = head, tail
    runs[1::2] = sizes
    payload = np.zeros(len(runs), dtype=bool)
    payload[1::2] = True
    return np.repeat(payload, runs)


def _records(prefix: np.ndarray, payload: np.ndarray, sizes: np.ndarray,
             suffix: np.ndarray | None = None) -> np.ndarray:
    """Records back to back, as bytes: record i is u32 prefix[i], then its
    sizes[i] bytes of ``payload`` (the records' payloads concatenated),
    then the bytes of row i of ``suffix``."""
    n = len(sizes)
    heads = np.empty((n, 4 + (0 if suffix is None else suffix.shape[1])), np.uint8)
    heads[:, :4] = prefix.astype("<u4").view(np.uint8).reshape(n, 4)
    if suffix is not None:
        heads[:, 4:] = suffix
    body = _body(sizes, heads.shape[1] - 4)
    out = np.empty(body.shape[0], np.uint8)
    out[body] = payload
    # what is not payload is each record's prefix and suffix, in record order
    out[~body] = heads.reshape(-1)
    return out


def _strings(strings: list[str], suffix: np.ndarray | None = None) -> np.ndarray:
    """Length-prefixed utf-8 records of ``strings``, each followed by its
    row of ``suffix``."""
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
    return _records(sizes, np.frombuffer(raw, np.uint8), sizes, suffix)


class _Sections:
    """The container's variable sections, read in one call from ``fh`` and
    walked record by record; ``size`` is their expected byte count."""

    def __init__(self, fh, size: int) -> None:
        self.fh = fh
        self.buf = fh.read(max(size, 0))
        self.pos = 0

    def records(self, count: int, unit: int, tail: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``count`` records as ``_records`` writes them: a u32 k,
        k items of ``unit`` bytes, then ``tail`` bytes. Returns the
        section's bytes and each k. Only the length prefixes are walked one
        by one."""
        start = pos = self.pos
        step, unpack = 4 + tail, _U32.unpack_from
        while True:
            try:
                ends = [pos := pos + step + unit * unpack(self.buf, pos)[0]
                        for _ in range(count)]
                if pos <= len(self.buf):
                    break
            except struct.error:   # a prefix past the end of the buffer
                pass
            more = self.fh.read()
            if not more:
                raise ModelFormatError("truncated model container")
            self.buf += more
            pos = start
        self.pos = pos
        sizes = np.diff(np.array(ends, dtype=np.int64), prepend=start) - step
        return np.frombuffer(self.buf, np.uint8, pos - start, start), sizes // unit

    def strings(self, count: int, tail: int) -> tuple[list[str], np.ndarray]:
        """The next ``count`` length-prefixed utf-8 strings, each followed by
        ``tail`` bytes; returns them and the tails as rows of bytes."""
        raw, sizes = self.records(count, 1, tail)
        body = _body(sizes, tail)
        data = raw[body].tobytes()
        tails = raw[~body].reshape(count, 4 + tail)[:, 4:]
        sep = next((c for c in range(128) if c not in data), None)
        if sep is not None and count:
            # each string after the separator, decoded in one call
            text = np.full(len(data) + count, sep, np.uint8)
            text[_body(sizes, 0, head=1)] = np.frombuffer(data, np.uint8)
            try:
                return text.tobytes().decode("utf-8").split(chr(sep))[1:], tails
            except UnicodeDecodeError:
                pass
        cuts = np.concatenate(([0], np.cumsum(sizes))).tolist()
        try:
            return [data[a:b].decode("utf-8") for a, b in zip(cuts, cuts[1:])], tails
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"string is not utf-8 ({exc})") from exc

    def close(self) -> None:
        """Give back to the file what was read past the sections."""
        self.fh.seek(self.pos - len(self.buf), 1)


def _read_array(fh, shape: tuple[int, ...], end: int) -> np.ndarray:
    """A parameter block read into its own float64 array; ``end`` is the
    file's size, checked before the array is allocated."""
    nbytes = 8 * math.prod(shape)
    if fh.tell() + nbytes > end:
        raise ModelFormatError("truncated model container")
    out = np.empty(shape, "<f8")
    if fh.readinto(out.reshape(-1).view(np.uint8)) != nbytes:
        raise ModelFormatError("truncated model container")
    return out.astype(np.float64, copy=False)


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
    try:
        with open(path, "rb") as fh:
            return _read_model(fh)
    except (ValueError, DataError, ModelFormatError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def _read_model(fh) -> LanguageModel:
    if _read_exact(fh, 4) != MAGIC:
        raise ModelFormatError("not a model container (bad magic)")
    (version,) = struct.unpack("<I", _read_exact(fh, 4))
    if version != VERSION:
        raise ModelFormatError(f"unsupported container version {version}")
    n, d = struct.unpack("<II", _read_exact(fh, 8))
    ctx_add, out_add, class_based, _ = struct.unpack("<BBBB", _read_exact(fh, 4))
    nv, nf, nfq, nfr, nc = struct.unpack("<QQQQQ", _read_exact(fh, 40))
    (kappa,) = struct.unpack("<d", _read_exact(fh, 8))
    cfg = ModelConfig(n=n, d=d, context_additive=bool(ctx_add),
                      output_additive=bool(out_add), class_based=bool(class_based))

    # the variable sections end where the partition and the parameter blocks begin
    end = os.fstat(fh.fileno()).st_size
    floats = (n - 1) * d * d + (nfq + nfr) * d + nv + (nv + nc * (d + 1) if class_based else 0)
    sections = _Sections(fh, end - fh.tell() - 8 * floats)
    types, tails = sections.strings(nv, 8)
    counts = np.ascontiguousarray(tails).view("<u8").reshape(-1).astype(np.int64)
    vocab = Vocabulary(types, counts, kappa)

    fv = FactorVocabulary(sections.strings(nf, 0)[0])
    if len(fv.id_of) != nf:
        raise ModelFormatError("duplicate factor strings in container")

    raw, nnz = sections.records(nv, 16, 0)
    wf = _factorization(raw, nnz, nf)
    sections.close()

    partition = None
    if class_based:
        class_of = np.frombuffer(_read_exact(fh, nv * 8), dtype="<u8")
        bad = np.flatnonzero(class_of >= min(nc, nv))   # before bincount allocates
        if bad.size:
            raise ModelFormatError(f"word id {bad[0]} has class id {class_of[bad[0]]}, "
                                   f"header says {nc} classes for {nv} words")
        partition = ClassPartition(class_of.astype(np.int64))
        if partition.num_classes != nc:
            raise ModelFormatError(f"partition has {partition.num_classes} classes, "
                                   f"header says {nc}")

    C = _read_array(fh, (n - 1, d, d), end)
    Qf = _read_array(fh, (nfq, d), end)
    Rf = _read_array(fh, (nfr, d), end)
    b = _read_array(fh, (nv,), end)
    S = t = None
    if class_based:
        S = _read_array(fh, (nc, d), end)
        t = _read_array(fh, (nc,), end)
    if fh.read(1):
        raise ModelFormatError("trailing bytes in container")
    return LanguageModel(cfg, vocab, fv, wf, ModelParameters(C, Qf, Rf, b, S, t), partition)


def _factorization(raw: np.ndarray, nnz: np.ndarray, nf: int) -> WordFactorization:
    """The factorization section's rows, checked; the first fault in file
    order is the one reported."""
    pairs = raw[_body(16 * nnz, 0)].view("<u8").reshape(-1, 2)
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
