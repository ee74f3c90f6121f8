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
writes the parameter blocks from the arrays themselves; ``load_model``
reads the file section by section and parses each one in bulk.

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


# bytes read at a time while a section's records are walked
READ_CHUNK = 1 << 20
_U32 = struct.Struct("<I")


def _read_exact(fh, n: int, path) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise ModelFormatError(f"{path}: truncated model container")
    return raw


def _read_records(fh, path, count: int, unit: int, tail: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a section of ``count`` records as ``_records`` writes them: a
    u32 k, k items of ``unit`` bytes, then ``tail`` bytes.

    Only the length prefixes are walked one by one; the section is read
    ``READ_CHUNK`` bytes at a time and what was read past its end is given
    back. Returns the section's bytes, each record's start and each k.
    """
    buf = bytearray()
    lengths: list[int] = []
    append, unpack = lengths.append, _U32.unpack_from
    pos = size = 0
    for _ in range(count):
        if pos + 4 > size:
            size = _read_to(fh, buf, pos + 4, path)
        (k,) = unpack(buf, pos)
        append(k)
        pos += 4 + k * unit + tail
    if pos > size:
        size = _read_to(fh, buf, pos, path)
    fh.seek(pos - size, 1)
    del buf[pos:]
    starts = np.zeros(count, dtype=np.int64)
    np.cumsum(4 + unit * np.array(lengths[:-1], dtype=np.int64) + tail, out=starts[1:])
    return np.frombuffer(buf, dtype=np.uint8), starts, np.array(lengths, dtype=np.int64)


def _read_to(fh, buf: bytearray, size: int, path) -> int:
    """Extend ``buf`` by whole chunks of the file until it holds ``size``
    bytes; returns its new length."""
    while len(buf) < size:
        more = fh.read(READ_CHUNK)
        if not more:
            raise ModelFormatError(f"{path}: truncated model container")
        buf += more
    return len(buf)


def _strings_at(raw: np.ndarray, starts: np.ndarray, lengths: np.ndarray, path) -> list[str]:
    """The utf-8 strings of the records at ``starts``, after their prefixes."""
    data = raw.tobytes()
    try:
        return [data[a:a + k].decode("utf-8")
                for a, k in zip((starts + 4).tolist(), lengths.tolist())]
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: string is not utf-8 ({exc})") from exc


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


def _read_array(fh, shape: tuple[int, ...], path) -> np.ndarray:
    count = int(np.prod(shape)) if shape else 1
    raw = _read_exact(fh, count * 8, path)
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
        if _read_exact(fh, 4, path) != MAGIC:
            raise ModelFormatError(f"{path}: not a model container (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path))
        if version != VERSION:
            raise ModelFormatError(f"{path}: unsupported container version {version}")
        n, d = struct.unpack("<II", _read_exact(fh, 8, path))
        ctx_add, out_add, class_based, _ = struct.unpack("<BBBB", _read_exact(fh, 4, path))
        nv, nf, nfq, nfr, nc = struct.unpack("<QQQQQ", _read_exact(fh, 40, path))
        (kappa,) = struct.unpack("<d", _read_exact(fh, 8, path))
        cfg = ModelConfig(n=n, d=d, context_additive=bool(ctx_add),
                          output_additive=bool(out_add), class_based=bool(class_based))

        raw, starts, lengths = _read_records(fh, path, nv, 1, 8)
        count_at = (starts + 4 + lengths)[:, None] + np.arange(8)
        counts = raw[count_at].view("<u8").reshape(-1).astype(np.int64)
        vocab = Vocabulary(_strings_at(raw, starts, lengths, path), counts, kappa)

        raw, starts, lengths = _read_records(fh, path, nf, 1, 0)
        fv = FactorVocabulary()
        fv.factors = _strings_at(raw, starts, lengths, path)
        fv.id_of = {f: i for i, f in enumerate(fv.factors)}
        if len(fv.id_of) != nf:
            raise ModelFormatError(f"{path}: duplicate factor strings in container")

        raw, starts, nnz = _read_records(fh, path, nv, 16, 0)
        wf = _factorization(raw, starts, nnz, nf, path)

        partition = None
        if class_based:
            class_of = np.frombuffer(_read_exact(fh, nv * 8, path), dtype="<u8")
            partition = ClassPartition(class_of.astype(np.int64))
            if partition.num_classes != nc:
                raise ModelFormatError(f"{path}: partition has {partition.num_classes} "
                                       f"classes, header says {nc}")

        C = _read_array(fh, (n - 1, d, d), path)
        Qf = _read_array(fh, (nfq, d), path)
        Rf = _read_array(fh, (nfr, d), path)
        b = _read_array(fh, (nv,), path)
        S = t = None
        if class_based:
            S = _read_array(fh, (nc, d), path)
            t = _read_array(fh, (nc,), path)
        if fh.read(1):
            raise ModelFormatError(f"{path}: trailing bytes in container")

    params = ModelParameters(C, Qf, Rf, b, S, t)
    return LanguageModel(cfg, vocab, fv, wf, params, partition)


def _factorization(raw: np.ndarray, starts: np.ndarray, nnz: np.ndarray, nf: int,
                   path) -> WordFactorization:
    """The factorization section's rows, checked; the first fault in file
    order is the one reported."""
    body = np.ones(raw.shape[0], dtype=bool)
    body[starts[:, None] + np.arange(4)] = False
    pairs = raw[body].view("<u8").reshape(-1, 2)
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
        raise ModelFormatError(f"{path}: word id {empty[0]} has an empty factorization")
    if bad.size:
        e = int(bad[0])
        v = int(np.searchsorted(indptr, e, side="right")) - 1
        fid = int(fids[e])
        if faults[0, e]:
            raise ModelFormatError(f"{path}: factor id {fid} out of range")
        if faults[1, e]:
            raise ModelFormatError(f"{path}: factor ids of word id {v} are not "
                                   f"strictly increasing")
        raise ModelFormatError(f"{path}: factor {fid} of word id {v} has multiplicity 0")
    return WordFactorization(indptr, fids.astype(np.int64), mults.astype(np.float64), nf)
