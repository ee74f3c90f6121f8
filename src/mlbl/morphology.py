"""Additive word representations built from labelled morphological factors.

A word maps to a multiset of factors: its surface form plus any
morphemes supplied by a segmentation file. Factors are labelled strings
("perfect|stem", "ion|suffix", "imperfection|surface") so homographs
with different roles get distinct vectors. Word vectors are the
multiplicity-weighted sums of their factor vectors; full word tables are
compiled from factor tables through the sparse word-by-factor count
matrix.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import _kernels
from ._io import atomic_open, parse_field, read_tsv
from .corpus import Vocabulary, normalize_token
from .errors import DataError

SURFACE_LABEL = "surface"


class FactorVocabulary:
    """Dense id space over labelled factor strings."""

    def __init__(self) -> None:
        self.factors: list[str] = []
        self.id_of: dict[str, int] = {}

    def add(self, factor: str) -> int:
        fid = self.id_of.get(factor)
        if fid is None:
            fid = len(self.factors)
            self.factors.append(factor)
            self.id_of[factor] = fid
        return fid

    def __len__(self) -> int:
        return len(self.factors)

    def __contains__(self, factor: str) -> bool:
        return factor in self.id_of

    def save(self, path: str | Path) -> None:
        with atomic_open(path) as fh:
            for i, f in enumerate(self.factors):
                fh.write(f"{i}\t{f}\n")

    @classmethod
    def load(cls, path: str | Path) -> "FactorVocabulary":
        fv = cls()
        for lineno, (idx, factor) in read_tsv(path, "id<TAB>factor"):
            if parse_field(int, idx, path, lineno, "factor id") != len(fv.factors):
                raise DataError(f"{path}:{lineno}: ids must be dense and ordered")
            fv.add(factor)
        return fv


class WordFactorization:
    """Sparse word-by-factor multiplicity matrix in CSR form.

    Row v lists the factor ids of word v with their multiplicities;
    every row is non-empty (at minimum the surface factor).
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 num_factors: int):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self.num_factors = int(num_factors)

    @classmethod
    def from_rows(cls, rows: list[dict[int, int]], num_factors: int) -> "WordFactorization":
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
        return cls(indptr, np.asarray(indices, dtype=np.int64),
                   np.asarray(data, dtype=np.float64), num_factors)

    @property
    def num_words(self) -> int:
        return self.indptr.shape[0] - 1

    def select(self, words: np.ndarray) -> "WordFactorization":
        """The rows of ``words``, in that order, each in its CSR order."""
        starts, ends = self.indptr[words], self.indptr[words + 1]
        lengths = ends - starts
        indptr = np.zeros(len(words) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        entries = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return WordFactorization(indptr, self.indices[entries], self.data[entries],
                                 self.num_factors)

    def mu(self, word_id: int) -> list[tuple[int, int]]:
        """Factor multiset of one word as (factor_id, multiplicity) pairs."""
        lo, hi = self.indptr[word_id], self.indptr[word_id + 1]
        return [(int(f), int(m)) for f, m in zip(self.indices[lo:hi], self.data[lo:hi])]

    def save(self, path: str | Path, vocab: Vocabulary,
             factor_vocab: FactorVocabulary) -> None:
        """Write the mu table: ``word<TAB>factor factor ...`` in vocabulary order,
        a factor repeated once per unit of multiplicity."""
        with atomic_open(path) as fh:
            for v, word in enumerate(vocab.types):
                parts = []
                for fid, mult in self.mu(v):
                    parts.extend([factor_vocab.factors[fid]] * mult)
                fh.write(f"{word}\t{' '.join(parts)}\n")

    @classmethod
    def load(cls, path: str | Path, vocab: Vocabulary,
             factor_vocab: FactorVocabulary) -> "WordFactorization":
        """Read a mu table written by ``save`` against its vocabulary and factors."""
        rows: list[dict[int, int]] = []
        for lineno, (word, factors) in read_tsv(path, "word<TAB>factors"):
            wid = len(rows)
            if wid >= len(vocab) or vocab.types[wid] != word:
                raise DataError(f"{path}:{lineno}: word {word!r} does not match "
                                f"vocabulary order")
            row: dict[int, int] = {}
            for item in factors.split(" "):
                fid = factor_vocab.id_of.get(item)
                if fid is None:
                    raise DataError(f"{path}:{lineno}: unknown factor {item!r}")
                row[fid] = row.get(fid, 0) + 1
            rows.append(row)
        if len(rows) != len(vocab):
            raise DataError(f"{path}: {len(rows)} rows for {len(vocab)} vocabulary words")
        return cls.from_rows(rows, len(factor_vocab))


def parse_segmentations(path: str | Path) -> dict[str, list[str]]:
    """Read ``word<TAB>factor|label( factor|label)*`` lines into a map.

    Words and factor texts are normalized like corpus tokens. The
    "surface" label is reserved for the automatically added surface
    factor and is rejected on input.
    """
    fmt = "word<TAB>morpheme list"
    segs: dict[str, list[str]] = {}
    for lineno, (word, morph_list) in read_tsv(path, fmt):
        if not word or not morph_list:
            raise DataError(f"{path}:{lineno}: expected {fmt}")
        word = normalize_token(word)
        if word in segs:
            raise DataError(f"{path}:{lineno}: duplicate entry for {word!r}")
        morphs = []
        for item in morph_list.split(" "):
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


def build_factorization(vocab: Vocabulary,
                        segs: Mapping[str, list[str]] | None = None
                        ) -> tuple[FactorVocabulary, WordFactorization]:
    """Assign factor ids in first-encounter order and build the count matrix.

    Every word receives its surface factor; words present in ``segs``
    additionally receive their labelled morphemes (with multiplicity).
    With no segmentations this degenerates to the identity map, one
    surface factor per word.
    """
    segs = segs or {}
    fv = FactorVocabulary()
    rows: list[dict[int, int]] = []
    for word in vocab.types:
        row: dict[int, int] = {}
        sid = fv.add(f"{word}|{SURFACE_LABEL}")
        row[sid] = row.get(sid, 0) + 1
        for morph in segs.get(word, ()):
            fid = fv.add(morph)
            row[fid] = row.get(fid, 0) + 1
        rows.append(row)
    return fv, WordFactorization.from_rows(rows, len(fv))


def compose_vector(factor_table: np.ndarray, mu_items: Iterable[tuple[int, int]]) -> np.ndarray:
    """Multiplicity-weighted sum of factor vectors.

    Compiled as a one-word table, so a compiled row and a freshly composed
    vector are identical.
    """
    items = sorted(mu_items)
    if not items:
        raise ValueError("cannot compose a vector from an empty factor multiset")
    if items[-1][0] >= factor_table.shape[0]:
        raise ValueError("factor id out of range for the factor table")
    row = WordFactorization.from_rows([dict(items)], factor_table.shape[0])
    return compile_word_table(row, factor_table)[0]


def compile_word_table(factorization: WordFactorization, factor_table: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Compile the word table: row v = composed vector of word v. Given
    ``out``, which must hold zeros, the rows are composed into it."""
    f = factorization
    if f.num_factors != factor_table.shape[0]:
        raise ValueError(f"factor table has {factor_table.shape[0]} rows, "
                         f"factorization expects {f.num_factors}")
    if out is None:
        out = np.zeros((f.num_words, factor_table.shape[1]), dtype=np.float64)
    _kernels.compose_rows(f.indptr, f.indices, f.data,
                          np.ascontiguousarray(factor_table, dtype=np.float64), out)
    return out


def known_factors(factor_vocab: FactorVocabulary, segs: Mapping[str, list[str]] | None,
                  token: str) -> list[tuple[int, int]]:
    """Known factors of a normalized token as sorted (factor_id, multiplicity) pairs.

    The token's surface factor plus its morphemes from ``segs``, each kept
    only if ``factor_vocab`` has it; unknown morphemes are dropped. An
    empty list means no factor of the token is known.
    """
    row: dict[int, int] = {}
    for factor in [f"{token}|{SURFACE_LABEL}", *(segs or {}).get(token, ())]:
        fid = factor_vocab.id_of.get(factor)
        if fid is not None:
            row[fid] = row.get(fid, 0) + 1
    return sorted(row.items())


def export_vectors(path: str | Path, words: Iterable[str], matrix: np.ndarray) -> None:
    """Write word vectors as text, one ``word<TAB>v1 v2 ... vd`` line each.

    Values use repr so they round-trip exactly through parsing.
    """
    with atomic_open(path) as fh:
        for word, row in zip(words, matrix):
            fh.write(word + "\t" + " ".join(repr(float(x)) for x in row) + "\n")


def load_vectors(path: str | Path) -> tuple[list[str], np.ndarray]:
    words = []
    rows = []
    for lineno, (word, values) in read_tsv(path, "word<TAB>values"):
        words.append(word)
        rows.append([parse_field(float, x, path, lineno, "value") for x in values.split(" ")])
    return words, np.asarray(rows, dtype=np.float64)
