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

import bisect
import itertools
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _kernels
from ._io import (atomic_open, find, first_mismatch, first_repeat, parse_field, read_table,
                  split_all)
from .corpus import Vocabulary, normalize_tokens
from .errors import DataError

SURFACE_LABEL = "surface"


class FactorVocabulary:
    """Dense id space over labelled factor strings."""

    def __init__(self, factors: Iterable[str] = ()) -> None:
        """``factors`` are distinct; their ids follow their order."""
        self.factors: list[str] = list(factors)
        self.id_of: dict[str, int] = dict(zip(self.factors, range(len(self.factors))))

    def __len__(self) -> int:
        return len(self.factors)

    def __contains__(self, factor: str) -> bool:
        return factor in self.id_of

    def save(self, path: str | Path) -> None:
        with atomic_open(path) as fh:
            fh.write("".join([f"{i}\t{f}\n" for i, f in enumerate(self.factors)]))

    @classmethod
    def load(cls, path: str | Path) -> "FactorVocabulary":
        table = read_table(path, "id<TAB>factor")
        ids, id_fault = table.parse(int, 0, "factor id")
        factors = table.columns[1]
        table.check(id_fault,
                    table.fault_at(first_mismatch(ids, range(len(ids))),
                                   lambda i: "ids must be dense and ordered"),
                    table.fault_at(first_repeat(factors),
                                   lambda i: f"duplicate factor {factors[i]!r}"))
        return cls(factors)


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
    def from_items(cls, lengths: Sequence[int], fids: Sequence[int],
                   num_factors: int) -> "WordFactorization":
        """The matrix of words whose factor ids, repeated once per unit of
        multiplicity and in any order, are ``fids``: ``lengths[v]`` of them
        for word v, word after word.

        One sort of (word, factor) keys gives each row its distinct factors,
        ascending, with their multiplicities.
        """
        nf = int(num_factors)
        words = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        keys, counts = np.unique(words * nf + np.asarray(fids, dtype=np.int64),
                                 return_counts=True)
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // nf, minlength=len(lengths)), out=indptr[1:])
        return cls(indptr, keys % nf, counts.astype(np.float64), nf)

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

    def entry_rows(self) -> np.ndarray:
        """The row (word) of each entry, in CSR order."""
        return _kernels._expand_rows(self.indptr)

    def mu(self, word_id: int) -> list[tuple[int, int]]:
        """Factor multiset of one word as (factor_id, multiplicity) pairs."""
        lo, hi = self.indptr[word_id], self.indptr[word_id + 1]
        return [(int(f), int(m)) for f, m in zip(self.indices[lo:hi], self.data[lo:hi])]

    def save(self, path: str | Path, vocab: Vocabulary,
             factor_vocab: FactorVocabulary) -> None:
        """Write the mu table: ``word<TAB>factor factor ...`` in vocabulary order,
        a factor repeated once per unit of multiplicity."""
        mult = self.data.astype(np.int64)
        names = list(map(factor_vocab.factors.__getitem__,
                         np.repeat(self.indices, mult).tolist()))
        ends = np.concatenate(([0], np.cumsum(mult)))[self.indptr].tolist()
        rows = zip(vocab.types, ends[:-1], ends[1:], strict=True)
        with atomic_open(path) as fh:
            fh.write("".join([f"{word}\t{' '.join(names[lo:hi])}\n" for word, lo, hi in rows]))

    @classmethod
    def load(cls, path: str | Path, vocab: Vocabulary,
             factor_vocab: FactorVocabulary) -> "WordFactorization":
        """Read a mu table written by ``save`` against its vocabulary and factors."""
        table = read_table(path, "word<TAB>factors")
        words, factor_lists = table.columns
        items, starts = split_all(factor_lists, " ")
        fids = list(map(factor_vocab.id_of.get, items))
        unknown = find(fids, None)
        table.check(
            table.fault_at(first_mismatch(words, vocab.types),
                           lambda i: f"word {words[i]!r} does not match vocabulary order"),
            table.fault_at(None if unknown is None else bisect.bisect(starts, unknown) - 1,
                           lambda i: f"unknown factor {items[unknown]!r}"))
        if len(words) != len(vocab):
            raise DataError(f"{path}: {len(words)} rows for {len(vocab)} vocabulary words")
        return cls.from_items(np.diff(starts), fids, len(factor_vocab))


def parse_segmentations(path: str | Path) -> dict[str, list[str]]:
    """Read ``word<TAB>factor|label( factor|label)*`` lines into a map.

    Words and factor texts are normalized like corpus tokens. The
    "surface" label is reserved for the automatically added surface
    factor and is rejected on input. Each distinct raw morpheme is checked
    and normalized once.
    """
    fmt = "word<TAB>morpheme list"
    table = read_table(path, fmt)
    raw_words, morph_lists = table.columns
    words = normalize_tokens(raw_words)
    items, starts = split_all(morph_lists, " ")    # empty items are skipped
    distinct = [item for item in dict.fromkeys(items) if item]
    problems = list(map(_morpheme_problem, distinct))
    bad = next((i for i, problem in enumerate(problems) if problem), None)
    bad_row = None if bad is None else bisect.bisect(starts, items.index(distinct[bad])) - 1
    table.check(
        table.fault_at(find([not (word and morphs) for word, morphs in
                             zip(raw_words, morph_lists)], True), lambda i: f"expected {fmt}"),
        table.fault_at(first_repeat(words), lambda i: f"duplicate entry for {words[i]!r}"),
        table.fault_at(bad_row, lambda i: problems[bad]),
        table.fault_at(find(list(map(str.strip, morph_lists, itertools.repeat(" "))), ""),
                       lambda i: "no morphemes listed"))
    texts, labels = zip(*(item.rsplit("|", 1) for item in distinct)) if distinct else ((), ())
    normalized = dict(zip(distinct, map("{}|{}".format, normalize_tokens(texts), labels)))
    morphs = list(map(normalized.get, items))
    rows = [morphs[lo:hi] for lo, hi in zip(starts[:-1], starts[1:])]
    if None in morphs:    # an empty item
        rows = [list(filter(None, row)) for row in rows]
    return dict(zip(words, rows))


def _morpheme_problem(item: str) -> str | None:
    """What makes a raw ``text|label`` item invalid, or None."""
    if "|" not in item:
        return f"morpheme {item!r} lacks a |label"
    text, label = item.rsplit("|", 1)
    if not text or not label:
        return f"empty morpheme or label in {item!r}"
    if label == SURFACE_LABEL:
        return f"label {SURFACE_LABEL!r} is reserved"
    return None


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
    items, lengths = [], []     # each word's surface factor then its morphemes, flat
    for word in vocab.types:
        morphs = segs.get(word, ())
        items.append(f"{word}|{SURFACE_LABEL}")
        items += morphs
        lengths.append(len(morphs) + 1)
    fv = FactorVocabulary(dict.fromkeys(items))     # first-encounter order
    return fv, WordFactorization.from_items(lengths, list(map(fv.id_of.__getitem__, items)),
                                            len(fv))


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
    row = dict(items)
    wf = WordFactorization(np.array([0, len(row)]), list(row), list(row.values()),
                           factor_table.shape[0])
    return compile_word_table(wf, factor_table)[0]


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
    table = read_table(path, "word<TAB>values")
    words, values = table.columns
    rows = [[parse_field(float, x, path, lineno, "value") for x in text.split(" ")]
            for lineno, text in zip(table.linenos, values)]
    table.check()
    return words, np.asarray(rows, dtype=np.float64)
