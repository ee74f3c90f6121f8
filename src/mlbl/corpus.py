"""Corpus ingestion: token normalization, vocabularies, n-gram extraction.

Input text is pre-tokenized, UTF-8, one sentence per line, tokens
separated by whitespace. Two symbols are reserved: ``<unk>`` (id 0) for
unknown/pruned words and ``<s>`` (id 1) for sentence-boundary padding.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from ._io import atomic_open, parse_field, read_tsv
from .errors import DataError

UNK_ID = 0
PAD_ID = 1
UNK_TOKEN = "<unk>"
PAD_TOKEN = "<s>"

_ASCII_DIGITS = str.maketrans("123456789", "000000000")


def normalize_token(token: str) -> str:
    """Lowercase and map every decimal digit to '0'."""
    token = token.lower()
    if token.isascii():
        return token.translate(_ASCII_DIGITS)
    return "".join("0" if ch.isdecimal() else ch for ch in token)


def cyrillic_ratio(token: str) -> float:
    if not token:
        return 0.0
    n = sum(1 for ch in token if "Ѐ" <= ch <= "ԯ")
    return n / len(token)


def apply_cyrillic_filter(tokens: Iterable[str], threshold: float = 0.8) -> list[str]:
    """Replace tokens with less than ``threshold`` Cyrillic characters by the UNK symbol.

    Optional language-specific cleanup, off by default in the pipeline.
    """
    return [tok if cyrillic_ratio(tok) >= threshold else UNK_TOKEN for tok in tokens]


class Vocabulary:
    """Immutable word-type inventory with dense ids, counts and singleton pruning metadata."""

    def __init__(self, types: list[str], counts: np.ndarray, kappa: float = 0.0):
        if types[UNK_ID] != UNK_TOKEN or types[PAD_ID] != PAD_TOKEN:
            raise DataError("vocabulary must reserve id 0 for <unk> and id 1 for <s>")
        self.types = types
        self.id_of = {t: i for i, t in enumerate(types)}
        if len(self.id_of) != len(types):
            raise DataError("duplicate type in vocabulary")
        self.counts = np.asarray(counts, dtype=np.int64)
        if self.counts.shape[0] != len(types):
            raise DataError("count vector length does not match type list")
        # padding is never input: a literal <s> is text and reads as UNK, as
        # in build_vocabulary
        self._input_ids = {**self.id_of, PAD_TOKEN: UNK_ID}
        self.kappa = float(kappa)
        self.unk_id = UNK_ID
        self.pad_id = PAD_ID

    def __len__(self) -> int:
        return len(self.types)

    def find(self, token: str) -> Optional[int]:
        """Id of a normalized input token, or None if it is not a type (a
        literal ``<s>`` reads as UNK)."""
        return self._input_ids.get(token)

    def lookup(self, token: str) -> int:
        """Id of a normalized input token; unknown tokens map to UNK."""
        return self._input_ids.get(token, UNK_ID)

    def encode_corpus(self, sentences: Iterable[Sequence[str]]) -> list[list[int]]:
        """Normalize raw sentences and map them to ids (OOV -> UNK), each
        distinct raw token once."""
        return map_types(lambda tok: self.lookup(normalize_token(tok)), sentences)

    def save(self, path: str | Path) -> None:
        with atomic_open(path) as fh:
            fh.write(f"# kappa={self.kappa!r}\n")
            for i, t in enumerate(self.types):
                fh.write(f"{i}\t{t}\t{int(self.counts[i])}\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        types: list[str] = []
        counts: list[int] = []
        kappa = 0.0
        for lineno, fields in read_tsv(path, "id<TAB>type<TAB>count", comments=True):
            if fields[0].startswith("#"):
                if fields[0].startswith("# kappa="):
                    kappa = parse_field(float, fields[0].split("=", 1)[1], path, lineno,
                                        "kappa")
                continue
            idx, typ, cnt = fields
            if parse_field(int, idx, path, lineno, "id") != len(types):
                raise DataError(f"{path}:{lineno}: ids must be dense and ordered")
            types.append(typ)
            counts.append(parse_field(int, cnt, path, lineno, "count"))
        if not types:
            raise DataError(f"{path}: empty vocabulary file")
        return cls(types, np.asarray(counts, dtype=np.int64), kappa)


def map_types(fn: Callable[[str], object], sentences: Iterable[Sequence[str]]) -> list[list]:
    """``fn`` of every token of every sentence, called once per distinct token."""
    fn = functools.cache(fn)  # one memo per call; it goes when the call returns
    return [list(map(fn, sent)) for sent in sentences]


def count_types(sentences: Iterable[Sequence[str]]) -> dict[str, int]:
    """Occurrences of each normalized type, in order of first occurrence.

    Each distinct raw token is normalized once. The raw counts keep their
    first-occurrence order, so a normalized type lands where the earliest
    of its raw variants first occurred.
    """
    counts: dict[str, int] = {}
    for tok, cnt in Counter(itertools.chain.from_iterable(sentences)).items():
        tok = normalize_token(tok)
        counts[tok] = counts.get(tok, 0) + cnt
    return counts


def build_vocabulary(sentences: Iterable[Sequence[str]], kappa: float = 0.0,
                     seed: int = 0) -> Vocabulary:
    """Count normalized types and prune a seeded random fraction of singletons.

    Exactly round(kappa * S) of the S singleton types are removed; their
    occurrences map to UNK, whose count becomes the number of pruned
    types. The selection shuffles the lexicographically sorted singleton
    list with a seeded RNG, so rebuilds are reproducible.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa must lie in [0, 1], got {kappa}")
    counts = count_types(sentences)
    # literal reserved symbols in the input fold into UNK
    reserved_hits = counts.pop(UNK_TOKEN, 0) + counts.pop(PAD_TOKEN, 0)
    if not counts and reserved_hits == 0:
        raise DataError("empty corpus: no tokens found")

    singletons = sorted(t for t, c in counts.items() if c == 1)
    n_prune = int(kappa * len(singletons) + 0.5)
    rng = random.Random(seed)
    shuffled = list(singletons)
    rng.shuffle(shuffled)
    pruned = set(shuffled[:n_prune])

    types = [UNK_TOKEN, PAD_TOKEN]
    kept_counts = [len(pruned) + reserved_hits, 0]
    for tok, cnt in counts.items():
        if tok in pruned:
            continue
        types.append(tok)
        kept_counts.append(cnt)
    return Vocabulary(types, np.asarray(kept_counts, dtype=np.int64), kappa)


def ngram_arrays(sentences_ids: Iterable[Sequence[int]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every token's n-gram instance as (contexts, targets) arrays.

    Row i holds token i's n-1 preceding ids in its sentence, oldest first,
    with PAD where the window reaches before the sentence start. All
    sentences are windowed in one pass over their concatenated ids.
    """
    if n < 2:
        raise ValueError(f"n-gram order must be >= 2, got {n}")
    sents = list(sentences_ids)
    lengths = np.fromiter(map(len, sents), dtype=np.int64, count=len(sents))
    targets = np.fromiter(itertools.chain.from_iterable(sents), dtype=np.int64,
                          count=int(lengths.sum()))
    padded = np.concatenate((np.full(n - 1, PAD_ID, dtype=np.int64), targets))
    contexts = np.lib.stride_tricks.sliding_window_view(padded, n - 1)[:len(targets)].copy()
    # the token at offset i of a sentence sees its first n-1-i columns cross
    # the sentence start; they hold the previous sentence's ids until set to PAD
    starts = np.cumsum(lengths) - lengths
    for i in range(n - 1):
        contexts[starts[lengths > i] + i, :n - 1 - i] = PAD_ID
    return contexts, targets


def read_sentences(path: str | Path) -> Iterator[list[str]]:
    """Yield whitespace-tokenized sentences, skipping blank lines."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            toks = line.split()
            if toks:
                yield toks
