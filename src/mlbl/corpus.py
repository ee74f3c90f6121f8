"""Corpus ingestion: token normalization, vocabularies, n-gram extraction.

Input text is pre-tokenized, UTF-8, one sentence per line, tokens
separated by whitespace. Two symbols are reserved: ``<unk>`` (id 0) for
unknown/pruned words and ``<s>`` (id 1) for sentence-boundary padding.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter, defaultdict
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ._io import (atomic_open, first_mismatch, first_repeat, open_text, parse_column,
                  read_table)
from .errors import DataError

UNK_ID = 0
PAD_ID = 1
UNK_TOKEN = "<unk>"
PAD_TOKEN = "<s>"
CYRILLIC_THRESHOLD = 0.8

_ASCII_DIGITS = str.maketrans("123456789", "000000000")
_DECIMAL = re.compile(r"\d")


def normalize_token(token: str) -> str:
    """Lowercase and map every decimal digit to '0'."""
    token = token.lower()
    if token.isascii():
        return token.translate(_ASCII_DIGITS)
    return "".join("0" if ch.isdecimal() else ch for ch in token)


def normalize_tokens(tokens: Sequence[str]) -> list[str]:
    """``normalize_token`` of each token, in one pass over them all.

    The tokens are joined by newlines, lowercased and their digits mapped.
    Neither step looks past a newline (a newline is neither cased nor
    case-ignorable, so the final-sigma rule of ``str.lower`` stops at it),
    so each token comes out as ``normalize_token`` makes it. Tokens that
    hold a newline are normalized one by one.
    """
    text = "\n".join(tokens)
    if not tokens or text.count("\n") != len(tokens) - 1:
        return list(map(normalize_token, tokens))
    text = text.lower()
    if text.isascii():
        return text.translate(_ASCII_DIGITS).split("\n")
    return _DECIMAL.sub("0", text).split("\n")   # \d is str.isdecimal


def cyrillic_ratio(token: str) -> float:
    if not token:
        return 0.0
    n = sum(1 for ch in token if "Ѐ" <= ch <= "ԯ")
    return n / len(token)


def apply_cyrillic_filter(tokens: Iterable[str]) -> list[str]:
    """Replace tokens under ``CYRILLIC_THRESHOLD`` Cyrillic characters by the UNK symbol.

    Optional language-specific cleanup, off by default in the pipeline.
    """
    return [tok if cyrillic_ratio(tok) >= CYRILLIC_THRESHOLD else UNK_TOKEN for tok in tokens]


class Vocabulary:
    """Immutable word-type inventory with dense ids, counts and singleton pruning metadata."""

    def __init__(self, types: list[str], counts: np.ndarray, kappa: float = 0.0):
        if len(types) < 2 or types[UNK_ID] != UNK_TOKEN or types[PAD_ID] != PAD_TOKEN:
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

    def __len__(self) -> int:
        return len(self.types)

    def find(self, token: str) -> Optional[int]:
        """Id of a normalized input token, or None if it is not a type (a
        literal ``<s>`` reads as UNK)."""
        return self._input_ids.get(token)

    def lookup(self, token: str) -> int:
        """Id of a normalized input token; unknown tokens map to UNK."""
        return self._input_ids.get(token, UNK_ID)

    def encode_corpus(self, sentences: Iterable[Sequence[str]]) -> tuple[np.ndarray, np.ndarray]:
        """The sentences as one flat int64 id array (OOV -> UNK) and each
        sentence's length; each distinct raw token is normalized and looked up
        once, and each token costs one dict lookup (``index_tokens``)."""
        types, index, lengths = index_tokens(sentences)
        return np.fromiter(map(self.lookup, types), np.int64, len(types))[index], lengths

    def save(self, path: str | Path) -> None:
        with atomic_open(path) as fh:
            fh.write(f"# kappa={self.kappa!r}\n")
            fh.write("".join([f"{i}\t{t}\t{c}\n" for i, t, c in
                              zip(range(len(self.types)), self.types, self.counts.tolist())]))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        table = read_table(path, "id<TAB>type<TAB>count", comments=True)
        kappas = [(lineno, line.split("=", 1)[1]) for lineno, line in table.comments
                  if line.startswith("# kappa=")]
        kappa, kappa_fault = parse_column(float, [k for _, k in kappas],
                                          [lineno for lineno, _ in kappas], "kappa")
        ids, id_fault = table.parse(int, 0, "id")
        types = table.columns[1]
        counts, count_fault = table.parse(int, 2, "count")
        if counts and min(counts) < 0:   # parsed counts precede a malformed one
            count_fault = table.fault_at(next(i for i, c in enumerate(counts) if c < 0),
                                         lambda i: f"bad count {table.columns[2][i]!r}")
        table.check(kappa_fault, id_fault,
                    table.fault_at(first_mismatch(ids, range(len(ids))),
                                   lambda i: "ids must be dense and ordered"),
                    count_fault,
                    table.fault_at(first_repeat(types),
                                   lambda i: f"duplicate type {types[i]!r} in vocabulary"))
        if not types:
            raise DataError(f"{path}: empty vocabulary file")
        return cls(types, np.asarray(counts, dtype=np.int64), kappa[-1] if kappa else 0.0)


def index_tokens(sentences: Iterable[Sequence[str]]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The normalized form of each distinct raw token (one ``normalize_tokens``
    call), every token's index into them as one flat int64 array (one dict
    lookup per token, looped in C) and each sentence's length."""
    sents = list(sentences)
    lengths = np.fromiter(map(len, sents), dtype=np.int64, count=len(sents))
    position = defaultdict(itertools.count().__next__)  # numbered by first occurrence
    index = np.fromiter(map(position.__getitem__, itertools.chain.from_iterable(sents)),
                        dtype=np.int64, count=int(lengths.sum()))
    return normalize_tokens(list(position)), index, lengths


def count_types(sentences: Iterable[Sequence[str]]) -> dict[str, int]:
    """Occurrences of each normalized type, in order of first occurrence.

    Each distinct raw token is normalized once. The raw counts keep their
    first-occurrence order, so a normalized type lands where the earliest
    of its raw variants first occurred.
    """
    raw = Counter(itertools.chain.from_iterable(sentences))
    counts: dict[str, int] = {}
    for tok, cnt in zip(normalize_tokens(list(raw)), raw.values()):
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


def ngram_arrays(ids: np.ndarray, lengths: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every token's n-gram instance as (contexts, targets) arrays.

    ``ids`` holds the sentences' ids back to back, ``lengths`` the length of
    each (``Vocabulary.encode_corpus``); the targets are a copy of ``ids``.
    Row i of the contexts holds token i's n-1 preceding ids in its sentence,
    oldest first, with PAD where the window reaches before the sentence start.
    """
    if n < 2:
        raise ValueError(f"n-gram order must be >= 2, got {n}")
    targets = np.array(ids, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.sum() != targets.shape[0]:
        raise ValueError(f"sentence lengths sum to {lengths.sum()}, not {targets.shape[0]} ids")
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
    with open_text(path) as fh:
        for line in fh:
            toks = line.split()
            if toks:
                yield toks
