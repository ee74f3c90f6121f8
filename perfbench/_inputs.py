"""Workload inputs, made from the run seed with the criterion-10 corpus generator.

Every input is a token list or a file of token lines written from one; the
program never sees the seed. Each stream takes its own sub-seed, so the same
run seed always gives the same inputs.
"""

from __future__ import annotations

import numpy as np
from helpers import morph_corpus

# criterion-10 generator settings (tests/test_acceptance.py)
CORPUS = dict(n_suffixes=8, zipf_a=1.1, agree=0.75, persist=0.3)
MODEL_STEMS = 4000          # |V| ~ 18.3k, |F| ~ 22.2k, K = 135 at 200k tokens
VOCAB_TOKENS = 200_000      # the vocabulary is built from all of it ...
TRAIN_TOKENS = 100_000      # ... and `mlbl train` reads this prefix, so 3+ runs fit in 25 s
DEV_TOKENS = 20_000
CLUSTER_STEMS = 500         # |V| ~ 3.85k, K = 62, ~47k distinct bigrams
CLUSTER_TOKENS = 100_000
NBEST_SOURCES = 500
NBEST_HYPS = 10
NBEST_ALTERNATIVES = 4
FRESH_TOKENS = 20_000

_STREAMS = {"vocab": 1, "dev": 2, "cluster": 3, "nbest": 4, "rewrite": 5, "fresh": 6, "sample": 7}


def sub_seed(seed: int, stream: str) -> int:
    return int(np.random.SeedSequence([seed, _STREAMS[stream]]).generate_state(1)[0])


def model_corpus(seed: int):
    """(sentences, segmentations) of the training-shape corpus."""
    return morph_corpus(VOCAB_TOKENS, n_stems=MODEL_STEMS, seed=sub_seed(seed, "vocab"),
                        **CORPUS)


def train_prefix(sents: list[list[str]]) -> list[list[str]]:
    """Leading sentences holding at least TRAIN_TOKENS tokens."""
    out, n = [], 0
    for s in sents:
        if n >= TRAIN_TOKENS:
            break
        out.append(s)
        n += len(s)
    return out


def dev_corpus(seed: int) -> list[list[str]]:
    return morph_corpus(DEV_TOKENS, n_stems=MODEL_STEMS, seed=sub_seed(seed, "dev"),
                        **CORPUS)[0]


def cluster_corpus(seed: int) -> list[list[str]]:
    return morph_corpus(CLUSTER_TOKENS, n_stems=CLUSTER_STEMS,
                        seed=sub_seed(seed, "cluster"), **CORPUS)[0]


def nbest_stream(seed: int) -> list[list[str]]:
    """NBEST_HYPS hypotheses per held-out source sentence, as an n-best list.

    Each hypothesis replaces the source's last 1-3 tokens, each with one of
    NBEST_ALTERNATIVES candidate tokens for that position, so hypotheses of
    one source share prefixes and often tails, and most context normalizers
    repeat (cache hit rate ~86%).
    """
    sources = morph_corpus(NBEST_SOURCES * 18, n_stems=MODEL_STEMS,  # 18-token sentences
                           seed=sub_seed(seed, "nbest"), **CORPUS)[0][:NBEST_SOURCES]
    pool = [t for s in morph_corpus(NBEST_SOURCES * 3 * NBEST_ALTERNATIVES,
                                    n_stems=MODEL_STEMS, seed=sub_seed(seed, "rewrite"),
                                    **CORPUS)[0]
            for t in s]
    rng = np.random.default_rng(sub_seed(seed, "rewrite"))
    out = []
    for i, src in enumerate(sources):
        alternatives = np.asarray(pool[i * 3 * NBEST_ALTERNATIVES:(i + 1) * 3 * NBEST_ALTERNATIVES],
                                  dtype=object).reshape(3, NBEST_ALTERNATIVES)
        for _ in range(NBEST_HYPS):
            k = int(rng.integers(1, 4))
            picks = rng.integers(0, NBEST_ALTERNATIVES, size=k)
            out.append(src[:-k] + [alternatives[3 - k + j, picks[j]] for j in range(k)])
    return out


def fresh_stream(seed: int) -> list[list[str]]:
    """Held-out running text: contexts rarely repeat."""
    return morph_corpus(FRESH_TOKENS, n_stems=MODEL_STEMS, seed=sub_seed(seed, "fresh"),
                        **CORPUS)[0]

