"""Command-line surface: preprocess, cluster, train, ppl, sim, score, export.

Exit codes: 0 success, 2 usage errors, 3 data errors, 4 model container
or model/vocabulary mismatches.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._io import atomic_open
from .clustering import brown_cluster, default_num_classes, frequency_bin, load_partition
from .container import load_model, save_model
from .corpus import (Vocabulary, apply_cyrillic_filter, build_vocabulary, count_types,
                     ngram_arrays, read_sentences)
from .errors import DataError, MlblError, ModelFormatError
from .evaluation import (EvalReport, SimilarityDataset, evaluate_similarity,
                         frequency_labels, load_eval_corpus, perplexity, stream_labels)
from .manifest import build_manifest, input_digests, write_sidecar
from .model import LanguageModel, ModelConfig, Querier
from .morphology import (FactorVocabulary, WordFactorization, build_factorization,
                         export_vectors, parse_segmentations)
from .training import TrainingConfig, init_params, train

log = logging.getLogger("mlbl")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_MODEL = 4


def _bigram_counts(sentences_ids) -> dict[tuple[int, int], int]:
    """Adjacent-pair counts with a boundary symbol before each sentence."""
    contexts, targets = ngram_arrays(sentences_ids, 2)
    # each (u, v) pair packed into one int64; word ids stay below 2**32
    contexts <<= 32
    contexts[:, 0] |= targets
    del targets  # token-sized; free it before np.unique and the dict allocate theirs
    pairs, counts = np.unique(contexts, return_counts=True)
    del contexts
    return dict(zip(zip((pairs >> 32).tolist(), (pairs & 0xFFFFFFFF).tolist()),
                    counts.tolist()))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    started = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sents = read_sentences(args.input)
    if args.cyrillic_filter:
        sents = map(apply_cyrillic_filter, sents)
    try:
        vocab = build_vocabulary(sents, kappa=args.kappa, seed=args.seed)
    except ValueError as exc:
        raise UsageError(f"--kappa: {exc}") from exc
    segs = parse_segmentations(args.segmentations) if args.segmentations else None
    fv, wf = build_factorization(vocab, segs)

    vocab_path = out_dir / "vocab.tsv"
    factors_path = out_dir / "factors.tsv"
    mu_path = out_dir / "mu.tsv"
    vocab.save(vocab_path)
    fv.save(factors_path)
    wf.save(mu_path, vocab, fv)

    inputs = [args.input] + ([args.segmentations] if args.segmentations else [])
    seconds = time.perf_counter() - started
    cfg = {"kappa": args.kappa, "cyrillic_filter": args.cyrillic_filter}
    digests = input_digests(inputs)
    for artifact in (vocab_path, factors_path, mu_path):
        write_sidecar(build_manifest("preprocess", cfg, digests, args.seed,
                                     artifact, seconds), artifact)
    print(f"vocabulary: {len(vocab)} types ({int(vocab.counts.sum())} tokens), "
          f"{len(fv)} factors -> {out_dir}")
    return EXIT_OK


_CLUSTER_FLAGS = {"brown": ("input", "num_classes", "max_iters"),
                  "freq": ("num_classes",),
                  "file": ("partition_file",)}


def cmd_cluster(args) -> int:
    started = time.perf_counter()
    if args.num_classes is not None and args.num_classes < 1:
        raise UsageError(f"--num-classes must be at least 1, got {args.num_classes}")
    if args.max_iters is not None and args.max_iters < 1:
        raise UsageError(f"--max-iters must be at least 1, got {args.max_iters}")
    for flag in ("input", "num_classes", "max_iters", "partition_file"):
        if getattr(args, flag) is not None and flag not in _CLUSTER_FLAGS[args.method]:
            raise UsageError(f"--{flag.replace('_', '-')} does not apply to "
                             f"--method {args.method}")
    if args.method == "brown" and not args.input:
        raise UsageError("--input is required with --method brown")
    if args.method == "file" and not args.partition_file:
        raise UsageError("--partition-file is required with --method file")
    vocab = Vocabulary.load(args.vocab)
    num_classes = args.num_classes or default_num_classes(len(vocab))
    max_iters = None
    if args.method == "file":
        partition = load_partition(args.partition_file, vocab)
    elif args.method == "freq":
        partition = frequency_bin(vocab, num_classes)
    else:
        max_iters = args.max_iters or 20
        bigrams = _bigram_counts(vocab.encode_corpus(read_sentences(args.input)))
        partition = brown_cluster(bigrams, len(vocab), num_classes, max_iters=max_iters)
    partition.save(args.out, vocab)
    inputs = [args.vocab] + [p for p in (args.input, args.partition_file) if p]
    cfg = {"method": args.method, "num_classes": partition.num_classes,
           "max_iters": max_iters}
    write_sidecar(build_manifest("cluster", cfg, input_digests(inputs), None, args.out,
                                 time.perf_counter() - started), args.out)
    print(f"partition: {partition.num_classes} classes -> {args.out}")
    return EXIT_OK


def _training_config(args) -> tuple[TrainingConfig, ModelConfig]:
    cfg = (TrainingConfig.from_file(args.config) if args.config else TrainingConfig())
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key.strip()] = val.strip()
    if args.variant:
        overrides["variant"] = args.variant
    if args.d is not None:
        overrides["d"] = str(args.d)
    if args.n is not None:
        overrides["n"] = str(args.n)
    if args.epochs is not None:
        overrides["max_epochs"] = str(args.epochs)
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    try:
        cfg = cfg.with_overrides(overrides)
        return cfg, cfg.model_config()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_train(args) -> int:
    started = time.perf_counter()
    if (args.factors is None) != (args.mu is None):
        raise UsageError("--factors and --mu go together: give both or neither")
    tcfg, mcfg = _training_config(args)
    vocab = Vocabulary.load(args.vocab)
    if args.factors is None:
        fv, wf = build_factorization(vocab, None)
    else:
        fv = FactorVocabulary.load(args.factors)
        wf = WordFactorization.load(args.mu, vocab, fv)
    partition = None
    if mcfg.class_based:
        if not args.classes:
            raise UsageError("class-factored variants require --classes")
        partition = load_partition(args.classes, vocab)

    train_arrays = ngram_arrays(vocab.encode_corpus(read_sentences(args.train)), mcfg.n)
    dev_arrays = ngram_arrays(vocab.encode_corpus(read_sentences(args.dev)), mcfg.n)

    params = init_params(mcfg, vocab, fv, wf, partition,
                         init_sigma=tcfg.init_sigma, seed=tcfg.seed)
    model = LanguageModel(mcfg, vocab, fv, wf, params, partition)
    result = train(model, train_arrays, dev_arrays, tcfg,
                   log_fn=lambda r: print(
                       f"epoch {r.epoch}  train_loss {r.train_loss:.4f}  "
                       f"dev_ppl {r.dev_ppl:.4f}  {r.seconds:.1f}s", file=sys.stderr))
    save_model(model, args.model_out)

    inputs = [args.train, args.dev, args.vocab]
    inputs += [p for p in (args.factors, args.mu, args.classes, args.config) if p]
    write_sidecar(build_manifest("train", dataclasses.asdict(tcfg), input_digests(inputs),
                                 tcfg.seed, args.model_out, time.perf_counter() - started),
                  args.model_out)
    best = result.best_dev_ppl
    print(f"trained {mcfg.variant} (d={mcfg.d}, n={mcfg.n}); best dev ppl {best:.4f} "
          f"-> {args.model_out}")
    return EXIT_OK


def _report_jsonl(report: EvalReport) -> str:
    lines = [json.dumps({"group": "__total__", "ppl": report.total_ppl,
                         "share": 1.0, "count": report.token_count}, sort_keys=True)]
    for label, g in report.groups.items():
        lines.append(json.dumps({"group": label, "ppl": g.ppl, "share": g.share,
                                 "count": g.count}, sort_keys=True))
    return "\n".join(lines) + "\n"


def cmd_ppl(args) -> int:
    started = time.perf_counter()
    if args.train_counts_from is not None and not args.by_freq:
        raise UsageError("--train-counts-from requires --by-freq")
    model = load_model(args.model)
    corpus = load_eval_corpus(args.test, model.vocab, model.config.n)
    labels = None
    if args.by_freq:
        counts = (count_types(read_sentences(args.train_counts_from))
                  if args.train_counts_from else None)
        labels = frequency_labels(model.vocab, corpus.surfaces, counts)
    elif args.labels:
        labels = stream_labels([lab for line in read_sentences(args.labels) for lab in line])
    report = perplexity(model, corpus.contexts, corpus.targets, labels)
    for line in report.lines():
        print(line)
    if args.json_out:
        with atomic_open(args.json_out) as fh:
            fh.write(_report_jsonl(report))
        inputs = [args.model, args.test] + ([args.labels] if args.labels else [])
        cfg = {"by_freq": args.by_freq, "labels": bool(args.labels)}
        write_sidecar(build_manifest("ppl", cfg, input_digests(inputs), None,
                                     args.json_out, time.perf_counter() - started),
                      args.json_out)
    return EXIT_OK


def cmd_sim(args) -> int:
    started = time.perf_counter()
    model = load_model(args.model)
    dataset = SimilarityDataset.load(args.pairs)
    segs = parse_segmentations(args.segmentations) if args.segmentations else None
    result = evaluate_similarity(model, dataset, segs, compose=not args.no_compose)
    rho_txt = f"{result.rho:.6f}" if result.rho_defined else "undefined"
    print(f"pairs {len(dataset.pairs)}  oov {result.oov_count}  "
          f"zero-vector {result.zero_vector_pairs}  spearman_rho {rho_txt}"
          + (f"  (x100: {100 * result.rho:.2f})" if result.rho_defined else ""))
    if args.json_out:
        payload = {
            "rho": result.rho if result.rho_defined else None,
            "oov_count": result.oov_count,
            "zero_vector_pairs": result.zero_vector_pairs,
            "pairs": [
                {"word1": w1, "word2": w2, "human": h, "model": s}
                for (w1, w2, h), s in zip(dataset.pairs, result.model_scores)
            ],
        }
        with atomic_open(args.json_out) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        inputs = [args.model, args.pairs] + ([args.segmentations] if args.segmentations else [])
        write_sidecar(build_manifest("sim", {"compose": not args.no_compose},
                                     input_digests(inputs), None, args.json_out,
                                     time.perf_counter() - started), args.json_out)
    return EXIT_OK


def cmd_score(args) -> int:
    model = load_model(args.model)
    segs = None
    if args.compose_oov_contexts:
        if not args.segmentations:
            raise UsageError("--compose-oov-contexts requires --segmentations")
        if not model.config.context_additive:
            raise UsageError(f"--compose-oov-contexts needs additive context vectors "
                             f"(a +c or ++ variant); {args.model} is "
                             f"{model.config.variant}")
        segs = parse_segmentations(args.segmentations)
    querier = Querier(model, use_cache=True, segs=segs)
    stream = open(args.input, encoding="utf-8") if args.input else sys.stdin
    started = time.perf_counter()
    num_tokens = 0
    try:
        for line in stream:
            tokens = line.split()
            if not tokens:
                continue
            total = 0.0
            for tok, lp in querier.score_sentence(tokens):
                total += lp
                print(f"{tok}\t{lp!r}")
            print(f"#TOTAL\t{total!r}")
            num_tokens += len(tokens)
    finally:
        if args.input:
            stream.close()
    seconds = time.perf_counter() - started
    cache = querier.cache
    log.info("score: %d tokens in %.3fs (%.0f tokens/s), cache hits %d misses %d "
             "entries %d evictions %d", num_tokens, seconds,
             num_tokens / seconds if seconds > 0 else 0.0,
             cache.hits, cache.misses, len(cache), cache.evictions)
    return EXIT_OK


def cmd_export(args) -> int:
    started = time.perf_counter()
    model = load_model(args.model)
    if args.table == "context":
        matrix = model.params.Q
    elif args.table == "target":
        matrix = model.params.R
    else:
        matrix = np.concatenate([model.params.Q, model.params.R], axis=1)
    export_vectors(args.out, model.vocab.types, matrix)
    write_sidecar(build_manifest("export", {"table": args.table},
                                 input_digests([args.model]), None,
                                 args.out, time.perf_counter() - started), args.out)
    print(f"exported {matrix.shape[0]} x {matrix.shape[1]} vectors -> {args.out}")
    return EXIT_OK


class UsageError(MlblError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlbl",
        description="Log-bilinear language models with additive morphological "
                    "word vectors and a class-factored softmax.")
    parser.add_argument("--version", action="version", version=f"mlbl {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="build vocabulary and factorization files")
    p.add_argument("--input", required=True, help="tokenized text, one sentence per line")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--kappa", type=float, default=0.05,
                   help="singleton pruning rate (default 0.05; small corpora often use 0.2)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--segmentations", help="word<TAB>morph|label ... file")
    p.add_argument("--cyrillic-filter", action="store_true",
                   help="replace tokens with <80%% Cyrillic characters by <unk>")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("cluster", help="write a word-class partition")
    p.add_argument("--input", help="tokenized text (required for --method brown)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--method", choices=["brown", "freq", "file"], default="brown")
    p.add_argument("--num-classes", type=int, default=None,
                   help="default: round(sqrt(|V|))")
    p.add_argument("--max-iters", type=int, help="exchange passes for --method brown "
                   "(default 20)")
    p.add_argument("--partition-file", help="existing class_id<TAB>word file "
                   "(required for --method file)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--factors")
    p.add_argument("--mu")
    p.add_argument("--classes")
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a configuration key")
    p.add_argument("--variant", choices=sorted(
        ["lbl", "lbl+c", "lbl+o", "lbl++", "clbl", "clbl+c", "clbl+o", "clbl++"]))
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ppl", help="perplexity of a test set")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    breakdown = p.add_mutually_exclusive_group()
    breakdown.add_argument("--by-freq", action="store_true",
                           help="group tokens by training-frequency decade")
    breakdown.add_argument("--labels", help="per-token label file ('-' groups under Rest)")
    p.add_argument("--train-counts-from",
                   help="recount frequencies from this raw text for --by-freq")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_ppl)

    p = sub.add_parser("sim", help="word-pair similarity evaluation")
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", required=True, help="word1<TAB>word2<TAB>rating file")
    p.add_argument("--segmentations", help="compose OOV vectors using this table")
    p.add_argument("--no-compose", action="store_true",
                   help="use the UNK vector for every OOV word")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("score", help="per-token log probabilities of sentences")
    p.add_argument("--model", required=True)
    p.add_argument("--input", help="default: stdin")
    p.add_argument("--compose-oov-contexts", action="store_true",
                   help="compose vectors for unknown context words from known factors")
    p.add_argument("--segmentations")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("export", help="write word vectors as text")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--table", choices=["context", "target", "both"], default="both")
    p.set_defaults(func=cmd_export)
    return parser


# built once: each parse makes a fresh namespace, so no call sees another's values
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(asctime)s %(name)s %(message)s")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelFormatError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
