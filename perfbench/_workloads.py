"""The benchmark's workloads and the per-layer metrics read from a traced pass.

Each workload prepares its inputs (untimed), sets the program up several
times (``setup_s``), then repeats its unit operation until the run's seconds
are spent (``tokens_per_s``, the median over repetitions). ``train_clbl`` and
``cluster_brown`` run the real CLI in-process, as their users do; the query
workloads call the library as a decoder embedding ``Querier`` would.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import resource
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from helpers import write_corpus, write_segs

import _inputs
from _trace import Tracer, median, tail_percentile
from mlbl import cli, container, evaluation
from mlbl import model as model_mod
from mlbl.clustering import default_num_classes, frequency_bin
from mlbl.corpus import build_vocabulary
from mlbl.morphology import build_factorization
from mlbl.training import init_params

N, D = 4, 32
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
REL_TOL = 1e-9

# (dotted name as the caller looks it up, span name)
WRAPS = [
    ("mlbl.cli.build_vocabulary", "corpus.build_vocabulary"),
    ("mlbl.cli.ngram_arrays", "corpus.ngram_arrays"),
    ("mlbl.cli.parse_segmentations", "morphology.parse_segmentations"),
    ("mlbl.cli.build_factorization", "morphology.build_factorization"),
    ("mlbl._kernels.compose_rows", "morphology.compose_rows"),
    ("mlbl._kernels.scatter_rows", "morphology.scatter_rows"),
    ("mlbl.model.LanguageModel.recompile", "model.recompile"),
    ("mlbl._kernels.classed_fwd_bwd", "model.classed_fwd_bwd"),
    ("mlbl._kernels.classed_logprobs", "model.classed_logprobs"),
    ("mlbl.model.LanguageModel.logprobs_batch", "model.logprobs_batch"),
    ("mlbl.model.LanguageModel.predict", "model.predict"),
    ("mlbl.model.LanguageModel._log_norm_words", "model.log_norm"),
    ("mlbl.model.LanguageModel._log_norm_classes", "model.log_norm"),
    ("mlbl.model.Querier.score_sentence", "model.score_sentence"),
    ("mlbl.cli.train", "training.train"),
    ("mlbl.training.minibatch_loss_and_grad", "training.loss_and_grad"),
    ("mlbl.training._context_backward", "training.context_backward"),
    ("mlbl.training._add_l2", "training.l2"),
    ("mlbl.training.adagrad_step", "training.adagrad_step"),
    ("mlbl.cli.brown_cluster", "clustering.brown_cluster"),
    ("mlbl.cli._bigram_counts", "clustering.bigram_count"),
    ("mlbl.clustering._bigram_csr", "clustering.bigram_csr"),
    ("mlbl._kernels.exchange_pass", "clustering.exchange_pass"),
    ("mlbl.cli.frequency_bin", "clustering.frequency_bin"),
    ("mlbl.cli.load_partition", "clustering.load_partition"),
    ("mlbl.evaluation.perplexity", "evaluation.perplexity"),
    ("mlbl.evaluation.prepare_eval_corpus", "evaluation.prepare_eval_corpus"),
    ("mlbl.cli.save_model", "container.save_model"),
    ("mlbl.container.save_model", "container.save_model"),
    ("mlbl.container.load_model", "container.load_model"),
    ("mlbl.cli.write_sidecar", "manifest.write_sidecar"),
]

# inclusive seconds per traced pass
SECONDS = ["corpus.build_vocabulary", "corpus.ngram_arrays",
           "morphology.parse_segmentations", "morphology.build_factorization",
           "morphology.compose_rows", "morphology.scatter_rows", "model.recompile",
           "model.classed_fwd_bwd", "model.classed_logprobs", "model.logprobs_batch",
           "model.predict", "model.log_norm", "training.loss_and_grad",
           "training.context_backward", "training.l2", "training.adagrad_step",
           "clustering.bigram_count", "clustering.bigram_csr", "clustering.exchange_pass",
           "clustering.frequency_bin", "clustering.load_partition", "evaluation.perplexity",
           "evaluation.prepare_eval_corpus", "container.save_model", "container.load_model",
           "manifest.write_sidecar"]
CALLS = ["morphology.compose_rows", "morphology.scatter_rows", "model.recompile",
         "clustering.exchange_pass"]
SELF = {"model.score_sentence.self_s": "model.score_sentence",
        "training.self_s": "training.train",
        "clustering.brown_cluster.self_s": "clustering.brown_cluster",
        "cli.self_s": "cli"}
# metrics a workload supplies itself; 0 where it has none
EXTRA = (
    "model.score_ops_per_token", "model.cache.hits", "model.cache.misses",
    "model.cache.hit_rate", "model.cache.entries", "model.cache.fresh_hit_rate",
    "query.nbest_tokens_per_s", "query.fresh_tokens_per_s", "query.nbest_sentence_ms_p50",
    "query.nbest_sentence_ms_tail", "query.nbest_sentence_tail_pct", "query.nbest_sentences",
    "ppl.tokens_per_s", "ppl.cold_tokens_per_s", "evaluation.dev_ppl",
    "training.param_bytes", "clustering.moves", "clustering.move_rate", "clustering.ami",
    "container.bytes",
)


class WorkloadError(RuntimeError):
    """A program operation failed; the run cannot continue."""


class Context:
    """One run's work directory, seed, and the tally of operations and checks."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.tracer: Tracer | None = None   # set during a traced pass

    def cli(self, *argv: str) -> str:
        """Run one ``mlbl`` command in-process and return what it printed."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        with redirect_stdout(out), redirect_stderr(err), \
                (self.tracer.span("cli") if self.tracer else nullcontext()):
            rc = cli.main(list(argv))
        if rc != 0:
            self.failed += 1
            raise WorkloadError(f"mlbl {argv[0]} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def check_recorded(self, workload: str, key: str, value, fallback: tuple[bool, str]):
        """Compare with the value recorded for this seed, else apply ``fallback``."""
        recorded = EXPECTED.get(workload, {}).get(str(self.seed), {}).get(key)
        if recorded is None:
            self.check(f"{key} plausible (no recorded value for seed {self.seed})", *fallback)
        elif isinstance(recorded, int):
            self.check(f"{key} equals recorded", value == recorded,
                       f"{value} vs recorded {recorded}")
        else:
            self.check(f"{key} equals recorded", math.isclose(value, recorded, rel_tol=REL_TOL),
                       f"{value!r} vs recorded {recorded!r}")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    name = ""
    why = ""
    headline = ""     # the workload's own name for tokens_per_s
    setup_reps = 2    # set-ups before each repetition

    def prepare(self, ctx: Context) -> None:
        """Make the inputs; not timed."""

    def setup(self, ctx: Context) -> None:
        """The program's own preparation before the timed phase."""

    def warm(self, ctx: Context) -> None:
        """Untimed warm-up after set-up."""

    def rep(self, ctx: Context) -> float:
        """One timed unit operation; returns the work units it processed."""
        raise NotImplementedError

    def finish(self, ctx: Context) -> dict[str, tuple]:
        """Correctness checks after the timed phase; returns the workload's own
        results as name -> (value, unit, which direction is better)."""
        return {}

    def extra(self, ctx: Context) -> dict[str, float]:
        """Per-layer values the workload measures itself, after a traced pass."""
        return {}


class TrainClbl(Workload):
    name = "train_clbl"
    why = "mlbl train, clbl++ n=4 d=32, 1 epoch: recompile, class softmax, factor scatter, L2+AdaGrad"
    headline = "train.tokens_per_s"

    def prepare(self, ctx):
        sents, segs = _inputs.model_corpus(ctx.seed)
        train = _inputs.train_prefix(sents)
        self.train_tokens = sum(len(s) for s in train)
        self.dev = _inputs.dev_corpus(ctx.seed)
        self.vocab_txt, self.train_txt = ctx.work / "vocab_corpus.txt", ctx.work / "train.txt"
        self.dev_txt, self.segs_tsv = ctx.work / "dev.txt", ctx.work / "segs.tsv"
        write_corpus(self.vocab_txt, sents)
        write_corpus(self.train_txt, train)
        write_corpus(self.dev_txt, self.dev)
        write_segs(self.segs_tsv, segs)
        self.counts: dict[str, int] = {}
        for s in sents:
            for t in s:
                self.counts[t] = self.counts.get(t, 0) + 1
        self.pre, self.classes = ctx.work / "pre", ctx.work / "classes.tsv"
        self.model_path = ctx.work / "model.mlbl"
        self.digests: set[str] = set()

    def setup(self, ctx):
        ctx.cli("preprocess", "--input", str(self.vocab_txt), "--out-dir", str(self.pre),
                "--segmentations", str(self.segs_tsv), "--seed", str(ctx.seed))
        ctx.cli("cluster", "--vocab", str(self.pre / "vocab.tsv"), "--method", "freq",
                "--out", str(self.classes))

    def rep(self, ctx):
        pre = self.pre
        ctx.cli("train", "--train", str(self.train_txt), "--dev", str(self.dev_txt),
                "--vocab", str(pre / "vocab.tsv"), "--factors", str(pre / "factors.tsv"),
                "--mu", str(pre / "mu.tsv"), "--classes", str(self.classes),
                "--variant", "clbl++", "--n", str(N), "--d", str(D), "--epochs", "1",
                "--seed", str(ctx.seed), "--set", "minibatch_size=5000",
                "--model-out", str(self.model_path))
        self.digests.add(_digest(self.model_path))
        return self.train_tokens

    def _dev_ppl(self):
        model = container.load_model(self.model_path)
        corpus = evaluation.prepare_eval_corpus(model.vocab, self.dev, N)
        logps = model.logprobs_batch(corpus.contexts, corpus.targets)
        return model, math.exp(-float(logps.sum()) / logps.shape[0])

    def finish(self, ctx):
        ctx.check("train reruns write identical models", len(self.digests) == 1,
                  f"{len(self.digests)} distinct model digests")
        _, ppl = self._dev_ppl()
        base = unigram_ppl(self.counts, self.dev)
        ctx.check_recorded(self.name, "dev_ppl", ppl,
                           (ppl < base, f"dev ppl {ppl:.4f} vs add-one unigram {base:.4f}"))
        return {"train.dev_ppl": (ppl, "ppl", "lower")}

    def extra(self, ctx):
        model, ppl = self._dev_ppl()
        blocks = sum(b.nbytes for b in model.params.blocks().values())
        return {"evaluation.dev_ppl": ppl, "training.param_bytes": 2.0 * blocks,
                "container.bytes": float(self.model_path.stat().st_size)}


class ClusterBrown(Workload):
    name = "cluster_brown"
    why = "mlbl cluster --method brown, 2 passes: the scalar exchange pass dominates"
    headline = "cluster.words_per_s"
    setup_reps = 4
    max_iters = 2

    def prepare(self, ctx):
        self.sents = _inputs.cluster_corpus(ctx.seed)
        self.text = ctx.work / "cluster.txt"
        write_corpus(self.text, self.sents)
        self.pre, self.out = ctx.work / "cpre", ctx.work / "brown.tsv"
        self.digests: set[str] = set()
        self.moves: list[int] = []

    def setup(self, ctx):
        ctx.cli("preprocess", "--input", str(self.text), "--out-dir", str(self.pre),
                "--seed", str(ctx.seed))

    def rep(self, ctx):
        counter = Tracer()
        counted = counter.wrap("mlbl._kernels.exchange_pass", "passes", timed=False,
                               keep_result=True)
        try:
            ctx.cli("cluster", "--input", str(self.text), "--vocab", str(self.pre / "vocab.tsv"),
                    "--method", "brown", "--max-iters", str(self.max_iters),
                    "--out", str(self.out))
        finally:
            counter.restore()
        self.digests.add(_digest(self.out))
        self.num_words = words = len(read_partition(self.out)[0])
        if counted:
            self.passes = counter.calls("passes")
            self.moves.append(int(sum(counter.results["passes"])))
        else:
            self.passes = self.max_iters
        return float(words * self.passes)

    def finish(self, ctx):
        ctx.check("cluster reruns write identical partitions", len(self.digests) == 1,
                  f"{len(self.digests)} distinct partition digests")
        words, class_of = read_partition(self.out)
        ami = class_ami(self.sents, words, class_of)
        init = class_ami(self.sents, words, exchange_init(self.sents, words, class_of.max() + 1))
        ctx.check_recorded(self.name, "ami", ami,
                           (ami > init, f"ami {ami:.6f} vs initial partition {init:.6f}"))
        named = {"cluster.ami": (ami, "nats", "higher")}
        if self.moves:
            ctx.check("move count equal across reruns", len(set(self.moves)) == 1,
                      f"moves per rerun {sorted(set(self.moves))}")
            ctx.check_recorded(self.name, "moves", self.moves[0],
                               (self.moves[0] > 0, f"{self.moves[0]} moves"))
            named["cluster.moves"] = (self.moves[0], "count", "neither")
        return named

    def extra(self, ctx):
        words, class_of = read_partition(self.out)
        moves = self.moves[-1] if self.moves else None
        return {"clustering.ami": class_ami(self.sents, words, class_of),
                "clustering.moves": moves,
                "clustering.move_rate": (None if moves is None
                                         else moves / (self.num_words * self.passes))}


class QueryScore(Workload):
    """A decoder's use of ``Querier``: an n-best list, then running text.

    Each repetition scores both streams, each with a fresh ``Querier`` and
    one closed-loop client. The n-best stream shares prefixes (~85% of
    normalizer lookups hit the cache); the running text mostly misses
    (~12%), so one shows a cache change's gain and the other its cost.
    """

    name = "query_score"
    why = ("Querier on an n-best list (~85% normalizer cache hits) and on running text "
           "(~12%), plus batch ppl over the n-best tokens")
    headline = "query.tokens_per_s"
    setup_reps = 1
    sample = 50

    def prepare(self, ctx):
        sents, segs = _inputs.model_corpus(ctx.seed)
        vocab = build_vocabulary(sents, kappa=0.05, seed=ctx.seed)
        fv, wf = build_factorization(vocab, segs)
        part = frequency_bin(vocab, default_num_classes(len(vocab)))
        cfg = model_mod.ModelConfig.from_variant("clbl++", n=N, d=D)
        params = init_params(cfg, vocab, fv, wf, part, init_sigma=0.1, seed=ctx.seed)
        self.source = model_mod.LanguageModel(cfg, vocab, fv, wf, params, part)
        self.streams = {"nbest": _inputs.nbest_stream(ctx.seed),
                        "fresh": _inputs.fresh_stream(ctx.seed)}
        self.tokens = {k: sum(len(s) for s in v) for k, v in self.streams.items()}
        rng = np.random.default_rng(_inputs.sub_seed(ctx.seed, "sample"))
        self.sample_ids = {int(i) for i in rng.choice(len(self.streams["nbest"]),
                                                      size=self.sample, replace=False)}
        self.path = ctx.work / "model.mlbl"
        self._reset()

    def _reset(self):
        self.seconds = {k: [] for k in self.streams}
        self.totals = {k: [] for k in self.streams}
        self.latencies_ms = {k: [] for k in self.streams}

    def setup(self, ctx):
        container.save_model(self.source, self.path)
        self.model = container.load_model(self.path)
        model_mod.Querier(self.model)   # a decoder builds one before its first query

    def _batch(self):
        """The batch path over the n-best tokens; returns its seconds."""
        started = time.perf_counter()
        corpus = evaluation.prepare_eval_corpus(self.model.vocab, self.streams["nbest"], N)
        evaluation.perplexity(self.model, corpus.contexts, corpus.targets)
        return time.perf_counter() - started

    def warm(self, ctx):
        """Time the cold batch call, then score both streams once untimed so
        the timed repetitions see a warm process, as a long-running decoder does."""
        self.cold_s = self._batch()
        self.rep(ctx)
        self._reset()

    def rep(self, ctx):
        clock = time.perf_counter
        self.queriers = {}
        for stream, sents in self.streams.items():
            q = model_mod.Querier(self.model)
            lat = self.latencies_ms[stream]
            total = 0.0
            sampled = {}
            started = clock()
            for i, sent in enumerate(sents):
                t0 = clock()
                scored = q.score_sentence(sent)
                lat.append((clock() - t0) * 1e3)
                total += sum(lp for _, lp in scored)
                if stream == "nbest" and i in self.sample_ids:
                    sampled[i] = scored
            self.seconds[stream].append(clock() - started)
            self.totals[stream].append(total)
            self.queriers[stream] = q
            ctx.attempted += len(sents)
            if sampled:
                self.sampled = sampled
        return float(sum(self.tokens.values()))

    def _rate(self, stream):
        return self.tokens[stream] * len(self.seconds[stream]) / sum(self.seconds[stream])

    def _hit_rate(self, stream):
        cache = self.queriers[stream].cache
        return cache.hits / (cache.hits + cache.misses)

    def finish(self, ctx):
        ppl_seconds = median([self._batch() for _ in range(3)])
        for stream, sents in self.streams.items():
            corpus = evaluation.prepare_eval_corpus(self.model.vocab, sents, N)
            batch = float(self.model.logprobs_batch(corpus.contexts, corpus.targets).sum())
            total = self.totals[stream][0]
            ctx.check(f"{stream}: Querier totals equal logprobs_batch sum",
                      math.isclose(total, batch, rel_tol=REL_TOL),
                      f"{total!r} vs {batch!r} (diff {total - batch:.3e})")
            ctx.check(f"{stream}: Querier totals equal across repetitions",
                      len(set(self.totals[stream])) == 1,
                      f"{len(set(self.totals[stream]))} distinct totals")
        uncached = model_mod.Querier(self.model, use_cache=False)
        nbest = self.streams["nbest"]
        same = sum(uncached.score_sentence(nbest[i]) == self.sampled[i] for i in self.sample_ids)
        ctx.check("cached and uncached Querier agree bitwise", same == len(self.sample_ids),
                  f"{same}/{len(self.sample_ids)} sampled n-best sentences identical")
        lat = self.latencies_ms["nbest"]
        pct, tail_ms, count = tail_percentile(lat)
        self.untraced = {
            "query.nbest_tokens_per_s": self._rate("nbest"),
            "query.fresh_tokens_per_s": self._rate("fresh"),
            "query.nbest_sentence_ms_p50": median(lat),
            "query.nbest_sentence_ms_tail": tail_ms, "query.nbest_sentence_tail_pct": pct,
            "query.nbest_sentences": float(count),
            "ppl.tokens_per_s": self.tokens["nbest"] / ppl_seconds,
            "ppl.cold_tokens_per_s": self.tokens["nbest"] / self.cold_s,
        }
        u = self.untraced
        return {
            "query.nbest_tokens_per_s": (u["query.nbest_tokens_per_s"], "1/s", "higher"),
            "query.fresh_tokens_per_s": (u["query.fresh_tokens_per_s"], "1/s", "higher"),
            "query.nbest_cache_hit_rate": (self._hit_rate("nbest"), "ratio", "neither"),
            "query.fresh_cache_hit_rate": (self._hit_rate("fresh"), "ratio", "neither"),
            "query.nbest_sentence_ms_p50": (median(lat), "ms", "lower"),
            f"query.nbest_sentence_ms_p{pct:g}": (tail_ms, "ms", "lower"),
            "query.nbest_sentences": (count, "count", "neither"),
            "ppl.tokens_per_s": (u["ppl.tokens_per_s"], "1/s", "higher"),
            "ppl.cold_tokens_per_s": (u["ppl.cold_tokens_per_s"], "1/s", "higher"),
        }

    def extra(self, ctx):
        cache = self.queriers["nbest"].cache
        ops = sum(q.stats.score_ops for q in self.queriers.values())
        return {"model.score_ops_per_token": ops / sum(self.tokens.values()),
                "model.cache.hits": float(cache.hits), "model.cache.misses": float(cache.misses),
                "model.cache.hit_rate": self._hit_rate("nbest"),
                "model.cache.entries": float(len(cache)),
                "model.cache.fresh_hit_rate": self._hit_rate("fresh"),
                "container.bytes": float(self.path.stat().st_size), **self.untraced}


WORKLOADS = {w.name: w for w in (TrainClbl, ClusterBrown, QueryScore)}


# ----------------------------------------------------------------------
# independent reference computations for the correctness gate
# ----------------------------------------------------------------------

def unigram_ppl(counts: dict[str, int], sents: list[list[str]]) -> float:
    """Add-one unigram perplexity of ``sents`` under training counts."""
    total = sum(counts.values()) + len(counts) + 1
    nll = 0.0
    n = 0
    for s in sents:
        for t in s:
            nll -= math.log((counts.get(t, 0) + 1) / total)
            n += 1
    return math.exp(nll / n)


def read_partition(path: Path) -> tuple[dict[str, int], np.ndarray]:
    """Word ids (file order) and class ids of a ``class_id<TAB>word`` file."""
    words: dict[str, int] = {}
    classes = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                cid, word = line.rstrip("\n").split("\t")
                words[word] = len(classes)
                classes.append(int(cid))
    return words, np.asarray(classes, dtype=np.int64)


def _bigrams(sents, words: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Adjacent id pairs with the boundary symbol before each sentence."""
    unk, pad = words["<unk>"], words["<s>"]
    left, right = [], []
    for s in sents:
        ids = [words.get(t, unk) for t in s]
        left.extend([pad] + ids[:-1])
        right.extend(ids)
    return np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)


def class_ami(sents, words: dict[str, int], class_of: np.ndarray) -> float:
    """Average mutual information of adjacent class pairs."""
    left, right = _bigrams(sents, words)
    k = int(class_of.max()) + 1
    joint = np.bincount(class_of[left] * k + class_of[right], minlength=k * k)
    joint = joint.reshape(k, k).astype(np.float64)
    total = joint.sum()
    lc, rc = joint.sum(axis=1), joint.sum(axis=0)
    nz = joint > 0
    outer = np.outer(lc, rc)
    return float((joint[nz] / total * np.log(joint[nz] * total / outer[nz])).sum())


def exchange_init(sents, words: dict[str, int], k: int) -> np.ndarray:
    """The exchange algorithm's documented start: the k heaviest words get
    singleton classes, the rest class (mass rank mod k)."""
    left, right = _bigrams(sents, words)
    mass = np.bincount(left, minlength=len(words)) + np.bincount(right, minlength=len(words))
    ranks = np.lexsort((np.arange(len(words)), -mass))
    class_of = np.empty(len(words), dtype=np.int64)
    class_of[ranks] = np.arange(len(words)) % k
    return class_of


# ----------------------------------------------------------------------
# running a workload
# ----------------------------------------------------------------------

def measure(workload: Workload, ctx: Context, seconds: float) -> dict:
    """Alternate set-ups and repetitions of the unit operation for ``seconds``.

    On a shared 2-core x86 VM the CPU ran at two speeds up to 1.7x apart,
    switching every one to thirty seconds. So set-ups are spread over the whole
    run rather than timed in one burst, and throughput is all work over all
    repetition time: a median of repetition rates would jump between the two
    speeds whenever a run spends about half its time at each.
    """
    workload.prepare(ctx)
    # keep the collector from rescanning the benchmark's own inputs in every
    # full collection during the timed phase
    gc.collect()
    gc.freeze()
    setup_s, reps = [], []
    clock = time.perf_counter
    started = clock()
    while not reps or clock() - started < seconds:
        for _ in range(workload.setup_reps):
            t0 = clock()
            workload.setup(ctx)
            setup_s.append(clock() - t0)
        if not reps:
            workload.warm(ctx)
        t0 = clock()
        work = workload.rep(ctx)
        reps.append((work, clock() - t0))
    named = workload.finish(ctx)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": median(setup_s),
            "tokens_per_s": sum(w for w, _ in reps) / sum(s for _, s in reps),
            "peak_rss_mb": rss_mb, "rep_s": median([s for _, s in reps]),
            "rep_seconds": [s for _, s in reps], "setup_seconds": setup_s, "named": named}


def traced_pass(workload: Workload, ctx: Context, untraced_rep_s: float,
                spans_path: Path) -> tuple[dict[str, float], dict[str, str]]:
    """One set-up and one repetition with every layer wrapped.

    Returns the per-layer metrics and, for each metric whose wrapped names
    are all missing, the reason.
    """
    tracer = Tracer()
    for target, name in WRAPS:
        tracer.wrap(target, name)
    ctx.tracer = tracer
    try:
        workload.setup(ctx)
        if isinstance(workload, QueryScore):
            workload._batch()   # the cold call on the freshly loaded model
        started = time.perf_counter()
        workload.rep(ctx)
        rep_s = time.perf_counter() - started
        if isinstance(workload, QueryScore):
            workload._batch()
    finally:
        ctx.tracer = None
        tracer.restore()
    tracer.write(spans_path)
    return layer_metrics(tracer, workload.extra(ctx), rep_s, untraced_rep_s)


def layer_metrics(tracer: Tracer, extra: dict[str, float | None], rep_s: float,
                  untraced_rep_s: float) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer values of one traced pass; a metric whose every wrapped name
    is missing, or that the workload could not measure, goes to the second
    dict with the reason instead."""
    reasons: dict[str, list[str]] = {}
    for target, name in WRAPS:
        if target in tracer.absent:
            reasons.setdefault(name, []).append(f"{target} {tracer.absent[target]}")
    missing = {name: "; ".join(r) for name, r in reasons.items() if name not in tracer.wrapped}
    out: dict[str, float] = {}
    dropped: dict[str, str] = {}

    def put(metric: str, source: str, value) -> None:
        if source in missing:
            dropped[metric] = missing[source]
        elif value is None:
            dropped[metric] = "not measured: a wrapped name it needs is missing"
        else:
            out[metric] = float(value)

    for name in SECONDS:
        put(f"{name}.s", name, tracer.total(name))
    for name in CALLS:
        put(f"{name}.calls", name, len(tracer.durations(name)))
    for metric, name in SELF.items():
        put(metric, name, tracer.self_total(name))
    batch = tracer.durations("model.logprobs_batch")
    put("model.logprobs_batch.cold_s", "model.logprobs_batch", batch[0] if batch else 0.0)
    grads = tracer.durations("training.loss_and_grad")
    steps = sorted(1e3 * (g + a) for g, a in zip(grads, tracer.durations("training.adagrad_step")))
    put("training.batches", "training.loss_and_grad", len(grads))
    put("training.step_ms_p50", "training.loss_and_grad", median(steps) if steps else 0.0)
    put("training.step_ms_p90", "training.loss_and_grad",
        steps[math.ceil(0.9 * len(steps)) - 1] if steps else 0.0)
    for metric in EXTRA:
        put(metric, metric, extra.get(metric, 0.0))
    put("tracing.overhead_pct", "", 100.0 * (rep_s - untraced_rep_s) / untraced_rep_s)
    return out, dropped
