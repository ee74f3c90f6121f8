"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math
import time

import numpy as np

from helpers import (fd_check, make_vocab, morph_corpus, random_batch,
                     random_factorization, random_model, random_partition,
                     reference_bigram_counts, reference_distribution, reference_ranks,
                     scorer_distributions, sentence_ids, toy_morph_model,
                     unigram_perplexity)
from mlbl.clustering import brown_cluster, default_num_classes, frequency_bin
from mlbl.container import load_model, save_model
from mlbl.corpus import build_vocabulary, ngram_arrays
from mlbl.evaluation import (average_ranks, frequency_labels, perplexity,
                             prepare_eval_corpus, spearman)
from mlbl.model import VARIANTS, LanguageModel, ModelConfig, Querier, QueryStats
from mlbl.morphology import build_factorization, compile_word_table, compose_vector
from mlbl.training import (TrainingConfig, init_params, minibatch_loss_and_grad,
                           train)


def report(n: int, name: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    line = f"ACCEPTANCE {n:2d} {name}: PASS ({elapsed:.2f}s"
    if budget is not None:
        line += f" / budget {budget:.0f}s"
        assert elapsed < budget, f"criterion {n} exceeded its runtime budget"
    print(line + ")")


def test_criterion_01_gradient_oracle():
    """Analytic gradients match central finite differences on a toy model."""
    started = time.perf_counter()
    model = toy_morph_model(n_types=20, n_factors=12, num_classes=4, d=5, n=3, seed=1)
    assert model.params.Qf.shape == (12, 5) and model.params.Rf.shape == (12, 5)
    contexts, targets = random_batch(model, 25, seed=2)
    worst = fd_check(
        model,
        lambda: minibatch_loss_and_grad(model, contexts, targets, l2_lambda=1e-3),
        rel_tol=1e-4, h=1e-5)
    report(1, f"gradient oracle (worst rel err {worst:.2e})", started, budget=10.0)


def test_criterion_02_normalization():
    """Sum of P(v|h) over the vocabulary is 1 for all eight variants, per token
    (``Querier``) and in batch (``logprobs_batch``)."""
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    for variant in VARIANTS:
        model = random_model(variant, n_types=40, n_factors=17, num_classes=6,
                             d=5, n=3, seed=4)
        for _ in range(100):
            ctx = rng.integers(0, 40, size=2)
            dist = reference_distribution(model, ctx)
            per_token, batch = scorer_distributions(model, ctx)
            assert np.array_equal(per_token, batch)
            assert abs(per_token.sum() - 1.0) <= 1e-10
            np.testing.assert_allclose(per_token, dist, rtol=1e-12, atol=0)
    report(2, "normalization over 100 contexts x 8 variants", started, budget=5.0)


def test_criterion_03_reduction_equivalence():
    """With the identity factor map, the additive model reproduces the word model."""
    started = time.perf_counter()
    vocab = make_vocab(30, seed=5)
    fv, wf = build_factorization(vocab, None)  # identity map
    partition = random_partition(30, 5, seed=6)
    pp = ModelConfig.from_variant("clbl++", n=3, d=6)
    ww = ModelConfig.from_variant("clbl", n=3, d=6)
    m_pp = LanguageModel(pp, vocab, fv, wf,
                         init_params(pp, vocab, fv, wf, partition, 0.3, seed=7),
                         partition)
    m_w = LanguageModel(ww, vocab, fv, wf,
                        init_params(ww, vocab, fv, wf, partition, 0.3, seed=7),
                        partition)
    q_pp, q_w = Querier(m_pp), Querier(m_w)
    rng = np.random.default_rng(8)
    for _ in range(1000):
        ctx = list(rng.integers(0, 30, size=2))
        w = int(rng.choice(m_pp.scorable_ids))
        assert q_pp.log_prob(ctx, w) == q_w.log_prob(ctx, w)
    report(3, "identity-map reduction, 1000 queries exact", started, budget=5.0)


def test_criterion_04_compile_consistency():
    """The compiled table equals per-word composition exactly."""
    started = time.perf_counter()
    _, wf = random_factorization(500, 200, seed=9, max_factors=4, max_mult=3)
    table = np.random.default_rng(10).normal(size=(200, 16))
    compiled = compile_word_table(wf, table)
    for v in range(500):
        assert np.array_equal(compiled[v], compose_vector(table, wf.mu(v)))
    report(4, "compiled table == per-word composition (500x200, d=16)", started,
           budget=1.0)


def test_criterion_05_cache_transparency_and_cost():
    """Cached and uncached queries agree exactly; warm lookups are O(1)."""
    started = time.perf_counter()
    model = random_model("clbl++", n_types=60, n_factors=25, num_classes=8,
                         d=6, n=3, seed=11)
    rng = np.random.default_rng(12)
    base = [(tuple(rng.integers(0, 60, size=2)), int(rng.choice(model.scorable_ids)))
            for _ in range(500)]
    queries = base * 20  # 10k repeated queries
    rng.shuffle(queries)
    warm = Querier(model, use_cache=True)
    cold = Querier(model, use_cache=False)
    for ctx, w in queries:
        assert warm.log_prob(list(ctx), w) == cold.log_prob(list(ctx), w)
    # warm-cache cost: all normalizers now cached
    for ctx, w in base:
        warm.stats = QueryStats()
        warm.log_prob(list(ctx), w)
        c = int(model.class_of[w])
        size_c = int(model.members_indptr[c + 1] - model.members_indptr[c])
        assert warm.stats.score_ops <= size_c + 1
    report(5, "cache transparency over 10k queries, warm cost <= |C_c|+1",
           started, budget=10.0)


def _morph_benefit_run(seed: int):
    kw = dict(n_stems=60, n_suffixes=8, zipf_a=2.0, agree=0.75, persist=0.4)
    train_s, segs = morph_corpus(100_000, seed=seed, **kw)
    dev_s, _ = morph_corpus(8_000, seed=seed + 1000, **kw)
    test_s, _ = morph_corpus(10_000, seed=seed + 2000, **kw)
    vocab = build_vocabulary(train_s, kappa=0.0, seed=seed)
    part = frequency_bin(vocab, default_num_classes(len(vocab)))
    n = 3
    tr = ngram_arrays(*vocab.encode_corpus(train_s), n)
    dev = ngram_arrays(*vocab.encode_corpus(dev_s), n)
    test_corpus = prepare_eval_corpus(vocab, test_s, n)

    def fit(variant):
        fv, wf = build_factorization(vocab, segs if variant == "clbl++" else None)
        cfg = ModelConfig.from_variant(variant, n=n, d=16)
        params = init_params(cfg, vocab, fv, wf, part, 0.01, seed=seed)
        model = LanguageModel(cfg, vocab, fv, wf, params, part)
        tcfg = TrainingConfig(d=16, n=n, variant=variant, minibatch_size=2000,
                              step_size=0.08, max_epochs=3, seed=seed)
        train(model, tr, dev, tcfg)
        labels = frequency_labels(vocab, test_corpus.surfaces)
        rep = perplexity(model, test_corpus.contexts, test_corpus.targets, labels)
        return rep.total_ppl, rep

    def group_ppl(rep, labels):
        nll = sum(rep.groups[l].nll for l in labels if l in rep.groups)
        cnt = sum(rep.groups[l].count for l in labels if l in rep.groups)
        assert cnt > 0, f"no test tokens in bins {labels}"
        return math.exp(nll / cnt)

    total_w, rep_w = fit("clbl")
    total_pp, rep_pp = fit("clbl++")
    # rare: training count < 10, i.e. the unseen and [1,10) bins
    rare_w = group_ppl(rep_w, ["unseen", "0"])
    rare_pp = group_ppl(rep_pp, ["unseen", "0"])
    top = str(max(int(k) for k in rep_w.groups if k != "unseen"))
    top_w = group_ppl(rep_w, [top])
    top_pp = group_ppl(rep_pp, [top])
    rare_adv = 1.0 - rare_pp / rare_w
    top_adv = 1.0 - top_pp / top_w
    assert total_pp < total_w, (
        f"seed {seed}: additive model did not improve total PPL "
        f"({total_pp:.2f} vs {total_w:.2f})")
    assert rare_adv > top_adv, (
        f"seed {seed}: rare-bin advantage {rare_adv:.3f} does not exceed "
        f"frequent-bin advantage {top_adv:.3f}")
    return total_w, total_pp, rare_adv, top_adv


def test_criterion_06_directional_morphology_benefit():
    """Additive morphology lowers PPL, most strongly on rare words, on 3 seeds."""
    started = time.perf_counter()
    gaps = []
    for seed in (0, 1, 2):
        total_w, total_pp, rare_adv, top_adv = _morph_benefit_run(seed)
        gaps.append(f"seed {seed}: {total_w:.2f}->{total_pp:.2f} "
                    f"rare {rare_adv:.2f} vs top {top_adv:.3f}")
    report(6, "morphology benefit (" + "; ".join(gaps) + ")", started, budget=600.0)


def test_criterion_07_early_stopping():
    """Dev sequence [300, 280, 285] halts after epoch 3 returning epoch-2 weights."""
    started = time.perf_counter()
    model = toy_morph_model(n_types=12, n_factors=7, num_classes=3, d=3, seed=13)
    rng = np.random.default_rng(14)
    ctx = rng.integers(0, 12, size=(256, 2)).astype(np.int64)
    tgt = np.asarray(rng.choice(model.scorable_ids, size=256), dtype=np.int64)
    schedule = [300.0, 280.0, 285.0]
    snapshots = {}

    def fake_dev(m, epoch):
        snapshots[epoch] = m.params.copy()
        return schedule[epoch - 1]

    cfg = TrainingConfig(d=3, n=3, variant="clbl++", minibatch_size=64,
                         max_epochs=10, seed=15)
    result = train(model, (ctx, tgt), None, cfg, dev_ppl_fn=fake_dev)
    assert result.stopped_early
    assert len(result.history) == 3
    assert [r.dev_ppl for r in result.history] == schedule
    for name, block in result.params.blocks().items():
        assert np.array_equal(block, snapshots[2].blocks()[name])
    report(7, "early stopping on injected dev sequence", started, budget=1.0)


def test_criterion_08_spearman_oracle():
    """Rank correlation matches a brute-force implementation, ties included."""
    started = time.perf_counter()

    def brute_spearman(x, y):
        rx, ry = reference_ranks(list(x)), reference_ranks(list(y))
        mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
        num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
        vx = sum((a - mx) ** 2 for a in rx)
        vy = sum((b - my) ** 2 for b in ry)
        if vx == 0.0 or vy == 0.0:
            return float("nan")
        return num / math.sqrt(vx * vy)

    rng = np.random.default_rng(16)
    checked = 0
    for _ in range(200):
        x = rng.integers(0, 5, size=10).astype(float)
        y = rng.integers(0, 5, size=10).astype(float)
        got = spearman(x, y)
        want = brute_spearman(x, y)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert abs(got - want) <= 1e-12
            checked += 1
    assert checked >= 150
    # tie-free inputs also satisfy the classical rank-difference formula
    for _ in range(50):
        x = rng.permutation(10).astype(float)
        y = rng.permutation(10).astype(float)
        d = average_ranks(x) - average_ranks(y)
        formula = 1.0 - 6.0 * float(d @ d) / (10 * (100 - 1))
        assert abs(spearman(x, y) - formula) <= 1e-12
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8
    report(8, "rank-correlation oracle, 200 tied vectors", started)


def test_criterion_09_exchange_clustering_sanity():
    """Exchange clustering recovers the exhaustive-search optimum, AMI ascending."""
    started = time.perf_counter()
    sentence = ["a", "b"] * 500
    vocab = build_vocabulary([sentence], kappa=0.0, seed=0)
    bigrams = reference_bigram_counts(sentence_ids(*vocab.encode_corpus([sentence])))

    def ami(class_of):
        total = sum(bigrams.values())
        joint, left, right = {}, {}, {}
        for (u, v), cnt in bigrams.items():
            cu, cv = class_of[u], class_of[v]
            joint[(cu, cv)] = joint.get((cu, cv), 0) + cnt
            left[cu] = left.get(cu, 0) + cnt
            right[cv] = right.get(cv, 0) + cnt
        return sum((c / total) * math.log(c * total / (left[cu] * right[cv]))
                   for (cu, cv), c in joint.items())

    trace = []
    part = brown_cluster(bigrams, len(vocab), 2, trace=trace)
    massy = sorted({u for (u, _) in bigrams} | {w for (_, w) in bigrams})
    best = max(
        ami({w: c for w, c in zip(massy, assign)})
        for assign in itertools.product((0, 1), repeat=len(massy))
        if len(set(assign)) == 2)
    achieved = ami({w: int(part.class_of[w]) for w in massy})
    assert abs(achieved - best) <= 1e-12
    assert part.class_of[vocab.id_of["a"]] != part.class_of[vocab.id_of["b"]]

    # replay the accepted moves: AMI never decreases
    mass = np.zeros(len(vocab), dtype=np.int64)
    for (u, v), cnt in bigrams.items():
        mass[u] += cnt
        mass[v] += cnt
    ranks = np.lexsort((np.arange(len(vocab)), -mass))
    class_of = np.empty(len(vocab), dtype=np.int64)
    for rank, w in enumerate(ranks):
        class_of[w] = rank if rank < 2 else rank % 2
    current = ami(dict(enumerate(class_of)))
    for w, frm, to in trace:
        assert class_of[w] == frm
        class_of[w] = to
        nxt = ami(dict(enumerate(class_of)))
        assert nxt >= current - 1e-12
        current = nxt
    report(9, "exchange clustering equals exhaustive optimum on a/b corpus", started)


def test_criterion_10_scale_smoke():
    """One epoch on a million tokens fits the budget and beats the unigram by 30%."""
    started = time.perf_counter()
    kw = dict(n_stems=4000, n_suffixes=8, zipf_a=1.1, agree=0.75, persist=0.3)
    train_s, segs = morph_corpus(1_000_000, seed=7, **kw)
    dev_s, _ = morph_corpus(20_000, seed=1007, **kw)
    vocab = build_vocabulary(train_s, kappa=0.05, seed=7)
    assert 20_000 <= len(vocab) <= 45_000, f"|V|={len(vocab)} outside 20k-45k"
    fv, wf = build_factorization(vocab, segs)
    part = frequency_bin(vocab, default_num_classes(len(vocab)))
    n, d = 4, 32
    tr = ngram_arrays(*vocab.encode_corpus(train_s), n)
    dev = ngram_arrays(*vocab.encode_corpus(dev_s), n)
    baseline = unigram_perplexity(vocab, dev[1])

    cfg = ModelConfig.from_variant("clbl++", n=n, d=d)
    params = init_params(cfg, vocab, fv, wf, part, 0.01, seed=7)
    model = LanguageModel(cfg, vocab, fv, wf, params, part)
    tcfg = TrainingConfig(d=d, n=n, variant="clbl++", minibatch_size=5000,
                          step_size=0.08, max_epochs=2, seed=7)
    result = train(model, tr, dev, tcfg)
    epoch_seconds = max(r.seconds for r in result.history)
    assert epoch_seconds < 900.0, f"epoch took {epoch_seconds:.0f}s"
    final = result.history[-1].dev_ppl
    assert final <= 0.7 * baseline, (
        f"dev PPL {final:.1f} not 30% below unigram {baseline:.1f}")
    report(10, f"1m-token epoch {epoch_seconds:.0f}s, |V|={len(vocab)}, "
               f"dev {final:.0f} vs unigram {baseline:.0f}", started)


def test_criterion_11_serialization(tmp_path):
    """Container round-trips are bit-exact and queries are unchanged."""
    started = time.perf_counter()
    model = random_model("clbl++", n_types=40, n_factors=18, num_classes=6,
                         d=5, n=3, seed=17)
    path = tmp_path / "model.mlbl"
    save_model(model, path)
    loaded = load_model(path)
    path2 = tmp_path / "model2.mlbl"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    q1, q2 = Querier(model), Querier(loaded)
    rng = np.random.default_rng(18)
    for _ in range(200):
        ctx = list(rng.integers(0, 40, size=2))
        w = int(rng.choice(model.scorable_ids))
        assert q1.log_prob(ctx, w) == q2.log_prob(ctx, w)
    report(11, "bit-exact container round-trip, queries unchanged", started)
