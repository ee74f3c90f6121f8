import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from helpers import (class_tables, csr_rows, fd_check, make_vocab, morph_corpus, mu_pairs,
                     random_batch, random_factorization, random_model, random_partition,
                     reference_add_l2, reference_add_rows, reference_compose_rows,
                     reference_context_backward, reference_minibatch_loss_and_grad,
                     reference_scatter_rows, pool_on, toy_morph_model, zero_grads, zeroed)
from mlbl import _kernels
from mlbl.clustering import ClassPartition, frequency_bin
from mlbl.corpus import PAD_ID, UNK_ID, build_vocabulary, ngram_arrays
from mlbl.errors import DataError
from mlbl.model import VARIANTS, LanguageModel, ModelConfig, ModelParameters
from mlbl.morphology import build_factorization, compile_word_table
from mlbl import training
from mlbl.training import (ADAGRAD_BLOCK, PARSERS, RANGES, StepBuffers, TrainState,
                           TrainingConfig, adagrad_step, init_params, laplace_unigram,
                           minibatch_loss_and_grad, nce_loss_and_grad, train)


class TestInitParams:
    def test_bias_formula(self):
        vocab = build_vocabulary([["a", "a", "a", "b"]], kappa=0.0, seed=0)
        fv, wf = build_factorization(vocab, None)
        cfg = ModelConfig(n=2, d=2)
        params = init_params(cfg, vocab, fv, wf, None, 0.01, seed=0)
        # T=4 tokens, 3 scorable types (unk, a, b)
        assert params.b[vocab.id_of["a"]] == pytest.approx(math.log(4 / 7), abs=1e-15)
        assert params.b[vocab.id_of["b"]] == pytest.approx(math.log(2 / 7), abs=1e-15)
        assert params.b[UNK_ID] == pytest.approx(math.log(1 / 7), abs=1e-15)

    def test_bias_exponentials_sum_to_one(self):
        m = random_model("clbl++", n_types=17, seed=31)
        scorable = m.scorable_ids
        assert np.exp(m.params.b[scorable]).sum() == pytest.approx(1.0, abs=1e-12)
        assert np.exp(m.params.t[m.scorable_classes]).sum() == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_identical(self):
        a = random_model("clbl++", seed=32)
        b = random_model("clbl++", seed=32)
        for name, block in a.params.blocks().items():
            assert np.array_equal(block, b.params.blocks()[name])


class TestMinibatchLoss:
    def test_two_equal_words_single_class(self):
        vocab = build_vocabulary([["a", "a"]], kappa=0.0, seed=0)
        fv, wf = build_factorization(vocab, None)
        part = ClassPartition(np.zeros(3, dtype=np.int64))
        cfg = ModelConfig(n=2, d=2, class_based=True)
        params = init_params(cfg, vocab, fv, wf, part, 0.1, seed=0)
        m = zeroed(LanguageModel(cfg, vocab, fv, wf, params, part))
        ctx = np.array([[1]], dtype=np.int64)
        tgt = np.array([vocab.id_of["a"]], dtype=np.int64)
        loss, _ = minibatch_loss_and_grad(m, ctx, tgt, l2_lambda=0.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-14)

    def test_unigram_bias_recovers_unigram_nll(self):
        vocab = make_vocab(12, seed=2)
        fv, wf = build_factorization(vocab, None)
        part = ClassPartition(np.zeros(12, dtype=np.int64))
        cfg = ModelConfig(n=3, d=4, class_based=True)
        params = init_params(cfg, vocab, fv, wf, part, 0.5, seed=3)
        m = LanguageModel(cfg, vocab, fv, wf, params, part)
        for name, block in m.params.blocks().items():
            if name != "b":
                block[...] = 0.0
        m.recompile()
        ctx, tgt = random_batch(m, 30, seed=4)
        loss, _ = minibatch_loss_and_grad(m, ctx, tgt, l2_lambda=0.0)
        unigram = laplace_unigram(vocab)
        oracle = -np.log(unigram[tgt]).sum()
        assert loss == pytest.approx(oracle, rel=1e-12)

    def test_l2_term_gradient(self):
        m = toy_morph_model(seed=5)
        ctx, tgt = random_batch(m, 8, seed=6)
        lam = 0.01
        loss0, g0 = minibatch_loss_and_grad(m, ctx, tgt, l2_lambda=0.0)
        loss1, g1 = minibatch_loss_and_grad(m, ctx, tgt, l2_lambda=lam)
        sq = sum(float((b * b).sum()) for b in m.params.blocks().values())
        assert loss1 - loss0 == pytest.approx(lam * sq, rel=1e-12)
        for name, block in m.params.blocks().items():
            np.testing.assert_allclose(
                g1.blocks()[name] - g0.blocks()[name], 2 * lam * block, atol=1e-12)

    def test_rejects_classless_model(self):
        m = random_model("lbl", seed=7)
        ctx, tgt = random_batch(m, 4, seed=8)
        with pytest.raises(DataError):
            minibatch_loss_and_grad(m, ctx, tgt)

    def test_gradients_match_finite_differences(self):
        m = toy_morph_model(n_types=12, n_factors=7, num_classes=3, d=3, seed=9)
        ctx, tgt = random_batch(m, 10, seed=10)
        fd_check(m, lambda: minibatch_loss_and_grad(m, ctx, tgt, l2_lambda=1e-3))

    def test_factor_sharing_chain_rule(self):
        """Factor gradients equal the dense chain rule through the count matrix."""
        m = toy_morph_model(n_types=14, n_factors=8, num_classes=3, d=4, seed=11)
        ctx, tgt = random_batch(m, 12, seed=12)
        _, grads = minibatch_loss_and_grad(m, ctx, tgt, l2_lambda=0.0)

        # word-level oracle: same compiled tables as plain word parameters
        vocab = m.vocab
        fv_id, wf_id = build_factorization(vocab, None)
        cfg_w = ModelConfig(n=m.config.n, d=m.config.d, class_based=True)
        params_w = ModelParameters(
            m.params.C.copy(), m.params.Q.copy(), m.params.R.copy(),
            m.params.b.copy(), m.params.S.copy(), m.params.t.copy())
        m_w = LanguageModel(cfg_w, vocab, fv_id, wf_id, params_w, m.partition)
        _, grads_w = minibatch_loss_and_grad(m_w, ctx, tgt, l2_lambda=0.0)

        dense = np.zeros((len(vocab), m.factorization.num_factors))
        for v in range(len(vocab)):
            for f, mult in mu_pairs(m.factorization, v):
                dense[v, f] = mult
        np.testing.assert_allclose(grads.Rf, dense.T @ grads_w.Rf, atol=1e-10)
        np.testing.assert_allclose(grads.Qf, dense.T @ grads_w.Qf, atol=1e-10)

    def test_loss_finite_over_many_random_batches(self):
        m = toy_morph_model(n_types=10, n_factors=6, num_classes=3, d=3, seed=13)
        for trial in range(1000):
            ctx, tgt = random_batch(m, 4, seed=trial)
            loss, _ = minibatch_loss_and_grad(m, ctx, tgt, l2_lambda=1e-5)
            assert math.isfinite(loss)


class TestNCE:
    def _flat_model(self, seed=0, d=3):
        return toy_morph_model(n_types=10, n_factors=6, d=d, seed=seed, variant="lbl++")

    def test_symmetric_point_loss(self):
        m = self._flat_model(seed=14)
        k = 5
        noise = laplace_unigram(m.vocab)
        for name, block in m.params.blocks().items():
            block[...] = 0.0
        scorable = m.scorable_ids
        m.params.b[scorable] = np.log(k * noise[scorable])
        m.recompile()
        ctx, tgt = random_batch(m, 16, seed=15)
        loss, _ = nce_loss_and_grad(m, ctx, tgt, k, noise, seed=1)
        assert loss == pytest.approx(16 * (k + 1) * math.log(2.0), rel=1e-12)

    def test_extreme_scores_drive_loss_to_zero(self):
        m = self._flat_model(seed=16)
        noise = laplace_unigram(m.vocab)
        for name, block in m.params.blocks().items():
            block[...] = 0.0
        tgt_word = int(m.scorable_ids[3])
        m.params.b[:] = -60.0
        m.params.b[tgt_word] = 60.0
        m.recompile()
        ctx = np.array([[2, 3]], dtype=np.int64)
        tgt = np.array([tgt_word], dtype=np.int64)
        rng = np.random.default_rng(0)
        # make sure the drawn noise misses the target word at this seed
        loss, _ = nce_loss_and_grad(m, ctx, tgt, 3, noise, seed=2)
        draws = np.random.default_rng(2).choice(len(m.vocab), size=(1, 3), p=noise)
        if tgt_word not in draws:
            assert 0.0 <= loss < 1e-10

    def test_gradients_match_finite_differences(self):
        m = self._flat_model(seed=17)
        ctx, tgt = random_batch(m, 8, seed=18)
        noise = laplace_unigram(m.vocab)
        fd_check(m, lambda: nce_loss_and_grad(m, ctx, tgt, 4, noise, seed=3))

    def test_requires_positive_k(self):
        m = self._flat_model(seed=19)
        ctx, tgt = random_batch(m, 2, seed=20)
        with pytest.raises(ValueError):
            nce_loss_and_grad(m, ctx, tgt, 0, laplace_unigram(m.vocab), seed=0)

    def test_same_seed_same_loss(self):
        m = self._flat_model(seed=21)
        ctx, tgt = random_batch(m, 8, seed=22)
        noise = laplace_unigram(m.vocab)
        l1, _ = nce_loss_and_grad(m, ctx, tgt, 4, noise, seed=9)
        l2, _ = nce_loss_and_grad(m, ctx, tgt, 4, noise, seed=9)
        assert l1 == l2


class TestAdagrad:
    def _tiny_state(self):
        params = ModelParameters(
            C=np.zeros((1, 1, 1)), Qf=np.zeros((1, 1)), Rf=np.zeros((1, 1)),
            b=np.zeros(1))
        return TrainState(params)

    def test_first_step(self):
        state = self._tiny_state()
        state.params.b[0] = 1.0
        grads = ModelParameters(np.zeros((1, 1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                                np.array([4.0]))
        adagrad_step(state, grads, step_size=0.1, epsilon=0.0)
        assert state.params.b[0] == pytest.approx(1.0 - 0.1, abs=1e-15)
        assert state.accum["b"][0] == 16.0

    def test_zero_gradient_changes_nothing(self):
        state = self._tiny_state()
        grads = ModelParameters(np.zeros((1, 1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                                np.zeros(1))
        adagrad_step(state, grads, step_size=0.5, epsilon=1e-8)
        assert state.params.b[0] == 0.0
        assert state.accum["b"][0] == 0.0

    def test_second_identical_step_is_smaller(self):
        state = self._tiny_state()
        grads = ModelParameters(np.zeros((1, 1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                                np.array([2.0]))
        adagrad_step(state, grads, 0.1, 1e-8)
        first = abs(state.params.b[0])
        before = state.params.b[0]
        grads2 = ModelParameters(np.zeros((1, 1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                                 np.array([2.0]))
        adagrad_step(state, grads2, 0.1, 1e-8)
        second = abs(state.params.b[0] - before)
        assert second < first

    @pytest.mark.parametrize("epsilon", [0.0, -0.5, np.nan])
    def test_update_is_zero_where_denominator_is_not_positive(self, epsilon):
        g = np.array([0.0, 0.0, 0.25, 3.0, np.nan])
        states = []
        for step in (adagrad_step, reference_adagrad_step):
            state = self._tiny_state()
            state.params.b = np.arange(5.0)
            state.accum["b"] = np.array([0.0, 1.0, 0.0, 0.01, 4.0])
            grads = ModelParameters(np.zeros((1, 1, 1)), np.zeros((1, 1)),
                                    np.zeros((1, 1)), g.copy())
            with np.errstate(invalid="ignore"):
                step(state, grads, 0.1, epsilon)
            states.append((state.params.b.tobytes(), state.accum["b"].tobytes()))
        assert states[0] == states[1]
        if epsilon == 0.0:
            assert state.params.b[0] == 0.0

    def test_accumulator_nondecreasing(self):
        state = self._tiny_state()
        rng = np.random.default_rng(0)
        prev = 0.0
        for _ in range(20):
            grads = ModelParameters(np.zeros((1, 1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                                    rng.normal(size=1))
            adagrad_step(state, grads, 0.1, 1e-8)
            assert state.accum["b"][0] >= prev
            prev = state.accum["b"][0]


def reference_adagrad_step(state, grads, step_size, epsilon):
    """``adagrad_step`` in its allocating form."""
    blocks = state.params.blocks()
    for name, g in grads.blocks().items():
        acc = state.accum[name]
        acc += g * g
        denom = np.sqrt(acc) + epsilon
        update = np.zeros_like(g)
        np.divide(g, denom, out=update, where=denom > 0)
        blocks[name] -= step_size * update


def _program_loss(m, state, ctx, tgt, noise, k, l2, biases):
    """The program's loss of step k, in the run's kept step buffers."""
    if m.config.class_based:
        return minibatch_loss_and_grad(m, ctx, tgt, l2, biases, state.buffers)
    return nce_loss_and_grad(m, ctx, tgt, 3, noise, [5, k], l2, biases, state.buffers)


def _reference_loss(m, state, ctx, tgt, noise, k, l2, biases):
    if m.config.class_based:
        return reference_minibatch_loss_and_grad(m, ctx, tgt, l2, biases)
    return reference_nce_loss_and_grad(m, ctx, tgt, 3, noise, [5, k], l2, biases)


def _three_steps(variant, loss_fn, step):
    """(what, bytes) of the loss, gradients, parameters and accumulators of three steps.

    The first step runs at epsilon 0 without L2, so every entry no batch
    word touches has a zero gradient and an empty accumulator; the others
    add L2 with and without the biases.
    """
    m = random_model(variant, n_types=60, n_factors=60, num_classes=6, d=5, n=4,
                     seed=4, init_sigma=0.3)
    state = TrainState(m.params)
    noise = laplace_unigram(m.vocab)
    out = []
    for k, (epsilon, l2, biases) in enumerate([(0.0, 0.0, True), (1e-8, 1e-3, True),
                                               (1e-8, 1e-3, False)]):
        ctx, tgt = random_batch(m, 8 if k == 0 else 40, seed=k)
        loss, grads = loss_fn(m, state, ctx, tgt, noise, k, l2, biases)
        step(state, grads, 0.1, epsilon)
        if k == 0:
            assert (state.accum["Qf"] == 0.0).any()
        out.append((f"step {k} loss", np.float64(loss).tobytes()))
        for what, blocks in (("grad", grads.blocks()), ("param", m.params.blocks()),
                             ("accum", state.accum)):
            out.extend((f"step {k} {what} {name}", block.tobytes())
                       for name, block in blocks.items())
        assert all(np.isfinite(block).all() for block in m.params.blocks().values())
    return out


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_pooled_training_steps_equal_reference_kernels_bitwise(variant, monkeypatch):
    pool_on(monkeypatch)
    test_training_steps_equal_reference_kernels_bitwise(variant, monkeypatch)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_training_steps_equal_reference_kernels_bitwise(variant, monkeypatch):
    got = _three_steps(variant, _program_loss, adagrad_step)
    for name, ref in (("compose_rows", reference_compose_rows),
                      ("scatter_rows", reference_scatter_rows),
                      ("add_rows", reference_add_rows)):
        monkeypatch.setattr(_kernels, name, ref)
    want = _three_steps(variant, _reference_loss, reference_adagrad_step)
    assert [what for what, _ in got] == [what for what, _ in want]
    differ = [what for (what, x), (_, y) in zip(got, want) if x != y]
    assert not differ, differ


def reference_nce_loss_and_grad(model, contexts, targets, k, noise_probs, seed,
                                l2_lambda, regularize_biases):
    """``nce_loss_and_grad`` adding into the bias and target-row gradients
    one term at a time: the target terms by datum, then the noise terms by
    datum and draw. The rest follows the reference kernels."""
    model.recompile()
    params = model.params
    grads = zero_grads(params)
    noise = np.random.default_rng(seed).choice(len(model.vocab), size=(len(targets), k),
                                               p=noise_probs)
    p = model.predictions_batch(contexts, params.Q)
    log_kpn = np.full_like(noise_probs, -np.inf)
    np.log(k * noise_probs, out=log_kpn, where=noise_probs > 0)
    Rn = params.R[noise]
    delta_t = (p * params.R[targets]).sum(axis=1) + params.b[targets] - log_kpn[targets]
    delta_n = np.einsum("ld,lkd->lk", p, Rn) + params.b[noise] - log_kpn[noise]
    loss = float(np.logaddexp(0.0, -delta_t).sum() + np.logaddexp(0.0, delta_n).sum())
    g_t = -training._sigmoid(-delta_t)
    g_n = training._sigmoid(delta_n)
    gR = np.zeros_like(params.R)
    terms = [(targets[i], g_t[i], p[i]) for i in range(len(targets))]
    terms += [(noise[i, j], g_n[i, j], p[i]) for i in range(len(targets)) for j in range(k)]
    for w, g, _ in terms:
        grads.b[w] += g
    for w, g, p_i in terms:
        gR[w] += g * p_i
    dp = g_t[:, None] * params.R[targets] + np.einsum("lk,lkd->ld", g_n, Rn)
    mr = model.mr
    reference_scatter_rows(csr_rows(mr.indptr), mr.indices, mr.data, gR, grads.Rf)
    reference_context_backward(model, contexts, dp, grads)
    loss += reference_add_l2(model, grads, l2_lambda, regularize_biases)
    return loss, grads


@pytest.mark.parametrize("variant", ["lbl", "lbl+c", "lbl+o", "lbl++"])
def test_nce_loss_and_grad_equals_termwise_reference_bitwise(variant):
    m = random_model(variant, n_types=30, n_factors=20, d=5, n=4, seed=6, init_sigma=0.3)
    noise = laplace_unigram(m.vocab)
    for k, (l2, biases) in enumerate([(0.0, True), (1e-3, True), (1e-3, False)]):
        ctx, tgt = random_batch(m, 60, seed=k)
        loss, grads = nce_loss_and_grad(m, ctx, tgt, 4, noise, [7, k], l2, biases)
        want_loss, want = reference_nce_loss_and_grad(m, ctx, tgt, 4, noise, [7, k], l2, biases)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        for name, block in grads.blocks().items():
            assert block.tobytes() == want.blocks()[name].tobytes(), (k, name)


def quick_train_setup(seed=0, n_tokens=4000, variant="clbl", d=4, n=3):
    sentences, segs = morph_corpus(n_tokens, n_stems=12, n_suffixes=4, seed=seed)
    vocab = build_vocabulary(sentences, kappa=0.0, seed=seed)
    fv, wf = build_factorization(vocab, segs if "+" in variant else None)
    cfg = ModelConfig.from_variant(variant, n=n, d=d)
    partition = frequency_bin(vocab, 4) if cfg.class_based else None
    params = init_params(cfg, vocab, fv, wf, partition, 0.01, seed=seed)
    model = LanguageModel(cfg, vocab, fv, wf, params, partition)
    split = int(0.9 * len(sentences))
    train_arrays = ngram_arrays(*vocab.encode_corpus(sentences[:split]), n)
    dev_arrays = ngram_arrays(*vocab.encode_corpus(sentences[split:]), n)
    return model, train_arrays, dev_arrays


class TestTrainLoop:
    def test_injected_dev_sequence_early_stop(self):
        model, tr, dev = quick_train_setup(seed=1)
        schedule = [300.0, 280.0, 285.0]
        snapshots = {}

        def fake_dev(m, epoch):
            snapshots[epoch] = m.params.copy()
            return schedule[epoch - 1]

        cfg = TrainingConfig(d=4, n=3, variant="clbl", minibatch_size=512,
                             max_epochs=10, seed=1)
        result = train(model, tr, dev, cfg, dev_ppl_fn=fake_dev)
        assert result.stopped_early
        assert len(result.history) == 3
        assert result.best_dev_ppl == 280.0
        for name, block in result.params.blocks().items():
            assert np.array_equal(block, snapshots[2].blocks()[name])

    def test_nan_dev_perplexity_stops_with_last_finite_epoch(self, caplog):
        model, tr, dev = quick_train_setup(seed=1)
        schedule = [300.0, float("nan"), float("nan"), 500.0]
        snapshots = {}

        def fake_dev(m, epoch):
            snapshots[epoch] = m.params.copy()
            return schedule[epoch - 1]

        cfg = TrainingConfig(d=4, n=3, variant="clbl", minibatch_size=512,
                             max_epochs=4, seed=1)
        with caplog.at_level("WARNING", logger="mlbl.training"):
            result = train(model, tr, dev, cfg, dev_ppl_fn=fake_dev)
        assert result.stopped_early
        assert len(result.history) == 2
        assert result.best_dev_ppl == 300.0
        for name, block in result.params.blocks().items():
            assert np.array_equal(block, snapshots[1].blocks()[name])
        assert "dev perplexity is nan" in caplog.text

    def test_nan_dev_perplexity_in_first_epoch_stops(self):
        model, tr, dev = quick_train_setup(seed=1)
        cfg = TrainingConfig(d=4, n=3, variant="clbl", minibatch_size=512,
                             max_epochs=3, seed=1)
        result = train(model, tr, dev, cfg, dev_ppl_fn=lambda m, e: float("inf"))
        assert result.stopped_early
        assert len(result.history) == 1
        assert result.best_dev_ppl == float("inf")

    def test_nonfinite_training_loss_stops_before_stepping(self, caplog):
        self._nonfinite_loss_stops_before_stepping(caplog)

    def test_nonfinite_training_loss_stops_before_stepping_on_the_pool(self, caplog,
                                                                       monkeypatch):
        """The caller's ``np.errstate`` holds on the pool's threads too: no
        warning escapes it to be raised as an error."""
        pool_on(monkeypatch)
        self._nonfinite_loss_stops_before_stepping(caplog)

    @staticmethod
    def _nonfinite_loss_stops_before_stepping(caplog):
        model, tr, dev = quick_train_setup(seed=1)
        model.params.Rf[3, 0] = np.inf
        before = model.params.copy()
        cfg = TrainingConfig(d=4, n=3, variant="clbl", minibatch_size=512,
                             max_epochs=3, seed=1)
        with caplog.at_level("WARNING", logger="mlbl.training"), np.errstate(invalid="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            result = train(model, tr, dev, cfg, dev_ppl_fn=lambda m, e: 100.0)
        assert result.stopped_early
        assert result.history == []
        for name, block in result.params.blocks().items():
            assert np.array_equal(block, before.blocks()[name])
        assert "training loss is" in caplog.text

    def test_nonfinite_training_loss_restores_last_epoch(self, monkeypatch):
        model, tr, dev = quick_train_setup(seed=1)
        bad_call = -(-tr[1].shape[0] // 512) + 3   # third minibatch of epoch 2
        snapshots = {}
        calls = []
        real = training.minibatch_loss_and_grad

        def loss_fn(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            calls.append(loss)
            return (float("inf") if len(calls) == bad_call else loss), grads

        def fake_dev(m, epoch):
            snapshots[epoch] = m.params.copy()
            return 300.0 - epoch

        monkeypatch.setattr(training, "minibatch_loss_and_grad", loss_fn)
        cfg = TrainingConfig(d=4, n=3, variant="clbl", minibatch_size=512,
                             max_epochs=5, seed=1)
        result = train(model, tr, dev, cfg, dev_ppl_fn=fake_dev)
        assert len(calls) == bad_call
        assert result.stopped_early
        assert len(result.history) == 1
        assert list(snapshots) == [1]
        for name, block in result.params.blocks().items():
            assert np.array_equal(block, snapshots[1].blocks()[name])

    def test_max_epochs_one(self):
        model, tr, dev = quick_train_setup(seed=2)
        cfg = TrainingConfig(d=4, n=3, variant="clbl", minibatch_size=512,
                             max_epochs=1, seed=2)
        result = train(model, tr, dev, cfg, dev_ppl_fn=lambda m, e: 100.0)
        assert len(result.history) == 1
        assert not result.stopped_early

    def test_training_loss_decreases(self):
        model, tr, dev = quick_train_setup(seed=3, n_tokens=10000)
        cfg = TrainingConfig(d=4, n=3, variant="clbl", minibatch_size=1000,
                             step_size=0.08, max_epochs=3, seed=3)
        result = train(model, tr, dev, cfg, dev_ppl_fn=lambda m, e: 1.0 / e)
        losses = [r.train_loss for r in result.history]
        assert losses[0] > losses[1] > losses[2]

    def test_trajectories_deterministic(self):
        results = []
        for _ in range(2):
            model, tr, dev = quick_train_setup(seed=4)
            cfg = TrainingConfig(d=4, n=3, variant="clbl", minibatch_size=512,
                                 max_epochs=2, seed=4)
            results.append(train(model, tr, dev, cfg))
        a, b = results
        assert [r.train_loss for r in a.history] == [r.train_loss for r in b.history]
        for name, block in a.params.blocks().items():
            assert np.array_equal(block, b.params.blocks()[name])

    def test_nce_path_trains(self):
        model, tr, dev = quick_train_setup(seed=5, variant="lbl++")
        cfg = TrainingConfig(d=4, n=3, variant="lbl++", minibatch_size=512,
                             step_size=0.08, max_epochs=2, seed=5, nce_noise_k=5)
        result = train(model, tr, dev, cfg)
        assert len(result.history) == 2
        assert all(math.isfinite(r.dev_ppl) for r in result.history)

    def test_empty_training_stream(self):
        model, tr, dev = quick_train_setup(seed=6)
        cfg = TrainingConfig(d=4, n=3, variant="clbl", seed=6)
        empty = (np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64))
        with pytest.raises(DataError):
            train(model, empty, dev, cfg)


class TestTrainingConfigFile:
    def test_roundtrip_and_overrides(self, tmp_path):
        cfg = TrainingConfig(d=16, n=3, variant="clbl++", step_size=0.07)
        path = tmp_path / "train.cfg"
        path.write_text("d=16\nn=3\nvariant=clbl++\nstep_size=0.07\n", encoding="utf-8")
        loaded = TrainingConfig.from_file(path)
        assert loaded == cfg
        over = loaded.with_overrides({"max_epochs": "5", "regularize_biases": "false"})
        assert over.max_epochs == 5 and over.regularize_biases is False

    def test_roundtrip_with_d_unset(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("d=\nn=4\n", encoding="utf-8")
        assert TrainingConfig.from_file(path) == TrainingConfig()

    def test_every_field_type_has_a_parser(self):
        assert {f.type for f in fields(TrainingConfig)} <= set(PARSERS)

    @pytest.mark.parametrize("name", sorted(RANGES))
    def test_every_ranged_setting_is_finite_and_in_its_range(self, name):
        TrainingConfig(**{name: 1})
        assert (RANGES[name] == "non-negative") == _accepts(name, 0)
        for bad in (-1, math.nan, math.inf):
            assert not _accepts(name, bad)

    def test_variant_is_recorded_lowercase(self):
        assert TrainingConfig(variant="CLBL+c").variant == "clbl+c"
        assert TrainingConfig().with_overrides({"variant": "LBL"}).variant == "lbl"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("bogus=1\n", encoding="utf-8")
        with pytest.raises(DataError):
            TrainingConfig.from_file(path)

    def test_d_required_for_model(self):
        with pytest.raises(ValueError, match="embedding dimension d must be set"):
            TrainingConfig().model_config()


def _accepts(name, value):
    try:
        TrainingConfig(**{name: value})
    except ValueError as exc:
        assert str(exc) == f"{name} must be {RANGES[name]} and finite, got {value!r}"
        return False
    return True


def _edge_model(variant):
    """A model whose class 5 has one member word (id 7), so a batch row
    targeting it has a within-class gradient of exactly zero."""
    m = random_model(variant, n_types=40, n_factors=25, num_classes=6, d=5, n=4,
                     seed=8, init_sigma=0.3)
    class_of = np.arange(40, dtype=np.int64) % 5
    class_of[7] = 5
    return LanguageModel(m.config, m.vocab, m.factor_vocab, m.factorization, m.params,
                         ClassPartition(class_of))


def _edge_batches(m):
    """(name, contexts, targets, zero S) of batches at the loss's edges."""
    ctx, tgt = random_batch(m, 200, seed=3)   # 200 rows over 40 words: repeats
    class0 = m.members_flat[m.members_indptr[0]:m.members_indptr[1]]
    rng = np.random.default_rng(4)
    one_class = rng.choice(class0, size=50)
    # row 0 targets the one-word class with S zero: its dp row is zero, and
    # its context words 2, 3 and 4 occur in no other row
    zero_ctx = rng.choice([0, 1, 5, 6], size=(30, 3))
    zero_ctx[0] = [2, 3, 4]
    zero_tgt = rng.choice([5, 6, 8, 9, 10], size=30)
    zero_tgt[0] = 7
    single = tgt.copy()
    single[17] = 7
    return [("repeated contexts", ctx, tgt, False),
            ("PAD-only contexts", np.full((30, 3), PAD_ID), tgt[:30], False),
            ("one row", ctx[:1], tgt[:1], False),
            ("a class with one row", ctx, single, False),
            ("one class", ctx[:50], one_class, False),
            ("a zero dp row", zero_ctx, zero_tgt, True)]


@pytest.mark.parametrize("variant", ["clbl", "clbl+c", "clbl+o", "clbl++"])
def test_pooled_minibatch_loss_equals_full_table_reference_bitwise(variant, monkeypatch):
    pool_on(monkeypatch)
    test_minibatch_loss_equals_full_table_reference_bitwise(variant)


@pytest.mark.parametrize("variant", ["clbl", "clbl+c", "clbl+o", "clbl++"])
def test_minibatch_loss_equals_full_table_reference_bitwise(variant):
    m = _edge_model(variant)
    S = m.params.S.copy()
    kept = StepBuffers()
    for name, ctx, tgt, zero_S in _edge_batches(m):
        m.params.S[...] = 0.0 if zero_S else S
        for l2, biases in ((0.0, True), (1e-3, False)):
            m.recompile()
            compiled = m.params.Q.tobytes(), m.params.R.tobytes()
            m.params.Rf[0] += 0.25   # the loss reads the factor tables, not Q/R
            m.params.Qf[2] -= 0.25
            runs = [minibatch_loss_and_grad(m, ctx, tgt, l2, biases),
                    minibatch_loss_and_grad(m, ctx, tgt, l2, biases, kept)]
            runs = [(np.float64(loss).tobytes(), {k: g.tobytes() for k, g in
                                                  grads.blocks().items()})
                    for loss, grads in runs]
            assert (m.params.Q.tobytes(), m.params.R.tobytes()) == compiled, name
            want_loss, want = reference_minibatch_loss_and_grad(m, ctx, tgt, l2, biases)
            for loss, grads in runs:
                assert loss == np.float64(want_loss).tobytes(), (name, l2)
                for block, g in want.blocks().items():
                    assert grads[block] == g.tobytes(), (name, l2, block)
            if zero_S and l2 == 0.0 and not m.config.context_additive:
                assert not want.Qf[[2, 3, 4]].any()


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_training_tables_are_the_query_tables_bytes(variant, monkeypatch):
    """After a recompile, the stacked tables a training step builds (the
    class rows from ``fill_class_rows``, R composed into the word rows in
    class order) hold the bytes of the query path's, a flat model's zero
    class row included; each word's rows hold its class's and its own
    vector and bias."""
    m = random_model(variant, n_types=40, n_factors=25, num_classes=6, d=5, seed=8,
                     init_sigma=0.3)
    m.recompile()
    SR, tb, bounds, rows = m._query_tables()
    assert bounds is m.table_layout[0] and rows is m.table_layout[1]   # built once
    K = bounds[0]
    S, t = class_tables(m)
    scorable = m.scorable_ids
    cls = m.class_of[scorable]
    assert np.all((bounds[cls] <= rows[1, scorable]) & (rows[1, scorable] < bounds[cls + 1]))
    assert SR[rows[1, scorable]].tobytes() == m.params.R[scorable].tobytes()
    assert tb[rows[1, scorable]].tobytes() == m.params.b[scorable].tobytes()
    assert SR[rows[0, scorable]].tobytes() == S[cls].tobytes()
    assert tb[rows[0, scorable]].tobytes() == t[cls].tobytes()

    built = [np.zeros_like(SR), np.zeros_like(tb)]
    m.fill_class_rows(*built)
    mr, _ = m.class_ordered_targets
    _kernels.compose_rows(mr.indptr, mr.indices, mr.data, m.params.Rf, built[0][K:])
    if m.config.class_based:   # and the tables a step passes to the kernel
        fwd_bwd = _kernels.classed_fwd_bwd

        def spy(p, targets, class_of, SR, tb, *rest):
            built.extend((SR.copy(), tb.copy()))
            return fwd_bwd(p, targets, class_of, SR, tb, *rest)

        monkeypatch.setattr(_kernels, "classed_fwd_bwd", spy)
        minibatch_loss_and_grad(m, *random_batch(m, 50, seed=1))
        assert len(built) == 4
    for got, want in zip(built, [SR, tb] * 2):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pooled", [False, True])
def test_l2_adds_the_block_sums_in_block_order(monkeypatch, pooled):
    """Block sums 1, 1e16, 1 and 1 add up to 1e16 in block order; in the
    reverse order they would give 1e16 + 4."""
    if pooled:
        pool_on(monkeypatch)
    m = random_model("clbl++", n_types=30, n_factors=12, num_classes=4, d=5, seed=2)
    for block in m.params.blocks().values():
        block[...] = 0.0
    m.params.C.flat[0], m.params.Qf[0, 0], m.params.Rf[0, 0], m.params.b[0] = 1.0, 1e8, 1.0, 1.0
    grads, want = zero_grads(m.params), zero_grads(m.params)
    assert training._add_l2(m, grads, 0.5, True) == 0.5e16
    assert reference_add_l2(m, want, 0.5, True) == 0.5e16
    for name, g in want.blocks().items():
        assert np.array_equal(grads.blocks()[name], g), name


def test_pooled_blocked_adagrad_equals_reference_at_real_sizes(monkeypatch):
    pool_on(monkeypatch)
    test_blocked_adagrad_equals_reference_at_real_sizes()


def test_blocked_adagrad_equals_reference_at_real_sizes():
    rows = 5 * ADAGRAD_BLOCK // 2 + 3   # two full row blocks and a ragged one
    rng = np.random.default_rng(11)

    def blocks():
        return dict(C=rng.normal(size=(3, 4, 4)), Qf=rng.normal(size=(rows, 3)),
                    Rf=rng.normal(size=(rows, 2)), b=rng.normal(size=rows),
                    S=rng.normal(size=(7, 3)), t=rng.normal(size=7))

    start = blocks()
    states = [TrainState(ModelParameters(**{k: v.copy() for k, v in start.items()}))
              for _ in range(2)]
    for k in range(3):
        grads = blocks()
        grads["Qf"][rng.random(rows) < 0.3] = 0.0   # whole rows with zero gradient
        grads["b"][rng.random(rows) < 0.3] = 0.0
        for state, step in zip(states, (adagrad_step, reference_adagrad_step)):
            step(state, ModelParameters(**{n: g.copy() for n, g in grads.items()}),
                 0.1, 0.0 if k == 0 else 1e-8)
        for name in start:
            for what in ("params", "accum"):
                got, want = (getattr(s, what) for s in states)
                got = got.blocks()[name] if what == "params" else got[name]
                want = want.blocks()[name] if what == "params" else want[name]
                assert got.tobytes() == want.tobytes(), (k, what, name)
        if k == 0:   # at epsilon 0 a zero gradient row meets an empty accumulator
            assert (states[0].accum["Qf"] == 0.0).all(axis=1).any()


def test_train_leaves_compiled_tables_fresh_when_a_loss_stops_it(monkeypatch):
    model, tr, dev = quick_train_setup(seed=1, variant="clbl++")
    calls = []
    real = training.minibatch_loss_and_grad

    def loss_fn(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        calls.append(loss)
        return (float("inf") if len(calls) == 3 else loss), grads

    monkeypatch.setattr(training, "minibatch_loss_and_grad", loss_fn)
    cfg = TrainingConfig(d=4, n=3, variant="clbl++", minibatch_size=512, max_epochs=2,
                         seed=1)
    result = train(model, tr, dev, cfg, dev_ppl_fn=lambda m, e: 100.0)
    assert result.stopped_early and result.history == []
    for table, factors, fmap in ((model.params.Q, model.params.Qf, model.mq),
                                 (model.params.R, model.params.Rf, model.mr)):
        assert table.tobytes() == compile_word_table(fmap, factors).tobytes()
