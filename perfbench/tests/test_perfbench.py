"""Tests of the benchmark's own code: inputs, statistics, tracing, references.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import _inputs
import _workloads as W
from _trace import Span, Tracer, median, self_times, tail_percentile
from helpers import morph_corpus
from mlbl import _kernels
from mlbl.clustering import ami_of_partition, brown_cluster
from mlbl.model import Querier

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("make", [_inputs.nbest_stream, _inputs.fresh_stream,
                                  _inputs.cluster_corpus, _inputs.dev_corpus])
def test_inputs_are_deterministic_per_seed(make):
    assert make(5) == make(5)
    assert make(5) != make(6)


def test_model_corpus_is_deterministic_per_seed():
    assert _inputs.model_corpus(5) == _inputs.model_corpus(5)
    assert _inputs.model_corpus(5)[0] != _inputs.model_corpus(6)[0]


def test_nbest_shape():
    hyps = _inputs.nbest_stream(3)
    assert len(hyps) == _inputs.NBEST_SOURCES * _inputs.NBEST_HYPS
    first = hyps[:_inputs.NBEST_HYPS]
    # hypotheses of one source share everything but their last 1-3 tokens
    assert all(h[:-3] == first[0][:-3] for h in first)


def test_cache_hit_rates_fall_in_their_bands():
    workload = W.QueryScore()
    workload.prepare(W.Context(Path("."), 3))
    rates = {}
    for stream, sents in workload.streams.items():
        q = Querier(workload.source)
        for sent in sents:
            q.score_sentence(sent)
        rates[stream] = q.cache.hits / (q.cache.hits + q.cache.misses)
    assert 0.80 <= rates["nbest"] <= 0.92
    assert rates["fresh"] <= 0.20


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(1000)))[:2] == (99.0, 989)
    # one sample short of ten beyond p99: fall back to p95
    assert tail_percentile(list(range(999)))[0] == 95.0
    assert tail_percentile(list(range(20))) == (50.0, 9, 20)
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile([5.0] * 11 + [1.0] * 9)[0] == 50.0


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_self_time_subtracts_covered_child_intervals():
    spans = [Span("root", 0.0, 10.0, None),
             Span("a", 1.0, 3.0, 0),
             Span("b", 2.0, 4.0, 0),       # overlaps a: covered union is [1, 4]
             Span("a.child", 1.5, 2.5, 1),  # counts against a, not against root
             Span("late", 9.0, 12.0, 0)]    # only [9, 10] lies inside root
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0, 1.0, 2.0, 1.0, 3.0])


def test_tracer_records_nested_spans_and_restores():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    original = _kernels.compose_rows
    assert tracer.wrap("mlbl._kernels.compose_rows", "morphology.compose_rows")
    with tracer.span("outer"):
        _kernels.compose_rows(np.array([0, 1]), np.array([0]), np.array([1.0]),
                              np.ones((1, 2)), np.zeros((1, 2)))
    tracer.restore()
    assert _kernels.compose_rows is original
    assert [s.name for s in tracer.spans] == ["outer", "morphology.compose_rows"]
    assert tracer.total("morphology.compose_rows") == 2.0
    assert tracer.self_total("outer") == 8.0
    assert tracer.calls("morphology.compose_rows") == 1


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(_kernels, "compose_rows")
    tracer = Tracer()
    for target, name in W.WRAPS:
        tracer.wrap(target, name)
    tracer.restore()
    assert "mlbl._kernels.compose_rows" in tracer.absent
    out, dropped = W.layer_metrics(tracer, {}, 1.0, 1.0)
    for metric in ("morphology.compose_rows.s", "morphology.compose_rows.calls"):
        assert metric not in out
        assert "compose_rows" in dropped[metric]
    assert "morphology.scatter_rows.s" in out


def test_missing_method_is_reported_absent():
    tracer = Tracer()
    assert not tracer.wrap("mlbl.model.LanguageModel.no_such_method", "model.predict")
    assert not tracer.wrap("mlbl.no_such_module.f", "model.predict")
    assert "model.predict" not in tracer.wrapped
    assert len(tracer.absent) == 2


def test_every_per_layer_metric_is_listed_in_benchmark_json():
    tracer = Tracer()
    out, dropped = W.layer_metrics(tracer, {}, 1.0, 1.0)
    listed = {m["name"] for m in SPEC["per_layer"]}
    assert set(out) | set(dropped) == listed


def _tiny_corpus():
    sents = morph_corpus(3000, n_stems=30, seed=4)[0]
    words = {"<unk>": 0, "<s>": 1}
    for s in sents:
        for t in s:
            words.setdefault(t, len(words))
    bigrams = {}
    for s in sents:
        prev = 1
        for t in s:
            key = (prev, words[t])
            bigrams[key] = bigrams.get(key, 0) + 1
            prev = words[t]
    return sents, words, bigrams


def test_reference_ami_matches_the_program():
    sents, words, bigrams = _tiny_corpus()
    part = brown_cluster(bigrams, len(words), 8, max_iters=2).class_of
    assert W.class_ami(sents, words, part) == pytest.approx(ami_of_partition(bigrams, part),
                                                            rel=1e-12)


def test_reference_exchange_start_matches_the_program():
    sents, words, bigrams = _tiny_corpus()
    start = brown_cluster(bigrams, len(words), 8, max_iters=0).class_of
    assert np.array_equal(W.exchange_init(sents, words, 8), start)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    root = Path(__file__).resolve().parents[2]
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_clbl",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "no mlbl package" in done.stderr


def test_compare_refuses_results_from_different_backends(tmp_path, capsys):
    import compare

    result = {"workload": "train_clbl", "trace": 0, "seed": 1, "env": {"backend": "numpy"},
              "metrics": {"tokens_per_s": {"value": 100.0, "unit": "1/s"}}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result))
    b.write_text(json.dumps({**result, "metrics": {"tokens_per_s": {"value": 90.0,
                                                                       "unit": "1/s"}}}))
    assert compare.main([str(a), str(b)]) == 0
    assert "worse" in capsys.readouterr().out
    b.write_text(json.dumps({**result, "env": {"backend": "numba"}}))
    assert compare.main([str(a), str(b)]) == 2
    assert "backend" in capsys.readouterr().err
