"""The thread pool of ``_kernels.parallel`` and the training steps that use it.

The steps spread tasks that write separate arrays over threads, so a run
gives the same bits with the pool as with one thread. Training and batch
scoring hold OpenBLAS at one thread, so a run also gives the same bits at
any ``OPENBLAS_NUM_THREADS``.
"""

import ast
import hashlib
import importlib
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (morph_corpus, pool_on, querier_logprobs, scoring_instances, write_corpus,
                     write_segs)
from mlbl import _kernels, training
from mlbl.cli import main
from mlbl.model import VARIANTS, LanguageModel

ROOT = Path(__file__).resolve().parents[1]


def test_parallel_returns_results_in_task_order(monkeypatch):
    pool_on(monkeypatch)
    assert _kernels.parallel([lambda i=i: i * i for i in range(20)], 0) == \
        [i * i for i in range(20)]


def test_first_task_runs_here_and_another_on_a_worker(monkeypatch):
    pool_on(monkeypatch)
    started = threading.Event()

    def first():
        # the worker takes the second task while this one waits for it
        assert started.wait(timeout=30)
        return threading.get_ident()

    def second():
        started.set()
        return threading.get_ident()

    here, there = _kernels.parallel([first, second], 0)
    assert here == threading.get_ident()
    assert there != here


@pytest.mark.parametrize("cpus, size", [(1, 10**9), (2, 0)])
def test_serial_with_one_cpu_or_small_work(monkeypatch, cpus, size):
    monkeypatch.setattr(_kernels, "workers", lambda: cpus)
    threads = _kernels.parallel([threading.get_ident] * 8, size)
    assert set(threads) == {threading.get_ident()}


def test_tasks_run_in_the_callers_context(monkeypatch):
    pool_on(monkeypatch)
    with np.errstate(divide="raise"):
        states = _kernels.parallel([np.geterr] * 8, 0)
    assert {s["divide"] for s in states} == {"raise"}


def test_an_exception_is_raised_after_every_task_finished(monkeypatch):
    pool_on(monkeypatch)
    done = []

    def fail():
        raise ValueError("task failed")

    tasks = [fail] + [lambda i=i: done.append(i) for i in range(30)]
    with pytest.raises(ValueError, match="task failed"):
        _kernels.parallel(tasks, 0)
    assert sorted(done) == list(range(30))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_pool(monkeypatch):
    pool_on(monkeypatch)
    _kernels.parallel([threading.get_ident] * 4, 0)   # the parent's pool has a thread
    pid = os.fork()
    if pid == 0:   # the child: the parent's pool thread is not here
        signal.alarm(30)   # a task waiting for that thread would hang
        ok = len(_kernels.parallel([threading.get_ident] * 4, 0)) == 4
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def _perfbench_wraps() -> list[str]:
    """The names perfbench's tracer wraps, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "_workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPS":
            return [target for target, _ in ast.literal_eval(node.value)]
    raise AssertionError("no WRAPS list in perfbench/_workloads.py")


def _owner(target: str):
    """The object holding the attribute ``target`` names, and the attribute."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1]
    raise ImportError(target)


def test_every_name_perfbench_wraps_resolves():
    """A wrapped name that no longer resolves would drop its per-layer metric
    unnoticed: the tracer notes it as absent and runs on."""
    unresolved = []
    for target in _perfbench_wraps():
        try:
            owner, attr = _owner(target)
            found = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            found = None
        if not callable(found):
            unresolved.append(target)
    assert not unresolved


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small corpus with segmentations, preprocessed, with frequency classes."""
    root = tmp_path_factory.mktemp("parallel")
    sentences, segs = morph_corpus(3000, n_stems=15, n_suffixes=4, seed=8)
    write_corpus(root / "train.txt", sentences[:-20])
    write_corpus(root / "dev.txt", sentences[-20:])
    write_segs(root / "segs.tsv", segs)
    assert main(["preprocess", "--input", str(root / "train.txt"), "--out-dir",
                 str(root / "work"), "--seed", "2", "--segmentations",
                 str(root / "segs.tsv")]) == 0
    assert main(["cluster", "--vocab", str(root / "work" / "vocab.tsv"), "--method",
                 "freq", "--num-classes", "5", "--out", str(root / "classes.tsv")]) == 0
    return root


def _train(root: Path, variant: str, out: Path) -> bytes:
    work = root / "work"
    assert main(["train", "--train", str(root / "train.txt"), "--dev", str(root / "dev.txt"),
                 "--vocab", str(work / "vocab.tsv"), "--factors", str(work / "factors.tsv"),
                 "--mu", str(work / "mu.tsv"), "--classes", str(root / "classes.tsv"),
                 "--variant", variant, "--d", "6", "--n", "3", "--epochs", "2",
                 "--seed", "4", "--set", "minibatch_size=400",
                 "--model-out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_pooled_training_writes_the_one_worker_container(inputs, tmp_path, monkeypatch,
                                                         variant):
    monkeypatch.setattr(_kernels, "workers", lambda: 1)
    serial = _train(inputs, variant, tmp_path / "serial.mlbl")

    pool_on(monkeypatch)
    threads = set()
    adagrad_rows = training._adagrad_rows

    def spy(*args):
        threads.add(threading.get_ident())
        time.sleep(0.001)   # long enough for the worker to take the next task
        return adagrad_rows(*args)

    monkeypatch.setattr(training, "_adagrad_rows", spy)
    assert _train(inputs, variant, tmp_path / "pooled.mlbl") == serial
    assert len(threads) > 1   # the pool did run tasks


def test_traced_names_run_on_the_main_thread(inputs, tmp_path, monkeypatch):
    """A tracer that wraps these names keeps one span stack: a call from a
    worker thread would be recorded under the wrong parent."""
    pool_on(monkeypatch)
    calls = {}
    off_main = []
    for target in _perfbench_wraps():
        owner, attr = _owner(target)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def checked(*args, _original=original, _target=target, **kwargs):
            calls[_target] = calls.get(_target, 0) + 1
            if threading.current_thread() is not threading.main_thread():
                off_main.append(_target)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, checked)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variant in ("clbl++", "lbl++"):
            _train(inputs, variant, tmp_path / f"{variant}.mlbl")
            calls.pop("mlbl._kernels.classed_logprobs", None)
            assert main(["ppl", "--model", str(tmp_path / f"{variant}.mlbl"),
                         "--test", str(inputs / "train.txt")]) == 0
            assert calls.get("mlbl._kernels.classed_logprobs"), variant
    assert not off_main, sorted(set(off_main))
    for name in ("minibatch_loss_and_grad", "_context_backward", "_add_l2", "adagrad_step",
                 "classed_fwd_bwd", "classed_logprobs", "compose_rows", "scatter_rows"):
        assert any(t.endswith("." + name) for t in calls), name


@pytest.fixture
def two_blas_threads():
    """The first loaded OpenBLAS at two threads, and its thread-count getter;
    the process's counts are restored after."""
    blas = _kernels._openblas()
    if not blas:
        pytest.skip("numpy uses another BLAS")
    before = [get() for get, _ in blas]
    get, put = blas[0]
    put(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS does not run two threads here")
        yield get
    finally:
        for (_, put), count in zip(blas, before):
            put(count)


def test_one_blas_thread_restores_the_callers_count_also_on_error(two_blas_threads):
    get = two_blas_threads
    with pytest.raises(ValueError, match="inside"):
        with _kernels.one_blas_thread():
            assert get() == 1
            with _kernels.one_blas_thread():
                assert get() == 1
            assert get() == 1   # the inner hold ends without restoring
            raise ValueError("inside")
    assert get() == 2


def test_train_and_perplexity_run_at_one_blas_thread(inputs, tmp_path, monkeypatch,
                                                     two_blas_threads):
    get = two_blas_threads
    seen = []
    for owner, name in ((training, "minibatch_loss_and_grad"), (training, "nce_loss_and_grad"),
                        (LanguageModel, "logprobs_batch")):
        original = getattr(owner, name)

        def spy(*args, _original=original, **kwargs):
            seen.append(get())
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    for variant in ("clbl++", "lbl"):
        _train(inputs, variant, tmp_path / f"{variant}.mlbl")
        assert main(["ppl", "--model", str(tmp_path / f"{variant}.mlbl"),
                     "--test", str(inputs / "dev.txt")]) == 0
    assert seen and set(seen) == {1}
    assert get() == 2


def test_logprobs_batch_equals_the_querier_at_two_blas_threads(two_blas_threads):
    """Outside ``perplexity``'s hold, too: every product is row by row."""
    cases = [(variant, n, 40, 5) for variant in VARIANTS for n in (2, 5)]
    cases += [("lbl", 3, 600, 48), ("clbl", 3, 600, 48)]   # larger products, which BLAS may split
    for variant, n, n_types, d in cases:
        m, contexts, targets = scoring_instances(variant, n, n_types=n_types, d=d)
        got = m.logprobs_batch(contexts, targets).tolist()
        assert two_blas_threads() == 2
        for use_cache in (False, True):
            assert got == querier_logprobs(m, contexts, targets, use_cache), (variant, n)


def pipeline_digests(root: str) -> list[str]:
    """sha256 of the container and ``ppl`` report of each variant, trained
    for 2 epochs on the inputs under ``root``, written to ``root/<pid>``.
    At this size two BLAS threads change the bits of an unheld run."""
    root = Path(root)
    out = root / str(os.getpid())
    out.mkdir()
    work = root / "work"
    digests = []
    for variant in VARIANTS:
        model, report = out / f"{variant}.mlbl", out / f"{variant}.jsonl"
        assert main(["train", "--train", str(root / "train.txt"), "--dev", str(root / "dev.txt"),
                     "--vocab", str(work / "vocab.tsv"), "--factors", str(work / "factors.tsv"),
                     "--mu", str(work / "mu.tsv"), "--classes", str(root / "classes.tsv"),
                     "--variant", variant, "--d", "16", "--n", "3", "--epochs", "2",
                     "--seed", "4", "--set", "minibatch_size=2000",
                     "--model-out", str(model)]) == 0
        assert main(["ppl", "--model", str(model), "--test", str(root / "train.txt"),
                     "--json-out", str(report)]) == 0
        digests += [hashlib.sha256(path.read_bytes()).hexdigest() for path in (model, report)]
    return digests


def test_containers_and_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    """One subprocess per ``OPENBLAS_NUM_THREADS``, as OpenBLAS reads it when
    numpy loads."""
    sentences, segs = morph_corpus(10_000, n_stems=40, n_suffixes=8, seed=9)
    write_corpus(tmp_path / "train.txt", sentences[:-60])
    write_corpus(tmp_path / "dev.txt", sentences[-60:])
    write_segs(tmp_path / "segs.tsv", segs)
    assert main(["preprocess", "--input", str(tmp_path / "train.txt"), "--out-dir",
                 str(tmp_path / "work"), "--seed", "2", "--segmentations",
                 str(tmp_path / "segs.tsv")]) == 0
    assert main(["cluster", "--vocab", str(tmp_path / "work" / "vocab.tsv"), "--method",
                 "freq", "--num-classes", "4", "--out", str(tmp_path / "classes.tsv")]) == 0
    tests = Path(__file__).resolve().parent
    code = "import sys, test_parallel; print(test_parallel.pipeline_digests(sys.argv[1]))"
    runs = []
    for threads in ("1", "2", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(tests)])
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        runs.append(run.stdout.splitlines()[-1])   # after the commands' own lines
    assert runs[0] == runs[1] == runs[2]
