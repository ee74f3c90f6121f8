"""End-to-end pipeline tests driving the command-line interface."""

import hashlib
import json
import logging
import math
import os
import re
import select
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (ReferenceCache, morph_corpus, random_model, reference_score_sentence,
                     write_corpus, write_segs)
import mlbl
from mlbl import _io, cli, training
from mlbl.cli import main
from mlbl.container import load_model, save_model
from mlbl.evaluation import cosine, word_vector
from mlbl.model import VARIANTS, Querier, QueryStats
from mlbl.morphology import parse_segmentations


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small corpus, segmentations and preprocess outputs shared by tests."""
    root = tmp_path_factory.mktemp("pipeline")
    sentences, segs = morph_corpus(6000, n_stems=15, n_suffixes=4, seed=42)
    split = int(0.8 * len(sentences))
    write_corpus(root / "train.txt", sentences[:split])
    write_corpus(root / "dev.txt", sentences[split:split + 30])
    write_corpus(root / "test.txt", sentences[split + 30:])
    write_segs(root / "segs.tsv", segs)
    words = sentences[0]
    (root / "pairs.tsv").write_text("".join(f"{a}\t{b}\t{i}.5\n" for i, (a, b)
                                            in enumerate(zip(words, words[1:]))),
                                    encoding="utf-8")
    rc = main(["preprocess", "--input", str(root / "train.txt"),
               "--out-dir", str(root / "work"), "--kappa", "0.2", "--seed", "3",
               "--segmentations", str(root / "segs.tsv")])
    assert rc == 0
    rc = main(["cluster", "--input", str(root / "train.txt"),
               "--vocab", str(root / "work" / "vocab.tsv"),
               "--method", "brown", "--num-classes", "6", "--max-iters", "10",
               "--out", str(root / "work" / "classes.tsv")])
    assert rc == 0
    rc = main(["train", "--train", str(root / "train.txt"),
               "--dev", str(root / "dev.txt"),
               "--vocab", str(root / "work" / "vocab.tsv"),
               "--factors", str(root / "work" / "factors.tsv"),
               "--mu", str(root / "work" / "mu.tsv"),
               "--classes", str(root / "work" / "classes.tsv"),
               "--variant", "clbl++", "--d", "8", "--n", "3", "--epochs", "2",
               "--seed", "3", "--set", "minibatch_size=1000",
               "--model-out", str(root / "model.mlbl")])
    assert rc == 0
    return root


def test_preprocess_outputs(workspace):
    work = workspace / "work"
    vocab_lines = (work / "vocab.tsv").read_text(encoding="utf-8").splitlines()
    assert vocab_lines[1].startswith("0\t<unk>\t")
    assert vocab_lines[2] == "1\t<s>\t0"
    assert (work / "vocab.tsv.manifest.json").exists()
    manifest = json.loads((work / "vocab.tsv.manifest.json").read_text())
    assert manifest["seed"] == 3 and manifest["config"]["kappa"] == 0.2


def _cluster_args(workspace, method, out):
    """A valid ``cluster`` command line for ``method``."""
    args = ["cluster", "--vocab", str(workspace / "work" / "vocab.tsv"),
            "--method", method, "--out", str(out)]
    if method == "brown":
        args += ["--input", str(workspace / "train.txt")]
    if method == "file":
        args += ["--partition-file", str(workspace / "work" / "classes.tsv")]
    return args


def test_cluster_all_methods(workspace, tmp_path):
    for method, max_iters in (("brown", 20), ("freq", None), ("file", None)):
        out = tmp_path / f"{method}.tsv"
        assert main(_cluster_args(workspace, method, out)) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        vocab_size = len((workspace / "work" / "vocab.tsv")
                         .read_text(encoding="utf-8").splitlines()) - 1
        assert len(lines) == vocab_size
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["config"]["max_iters"] == max_iters


def test_ppl_command_and_breakdowns(workspace, tmp_path, capsys):
    rc = main(["ppl", "--model", str(workspace / "model.mlbl"),
               "--test", str(workspace / "test.txt"),
               "--json-out", str(tmp_path / "ppl.jsonl")])
    assert rc == 0
    lines = (tmp_path / "ppl.jsonl").read_text(encoding="utf-8").splitlines()
    total = json.loads(lines[0])
    assert total["group"] == "__total__" and total["ppl"] > 1.0

    rc = main(["ppl", "--model", str(workspace / "model.mlbl"),
               "--test", str(workspace / "test.txt"), "--by-freq",
               "--json-out", str(tmp_path / "freq.jsonl")])
    assert rc == 0
    rows = [json.loads(x) for x in
            (tmp_path / "freq.jsonl").read_text(encoding="utf-8").splitlines()]
    groups = {r["group"] for r in rows[1:]}
    assert groups and all(g == "unseen" or g.lstrip("-").isdigit() for g in groups)
    assert sum(r["share"] for r in rows[1:]) == pytest.approx(1.0, abs=1e-9)


def test_ppl_by_freq_recounts_normalized_training_text(workspace, tmp_path):
    # 12 occurrences of "dog" only once its case variants merge; <unk> is never seen
    counts_txt, test_txt = tmp_path / "counts.txt", tmp_path / "test.txt"
    counts_txt.write_text("Dog dog DOG <unk>\n" * 4, encoding="utf-8")
    test_txt.write_text("dog DOG zz <unk>\n", encoding="utf-8")
    rc = main(["ppl", "--model", str(workspace / "model.mlbl"), "--test", str(test_txt),
               "--by-freq", "--train-counts-from", str(counts_txt),
               "--json-out", str(tmp_path / "freq.jsonl")])
    assert rc == 0
    rows = [json.loads(x) for x in
            (tmp_path / "freq.jsonl").read_text(encoding="utf-8").splitlines()]
    assert {r["group"]: r["count"] for r in rows[1:]} == {"1": 2, "unseen": 2}
    manifest = json.loads((tmp_path / "freq.jsonl.manifest.json").read_text())
    assert manifest["inputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                                  for p in (workspace / "model.mlbl", test_txt, counts_txt)}


def test_ppl_by_label(workspace, tmp_path):
    test_sents = [line.split() for line in
                  (workspace / "test.txt").read_text(encoding="utf-8").splitlines()
                  if line.split()]
    label_path = tmp_path / "labels.txt"
    with open(label_path, "w", encoding="utf-8") as fh:
        for sent in test_sents:
            fh.write(" ".join("N" if i % 2 == 0 else "-" for i in range(len(sent))) + "\n")
    rc = main(["ppl", "--model", str(workspace / "model.mlbl"),
               "--test", str(workspace / "test.txt"),
               "--labels", str(label_path),
               "--json-out", str(tmp_path / "label.jsonl")])
    assert rc == 0
    rows = [json.loads(x) for x in
            (tmp_path / "label.jsonl").read_text(encoding="utf-8").splitlines()]
    assert {r["group"] for r in rows[1:]} == {"N", "Rest"}


@pytest.mark.parametrize("labels,fault", [
    ("N\nN N\n", ":1: 1 labels for 2 tokens"),          # the right total, misaligned
    ("N N\n\nN\nN\n", ":4: 1 labels for 0 tokens"),    # a line past the test file's
    ("\nN N\n", ":3: 0 labels for 1 tokens"),            # a line short
    ("\nN N\n \n- \n", None)])                          # aligned, blank lines skipped
def test_ppl_labels_are_checked_line_by_line(workspace, tmp_path, capsys, labels, fault):
    test, label_path = tmp_path / "test.txt", tmp_path / "labels.txt"
    test.write_text("the cat\nsat\n", encoding="utf-8")
    label_path.write_text(labels, encoding="utf-8")
    rc = main(["ppl", "--model", str(workspace / "model.mlbl"), "--test", str(test),
               "--labels", str(label_path)])
    captured = capsys.readouterr()
    if fault is None:
        assert rc == 0 and "N  ppl" in captured.out and "Rest  ppl" in captured.out
    else:
        assert rc == 3 and captured.err == f"data error: {label_path}{fault}\n"


def test_sim_command_modes_agree_without_oov(workspace, tmp_path):
    model = load_model(workspace / "model.mlbl")
    words = [t for t in model.vocab.types[2:6]]
    pairs = tmp_path / "pairs.tsv"
    with open(pairs, "w", encoding="utf-8") as fh:
        fh.write(f"{words[0]}\t{words[1]}\t5.0\n")
        fh.write(f"{words[1]}\t{words[2]}\t3.0\n")
        fh.write(f"{words[2]}\t{words[3]}\t8.0\n")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    rc = main(["sim", "--model", str(workspace / "model.mlbl"), "--pairs", str(pairs),
               "--segmentations", str(workspace / "segs.tsv"),
               "--json-out", str(out_a)])
    assert rc == 0
    rc = main(["sim", "--model", str(workspace / "model.mlbl"), "--pairs", str(pairs),
               "--json-out", str(out_b)])
    assert rc == 0
    a = json.loads(out_a.read_text(encoding="utf-8"))
    b = json.loads(out_b.read_text(encoding="utf-8"))
    assert a["pairs"] == b["pairs"]
    assert a["oov_count"] == 0


def test_score_command_bias_only_equal_tokens(workspace, tmp_path, capsys):
    # a bias-only model scores repeated tokens identically
    model = load_model(workspace / "model.mlbl")
    for name, block in model.params.blocks().items():
        if name not in ("b", "t"):
            block[...] = 0.0
    from mlbl.container import save_model

    bias_path = tmp_path / "bias.mlbl"
    save_model(model, bias_path)
    word = model.vocab.types[2]
    sent_path = tmp_path / "sent.txt"
    sent_path.write_text(f"{word} {word}\n", encoding="utf-8")
    rc = main(["score", "--model", str(bias_path), "--input", str(sent_path)])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    w1, lp1 = out[0].split("\t")
    w2, lp2 = out[1].split("\t")
    assert w1 == w2 == word
    assert lp1 == lp2
    total_tag, total = out[2].split("\t")
    assert total_tag == "#TOTAL"
    assert float(total) == pytest.approx(float(lp1) + float(lp2), rel=1e-12)


def _read_answer(fd: int, seconds: float) -> bytes:
    """Bytes from a pipe up to the end of a ``#TOTAL`` line, or what came
    before ``seconds`` passed or the pipe closed."""
    data, deadline = b"", time.monotonic() + seconds
    while not (b"#TOTAL" in data and data.endswith(b"\n")):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            break
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        data += chunk
    return data


def test_score_answers_each_stdin_sentence_before_the_next(workspace, tmp_path, capsys):
    """A decoder runs ``mlbl score`` as a co-process: it writes a sentence
    and waits for its ``#TOTAL`` before it writes the next. Standard output
    to a pipe is block-buffered unless PYTHONUNBUFFERED is set, so the child
    runs without it. A blank line is answered too, with ``#TOTAL\t0.0``. The
    answers have the bytes of an ``--input`` run."""
    lines = (workspace / "test.txt").read_text(encoding="utf-8").splitlines()
    sentences = [lines[0], "", lines[1]]
    path = tmp_path / "two.txt"
    path.write_text("".join(s + "\n" for s in sentences), encoding="utf-8")
    assert main(["score", "--model", str(workspace / "model.mlbl"), "--input", str(path)]) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    first = expected[:expected.index(b"\n", expected.index(b"#TOTAL")) + 1]

    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    child = subprocess.Popen(
        [sys.executable, "-m", "mlbl.cli", "score", "--model", str(workspace / "model.mlbl")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    try:
        answers = []
        for sentence in sentences:
            child.stdin.write(sentence.encode("utf-8") + b"\n")
            child.stdin.flush()
            answers.append(_read_answer(child.stdout.fileno(), 30))
    finally:
        rest, _ = child.communicate(timeout=60)
    assert child.returncode == 0
    assert answers[0] == first and answers[1] == b"#TOTAL\t0.0\n"
    assert b"".join(answers) + rest == expected


def test_score_composes_unknown_contexts(workspace, tmp_path, capsys):
    model = load_model(workspace / "model.mlbl")
    segs = parse_segmentations(workspace / "segs.tsv")
    segs["qqqword"] = next(morphs for word, morphs in segs.items()
                           if word in model.vocab.id_of)
    seg_path = tmp_path / "segs.tsv"
    write_segs(seg_path, segs)
    word = model.vocab.types[2]
    sent_path = tmp_path / "sent.txt"
    sent_path.write_text(f"qqqword {word}\n", encoding="utf-8")
    rc = main(["score", "--model", str(workspace / "model.mlbl"), "--input", str(sent_path),
               "--segmentations", str(seg_path)])
    assert rc == 0
    composed = Querier(model, segs=segs).score_sentence(["qqqword", word])
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"{tok}\t{lp!r}" for tok, lp in composed]
    assert composed[1] != Querier(model).score_sentence(["qqqword", word])[1]


def test_score_segmentations_change_the_token_after_an_unknown_word(workspace, tmp_path,
                                                                     capsys):
    """The segmentation table alone switches composition on: the token after
    an unknown word with a known morpheme reads differently with the table,
    while the unknown word itself, a target, reads the same."""
    model = load_model(workspace / "model.mlbl")
    segs = parse_segmentations(workspace / "segs.tsv")
    segs["qqqword"] = next(morphs for word, morphs in segs.items()
                           if word in model.vocab.id_of)
    seg_path = tmp_path / "segs.tsv"
    write_segs(seg_path, segs)
    word = model.vocab.types[2]
    sent_path = tmp_path / "sent.txt"
    sent_path.write_text(f"qqqword {word}\n", encoding="utf-8")
    outputs = []
    for flags in ([], ["--segmentations", str(seg_path)]):
        rc = main(["score", "--model", str(workspace / "model.mlbl"),
                   "--input", str(sent_path), *flags])
        assert rc == 0
        outputs.append(capsys.readouterr().out.splitlines())
    plain, composed = outputs
    assert plain[0] == composed[0]
    assert plain[1].split("\t")[0] == composed[1].split("\t")[0] == word
    assert plain[1] != composed[1]


def test_score_output_equals_per_token_oracle(workspace, tmp_path, capsys):
    """``mlbl score`` prints, byte for byte, the per-token oracle's scores:
    mixed text with unknown words, literal <s>, digits, blank and repeated
    lines, with and without composed unknown contexts."""
    model_path = workspace / "model.mlbl"
    model = load_model(model_path)
    segs = parse_segmentations(workspace / "segs.tsv")
    a, b, c = (model.vocab.types[i] for i in (2, 3, 4))
    segs["qqqword"] = segs[a]
    seg_path = tmp_path / "segs.tsv"
    write_segs(seg_path, segs)
    lines = [f"{a} {b} <s> {c}", f"{a.upper()} 1999 {b} 7{c} {c}",
             f"qqqword {a} qqqword {b} zzz {c}", "<s>", a, "", f"<s> <s> {a} zzz qqqword"]
    text = "\n".join(lines * 3) + "\n"
    sent_path = tmp_path / "mixed.txt"
    sent_path.write_text(text, encoding="utf-8")
    for flags, use_segs in (([], None),
                            (["--segmentations", str(seg_path)], segs)):
        rc = main(["score", "--model", str(model_path), "--input", str(sent_path), *flags])
        assert rc == 0
        cache, stats = ReferenceCache(), QueryStats()
        expected = []
        for line in text.splitlines():
            scored = reference_score_sentence(model, line.split(), cache, stats, use_segs)
            expected += [f"{tok}\t{lp!r}" for tok, lp in scored]
            expected.append(f"#TOTAL\t{sum((lp for _, lp in scored), 0.0)!r}")
        assert "#TOTAL\t0.0" in expected
        assert capsys.readouterr().out == "\n".join(expected) + "\n"
        assert cache.hits > 0


def test_score_blocks_of_input_lines_keep_the_bytes(workspace, tmp_path, capsys, monkeypatch):
    """``score --input`` scores blocks of lines (``SCORE_BLOCK_TOKENS``)
    with the bytes of a line at a time, with and without composed unknown
    contexts, over several blocks of the default bound."""
    segs = parse_segmentations(workspace / "segs.tsv")
    segs["qqqword"] = next(iter(segs.values()))
    seg_path = tmp_path / "segs.tsv"
    write_segs(seg_path, segs)
    lines = (workspace / "test.txt").read_text(encoding="utf-8").splitlines()
    lines += ["", "qqqword <s> zzz " + lines[0], "qqqword"]
    text = "\n".join(lines * 4) + "\n"
    assert len(text.split()) > 2 * cli.SCORE_BLOCK_TOKENS
    sent_path = tmp_path / "text.txt"
    sent_path.write_text(text, encoding="utf-8")
    for flags in ([], ["--segmentations", str(seg_path)]):
        outputs = []
        for bound in (1, 7, cli.SCORE_BLOCK_TOKENS):
            monkeypatch.setattr(cli, "SCORE_BLOCK_TOKENS", bound)
            rc = main(["score", "--model", str(workspace / "model.mlbl"),
                       "--input", str(sent_path), *flags])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0].count("#TOTAL") == len(lines) * 4
        assert outputs[0].count("#TOTAL\t0.0\n") == lines.count("") * 4 > 0
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_score_reads_literal_pad_as_unk(workspace, tmp_path, capsys):
    a, b = (load_model(workspace / "model.mlbl").vocab.types[i] for i in (2, 3))
    scored = {}
    for marker in ("<s>", "<unk>"):
        sent_path = tmp_path / "sent.txt"
        sent_path.write_text(f"{a} {marker} {b}\n{marker} {a}\n", encoding="utf-8")
        rc = main(["score", "--model", str(workspace / "model.mlbl"), "--input",
                   str(sent_path)])
        assert rc == 0
        scored[marker] = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()]
    assert len(scored["<s>"]) == 7
    assert scored["<s>"] == scored["<unk>"]


def test_score_logs_throughput_and_cache_counters(workspace, tmp_path, capsys, caplog):
    model = load_model(workspace / "model.mlbl")
    sentences = [[model.vocab.types[i] for i in (2, 3, 4)], ["qqqword", model.vocab.types[3]]]
    sent_path = tmp_path / "sent.txt"
    sent_path.write_text("\n".join(" ".join(s) for s in sentences * 2) + "\n\n",
                         encoding="utf-8")
    with caplog.at_level("INFO", logger="mlbl"):
        rc = main(["score", "--model", str(workspace / "model.mlbl"), "--input", str(sent_path)])
    assert rc == 0
    querier = Querier(model)
    expected = []
    for sentence in sentences * 2:
        scored = querier.score_sentence(sentence)
        expected += [f"{tok}\t{lp!r}" for tok, lp in scored]
        expected.append(f"#TOTAL\t{sum(lp for _, lp in scored)!r}")
    assert capsys.readouterr().out == "\n".join(expected + ["#TOTAL\t0.0"]) + "\n"
    reports = [r.getMessage() for r in caplog.records if r.getMessage().startswith("score:")]
    assert len(reports) == 1 and reports[0].startswith("score: 10 tokens in ")
    assert re.match(r"score: 10 tokens in \d+\.\d{3}s after a \d+\.\d{3}s model load \(",
                    reports[0])
    cache = querier.cache
    assert reports[0].endswith(f"tokens/s), cache hits {cache.hits} misses {cache.misses} "
                               f"entries {len(cache)} evictions 0")
    assert cache.hits > 0


def test_score_reports_the_model_load_seconds(workspace, tmp_path, capsys, caplog,
                                              monkeypatch):
    """The summary line holds the seconds ``load_model`` took; stdout keeps its bytes."""
    model_path = str(workspace / "model.mlbl")
    sent_path = tmp_path / "sent.txt"
    types = load_model(model_path).vocab.types
    sent_path.write_text(f"{types[2]} {types[3]}\nqqq {types[4]}\n", encoding="utf-8")
    argv = ["score", "--model", model_path, "--input", str(sent_path)]
    assert main(argv) == 0
    plain = capsys.readouterr().out

    def slow_load(path):
        time.sleep(0.2)
        return load_model(path)

    monkeypatch.setattr(cli, "load_model", slow_load)
    with caplog.at_level("INFO", logger="mlbl"):
        assert main(argv) == 0
    assert capsys.readouterr().out == plain
    reports = [r.getMessage() for r in caplog.records if r.getMessage().startswith("score:")]
    assert len(reports) == 1
    scoring_s, load_s = map(float, re.match(
        r"score: 4 tokens in (\d+\.\d{3})s after a (\d+\.\d{3})s model load ",
        reports[0]).groups())
    assert 0.2 <= load_s < 10 and scoring_s < 0.2


def test_export_reproduces_pair_similarity(workspace, tmp_path):
    """An external tool that parses the exported text gets the vectors
    ``sim`` compares, and the same cosines."""
    out = tmp_path / "vectors.txt"
    rc = main(["export", "--model", str(workspace / "model.mlbl"),
               "--out", str(out), "--table", "both"])
    assert rc == 0
    model = load_model(workspace / "model.mlbl")
    rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
    words = [word for word, _ in rows]
    mat = np.array([[float(x) for x in values.split(" ")] for _, values in rows])
    assert words == model.vocab.types
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j = rng.integers(2, len(words), size=2)
        u, v = mat[i], mat[j]
        denom = math.sqrt(float(u @ u) * float(v @ v))
        external = float(u @ v) / denom if denom else 0.0
        internal = cosine(word_vector(model, words[i])[0], word_vector(model, words[j])[0])[0]
        assert abs(external - internal) <= 1e-12


def test_end_to_end_determinism(workspace, tmp_path):
    """Retraining with identical inputs and seed is byte-identical."""
    root = workspace
    out2 = tmp_path / "model2.mlbl"
    rc = main(["train", "--train", str(root / "train.txt"),
               "--dev", str(root / "dev.txt"),
               "--vocab", str(root / "work" / "vocab.tsv"),
               "--factors", str(root / "work" / "factors.tsv"),
               "--mu", str(root / "work" / "mu.tsv"),
               "--classes", str(root / "work" / "classes.tsv"),
               "--variant", "clbl++", "--d", "8", "--n", "3", "--epochs", "2",
               "--seed", "3", "--set", "minibatch_size=1000",
               "--model-out", str(out2)])
    assert rc == 0
    assert out2.read_bytes() == (root / "model.mlbl").read_bytes()

    # reports are byte-identical across repeated evaluation
    ja, jb = tmp_path / "ra.jsonl", tmp_path / "rb.jsonl"
    for path in (ja, jb):
        assert main(["ppl", "--model", str(root / "model.mlbl"),
                     "--test", str(root / "test.txt"), "--by-freq",
                     "--json-out", str(path)]) == 0
    assert ja.read_bytes() == jb.read_bytes()


def test_train_with_config_file(workspace, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "d=8\nn=3\nvariant=clbl++\nminibatch_size=1000\nstep_size=0.05\n"
        "l2_lambda=1e-5\nnce_noise_k=10\ninit_sigma=0.01\nadagrad_epsilon=1e-8\n"
        "max_epochs=2\nseed=3\nregularize_biases=true\n", encoding="utf-8")
    out = tmp_path / "model_cfg.mlbl"
    rc = main(["train", "--train", str(workspace / "train.txt"),
               "--dev", str(workspace / "dev.txt"),
               "--vocab", str(workspace / "work" / "vocab.tsv"),
               "--factors", str(workspace / "work" / "factors.tsv"),
               "--mu", str(workspace / "work" / "mu.tsv"),
               "--classes", str(workspace / "work" / "classes.tsv"),
               "--config", str(cfg), "--model-out", str(out)])
    assert rc == 0
    # config-file run equals the equivalent flag-driven run byte for byte
    assert out.read_bytes() == (workspace / "model.mlbl").read_bytes()


def _train_args(workspace, tmp_path, source, setting):
    """``train`` on the workspace, given ``setting`` (key=value) through
    ``source``: its shortcut flag, ``--set``, or a ``--config`` file; d is 4
    unless the setting is d."""
    key, val = setting.split("=", 1)
    given = {"flag": [f"--{key}", val], "set": ["--set", setting],
             "config": ["--config", str(tmp_path / "train.cfg")]}[source]
    (tmp_path / "train.cfg").write_text(setting + "\n", encoding="utf-8")
    return ["train", "--train", str(workspace / "train.txt"), "--dev", str(workspace / "dev.txt"),
            "--vocab", str(workspace / "work" / "vocab.tsv"), *given,
            *([] if key == "d" else ["--d", "4"]), "--epochs", "1",
            "--model-out", str(tmp_path / "m.mlbl")]


@pytest.fixture(scope="module")
def lbl_model(workspace):
    out = workspace / "lbl.mlbl"
    assert main(["train", "--train", str(workspace / "train.txt"),
                 "--dev", str(workspace / "dev.txt"),
                 "--vocab", str(workspace / "work" / "vocab.tsv"), "--variant", "lbl",
                 "--d", "4", "--epochs", "1", "--model-out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("source", ["flag", "set", "config"])
def test_variant_is_case_insensitive_from_every_source(workspace, tmp_path, lbl_model, source):
    assert main(_train_args(workspace, tmp_path, source, "variant=LBL")) == 0
    assert (tmp_path / "m.mlbl").read_bytes() == lbl_model
    manifest = json.loads((tmp_path / "m.mlbl.manifest.json").read_text())
    assert manifest["config"]["variant"] == "lbl"


@pytest.mark.parametrize("classes", ["missing", "a partition"])
def test_a_flat_train_digests_only_the_files_it_reads(workspace, tmp_path, lbl_model, classes):
    """A flat variant accepts --classes and never reads it: a path to no file
    trains, and the sidecar lists exactly the files read."""
    path = tmp_path / "none.tsv" if classes == "missing" else workspace / "work" / "classes.tsv"
    args = _train_args(workspace, tmp_path, "flag", "variant=lbl")
    assert main(args + ["--classes", str(path)]) == 0
    assert (tmp_path / "m.mlbl").read_bytes() == lbl_model
    manifest = json.loads((tmp_path / "m.mlbl.manifest.json").read_text())
    assert manifest["inputs"] == {str(workspace / name): hashlib.sha256(
        (workspace / name).read_bytes()).hexdigest()
        for name in ("train.txt", "dev.txt", "work/vocab.tsv")}


def test_train_records_the_digests_of_its_inputs_as_read(workspace, tmp_path, monkeypatch):
    """An input that changes while training runs keeps the digest of the
    bytes training read."""
    text = tmp_path / "train.txt"
    text.write_bytes((workspace / "train.txt").read_bytes())
    read = hashlib.sha256(text.read_bytes()).hexdigest()
    train = cli.train

    def edit_then_train(*args, **kwargs):
        with open(text, "a", encoding="utf-8") as fh:
            fh.write("an edit made while training runs\n")
        return train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", edit_then_train)
    args = _train_args(workspace, tmp_path, "flag", "variant=lbl")
    args[args.index("--train") + 1] = str(text)
    assert main(args) == 0
    manifest = json.loads((tmp_path / "m.mlbl.manifest.json").read_text())
    assert manifest["inputs"][str(text)] == read != hashlib.sha256(text.read_bytes()).hexdigest()


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# each command that writes a sidecar (train: above): the name in ``cli`` it
# calls once it has read every input, its arguments, where "{name}" is a
# copy of that workspace file, and the artifacts it writes
AS_READ = {
    "preprocess": ("build_factorization",
                   ["--input", "{train.txt}", "--segmentations", "{segs.tsv}",
                    "--out-dir", "out"], ["out/vocab.tsv", "out/factors.tsv", "out/mu.tsv"]),
    "cluster brown": ("brown_cluster",
                      ["--vocab", "{work/vocab.tsv}", "--input", "{train.txt}",
                       "--num-classes", "3", "--max-iters", "2", "--out", "out.tsv"], ["out.tsv"]),
    "cluster file": ("load_partition",
                     ["--vocab", "{work/vocab.tsv}", "--method", "file",
                      "--partition-file", "{work/classes.tsv}", "--out", "out.tsv"], ["out.tsv"]),
    "ppl": ("perplexity",
            ["--model", "{model.mlbl}", "--test", "{test.txt}", "--by-freq",
             "--train-counts-from", "{train.txt}", "--json-out", "out.jsonl"], ["out.jsonl"]),
    "sim": ("evaluate_similarity",
            ["--model", "{model.mlbl}", "--pairs", "{pairs.tsv}", "--segmentations", "{segs.tsv}",
             "--json-out", "out.json"], ["out.json"]),
    "export": ("export_vectors", ["--model", "{model.mlbl}", "--out", "out.txt"], ["out.txt"]),
}


@pytest.mark.parametrize("run", list(AS_READ))
def test_every_sidecar_records_the_bytes_its_command_read(workspace, tmp_path, monkeypatch,
                                                          run):
    """Each input changes while the command runs, after the command read it:
    the sidecar keeps the digest of the bytes read, and the artifact's digest
    is that of the file on disk."""
    name, template, artifacts = AS_READ[run]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in").mkdir()
    argv, read = [], {}
    for arg in template:
        if arg.startswith("{"):
            source = workspace / arg[1:-1]
            arg = str(tmp_path / "in" / source.name)
            Path(arg).write_bytes(source.read_bytes())
            read[arg] = _digest(arg)
        argv.append(arg)
    core = getattr(cli, name)

    def run_then_edit(*args, **kwargs):
        result = core(*args, **kwargs)
        for path in read:
            with open(path, "ab") as fh:
                fh.write(b"an edit made while the command runs\n")
        return result

    monkeypatch.setattr(cli, name, run_then_edit)
    assert main([*run.split()[:1], *argv]) == 0
    for artifact in artifacts:
        manifest = json.loads(Path(f"{artifact}.manifest.json").read_text())
        assert manifest["inputs"] == read
        assert manifest["artifact"] == {artifact: _digest(artifact)}
    assert all(_digest(path) != digest for path, digest in read.items())


def test_a_sidecar_names_each_path_as_it_was_given(workspace, tmp_path, monkeypatch):
    """The keys, and each path as the command line spelt it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "test.txt").write_bytes((workspace / "test.txt").read_bytes())
    model = str(workspace / "model.mlbl")
    assert main(["ppl", "--model", model, "--test", "./test.txt",
                 "--json-out", "./report.jsonl"]) == 0
    manifest = json.loads((tmp_path / "report.jsonl.manifest.json").read_text())
    assert manifest == {"command": "ppl", "version": mlbl.__version__, "seed": None,
                        "config": {"by_freq": False, "labels": False},
                        "inputs": {model: _digest(model), "./test.txt": _digest("test.txt")},
                        "artifact": {"./report.jsonl": _digest("report.jsonl")},
                        "seconds": manifest["seconds"]}
    assert manifest["seconds"] > 0


def test_hashing_is_off_outside_a_recorded_command(workspace, tmp_path, monkeypatch, capsys):
    """``score``, and ``save_model`` and ``load_model`` called as a library,
    never build a hashing file; a command that writes an artifact does, and
    one that failed leaves hashing off."""
    def refuse(*args):
        raise RuntimeError("a hashing file was built")

    monkeypatch.setattr(_io, "_HashingFile", refuse)
    path = tmp_path / "copy.mlbl"
    save_model(load_model(workspace / "model.mlbl"), path)
    assert main(["score", "--model", str(path), "--input", str(workspace / "test.txt"),
                 "--segmentations", str(workspace / "segs.tsv")]) == 0
    assert capsys.readouterr().out.count("#TOTAL\t") == len(
        (workspace / "test.txt").read_text(encoding="utf-8").splitlines())
    with pytest.raises(RuntimeError, match="a hashing file was built"):
        main(["export", "--model", str(path), "--out", str(tmp_path / "vectors.txt")])
    assert load_model(path).vocab.types == load_model(workspace / "model.mlbl").vocab.types


@pytest.mark.parametrize("command", ["ppl", "score"])
def test_a_parameter_that_is_not_finite_is_a_model_error(workspace, tmp_path, capsys, command):
    """Not ``ppl nan`` or a ``nan`` score: exit 4 naming the container and the value."""
    path = tmp_path / "nan.mlbl"
    path.write_bytes((workspace / "model.mlbl").read_bytes()[:-8] + struct.pack("<d", math.nan))
    flag = "--test" if command == "ppl" else "--input"
    assert main([command, "--model", str(path), flag, str(workspace / "test.txt")]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"model error: {path}: parameter t[5] is not finite (nan)\n")


# a bad train setting -> its fault, after "usage error: " or the config file's path
BAD_SETTINGS = {
    "variant=bogus": f"unknown variant 'bogus'; choose from {sorted(VARIANTS)}",
    "n=1": "n-gram order must be >= 2",
    "d=0": "embedding dimension must be >= 1",
    "seed=-1": "seed must be non-negative and finite, got -1",
    "step_size=nan": "step_size must be positive and finite, got nan",
    "l2_lambda=nan": "l2_lambda must be non-negative and finite, got nan",
    "init_sigma=inf": "init_sigma must be positive and finite, got inf",
}


@pytest.mark.parametrize("source,setting", [
    (source, setting) for source in ("flag", "set", "config") for setting in BAD_SETTINGS
    if source != "flag" or setting.split("=")[0] in ("variant", "n", "d", "seed")])
def test_a_bad_setting_is_an_error_of_its_source(workspace, tmp_path, capsys, source, setting):
    rc = main(_train_args(workspace, tmp_path, source, setting))
    err = capsys.readouterr().err
    if source == "config":
        assert (rc, err) == (3, f"data error: {tmp_path / 'train.cfg'}: {BAD_SETTINGS[setting]}\n")
    else:
        assert (rc, err) == (2, f"usage error: {BAD_SETTINGS[setting]}\n")
    assert not (tmp_path / "m.mlbl").exists()


def test_in_process_calls_see_none_of_each_others_values(workspace, tmp_path, monkeypatch):
    """The parser is built once; a second call that omits ``--set`` and ``-v``
    gets their defaults, not the first call's values."""
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    args = ["train", "--train", str(workspace / "train.txt"),
            "--dev", str(workspace / "dev.txt"),
            "--vocab", str(workspace / "work" / "vocab.tsv"),
            "--variant", "lbl", "--d", "4", "--epochs", "1",
            "--model-out", str(tmp_path / "model.mlbl")]
    assert main(["-v", *args, "--set", "minibatch_size=0"]) == 2
    assert main(args) == 0
    assert levels == [logging.DEBUG, logging.INFO]


class TestExitCodes:
    def test_usage_error(self, workspace, capsys):
        rc = main(["train", "--train", str(workspace / "train.txt"),
                   "--dev", str(workspace / "dev.txt"),
                   "--vocab", str(workspace / "work" / "vocab.tsv"),
                   "--variant", "clbl", "--d", "4",
                   "--model-out", "/tmp/never.mlbl"])  # missing --classes
        assert rc == 2

    def test_data_error_missing_file(self, tmp_path):
        rc = main(["preprocess", "--input", str(tmp_path / "nope.txt"),
                   "--out-dir", str(tmp_path / "w")])
        assert rc == 3

    def test_model_error_bad_container(self, workspace, tmp_path):
        bogus = tmp_path / "bogus.mlbl"
        bogus.write_bytes(b"JUNKJUNKJUNK")
        rc = main(["ppl", "--model", str(bogus), "--test", str(workspace / "test.txt")])
        assert rc == 4

    @pytest.mark.parametrize("extra", [
        ["--d", "0"], ["--d", "4", "--n", "1"], ["--d", "4", "--set", "n=abc"],
        ["--d", "4", "--set", "minibatch_size=0"], ["--d", "4", "--set", "foo=1"],
        ["--d", "4", "--set", "regularize_biases=maybe"], []])  # the last: no --d
    def test_train_rejects_bad_value(self, workspace, capsys, extra):
        rc = main(["train", "--train", str(workspace / "train.txt"),
                   "--dev", str(workspace / "dev.txt"),
                   "--vocab", str(workspace / "work" / "vocab.tsv"),
                   "--variant", "lbl", *extra,
                   "--model-out", str(workspace / "never.mlbl")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_preprocess_rejects_bad_kappa(self, workspace, tmp_path, capsys):
        rc = main(["preprocess", "--input", str(workspace / "train.txt"),
                   "--out-dir", str(tmp_path / "w"), "--kappa", "2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("usage error: --kappa")

    @pytest.mark.parametrize("method,k", [("freq", "-3"), ("freq", "0"), ("brown", "0")])
    def test_cluster_rejects_bad_num_classes(self, workspace, tmp_path, capsys, method, k):
        rc = main(["cluster", "--input", str(workspace / "train.txt"),
                   "--vocab", str(workspace / "work" / "vocab.tsv"),
                   "--method", method, "--num-classes", k, "--out", str(tmp_path / "c.tsv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("usage error: --num-classes")
        assert not (tmp_path / "c.tsv").exists()

    @pytest.mark.parametrize("iters", ["0", "-1"])
    def test_cluster_rejects_bad_max_iters(self, workspace, tmp_path, capsys, iters):
        rc = main(["cluster", "--input", str(workspace / "train.txt"),
                   "--vocab", str(workspace / "work" / "vocab.tsv"),
                   "--method", "brown", "--max-iters", iters, "--out", str(tmp_path / "c.tsv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("usage error: --max-iters")
        assert not (tmp_path / "c.tsv").exists()

    def test_cluster_file_rejects_num_classes(self, workspace, tmp_path, capsys):
        rc = main(["cluster", "--vocab", str(workspace / "work" / "vocab.tsv"),
                   "--method", "file", "--partition-file", str(workspace / "work" / "classes.tsv"),
                   "--num-classes", "3", "--out", str(tmp_path / "c.tsv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("usage error: --num-classes")
        assert not (tmp_path / "c.tsv").exists()

    @pytest.mark.parametrize("method,flag,value", [
        ("freq", "--input", "{ws}/train.txt"), ("file", "--input", "{ws}/train.txt"),
        ("freq", "--max-iters", "5"), ("file", "--max-iters", "20"),
        ("brown", "--partition-file", "{ws}/work/classes.tsv"),
        ("freq", "--partition-file", "{ws}/work/classes.tsv")])
    def test_cluster_rejects_flags_its_method_ignores(self, workspace, tmp_path, capsys,
                                                      method, flag, value):
        out = tmp_path / "c.tsv"
        rc = main(_cluster_args(workspace, method, out) + [flag, value.format(ws=workspace)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"usage error: {flag} does not apply to --method {method}")
        assert not out.exists()

    def test_cluster_brown_needs_input(self, workspace, tmp_path, capsys):
        rc = main(["cluster", "--vocab", str(workspace / "work" / "vocab.tsv"),
                   "--out", str(tmp_path / "c.tsv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("usage error: --input is required")
        assert not (tmp_path / "c.tsv").exists()

    @pytest.mark.parametrize("given", ["factors", "mu"])
    def test_train_needs_factors_and_mu_together(self, workspace, tmp_path, capsys, given):
        rc = main(["train", "--train", str(workspace / "train.txt"),
                   "--dev", str(workspace / "dev.txt"),
                   "--vocab", str(workspace / "work" / "vocab.tsv"),
                   f"--{given}", str(workspace / "work" / f"{given}.tsv"),
                   "--variant", "lbl++", "--d", "4", "--epochs", "1",
                   "--model-out", str(tmp_path / "m.mlbl")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("usage error: --factors and --mu")
        assert not (tmp_path / "m.mlbl").exists()

    def test_ppl_breakdowns_exclude_each_other(self, workspace, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_text("-\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["ppl", "--model", str(workspace / "model.mlbl"),
                  "--test", str(workspace / "test.txt"), "--by-freq", "--labels", str(labels)])
        assert exc.value.code == 2

    def test_ppl_train_counts_need_by_freq(self, workspace, capsys):
        rc = main(["ppl", "--model", str(workspace / "model.mlbl"),
                   "--test", str(workspace / "test.txt"),
                   "--train-counts-from", str(workspace / "train.txt")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("usage error: --train-counts-from")

    def test_score_compose_needs_additive_contexts(self, workspace, tmp_path, capsys):
        path = tmp_path / "clbl.mlbl"
        save_model(random_model("clbl"), path)
        rc = main(["score", "--model", str(path), "--input", str(workspace / "test.txt"),
                   "--segmentations", str(workspace / "segs.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --segmentations ") and "clbl" in err

    def test_malformed_vocabulary_number_is_data_error(self, workspace, tmp_path, capsys):
        vocab = tmp_path / "vocab.tsv"
        vocab.write_text("0\t<unk>\t0\n1\t<s>\t0\nx\ta\t3\n", encoding="utf-8")
        rc = main(["cluster", "--vocab", str(vocab), "--method", "freq",
                   "--out", str(tmp_path / "c.tsv")])
        assert rc == 3
        assert f"{vocab}:3: bad id 'x'" in capsys.readouterr().err

    def test_bad_config_file_value_is_data_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        for line, message in [("n=abc", ": bad value 'abc' for n"),
                              ("foo=1", ": unknown configuration key 'foo'"),
                              ("regularize_biases=maybe",
                               ": bad value 'maybe' for regularize_biases"),
                              ("d=9", ":2: key 'd' given twice")]:
            cfg.write_text(f"d=8\n{line}\n", encoding="utf-8")
            rc = main(["train", "--train", str(workspace / "train.txt"),
                       "--dev", str(workspace / "dev.txt"),
                       "--vocab", str(workspace / "work" / "vocab.tsv"),
                       "--config", str(cfg), "--model-out", str(tmp_path / "never.mlbl")])
            assert rc == 3
            assert f"{cfg}{message}" in capsys.readouterr().err

    def test_train_with_an_empty_dev_set_takes_no_step(self, workspace, tmp_path, capsys,
                                                        monkeypatch):
        calls = []
        real = training.minibatch_loss_and_grad
        monkeypatch.setattr(training, "minibatch_loss_and_grad",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        dev = tmp_path / "dev.txt"
        dev.write_text("\n  \n\t\n", encoding="utf-8")
        rc = main(["train", "--train", str(workspace / "train.txt"), "--dev", str(dev),
                   "--vocab", str(workspace / "work" / "vocab.tsv"),
                   "--classes", str(workspace / "work" / "classes.tsv"),
                   "--variant", "clbl", "--d", "4", "--epochs", "1",
                   "--model-out", str(tmp_path / "m.mlbl")])
        assert rc == 3
        assert capsys.readouterr().err == (f"data error: {dev}: no tokens to measure "
                                           f"perplexity on\n")
        assert calls == []
        assert not (tmp_path / "m.mlbl").exists()

    def test_cluster_brown_on_an_input_without_tokens(self, workspace, tmp_path, capsys):
        text = tmp_path / "blank.txt"
        text.write_text("\n \n", encoding="utf-8")
        rc = main(["cluster", "--input", str(text), "--vocab",
                   str(workspace / "work" / "vocab.tsv"), "--method", "brown",
                   "--out", str(tmp_path / "c.tsv")])
        assert rc == 3
        assert capsys.readouterr().err == f"data error: {text}: no tokens to cluster\n"
        assert not (tmp_path / "c.tsv").exists()

    @pytest.mark.parametrize("flag", ["train", "dev", "test"])
    def test_an_input_without_tokens_is_named(self, workspace, tmp_path, capsys, flag):
        blank = tmp_path / "blank.txt"
        blank.write_text("\n \n", encoding="utf-8")
        if flag == "test":
            argv = ["ppl", "--model", str(workspace / "model.mlbl"), "--test", str(blank)]
        else:
            paths = {"train": workspace / "train.txt", "dev": workspace / "dev.txt",
                     flag: blank}
            argv = ["train", "--train", str(paths["train"]), "--dev", str(paths["dev"]),
                    "--vocab", str(workspace / "work" / "vocab.tsv"),
                    "--variant", "lbl", "--d", "4", "--epochs", "1",
                    "--model-out", str(tmp_path / "m.mlbl")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {blank}: no tokens")
        assert not (tmp_path / "m.mlbl").exists()

    @pytest.mark.parametrize("command, flag", [
        ("ppl", "--test"), ("preprocess", "--input"), ("score", "--model"),
        ("score", "--input"), ("export", "--out")])
    def test_a_path_the_os_refuses_is_a_data_error(self, workspace, tmp_path, capsys,
                                                    command, flag):
        """A directory given as a file exits 3 with the OS's message, which
        names the path, and leaves no temporary file."""
        model, text = str(workspace / "model.mlbl"), str(workspace / "test.txt")
        argv = {"ppl": ["--model", model, "--test", text],
                "preprocess": ["--input", text, "--out-dir", str(tmp_path / "work")],
                "score": ["--model", model, "--input", text],
                "export": ["--model", model, "--out", str(tmp_path / "vectors.txt")]}[command]
        directory = tmp_path / "dir"
        directory.mkdir()
        argv[argv.index(flag) + 1] = str(directory)
        assert main([command, *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: [Errno 21] Is a directory: ")
        assert err.endswith(f"'{directory}'\n")
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("command, flag", [
        ("preprocess", "--input"), ("preprocess", "--segmentations"), ("train", "--train"),
        ("train", "--config"), ("cluster", "--vocab"), ("cluster", "--input"),
        ("ppl", "--test"), ("ppl", "--labels"), ("sim", "--pairs"), ("score", "--input")])
    def test_a_text_input_that_is_not_utf8_is_a_data_error(self, workspace, tmp_path, capsys,
                                                            command, flag):
        """Exit 3 naming the file, without a traceback, and no output file."""
        ws = {name: str(workspace / name) for name in ("train.txt", "dev.txt", "test.txt",
                                                       "segs.tsv", "model.mlbl")}
        vocab = str(workspace / "work" / "vocab.tsv")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"ok\nan \xff byte\n")
        out = tmp_path / "out"
        argv = {"preprocess": ["--input", ws["train.txt"], "--segmentations", ws["segs.tsv"],
                               "--out-dir", str(out)],
                "train": ["--train", ws["train.txt"], "--dev", ws["dev.txt"], "--vocab", vocab,
                          "--variant", "lbl", "--d", "4", "--epochs", "1",
                          "--model-out", str(out)],
                "cluster": ["--input", ws["train.txt"], "--vocab", vocab, "--method", "brown",
                            "--num-classes", "3", "--out", str(out)],
                "ppl": ["--model", ws["model.mlbl"], "--test", ws["test.txt"]],
                "sim": ["--model", ws["model.mlbl"], "--pairs", ws["test.txt"]],
                "score": ["--model", ws["model.mlbl"], "--input", ws["test.txt"]]}[command]
        if flag in argv:
            argv[argv.index(flag) + 1] = str(bad)
        else:
            argv += [flag, str(bad)]
        assert main([command, *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: not UTF-8 (byte 0xff")
        assert "Traceback" not in err
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == [bad]

    def test_argparse_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["cluster"])  # missing required arguments
        assert exc.value.code == 2


def _messy_corpus(root):
    """A ``morph_corpus`` text with blank lines, literal ``<s>``, uppercase
    tokens, ASCII and Arabic-Indic digits and singletons, preprocessed with
    singleton pruning."""
    sentences, _ = morph_corpus(8000, n_stems=40, n_suffixes=5, seed=13)
    rng = np.random.default_rng(13)
    lines = []
    for i, sent in enumerate(sentences):
        sent = list(sent)
        j = int(rng.integers(0, len(sent)))
        kind = i % 6
        if kind == 0:
            sent[j] = sent[j].upper()
        elif kind == 1:
            sent.insert(j, "<s>")
        elif kind == 2:
            sent.insert(j, f"y{int(rng.integers(0, 3000))}")
        elif kind == 3:
            sent.insert(j, f"only{i}")
        elif kind == 4:
            sent.insert(j, "Ν٣" if i % 12 == 4 else "N7")
        lines.append(" ".join(sent))
        if i % 9 == 0:
            lines.append("  " if i % 18 else "")
    text = root / "messy.txt"
    text.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["preprocess", "--input", str(text), "--out-dir", str(root / "pre"),
                 "--kappa", "0.5", "--seed", "2"]) == 0
    return text, root / "pre" / "vocab.tsv"


def test_cluster_brown_keeps_its_partition_bytes(tmp_path):
    """The partition ``cluster --method brown`` writes for a messy text; the
    digest was recorded before the text path moved to flat arrays."""
    text, vocab = _messy_corpus(tmp_path)
    out = tmp_path / "brown.tsv"
    assert main(["cluster", "--input", str(text), "--vocab", str(vocab), "--method", "brown",
                 "--num-classes", "12", "--max-iters", "6", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "567f2b9b5f19c8e67d1bf4509630676e6f34004fbef448f62a87d499408c9798"
