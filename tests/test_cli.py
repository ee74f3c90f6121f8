"""End-to-end pipeline tests driving the command-line interface."""

import json
import logging
import math

import numpy as np
import pytest

from helpers import (ReferenceCache, morph_corpus, random_model, reference_score_sentence,
                     write_corpus, write_segs)
from mlbl.cli import main
from mlbl.container import load_model, save_model
from mlbl.evaluation import SimilarityScorer
from mlbl.model import Querier, QueryStats
from mlbl.morphology import load_vectors, parse_segmentations


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
               "--no-compose", "--json-out", str(out_b)])
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
               "--compose-oov-contexts", "--segmentations", str(seg_path)])
    assert rc == 0
    composed = Querier(model, segs=segs).score_sentence(["qqqword", word])
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [f"{tok}\t{lp!r}" for tok, lp in composed]
    assert composed[1] != Querier(model).score_sentence(["qqqword", word])[1]


def test_score_output_equals_per_token_oracle(workspace, tmp_path, capsys):
    """``mlbl score`` prints, byte for byte, the per-token oracle's scores:
    mixed text with unknown words, literal <s>, digits and repeated lines,
    with and without composed unknown contexts."""
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
                            (["--compose-oov-contexts", "--segmentations", str(seg_path)], segs)):
        rc = main(["score", "--model", str(model_path), "--input", str(sent_path), *flags])
        assert rc == 0
        cache, stats = ReferenceCache(), QueryStats()
        expected = []
        for line in text.splitlines():
            if not line.split():
                continue
            scored = reference_score_sentence(model, line.split(), cache, stats, use_segs)
            expected += [f"{tok}\t{lp!r}" for tok, lp in scored]
            expected.append(f"#TOTAL\t{sum(lp for _, lp in scored)!r}")
        assert capsys.readouterr().out == "\n".join(expected) + "\n"
        assert cache.hits > 0


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
    assert capsys.readouterr().out == "\n".join(expected) + "\n"
    reports = [r.getMessage() for r in caplog.records if r.getMessage().startswith("score:")]
    assert len(reports) == 1 and reports[0].startswith("score: 10 tokens in ")
    cache = querier.cache
    assert reports[0].endswith(f"tokens/s), cache hits {cache.hits} misses {cache.misses} "
                               f"entries {len(cache)} evictions 0")
    assert cache.hits > 0


def test_export_reproduces_pair_similarity(workspace, tmp_path):
    out = tmp_path / "vectors.txt"
    rc = main(["export", "--model", str(workspace / "model.mlbl"),
               "--out", str(out), "--table", "both"])
    assert rc == 0
    model = load_model(workspace / "model.mlbl")
    words, mat = load_vectors(out)
    assert words == model.vocab.types
    scorer = SimilarityScorer(model)
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j = rng.integers(2, len(words), size=2)
        u, v = mat[i], mat[j]
        denom = math.sqrt(float(u @ u) * float(v @ v))
        external = float(u @ v) / denom if denom else 0.0
        assert abs(external - scorer.pair(words[i], words[j])[0]) <= 1e-12


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
                   "--compose-oov-contexts", "--segmentations", str(workspace / "segs.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "clbl" in err

    def test_malformed_vocabulary_number_is_data_error(self, workspace, tmp_path, capsys):
        vocab = tmp_path / "vocab.tsv"
        vocab.write_text("0\t<unk>\t0\n1\t<s>\t0\nx\ta\t3\n", encoding="utf-8")
        rc = main(["cluster", "--vocab", str(vocab), "--method", "freq",
                   "--out", str(tmp_path / "c.tsv")])
        assert rc == 3
        assert f"{vocab}:3: bad id 'x'" in capsys.readouterr().err

    def test_bad_config_file_value_is_data_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        for line, message in [("n=abc", "bad value 'abc' for n"),
                              ("foo=1", "unknown configuration key 'foo'"),
                              ("regularize_biases=maybe",
                               "bad value 'maybe' for regularize_biases")]:
            cfg.write_text(f"d=8\n{line}\n", encoding="utf-8")
            rc = main(["train", "--train", str(workspace / "train.txt"),
                       "--dev", str(workspace / "dev.txt"),
                       "--vocab", str(workspace / "work" / "vocab.tsv"),
                       "--config", str(cfg), "--model-out", str(tmp_path / "never.mlbl")])
            assert rc == 3
            assert f"{cfg}: {message}" in capsys.readouterr().err

    def test_argparse_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["cluster"])  # missing required arguments
        assert exc.value.code == 2
