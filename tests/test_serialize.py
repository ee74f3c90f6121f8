import struct
import tracemalloc

import numpy as np
import pytest

from helpers import (factorization_from_rows, make_vocab, random_factorization, random_model,
                     random_partition, reference_load_model, reference_save_model)
from mlbl._io import atomic_open
from mlbl.cli import main, write_sidecar
from mlbl.container import load_model, save_model
from mlbl.corpus import PAD_TOKEN, UNK_TOKEN, Vocabulary
from mlbl.errors import ModelFormatError
from mlbl.model import VARIANTS, LanguageModel, ModelConfig, Querier
from mlbl.morphology import FactorVocabulary, WordFactorization, export_vectors
from mlbl.training import init_params


@pytest.mark.parametrize("variant", ["clbl++", "lbl", "clbl+o", "lbl+c"])
def test_roundtrip_bit_exact(tmp_path, variant):
    m = random_model(variant, n_types=18, n_factors=9, seed=21)
    path = tmp_path / "model.mlbl"
    save_model(m, path)
    loaded = load_model(path)

    assert loaded.config == m.config
    assert loaded.vocab.types == m.vocab.types
    assert np.array_equal(loaded.vocab.counts, m.vocab.counts)
    assert loaded.vocab.kappa == m.vocab.kappa
    assert loaded.factor_vocab.factors == m.factor_vocab.factors
    assert np.array_equal(loaded.factorization.indptr, m.factorization.indptr)
    assert np.array_equal(loaded.factorization.indices, m.factorization.indices)
    assert np.array_equal(loaded.factorization.data, m.factorization.data)
    if m.config.class_based:
        assert np.array_equal(loaded.partition.class_of, m.partition.class_of)
    for name, block in m.params.blocks().items():
        assert np.array_equal(loaded.params.blocks()[name], block)
    assert np.array_equal(loaded.params.Q, m.params.Q)
    assert np.array_equal(loaded.params.R, m.params.R)

    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.mlbl"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_queries_agree_exactly_after_reload(tmp_path):
    m = random_model("clbl++", n_types=22, seed=22)
    path = tmp_path / "model.mlbl"
    save_model(m, path)
    loaded = load_model(path)
    q1 = Querier(m)
    q2 = Querier(loaded)
    rng = np.random.default_rng(5)
    for _ in range(50):
        ctx = list(rng.integers(0, 22, size=2))
        w = int(rng.choice(m.scorable_ids))
        assert q1.log_prob(ctx, w) == q2.log_prob(ctx, w)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.mlbl"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(path)


def test_truncated_container_rejected(tmp_path):
    m = random_model("clbl", n_types=10, seed=23)
    path = tmp_path / "model.mlbl"
    save_model(m, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_trailing_garbage_rejected(tmp_path):
    m = random_model("lbl", n_types=10, seed=24)
    path = tmp_path / "model.mlbl"
    save_model(m, path)
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(ModelFormatError, match="trailing"):
        load_model(path)


class Unprintable:
    def __str__(self):
        raise RuntimeError("failed mid-write")


def _broken_model():
    m = random_model("clbl", n_types=12, seed=24)
    m.params.b = np.array(["not a float"], dtype=object)  # written after the tables
    return m


def _broken_vocab():
    v = make_vocab(6)
    v.types = v.types[:-1] + [Unprintable()]
    return v


def _write_mu(path, vocab):
    fv, wf = random_factorization(6, 4, seed=25)
    wf.save(path, vocab, fv)


def _broken_factor_vocab():
    fv, _ = random_factorization(6, 4, seed=25)
    fv.factors[-1] = Unprintable()
    return fv


# each writer: (write a good artifact, write one that fails part-way through)
WRITERS = {
    "save_model": (lambda p: save_model(random_model("clbl", n_types=12, seed=24), p),
                   lambda p: save_model(_broken_model(), p)),
    "Vocabulary.save": (lambda p: make_vocab(6).save(p), lambda p: _broken_vocab().save(p)),
    "FactorVocabulary.save": (lambda p: random_factorization(6, 4, seed=25)[0].save(p),
                              lambda p: _broken_factor_vocab().save(p)),
    "export_vectors": (lambda p: export_vectors(p, ["a", "b"], np.eye(2)),
                       lambda p: export_vectors(p, ["a", Unprintable()], np.eye(2))),
    "WordFactorization.save": (lambda p: _write_mu(p, make_vocab(6)),
                               lambda p: _write_mu(p, _broken_vocab())),
    "ClassPartition.save": (lambda p: random_model("clbl", n_types=12, seed=24)
                            .partition.save(p, make_vocab(12)),
                            lambda p: random_model("clbl", n_types=12, seed=24)
                            .partition.save(p, make_vocab(6))),
    "write_sidecar": (lambda p: write_sidecar({"a": 1}, p),
                      lambda p: write_sidecar({"a": 1, "z": Unprintable()}, p)),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_write_leaves_previous_file(tmp_path, writer):
    good, bad = WRITERS[writer]
    path = tmp_path / "artifact"
    good(path)
    written = sorted(tmp_path.iterdir())
    before = {f: f.read_bytes() for f in written}
    assert len(before) == 1 and all(before.values())

    with pytest.raises((RuntimeError, ValueError, TypeError, IndexError)):
        bad(path)

    assert sorted(tmp_path.iterdir()) == written  # no .tmp left behind
    assert {f: f.read_bytes() for f in written} == before


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(KeyError):
        with atomic_open(path) as fh:
            fh.write("new\n")
            raise KeyError("stop")
    assert path.read_text(encoding="utf-8") == "old\n"
    with atomic_open(path) as fh:
        fh.write("new \u00e9\n")
    assert path.read_bytes() == "new \u00e9\n".encode("utf-8")
    assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]


def _unicode_model(variant):
    """A model with non-ASCII words and factors and multiplicities up to 3."""
    words = ["naïve", "слово", "日本語", "smörgåsbord", "a", "ß", "e\u0301", "\U0001f600x"]
    vocab = Vocabulary([UNK_TOKEN, PAD_TOKEN] + words,
                       np.arange(len(words) + 2, dtype=np.int64) * 7, 0.25)
    fv = FactorVocabulary(["ö|stem", "-ям|suffix", "語|root", "x|m", "\U0001f600|emoji"])
    rng = np.random.default_rng(3)
    rows = [{int(f): int(rng.integers(1, 4)) for f in rng.choice(len(fv), size=k,
                                                                   replace=False)}
            for k in rng.integers(1, 4, size=len(vocab))]
    wf = factorization_from_rows(rows, len(fv))
    cfg = ModelConfig.from_variant(variant, n=3, d=3)
    partition = random_partition(len(vocab), 3, seed=4) if cfg.class_based else None
    params = init_params(cfg, vocab, fv, wf, partition, 0.5, seed=5)
    return LanguageModel(cfg, vocab, fv, wf, params, partition)


def _awkward_model(variant):
    """A model whose strings hold what the command line never makes: tabs,
    newlines and NUL bytes, an empty factor, a 4-byte character, ASCII and
    non-ASCII side by side, and a factor holding every ASCII character."""
    words = ["tab\tin", "new\nline", "nul\x00byte", "\U0001f600", "plain", "mixé ascii",
             "\x00", "\n", "ß\t\U00010348"]
    vocab = Vocabulary([UNK_TOKEN, PAD_TOKEN] + words,
                       np.arange(len(words) + 2, dtype=np.int64) * 3 + 2**40, 0.5)
    fv = FactorVocabulary(["", "a\nb|x", "\t|y", "\x00|z", "\U00010348|g", "ascii|stem",
                           "ü|s", "".join(map(chr, range(128)))])
    rng = np.random.default_rng(8)
    rows = [{int(f): int(rng.integers(1, 3)) for f in rng.choice(len(fv), size=k,
                                                                   replace=False)}
            for k in rng.integers(1, 4, size=len(vocab))]
    wf = factorization_from_rows(rows, len(fv))
    cfg = ModelConfig.from_variant(variant, n=4, d=2)
    partition = random_partition(len(vocab), 4, seed=9) if cfg.class_based else None
    params = init_params(cfg, vocab, fv, wf, partition, 0.5, seed=10)
    return LanguageModel(cfg, vocab, fv, wf, params, partition)


def _assert_loads_as_the_reference(path):
    loaded, expected = load_model(path), reference_load_model(path)
    assert loaded.vocab.types == expected["types"]
    assert loaded.vocab.counts.tolist() == expected["counts"]
    assert loaded.vocab.kappa == expected["kappa"]
    assert loaded.factor_vocab.factors == expected["factors"]
    wf = loaded.factorization
    assert wf.indptr.tolist() == expected["indptr"]
    assert wf.indices.tolist() == expected["indices"]
    assert wf.data.tolist() == expected["data"]
    if loaded.config.class_based:
        assert loaded.partition.class_of.tolist() == expected["class_of"]
    else:
        assert "class_of" not in expected
    blocks = loaded.params.blocks()
    assert list(blocks) == [k for k in expected if k in ("C", "Qf", "Rf", "b", "S", "t")]
    for name, block in blocks.items():
        assert block.dtype == np.float64 and block.shape == expected[name].shape
        assert block.tobytes() == expected[name].tobytes(), name
        flags = block.flags
        assert flags.c_contiguous and flags.aligned and flags.writeable and flags.owndata
    return loaded


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("build", [_unicode_model, _awkward_model,
                                   lambda v: random_model(v, n_types=3000, n_factors=900,
                                                          num_classes=40, seed=11)],
                         ids=["unicode", "awkward", "3000 words"])
def test_load_model_equals_the_reference_reader(tmp_path, variant, build):
    m = build(variant)
    save_model(m, tmp_path / "model.mlbl")
    loaded = _assert_loads_as_the_reference(tmp_path / "model.mlbl")
    assert loaded.vocab.types == m.vocab.types
    assert loaded.factor_vocab.factors == m.factor_vocab.factors


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_save_model_writes_the_reference_bytes(tmp_path, variant):
    for m in (_unicode_model(variant), _awkward_model(variant)):
        assert max(m.factorization.data) > 1
        save_model(m, tmp_path / "bulk.mlbl")
        reference_save_model(m, tmp_path / "records.mlbl")
        assert (tmp_path / "bulk.mlbl").read_bytes() == (tmp_path / "records.mlbl").read_bytes()
        loaded = load_model(tmp_path / "bulk.mlbl")
        assert loaded.vocab.types == m.vocab.types
        assert loaded.factor_vocab.factors == m.factor_vocab.factors


# corrupt factorization rows of a 3-word model: (indptr, factor ids,
# multiplicities) and the error they raise
CORRUPT_ROWS = {
    "empty row": (([0, 1, 1, 2], [0, 1], [1, 1]), "empty factorization"),
    "repeated factor id": (([0, 1, 3, 4], [0, 1, 1, 2], [1, 1, 2, 1]),
                           "not strictly increasing"),
    "decreasing factor ids": (([0, 1, 3, 4], [0, 2, 1, 2], [1, 1, 2, 1]),
                              "not strictly increasing"),
    "multiplicity 0": (([0, 1, 3, 4], [0, 1, 2, 2], [1, 0, 1, 1]), "multiplicity 0"),
}


def _corrupt_container(path, rows):
    m = random_model("clbl", n_types=3, n_factors=3, num_classes=2, seed=6)
    m.factor_vocab = FactorVocabulary(["x|m", "y|m", "z|m"])
    m.factorization = WordFactorization(*rows, 3)
    save_model(m, path)


@pytest.mark.parametrize("what", list(CORRUPT_ROWS))
def test_load_rejects_corrupt_factorization_rows(tmp_path, what):
    path = tmp_path / "corrupt.mlbl"
    rows, message = CORRUPT_ROWS[what]
    _corrupt_container(path, rows)
    with pytest.raises(ModelFormatError, match=message) as exc:
        load_model(path)
    assert str(path) in str(exc.value)


def test_score_exits_4_on_a_corrupt_factorization(tmp_path, capsys):
    path = tmp_path / "corrupt.mlbl"
    _corrupt_container(path, CORRUPT_ROWS["empty row"][0])
    text = tmp_path / "in.txt"
    text.write_text("a b\n", encoding="utf-8")
    assert main(["score", "--model", str(path), "--input", str(text)]) == 4
    err = capsys.readouterr().err
    assert str(path) in err and "empty factorization" in err


def test_every_cut_of_a_container_is_a_truncation_naming_the_path(tmp_path):
    raw = _saved(tmp_path, random_model("clbl+o", n_types=6, n_factors=5, num_classes=2,
                                        seed=7))
    cut = tmp_path / "cut.mlbl"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(ModelFormatError) as exc:
            load_model(cut)
        assert str(exc.value) == f"{cut}: truncated model container", n


def _sections_at(raw: bytes) -> dict[str, int]:
    """Where a container's lengths arrays (words, factors, nnz) and its
    counts begin."""
    nv, nf = struct.unpack_from("<QQ", raw, 20)
    words = 68   # after the header
    counts = words + 4 * nv + int(np.frombuffer(raw, "<u4", nv, words).sum())
    factors = counts + 8 * nv
    nnz = factors + 4 * nf + int(np.frombuffer(raw, "<u4", nf, factors).sum())
    return {"words": words, "counts": counts, "factors": factors, "nnz": nnz}


@pytest.mark.parametrize("section", ["words", "factors", "nnz"])
def test_lengths_past_the_file_are_a_truncation_before_allocation(tmp_path, section):
    """A first length of 2**32 - 1 claims gigabytes the file does not hold;
    the loader reports it without allocating them."""
    raw = _saved(tmp_path, _unicode_model("clbl"))
    at = _sections_at(raw)[section]
    path = tmp_path / "corrupt.mlbl"
    path.write_bytes(_patch(at, b"\xff" * 4)(raw))
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError) as exc:
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"{path}: truncated model container"
    assert peak < 1 << 20


def _saved(tmp_path, model) -> bytes:
    save_model(model, tmp_path / "saved.mlbl")
    return (tmp_path / "saved.mlbl").read_bytes()


def _split_character(raw: bytes) -> bytes:
    """The lengths of "naïve" and "слово" (word ids 2 and 3) rewritten so
    that the first is "na" plus the first byte of "ï" and the second the
    rest: the same bytes back to back, but neither string is utf-8 by
    itself."""
    at = _sections_at(raw)["words"] + 4 * 2
    assert raw[at:at + 8] == struct.pack("<II", 6, 10)
    return raw[:at] + struct.pack("<II", 3, 13) + raw[at + 8:]


def _patch(offset, value):
    return lambda raw: raw[:offset] + value + raw[offset + len(value):]


def _class_ids(class_of):
    """The container with its partition section replaced by ``class_of``."""
    def change(raw):
        n, d = struct.unpack_from("<II", raw, 8)
        nv, _, nfq, nfr, nc = struct.unpack_from("<QQQQQ", raw, 20)
        end = len(raw) - 8 * ((n - 1) * d * d + (nfq + nfr) * d + nv + nc * (d + 1))
        return raw[:end - 8 * nv] + np.array(class_of, dtype="<u8").tobytes() + raw[end:]
    return change


def _count(v, value):
    """The container with the count of word id ``v`` set to ``value``."""
    def change(raw):
        return _patch(_sections_at(raw)["counts"] + 8 * v, value.to_bytes(8, "little"))(raw)
    return change


def _param(block, index, value):
    """The container with value ``index`` (row-major) of parameter block
    ``block`` set to ``value``."""
    def change(raw):
        n, d = struct.unpack_from("<II", raw, 8)
        nv, _, nfq, nfr, nc = struct.unpack_from("<QQQQQ", raw, 20)
        sizes = {"C": (n - 1) * d * d, "Qf": nfq * d, "Rf": nfr * d, "b": nv, "S": nc * d,
                 "t": nc}
        names = list(sizes)
        before = sum(sizes[name] for name in names[:names.index(block)])
        at = len(raw) - 8 * (sum(sizes.values()) - before - index)
        return _patch(at, struct.pack("<d", value))(raw)
    return change


# a valid container's bytes, changed, and the error they give after the path
CORRUPT_BYTES = {
    "bad magic": (_patch(0, b"NOPE"), "not a model container (bad magic)"),
    "version": (_patch(4, (1).to_bytes(4, "little")), "unsupported container version 1"),
    "class count": (_patch(52, (4).to_bytes(8, "little")),
                    "partition has 3 classes, header says 4"),
    "class id 2**64-1": (_class_ids([2**64 - 1] + [0, 1, 2] * 3),
                         "word id 0 has class id 18446744073709551615, "
                         "header says 3 classes for 10 words"),
    "class id at the class count": (_class_ids([0, 1, 2] * 3 + [3]),
                                    "word id 9 has class id 3, header says 3 classes for 10 words"),
    "class id at the word count": (lambda raw: _patch(52, (11).to_bytes(8, "little"))(
                                       _class_ids([0, 1, 2] * 3 + [10])(raw)),
                                   "word id 9 has class id 10, "
                                   "header says 11 classes for 10 words"),
    "empty class": (_class_ids([0] * 9 + [2]), "every class must be non-empty"),
    "count 2**63": (_count(5, 2**63),
                    "word id 5 has count 9223372036854775808, which does not fit in int64"),
    "trailing byte": (lambda raw: raw + b"\0", "trailing bytes in container"),
    "no words": (_patch(20, (0).to_bytes(8, "little")),
                 "vocabulary must reserve id 0 for <unk> and id 1 for <s>"),
    "n of 1": (_patch(8, (1).to_bytes(4, "little")), "n-gram order must be >= 2"),
    "d of 0": (_patch(12, (0).to_bytes(4, "little")), "embedding dimension must be >= 1"),
    "context-additive flag": (_patch(16, b"\1"),   # the model's own shape check
                              "context factor table is (10, 3), expected (5, 3)"),
    "not utf-8": (lambda raw: raw.replace("naïve".encode(), b"na\xff\xffve"),
                  "string is not utf-8 ('utf-8' codec can't decode byte 0xff in "
                  "position 2: invalid start byte)"),
    "split character": (_split_character,
                        "string is not utf-8 ('utf-8' codec can't decode byte 0xc3 in "
                        "position 2: unexpected end of data)"),
    # n = 3, d = 3, 10 words and factors, 3 classes: a NaN last in each
    # parameter block, an infinity second
    "NaN in C": (_param("C", 17, np.nan), "parameter C[1, 2, 2] is not finite (nan)"),
    "infinity in C": (_param("C", 1, -np.inf), "parameter C[0, 0, 1] is not finite (-inf)"),
    "NaN in Qf": (_param("Qf", 29, np.nan), "parameter Qf[9, 2] is not finite (nan)"),
    "infinity in Qf": (_param("Qf", 1, np.inf), "parameter Qf[0, 1] is not finite (inf)"),
    "NaN in Rf": (_param("Rf", 29, np.nan), "parameter Rf[9, 2] is not finite (nan)"),
    "infinity in Rf": (_param("Rf", 1, -np.inf), "parameter Rf[0, 1] is not finite (-inf)"),
    "NaN in b": (_param("b", 9, np.nan), "parameter b[9] is not finite (nan)"),
    "infinity in b": (_param("b", 1, np.inf), "parameter b[1] is not finite (inf)"),
    "NaN in S": (_param("S", 8, np.nan), "parameter S[2, 2] is not finite (nan)"),
    "infinity in S": (_param("S", 1, -np.inf), "parameter S[0, 1] is not finite (-inf)"),
    "NaN in t": (_param("t", 2, np.nan), "parameter t[2] is not finite (nan)"),
    "infinity in t": (_param("t", 1, np.inf), "parameter t[1] is not finite (inf)"),
}


@pytest.mark.parametrize("what", list(CORRUPT_BYTES))
def test_load_errors_name_the_path(tmp_path, what):
    change, message = CORRUPT_BYTES[what]
    path = tmp_path / "corrupt.mlbl"
    path.write_bytes(change(_saved(tmp_path, _unicode_model("clbl"))))
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_save_refuses_a_parameter_that_is_not_finite(tmp_path, value):
    """In ``load_model``'s words; the previous file stays, and no temporary
    file is left."""
    m = random_model("clbl++", n_types=12, seed=24)
    path = tmp_path / "model.mlbl"
    save_model(m, path)
    before = path.read_bytes()
    m.params.S[1, 0] = value
    with pytest.raises(ModelFormatError) as exc:
        save_model(m, path)
    assert str(exc.value) == f"{path}: parameter S[1, 0] is not finite ({value})"
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == before


# rows of a 3-word model over 3 factors with two faults: the first in file
# order is the one named
FIRST_FAULTS = {
    "zero multiplicity, then an empty row": (([0, 2, 2, 3], [0, 1, 2], [1, 0, 1]),
                                             "factor 1 of word id 0 has multiplicity 0"),
    "empty row, then an id out of range": (([0, 0, 1, 2], [3, 2], [1, 1]),
                                           "word id 0 has an empty factorization"),
    "id out of range, then not increasing": (([0, 1, 3, 4], [5, 2, 1, 0], [1, 1, 1, 0]),
                                             "factor id 5 out of range"),
    "not increasing across rows is allowed": (([0, 1, 2, 3], [2, 1, 7], [1, 1, 1]),
                                              "factor id 7 out of range"),
}


@pytest.mark.parametrize("what", list(FIRST_FAULTS))
def test_load_names_the_first_fault_of_the_factorization(tmp_path, what):
    rows, message = FIRST_FAULTS[what]
    path = tmp_path / "corrupt.mlbl"
    _corrupt_container(path, rows)
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: {message}"


def test_load_rejects_duplicate_factor_strings(tmp_path):
    path = tmp_path / "corrupt.mlbl"
    _corrupt_container(path, ([0, 1, 2, 3], [0, 1, 2], [1, 1, 1]))
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"y|m", b"x|m"))
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: duplicate factor strings in container"
