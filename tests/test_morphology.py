import numpy as np
import pytest

from helpers import make_vocab, random_factorization
from mlbl.corpus import PAD_TOKEN, UNK_TOKEN, build_vocabulary
from mlbl.errors import DataError
from mlbl.model import LanguageModel, ModelConfig
from mlbl.morphology import (FactorVocabulary, WordFactorization, build_factorization,
                             compile_word_table, compose_vector, export_vectors, known_factors,
                             load_vectors, parse_segmentations)
from mlbl.training import init_params


class TestParseSegmentations:
    def test_labelled_morphemes(self, tmp_path):
        p = tmp_path / "segs.tsv"
        p.write_text("imperfection\tim|prefix perfect|stem ion|suffix\n", encoding="utf-8")
        segs = parse_segmentations(p)
        assert segs == {"imperfection": ["im|prefix", "perfect|stem", "ion|suffix"]}

    def test_singleton_entry(self, tmp_path):
        p = tmp_path / "segs.tsv"
        p.write_text("school\tschool|stem\n", encoding="utf-8")
        assert parse_segmentations(p) == {"school": ["school|stem"]}

    def test_empty_file(self, tmp_path):
        p = tmp_path / "segs.tsv"
        p.write_text("", encoding="utf-8")
        assert parse_segmentations(p) == {}

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "segs.tsv"
        p.write_text("good\tgood|stem\nbad line without tab\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            parse_segmentations(p)

    def test_missing_label(self, tmp_path):
        p = tmp_path / "segs.tsv"
        p.write_text("word\tnolabel\n", encoding="utf-8")
        with pytest.raises(DataError, match="label"):
            parse_segmentations(p)

    def test_duplicate_word(self, tmp_path):
        p = tmp_path / "segs.tsv"
        p.write_text("w\ta|stem\nw\tb|stem\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            parse_segmentations(p)

    def test_surface_label_reserved(self, tmp_path):
        p = tmp_path / "segs.tsv"
        p.write_text("w\tw|surface\n", encoding="utf-8")
        with pytest.raises(DataError, match="reserved"):
            parse_segmentations(p)

    def test_normalizes_words_and_morphemes(self, tmp_path):
        p = tmp_path / "segs.tsv"
        p.write_text("Catch22\tCatch|stem 22|num\n", encoding="utf-8")
        assert parse_segmentations(p) == {"catch00": ["catch|stem", "00|num"]}


class TestBuildFactorization:
    def test_surface_plus_morphemes(self):
        v = build_vocabulary([["greenhouse"]], kappa=0.0, seed=0)
        fv, wf = build_factorization(v, {"greenhouse": ["green|stem", "house|stem"]})
        wid = v.id_of["greenhouse"]
        factors = {fv.factors[f] for f, _ in wf.mu(wid)}
        assert factors == {"greenhouse|surface", "green|stem", "house|stem"}

    def test_word_absent_from_segs(self):
        v = build_vocabulary([["plain"]], kappa=0.0, seed=0)
        fv, wf = build_factorization(v, {"other": ["o|stem"]})
        wid = v.id_of["plain"]
        assert [fv.factors[f] for f, _ in wf.mu(wid)] == ["plain|surface"]

    def test_identity_configuration(self):
        v = build_vocabulary([["a", "b", "c"]], kappa=0.0, seed=0)
        fv, wf = build_factorization(v, None)
        assert len(fv) == len(v)
        for wid in range(len(v)):
            assert wf.mu(wid) == [(wid, 1)]

    def test_reserved_symbols_self_factorize(self):
        v = build_vocabulary([["a"]], kappa=0.0, seed=0)
        fv, wf = build_factorization(v, None)
        assert fv.factors[0] == f"{UNK_TOKEN}|surface"
        assert fv.factors[1] == f"{PAD_TOKEN}|surface"
        assert wf.mu(0) == [(0, 1)] and wf.mu(1) == [(1, 1)]


class TestComposeVector:
    def test_elementwise_addition(self):
        table = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [0.0, 0.0]])
        vec = compose_vector(table, [(0, 1), (1, 1), (2, 1), (3, 1)])
        assert np.array_equal(vec, np.array([2.0, 3.0]))

    def test_singleton_identity(self):
        table = np.array([[0.5, -0.25], [3.0, 4.0]])
        assert np.array_equal(compose_vector(table, [(1, 1)]), table[1])

    def test_multiplicity(self):
        table = np.array([[1.0, 1.0], [9.0, 9.0]])
        assert np.array_equal(compose_vector(table, [(0, 2)]), np.array([2.0, 2.0]))

    def test_empty_multiset_errors(self):
        with pytest.raises(ValueError):
            compose_vector(np.zeros((2, 2)), [])

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(6, 4))
        items = [(4, 2), (0, 1), (2, 3)]
        a = compose_vector(table, items)
        b = compose_vector(table, list(reversed(items)))
        assert np.array_equal(a, b)


class TestCompileWordTable:
    def test_identity_permutation(self):
        v = build_vocabulary([["a", "b"]], kappa=0.0, seed=0)
        _, wf = build_factorization(v, None)
        table = np.random.default_rng(0).normal(size=(len(v), 3))
        out = compile_word_table(wf, table)
        assert np.array_equal(out, table)

    def test_random_instance_matches_per_word_composition(self):
        _, wf = random_factorization(50, 30, seed=9)
        table = np.random.default_rng(1).normal(size=(30, 8))
        out = compile_word_table(wf, table)
        for wid in range(50):
            assert np.array_equal(out[wid], compose_vector(table, wf.mu(wid)))
        # independent dense-matmul oracle
        dense = np.zeros((50, 30))
        for wid in range(50):
            for f, m in wf.mu(wid):
                dense[wid, f] = m
        np.testing.assert_allclose(out, dense @ table, rtol=0, atol=1e-12)

    def test_empty_vocabulary(self):
        from mlbl.morphology import WordFactorization

        wf = WordFactorization(np.array([0]), np.array([], dtype=np.int64),
                               np.array([]), 4)
        out = compile_word_table(wf, np.zeros((4, 2)))
        assert out.shape == (0, 2)

    def test_dimension_mismatch(self):
        _, wf = random_factorization(5, 7, seed=0)
        with pytest.raises(ValueError):
            compile_word_table(wf, np.zeros((6, 2)))


class TestPostHocAndOOV:
    """Vectors composed after training for words outside the vocabulary."""

    def setup_method(self):
        self.vocab = build_vocabulary(
            [["unlock", "lockable", "walker"]], kappa=0.0, seed=0)
        self.segs = {
            "unlock": ["un|prefix", "lock|stem"],
            "lockable": ["lock|stem", "able|suffix"],
            "walker": ["walk|stem", "er|suffix"],
        }
        self.fv, self.wf = build_factorization(self.vocab, self.segs)
        cfg = ModelConfig.from_variant("lbl++", n=2, d=3)
        params = init_params(cfg, self.vocab, self.fv, self.wf, None, 1.0, seed=4)
        self.model = LanguageModel(cfg, self.vocab, self.fv, self.wf, params)

    def test_known_factors_only(self):
        # "unlockable" is OOV; un|prefix, lock|stem, able|suffix are known
        segs = {"unlockable": ["un|prefix", "lock|stem", "able|suffix", "zz|suffix"]}
        ids = sorted([self.fv.id_of["un|prefix"], self.fv.id_of["lock|stem"],
                      self.fv.id_of["able|suffix"]])
        assert known_factors(self.fv, segs, "unlockable") == [(i, 1) for i in ids]
        q, r = self.model.compose_unknown("unlockable", segs)
        params = self.model.params
        assert np.array_equal(q, compose_vector(params.Qf, [(i, 1) for i in ids]))
        assert np.array_equal(r, compose_vector(params.Rf, [(i, 1) for i in ids]))

    def test_all_unknown_falls_back_to_unk(self):
        assert known_factors(self.fv, {}, "zzzz") == []
        assert known_factors(self.fv, None, "zzzz") == []
        assert self.model.compose_unknown("zzzz", {"zzzz": ["zz|stem"]}) == (None, None)

    def test_in_vocab_matches_compiled(self):
        Q = compile_word_table(self.wf, self.model.params.Qf)
        R = compile_word_table(self.wf, self.model.params.Rf)
        wid = self.vocab.id_of["walker"]
        q, r = self.model.compose_unknown("walker", self.segs)
        assert np.array_equal(q, Q[wid]) and np.array_equal(q, self.model.params.Q[wid])
        assert np.array_equal(r, R[wid]) and np.array_equal(r, self.model.params.R[wid])


class TestVectorExport:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        words = ["alpha", "beta", "gamma"]
        mat = rng.normal(size=(3, 4))
        path = tmp_path / "vecs.txt"
        export_vectors(path, words, mat)
        got_words, got = load_vectors(path)
        assert got_words == words
        assert np.array_equal(got, mat)

    def test_malformed_value_reports_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("alpha\t0.5 1.0\nbeta\t0.5 x1\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"vecs\.txt:2: bad value 'x1'"):
            load_vectors(path)


class TestFactorVocabularyFile:
    def test_malformed_id_reports_line(self, tmp_path):
        path = tmp_path / "factors.tsv"
        path.write_text("0\ta|surface\nx\tb|surface\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"factors\.tsv:2: bad factor id 'x'"):
            FactorVocabulary.load(path)


class TestMuFile:
    """``WordFactorization.load``, checked against ``from_rows`` on per-word counts."""

    vocab = make_vocab(5)
    factors = FactorVocabulary()
    for f in ("a|m", "b|m", "c|m"):
        factors.add(f)

    def _load(self, tmp_path, lines):
        path = tmp_path / "mu.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path, WordFactorization.load(path, self.vocab, self.factors)

    def test_load_equals_from_rows(self, tmp_path):
        rng = np.random.default_rng(6)
        vocab = make_vocab(60)
        fv, _ = random_factorization(0, 25)
        lines, rows = [], []
        for word in vocab.types:
            # factors in any order, some repeated
            items = [str(f) for f in rng.choice(fv.factors, size=int(rng.integers(1, 7)))]
            row = {}
            for item in items:
                row[fv.id_of[item]] = row.get(fv.id_of[item], 0) + 1
            rows.append(row)
            lines.append(f"{word}\t{' '.join(items)}")
        path = tmp_path / "mu.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = WordFactorization.load(path, vocab, fv)
        want = WordFactorization.from_rows(rows, len(fv))
        assert max(want.data) > 1
        for name in ("indptr", "indices", "data"):
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        assert got.num_factors == want.num_factors
        got.save(tmp_path / "again.tsv", vocab, fv)
        again = WordFactorization.load(tmp_path / "again.tsv", vocab, fv)
        assert all(np.array_equal(getattr(again, n), getattr(got, n))
                   for n in ("indptr", "indices", "data"))

    @pytest.mark.parametrize("lines, where, message", [
        # a blank line counts: the swapped words are on line 4
        (["<unk>\ta|m", "<s>\tb|m", "", "waab\ta|m", "waaa\tb|m", "waac\tc|m"], ":4:",
         "word 'waab' does not match vocabulary order"),
        # an unknown factor before a word out of order
        (["<unk>\ta|m", "<s>\tb|m", "waaa\ta|m d|m", "waac\tc|m"], ":3:",
         "unknown factor 'd|m'"),
        (["<unk>\ta|m", "<s>\tb|m", "waaa\ta|m  b|m"], ":3:", "unknown factor ''"),
        (["<unk>\ta|m", "<s>\tx|m", "", "wxxx\ta|m"], ":2:", "unknown factor 'x|m'"),
        (["<unk>\ta|m", "<s>\tb|m", "waaa\ta|m", "waab\tb|m", "waac\tc|m", "waad\ta|m"],
         ":6:", "word 'waad' does not match vocabulary order"),
        (["<unk>\ta|m", "<s>\tb|m", "waaa\ta|m"], ":", "3 rows for 5 vocabulary words"),
    ])
    def test_errors_name_the_first_bad_line(self, tmp_path, lines, where, message):
        with pytest.raises(DataError) as exc:
            self._load(tmp_path, lines)
        assert str(exc.value) == f"{tmp_path / 'mu.tsv'}{where} {message}"
