"""End-to-end CLI tests: commands, exit codes, artifacts, determinism."""

import argparse
import ast
import codecs
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from wordlm import cli
from wordlm.checkpoint import load_checkpoint
from wordlm.cli import build_parser, main
from wordlm.config import RunConfig
from wordlm.errors import WordlmError
from wordlm.vocab import WordVocab

README = Path(__file__).resolve().parents[1] / "README.md"

TOY_CFG = """\
model.layers = 1
model.heads = 2
model.hidden = 8
model.max_positions = 8
model.dropout = 0.0
train.peak_lr = 1e-3
train.warmup_steps = 2
train.total_steps = 12
train.batch_size = 4
train.seed = 3
train.sample_size = 50
eval.threshold_high = 20
eval.threshold_medium = 10
eval.threshold_low = 3
"""

# BERT's masking recipe, the neighbor count and the probe's mask rate and top-k
# list are constants in the code: each of these keys is refused as unknown, even
# at the value the code uses
REMOVED_RECIPE_KEYS = [
    (f"{key}={value}", [f"unknown key '{key}'"])
    for key, value in (("train.mask_ratio", "0.15"), ("train.replace_mask", "0.8"),
                       ("train.replace_random", "0.1"), ("train.keep_original", "0.1"),
                       ("train.neighbor_k", "10"), ("eval.mask_probability", "0.15"),
                       ("eval.topk", "1,5,10"))
]


@pytest.fixture
def workdir(tmp_path):
    words = ["sun", "moon", "star", "cloud", "rain", "wind", "snow", "fog"]
    rng = np.random.default_rng(70)
    lines = []
    for _ in range(40):
        n = rng.integers(3, 6)
        lines.append(" ".join(rng.choice(words[:6], size=n)))
    lines += ["snow fog snow", "fog snow wind"]  # rarer words for bucket spread
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_CFG, encoding="utf-8")
    return tmp_path, corpus, cfg


def run_ok(argv):
    code = main(argv)
    assert code == 0, f"command failed: {argv}"


class TestBuildVocab:
    def test_k_plus_specials_plus_header_lines(self, workdir):
        tmp, corpus, _ = workdir
        out = tmp / "vocab.tsv"
        run_ok(["build-vocab", "--corpus", str(corpus), "--k", "1000", "--out", str(out)])
        lines = out.read_text(encoding="utf-8").splitlines()
        n_words = len(set(" ".join(corpus.read_text().split("\n")).split()))
        assert lines[0].startswith("#wordvocab v1")
        assert len(lines) == 1 + 5 + min(1000, n_words)

    def test_does_not_mutate_corpus(self, workdir):
        tmp, corpus, _ = workdir
        before = corpus.read_bytes()
        run_ok(["build-vocab", "--corpus", str(corpus), "--k", "5", "--out", str(tmp / "v.tsv")])
        assert corpus.read_bytes() == before

    def test_thousand_word_corpus_gives_1006_lines(self, tmp_path):
        corpus = tmp_path / "big.txt"
        corpus.write_text(" ".join(f"tok{i:04d}" for i in range(1200)), encoding="utf-8")
        out = tmp_path / "vocab.tsv"
        run_ok(["build-vocab", "--corpus", str(corpus), "--k", "1000", "--out", str(out)])
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1006  # header + 5 + 1000

    def test_reports_the_corpus_words_it_kept(self, tmp_path, capsys):
        corpus, out = tmp_path / "small.txt", tmp_path / "vocab.tsv"
        corpus.write_text("a b c\nd e f a\n", encoding="utf-8")
        run_ok(["build-vocab", "--corpus", str(corpus), "--k", "10", "--out", str(out)])
        assert capsys.readouterr().out == (
            f"wrote 11 words (6 corpus words of 10 requested + 5 specials) to {out}\n")
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 5 + 6


class TestPretrain:
    def _vocab(self, tmp, corpus):
        vocab = tmp / "vocab.tsv"
        run_ok(["build-vocab", "--corpus", str(corpus), "--k", "50", "--out", str(vocab)])
        return vocab

    def test_two_runs_byte_identical_metrics(self, workdir):
        tmp, corpus, cfg = workdir
        vocab = self._vocab(tmp, corpus)
        outs = []
        for name in ("run1", "run2"):
            out = tmp / name
            run_ok([
                "pretrain", "--config", str(cfg), "--corpus", str(corpus),
                "--vocab", str(vocab), "--out", str(out), "--set", "train.seed=7",
            ])
            outs.append(out)
        m1 = (outs[0] / "metrics.tsv").read_bytes()
        m2 = (outs[1] / "metrics.tsv").read_bytes()
        assert m1 == m2
        assert (outs[0] / "checkpoint.ckpt").exists()
        assert (outs[0] / "effective.cfg").read_text().splitlines()[0].startswith("eval.")

    def test_corpus_byte_order_mark_changes_no_output(self, workdir):
        """A corpus saved with a UTF-8 byte-order mark builds the same vocabulary
        and trains the same run as the corpus without it."""
        tmp, corpus, cfg = workdir
        marked = tmp / "marked.txt"
        marked.write_bytes(codecs.BOM_UTF8 + corpus.read_bytes())
        for name, path in (("plain", corpus), ("marked", marked)):
            run_ok(["build-vocab", "--corpus", str(path), "--k", "50",
                    "--out", str(tmp / f"{name}.tsv")])
            run_ok(["pretrain", "--config", str(cfg), "--corpus", str(path),
                    "--vocab", str(tmp / f"{name}.tsv"), "--out", str(tmp / name)])
        assert (tmp / "marked.tsv").read_bytes() == (tmp / "plain.tsv").read_bytes()
        for artifact in ("metrics.tsv", "checkpoint.ckpt"):
            assert (tmp / "marked" / artifact).read_bytes() == (tmp / "plain" / artifact).read_bytes()

    def test_invalid_config_exits_3(self, workdir, capsys):
        tmp, corpus, cfg = workdir
        vocab = self._vocab(tmp, corpus)
        bad = tmp / "bad.cfg"
        bad.write_text(TOY_CFG + "model.depth = 9\n")
        code = main(["pretrain", "--config", str(bad), "--corpus", str(corpus),
                     "--vocab", str(vocab), "--out", str(tmp / "x")])
        assert code == 3
        assert "model.depth" in capsys.readouterr().err

    # without --word-vectors the run is direct, and there is no projection to fit
    @pytest.mark.parametrize("flag", ["--pairs"])
    def test_projected_inputs_refused_for_direct_variant(self, workdir, capsys, flag):
        tmp, corpus, cfg = workdir
        vocab = self._vocab(tmp, corpus)
        capsys.readouterr()
        out = tmp / "direct_run"
        code = main(["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                     "--vocab", str(vocab), "--out", str(out), flag, str(tmp / "nothere.npz")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "wordlm: error: --pairs needs --word-vectors\n"
        assert not out.exists()

    def test_non_finite_loss_is_one_line_without_output(self, workdir, capsys):
        tmp, corpus, cfg = workdir
        vocab = self._vocab(tmp, corpus)
        capsys.readouterr()
        out = tmp / "diverged"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings may precede it
            code = main(["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                         "--vocab", str(vocab), "--out", str(out),
                         "--set", "train.peak_lr=1e10", "--set", "train.warmup_steps=1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"wordlm: error: non-finite loss \S+ at step \d+, batch lines \[.*\]\n",
                            captured.err), captured.err
        assert not out.exists()

    def test_corpus_without_a_vocabulary_word_is_refused_by_name(self, workdir):
        tmp, corpus, cfg = workdir
        vocab = self._vocab(tmp, corpus)
        strange, out = tmp / "strange.txt", tmp / "run"
        # brackets peel off "[MASK]", and "sun" comes 8th: past the 6 words the window holds
        strange.write_text("[MASK] [PAD]\n\nnothing here is known but this: sun\n", encoding="utf-8")
        err = _refusal(["pretrain", "--config", cfg, "--corpus", strange, "--vocab", vocab,
                        "--out", out])
        assert err == (f"wordlm: error: corpus {strange}, vocabulary {vocab}: corpus contains "
                       "no maskable sequences: no line holds a vocabulary word among its first "
                       "6 words\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting,keys",
        [
            # the masking recipe is BERT's, fixed in training.py
            ("train.mask_ratio=2", ["unknown key 'train.mask_ratio'"]),
            ("train.replace_mask=0.5", ["unknown key 'train.replace_mask'"]),
            ("train.warmup_steps=12", ["train.warmup_steps", "train.total_steps"]),
            ("train.batch_size=0", ["train.batch_size"]),
            ("model.hidden=15", ["model.hidden", "model.heads"]),
            ("model.dropout=1.5", ["model.dropout"]),
            ("model.variant=bogus", ["model.variant"]),
            ("train.max_length=20", ["train.max_length"]),  # the window is model.max_positions
            ("vocab.k=3", ["vocab.k"]),
            ("model.gelu_approx=false", ["model.gelu_approx"]),  # removed with the tanh GELU
            # the neighbors rule is reported together with the views' violations
            ("train.use_neighbors=true train.batch_size=0",
             ["train.batch_size", "train.use_neighbors", "--word-vectors"]),
            # the neighbor index is built once, so the word table it ranks must not train
            ("train.use_neighbors=true", ["train.use_neighbors", "--word-vectors"]),
            ("train.max_length=2", ["train.max_length"]),
            # every view's violations are reported by one run
            ("train.warmup_steps=12 train.batch_size=0 model.heads=3",
             ["train.warmup_steps", "train.total_steps", "train.batch_size", "model.hidden",
              "model.heads"]),
            ("model.max_positions=2", ["model.max_positions"]),  # [CLS] + one word + [SEP] needs 3
            # --word-vectors picks the word table, and train.seed seeds the initialization
            ("model.variant=projected", ["unknown key 'model.variant'"]),
            ("model.embed_dim=8", ["unknown key 'model.embed_dim'"]),
            ("model.freeze_embeddings=true", ["unknown key 'model.freeze_embeddings'"]),
            ("model.seed=3", ["unknown key 'model.seed'"]),
            *REMOVED_RECIPE_KEYS,
            # zero layers is a legal model: the embedding alone
            ("model.layers=-1", ["model.layers"]),
            ("model.hidden=0", ["model.hidden"]),
            ("model.hidden=-8", ["model.hidden"]),
            # a NaN or infinite learning rate is a setting's fault, not a batch's
            ("train.peak_lr=nan", ["train.peak_lr"]),
            ("train.peak_lr=inf", ["train.peak_lr"]),
            # numpy seeds a generator from non-negative integers only
            ("train.seed=-1", ["train.seed"]),
        ],
    )
    def test_invalid_setting_exits_3_before_output(self, workdir, capsys, setting, keys):
        tmp, corpus, cfg = workdir
        vocab = self._vocab(tmp, corpus)
        capsys.readouterr()
        out = tmp / "bad_run"
        overrides = [arg for item in setting.split() for arg in ("--set", item)]
        code = main(["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                     "--vocab", str(vocab), "--out", str(out), *overrides])
        assert code == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and lines
        assert all(line.startswith("wordlm: config error: ") for line in lines), lines
        assert all(any(key in line for key in keys) for line in lines), lines
        assert all(key in captured.err for key in keys), lines
        assert not out.exists()


def _refusal(argv):
    """stderr of ``wordlm argv`` in a fresh interpreter, which must exit 1 with
    no stdout and one line on stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "wordlm.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (1, "", 1), proc.stderr
    return proc.stderr


def _pairs_refusal(workdir, arrays):
    """The pairs file of ``arrays`` and the stderr of ``pretrain --pairs`` given
    it, with vectors 3 wide and ``model.hidden`` 8: a refusal on one line, made
    before the corpus (here missing) is read, that writes nothing."""
    tmp, corpus, cfg = workdir
    vocab, vectors, pairs, out = (tmp / name for name in
                                  ("vocab.tsv", "vectors.npz", "pairs.npz", "run"))
    run_ok(["build-vocab", "--corpus", str(corpus), "--k", "50", "--out", str(vocab)])
    np.savez(vectors, vectors=np.ones((WordVocab.load(vocab).size, 3)))
    np.savez(pairs, **arrays)
    err = _refusal(["pretrain", "--config", cfg, "--corpus", tmp / "none.txt", "--vocab", vocab,
                    "--out", out, "--word-vectors", vectors, "--pairs", pairs])
    assert not out.exists()
    return pairs, err


def _with_rows(array, values):
    """``array`` with each row ``i`` of ``values`` set to ``values[i]``."""
    for row, value in values.items():
        array[row] = value
    return array


class TestProjectedPretrain:
    """``pretrain --word-vectors`` trains the projected variant: the file's vectors,
    frozen, through a learned map to ``model.hidden``."""

    WIDTH = 6

    @pytest.fixture
    def inputs(self, workdir):
        tmp, corpus, cfg = workdir
        vocab = tmp / "vocab.tsv"
        run_ok(["build-vocab", "--corpus", str(corpus), "--k", "50", "--out", str(vocab)])
        rng = np.random.default_rng(72)
        vectors, pairs = tmp / "vectors.npz", tmp / "pairs.npz"
        np.savez(vectors, vectors=rng.standard_normal((WordVocab.load(vocab).size, self.WIDTH)))
        np.savez(pairs, v_in=rng.standard_normal((20, self.WIDTH)),
                 v_out=rng.standard_normal((20, 8)))
        return tmp, corpus, cfg, vocab, vectors, pairs

    # "projection": the map starts from the least-squares fit to --pairs
    @pytest.mark.parametrize("projection,neighbors", [(False, False), (True, False), (True, True)],
                             ids=["vectors", "vectors-projection", "vectors-projection-neighbors"])
    def test_pretrain_then_probe_and_cloze(self, inputs, capsys, projection, neighbors):
        tmp, corpus, cfg, vocab, vectors, pairs = inputs
        out = tmp / "run"
        capsys.readouterr()
        run_ok(["pretrain", "--config", str(cfg), "--corpus", str(corpus), "--vocab", str(vocab),
                "--out", str(out), "--word-vectors", str(vectors),
                *(["--pairs", str(pairs)] if projection else []),
                *(["--set", "train.use_neighbors=true"] if neighbors else [])])
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1 + projection and printed[-1].startswith("trained 12 steps")
        assert not projection or printed[0].startswith(
            f"fitted {self.WIDTH}x8 projection on 20 pairs, final mse ")
        ckpt = out / "checkpoint.ckpt"
        run_ok(["inspect-checkpoint", str(ckpt)])
        lines = capsys.readouterr().out.splitlines()
        assert {"model_config variant projected", f"model_config embed_dim {self.WIDTH}",
                "model_config freeze_embeddings true"} <= set(lines)
        with np.load(vectors) as z:  # the word table is the file's, unchanged by training
            np.testing.assert_array_equal(
                load_checkpoint(ckpt).model.params["embedding.word"].data,
                z["vectors"].astype(np.float32))
        run_ok(["probe", "--config", str(cfg), "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--corpus", str(corpus), "--out", str(tmp / "probe_out")])
        items = tmp / "cloze.jsonl"
        items.write_text(CLOZE + '"answer_index": 0}\n')
        run_ok(["eval-cloze", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--items", str(items), "--out", str(tmp / "cloze_out")])

    @pytest.mark.parametrize("shape", [(13,), (12, 6), (13, 0)],
                             ids=["vectors-1d", "vectors-wrong-rows", "vectors-no-columns"])
    def test_bad_vectors_refused_before_output(self, inputs, capsys, shape):
        tmp, corpus, cfg, vocab, _, _ = inputs
        bad, out = tmp / "bad.npz", tmp / "run"
        np.savez(bad, vectors=np.ones(shape))
        capsys.readouterr()
        assert main(["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                     "--vocab", str(vocab), "--out", str(out), "--word-vectors", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"wordlm: error: {bad}: array 'vectors' has shape {shape}, "
                                "expected [13, E >= 1]: one row per vocabulary word\n")
        assert not out.exists()

    def test_param_count(self, inputs, capsys):
        tmp, corpus, cfg, vocab, vectors, _ = inputs
        capsys.readouterr()
        run_ok(["param-count", "--config", str(cfg), "--vocab-size", "13",
                "--word-vectors", str(vectors)])
        counts = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert int(counts["embedding"]) == 13 * self.WIDTH + self.WIDTH * 8
        assert main(["param-count", "--config", str(cfg), "--vocab-size", "14",
                     "--word-vectors", str(vectors)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"wordlm: error: {vectors}: array 'vectors' has shape (13, 6), "
                                "expected [14, E >= 1]: one row per vocabulary word\n")

    @pytest.mark.parametrize(
        "arrays,flags,message",
        [
            ({"vectors": np.full((13, WIDTH), None)}, [],
             "array 'vectors' has dtype object, expected integers or floats"),
            ({"vectors": np.ones((13, WIDTH), complex)}, [],
             "array 'vectors' has dtype complex128, expected integers or floats"),
            ({"vectors": _with_rows(np.ones((13, WIDTH)), {7: np.nan, 9: np.inf})}, [],
             "row 7 of array 'vectors' holds a NaN or infinity"),
            ({"vectors": _with_rows(np.ones((13, WIDTH)), {9: -np.inf})},
             ["--set", "train.use_neighbors=true"],
             "row 9 of array 'vectors' holds a NaN or infinity"),
            # the specials' rows may be zero: they are never a target
            ({"vectors": _with_rows(np.ones((13, WIDTH)), {0: 0, 4: 0, 6: 0, 11: 0})},
             ["--set", "train.use_neighbors=true"],
             "row 6 of the embedding table is all zeros, and a zero vector has no cosine "
             "neighbors"),
            # the projection's cases: faults of the --pairs it is fitted on
            ({"v_in": _with_rows(np.ones((10, WIDTH)), {2: np.nan}), "v_out": np.ones((10, 8))},
             [], "row 2 of array 'v_in' holds a NaN or infinity"),
            # float64 values a float32 cast would turn into infinities
            ({"vectors": _with_rows(np.ones((13, WIDTH)), {7: 1e300, 9: np.nan})}, [],
             "row 7 of array 'vectors' holds a value outside float32 range"),
            ({"v_in": np.ones((10, WIDTH)), "v_out": _with_rows(np.ones((10, 8)), {2: -1e300})},
             [], "row 2 of array 'v_out' holds a value outside float32 range"),
            ({"v_in": np.ones((10, WIDTH - 1)), "v_out": np.ones((10, 8))}, [],
             f"arrays 'v_in' and 'v_out' have shapes (10, {WIDTH - 1}) and (10, 8), expected "
             f"[N, {WIDTH}] and [N, 8] with the same N >= 1: the vectors' width and model.hidden"),
            ({"v_in": np.ones((10, WIDTH)), "v_out": np.ones((10, 8), complex)}, [],
             "array 'v_out' has dtype complex128, expected integers or floats"),
        ],
        ids=["vectors-object", "vectors-complex", "vectors-nan", "vectors-inf-neighbors",
             "vectors-zero-row-neighbors", "projection-nan", "vectors-beyond-float32",
             "projection-beyond-float32", "projection-wrong-shape", "projection-complex"],
    )
    def test_bad_values_refused_before_the_corpus(self, inputs, arrays, flags, message):
        tmp, corpus, cfg, vocab, vectors, _ = inputs
        bad, out = tmp / "bad.npz", tmp / "run"
        np.savez(bad, **arrays)
        files = ["--word-vectors", bad] if "vectors" in arrays else \
            ["--word-vectors", vectors, "--pairs", bad]
        # a corpus that does not exist shows the refusal comes before it is read
        err = _refusal(["pretrain", "--config", cfg, "--corpus", tmp / "none.txt",
                        "--vocab", vocab, "--out", out, *files, *flags])
        assert err == f"wordlm: error: {bad}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["without-v_out", "v_in-not-npy"])
    def test_pairs_file_without_its_arrays_refused(self, inputs, fault):
        tmp, corpus, cfg, vocab, vectors, pairs = inputs
        bad, out = tmp / "bad.npz", tmp / "run"
        with zipfile.ZipFile(pairs) as archive, zipfile.ZipFile(bad, "w") as copy:
            if fault == "v_in-not-npy":
                copy.writestr("v_in.npy", b"not an array")
                copy.writestr("v_out.npy", archive.read("v_out.npy"))
            else:
                copy.writestr("v_in.npy", archive.read("v_in.npy"))
        # a corpus that does not exist shows the refusal comes before it is read
        err = _refusal(["pretrain", "--config", cfg, "--corpus", tmp / "none.txt",
                        "--vocab", vocab, "--out", out, "--word-vectors", vectors, "--pairs", bad])
        assert err.startswith(f"wordlm: error: {bad} does not contain array 'v_out'"
                              if fault == "without-v_out" else
                              f"wordlm: error: {bad}: array 'v_in' is not a .npy array: "), err
        assert not out.exists()

    def test_settings_are_checked_before_the_vectors_are_read(self, inputs, capsys):
        """A bad setting exits 3 naming its keys before the vectors are read and
        scanned: their NaN row would exit 1."""
        tmp, corpus, cfg, vocab, _, _ = inputs
        bad, out = tmp / "nan.npz", tmp / "run"
        np.savez(bad, vectors=_with_rows(np.ones((13, self.WIDTH)), {7: np.nan}))
        capsys.readouterr()
        assert main(["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                     "--vocab", str(vocab), "--out", str(out), "--word-vectors", str(bad),
                     "--set", "model.heads=3"]) == 3
        assert capsys.readouterr() == (
            "", "wordlm: config error: model.hidden 8 not divisible by model.heads 3\n")
        assert not out.exists()

    def test_truncated_vectors_refused_before_output(self, inputs, capsys):
        tmp, corpus, cfg, vocab, vectors, _ = inputs
        bad, out = tmp / "bad.npz", tmp / "run"
        with zipfile.ZipFile(vectors) as archive:
            member = archive.read("vectors.npy")
        with zipfile.ZipFile(bad, "w") as archive:  # the header is whole, the data is not
            archive.writestr("vectors.npy", member[:-8])
        capsys.readouterr()
        assert main(["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                     "--vocab", str(vocab), "--out", str(out), "--word-vectors", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"wordlm: error: {re.escape(str(bad))}: array 'vectors' cannot be "
                            r"read: EOF: reading array data.*\n", captured.err), captured.err
        assert not out.exists()

    @pytest.mark.parametrize("dtype", [object, complex])
    def test_param_count_refuses_vectors_of_no_real_type(self, inputs, dtype):
        tmp, _, cfg, _, _, _ = inputs
        bad = tmp / "bad.npz"
        np.savez(bad, vectors=np.ones((13, self.WIDTH), dtype))
        err = _refusal(["param-count", "--config", cfg, "--vocab-size", "13",
                        "--word-vectors", bad])
        assert err == (f"wordlm: error: {bad}: array 'vectors' has dtype {np.dtype(dtype)}, "
                       "expected integers or floats\n")

    def test_param_count_reads_only_the_vectors_header(self, tmp_path, capsys):
        vectors = tmp_path / "vectors.npz"
        np.savez(vectors, vectors=np.ones((50_005, 40), np.float32))  # 8 MB
        tracemalloc.start()
        try:
            run_ok(["param-count", "--vocab-size", "50005", "--word-vectors", str(vectors)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counts = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert int(counts["embedding"]) == 50_005 * 40 + 40 * 768
        assert peak < 50_005 * 40 * 4 / 20, peak

    def test_neighbors_refuse_a_vocabulary_of_at_most_ten_words(self, inputs):
        tmp, corpus, cfg, _, _, _ = inputs
        small, vectors, out = tmp / "small.tsv", tmp / "small.npz", tmp / "run"
        run_ok(["build-vocab", "--corpus", str(corpus), "--k", "5", "--out", str(small)])
        np.savez(vectors, vectors=np.random.default_rng(73).standard_normal((10, self.WIDTH)))
        # a corpus that does not exist shows the refusal comes before it is read
        err = _refusal(["pretrain", "--config", cfg, "--corpus", tmp / "none.txt",
                        "--vocab", small, "--out", out, "--word-vectors", vectors,
                        "--set", "train.use_neighbors=true"])
        assert err == (f"wordlm: error: {vectors}: embedding table has 10 rows, but the "
                       "neighbor search needs more than 10\n")
        assert not out.exists()

    def test_eleven_words_pass_the_neighbor_check(self, inputs):
        tmp, corpus, cfg, _, _, _ = inputs
        small, vectors = tmp / "small.tsv", tmp / "small.npz"
        run_ok(["build-vocab", "--corpus", str(corpus), "--k", "6", "--out", str(small)])
        np.savez(vectors, vectors=np.ones((11, self.WIDTH)))
        missing = tmp / "none.txt"  # the run gets as far as the corpus
        err = _refusal(["pretrain", "--config", cfg, "--corpus", missing, "--vocab", small,
                        "--out", tmp / "run", "--word-vectors", vectors,
                        "--set", "train.use_neighbors=true"])
        assert err.startswith("wordlm: error: ") and str(missing) in err

    def test_pairs_start_the_map_from_their_least_squares_fit(self, inputs, capsys, monkeypatch):
        """``--pairs`` fits the projection by least squares, prints the fit's
        mean squared error and builds the model with it: the map training
        starts from."""
        tmp, corpus, cfg, vocab, vectors, pairs = inputs
        with np.load(pairs) as z:
            v_in, v_out = z["v_in"].astype(np.float32), z["v_out"].astype(np.float32)
        started = []

        def stop(corpus_lines, vocab, model, cfg, **kwargs):
            started.append(model.params["embedding.projection"].data.copy())
            raise WordlmError("stopped before the first step")

        monkeypatch.setattr(cli, "run_training", stop)
        capsys.readouterr()
        assert main(["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                     "--vocab", str(vocab), "--out", str(tmp / "run"),
                     "--word-vectors", str(vectors), "--pairs", str(pairs)]) == 1
        (w,) = started
        expected = np.linalg.lstsq(v_in.astype(np.float64), v_out.astype(np.float64), rcond=None)[0]
        np.testing.assert_allclose(w, expected, atol=1e-5)
        mse = np.float32(((v_in @ w - v_out) ** 2).mean(dtype=np.float64))
        assert capsys.readouterr().out == (
            f"fitted {self.WIDTH}x8 projection on 20 pairs, final mse {mse:.6g}\n")


def test_readme_commands_parse(tmp_path):
    readme = README.read_text(encoding="utf-8")
    configs = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert configs
    for text in configs:
        path = tmp_path / "readme.cfg"
        path.write_text(text, encoding="utf-8")
        RunConfig.load(path)  # an unknown key or bad value raises ConfigError
    blocks = re.findall(r"```bash\n(.*?)```", readme, re.S)
    commands = [
        words[1:]
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        for words in [shlex.split(line, comments=True)]
        if words[:1] == ["wordlm"]
    ]
    assert commands
    parser = build_parser()
    for words in commands:
        try:
            parser.parse_args(words)
        except SystemExit:
            pytest.fail(f"README command does not parse: wordlm {shlex.join(words)}")


def test_every_flag_is_read_by_its_command():
    """Each flag of a subcommand is read as ``args.<dest>`` by its command
    function or by a ``cli`` function that it hands ``args`` to."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def read_by(name):
        read = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "args":
                read.add(node.attr)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in functions \
                    and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args):
                read |= read_by(node.func.id)
        return read

    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    unread = [
        f"{command} {action.dest}"
        for command, sub in commands.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        and action.dest not in read_by(sub.get_default("fn").__name__)
    ]
    assert unread == []


@pytest.fixture
def trained(workdir):
    tmp, corpus, cfg = workdir
    vocab = tmp / "vocab.tsv"
    run_ok(["build-vocab", "--corpus", str(corpus), "--k", "50", "--out", str(vocab)])
    out = tmp / "run"
    run_ok(["pretrain", "--config", str(cfg), "--corpus", str(corpus),
            "--vocab", str(vocab), "--out", str(out)])
    return tmp, corpus, cfg, vocab, out / "checkpoint.ckpt"


class TestEvalCommands:
    def test_probe_prints_bucket_rows(self, trained, capsys):
        tmp, corpus, cfg, vocab, ckpt = trained
        run_ok(["probe", "--config", str(cfg), "--checkpoint", str(ckpt),
                "--vocab", str(vocab), "--corpus", str(corpus),
                "--out", str(tmp / "probe_out")])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("bucket")
        assert [l.split("\t")[0] for l in lines[1:]] == ["High", "Medium", "Low", "Rare"]
        assert (tmp / "probe_out" / "probe_report.tsv").exists()
        assert (tmp / "probe_out" / "probes.jsonl").exists()
        assert (tmp / "probe_out" / "effective.cfg").exists()

    def test_byte_order_mark_in_config_vocab_and_items_ignored(self, trained, capsys):
        """A config, vocabulary and cloze JSONL saved with a UTF-8 byte-order
        mark each load as the file without it."""
        tmp, corpus, cfg, vocab, ckpt = trained
        items = tmp / "cloze.jsonl"
        items.write_text(CLOZE + '"answer_index": 0}\n')
        marked = {}
        for path in (cfg, vocab, items):
            marked[path] = tmp / f"marked-{path.name}"
            marked[path].write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert WordVocab.load(marked[vocab]).words == WordVocab.load(vocab).words
        capsys.readouterr()
        outputs = []
        for c, v, i in ((cfg, vocab, items), (marked[cfg], marked[vocab], marked[items])):
            run_ok(["probe", "--config", str(c), "--checkpoint", str(ckpt), "--vocab", str(v),
                    "--corpus", str(corpus)])
            run_ok(["eval-cloze", "--checkpoint", str(ckpt), "--vocab", str(v), "--items", str(i)])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("bucket\t") and "cloze accuracy" in outputs[0]

    def test_probe_buckets_by_the_vocabulary_count(self, trained, capsys):
        """A word whose count in the vocabulary's corpus reaches
        eval.threshold_high is High, though the probe corpus holds it once."""
        from wordlm.seeding import substream

        tmp, corpus, cfg, vocab, ckpt = trained
        loaded = WordVocab.load(vocab)
        count = int(loaded.frequency[loaded.lookup("sun")])
        assert count > 10  # above TOY_CFG's eval.threshold_medium
        probe_corpus, out = tmp / "probe.txt", tmp / "probe_out"
        probe_corpus.write_text("sun\n", encoding="utf-8")
        # the first seed whose High stream masks the one High word (p = 0.15)
        seed = next(s for s in range(100) if substream(s, "probe-High").random() < 0.15)
        run_ok(["probe", "--config", str(cfg), "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--corpus", str(probe_corpus), "--out", str(out),
                "--set", f"eval.threshold_high={count}", "--set", f"train.seed={seed}"])
        rows = [line.split("\t")[:3] for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["High", "1", "0"], ["Medium", "0", "0"], ["Low", "0", "0"],
                        ["Rare", "0", "0"]]
        assert json.loads((out / "probes.jsonl").read_text()) == {
            "words": ["sun"], "masked_positions": [0], "gold_words": ["sun"], "bucket": "High"}

    def test_probe_accepts_prebuilt_probes_and_matches_library(self, trained, capsys):
        from wordlm.checkpoint import load_checkpoint
        from wordlm.evaluation import ProbeExample, load_records, probe_topk
        from wordlm.vocab import WordVocab

        tmp, corpus, cfg, vocab, ckpt = trained
        probes = tmp / "probes.jsonl"
        probes.write_text(
            json.dumps({"words": ["sun", "moon"], "masked_positions": [0],
                        "gold_words": ["sun"], "bucket": "High"}) + "\n"
            + json.dumps({"words": ["rain", "wind", "fog"], "masked_positions": [1, 2],
                          "gold_words": ["wind", "fog"], "bucket": "Low"}) + "\n"
        )
        run_ok(["probe", "--config", str(cfg), "--checkpoint", str(ckpt),
                "--vocab", str(vocab), "--probes", str(probes)])
        out = capsys.readouterr().out.strip().splitlines()

        report = probe_topk(
            load_checkpoint(ckpt).model, WordVocab.load(vocab),
            load_records(probes, ProbeExample), ks=(1, 5, 10),
        )
        table = {row.split("\t")[0]: row.split("\t") for row in out[1:]}
        for bucket in ("High", "Low"):
            assert int(table[bucket][1]) == report["total"][bucket]
            assert float(table[bucket][3]) == pytest.approx(report["accuracy"][bucket][1], abs=1e-4)

    @pytest.mark.parametrize(
        "setting,keys",
        [
            ("eval.threshold_high=1",
             ["eval.threshold_high", "eval.threshold_medium", "eval.threshold_low"]),
            ("eval.threshold_low=0",
             ["eval.threshold_high", "eval.threshold_medium", "eval.threshold_low"]),
            ("eval.mask_probability=2", ["unknown key 'eval.mask_probability'"]),
            ("eval.mask_probability=0", ["unknown key 'eval.mask_probability'"]),
            ("eval.topk=0,5", ["unknown key 'eval.topk'"]),
            # the window is the checkpoint's model.max_positions
            ("train.max_length=2", ["unknown key 'train.max_length'"]),
            ("train.max_length=20", ["unknown key 'train.max_length'"]),
            *REMOVED_RECIPE_KEYS,
            # train.seed seeds the probe-set streams
            ("train.seed=-1", ["train.seed"]),
        ],
    )
    def test_probe_invalid_setting_exits_3_before_reading(self, workdir, capsys, setting, keys):
        tmp, corpus, cfg = workdir
        out = tmp / "probe_out"
        # none of the inputs exist: the settings must be rejected before any is read
        code = main(["probe", "--config", str(cfg), "--checkpoint", str(tmp / "none.ckpt"),
                     "--vocab", str(tmp / "none.tsv"), "--corpus", str(tmp / "none.txt"),
                     "--out", str(out), "--set", setting])
        assert code == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, lines
        assert lines[0].startswith("wordlm: config error: ")
        assert all(key in lines[0] for key in keys), lines
        assert not out.exists()

    def test_eval_cloze(self, trained, capsys):
        tmp, corpus, cfg, vocab, ckpt = trained
        items = tmp / "cloze.jsonl"
        items.write_text(json.dumps({
            "passage_words": ["sun", "[BLANK]", "star"],
            "options": ["moon", "rain", "wind", "cloud"],
            "answer_index": 0,
        }) + "\n")
        run_ok(["eval-cloze", "--checkpoint", str(ckpt),
                "--vocab", str(vocab), "--items", str(items)])
        assert "cloze accuracy" in capsys.readouterr().out

    def test_inspect_checkpoint(self, trained, capsys):
        tmp, corpus, cfg, vocab, ckpt = trained
        run_ok(["inspect-checkpoint", str(ckpt)])
        out = capsys.readouterr().out
        assert "step 12" in out
        assert "tensor embedding.word" in out
        # the manifest's own lines, the layer-norm epsilon spelled as ever
        assert [line for line in out.splitlines() if line.startswith("model_config ")] == [
            f"model_config {line}" for line in (
                "vocab_size 13", "num_layers 1", "num_heads 2", "hidden 8", "embed_dim 8",
                "max_positions 8", "variant direct", "freeze_embeddings false", "dropout 0.0",
                "layer_norm_eps 1e-05")]

    def test_param_count(self, capsys):
        run_ok(["param-count", "--vocab-size", "500005"])
        out = capsys.readouterr().out
        counts = {line.split("\t")[0]: int(line.split("\t")[1]) for line in out.strip().splitlines()}
        assert abs(counts["transformer"] - 85e6) / 85e6 < 0.02
        assert abs(counts["embedding"] - 384e6) / 384e6 < 0.02

    def test_param_count_refuses_vocab_size_below_specials_by_flag(self, capsys):
        """--vocab-size is a flag, not a key: refused with exit 1, as --steps 0 is."""
        assert main(["param-count", "--vocab-size", "3"]) == 1
        assert capsys.readouterr() == ("", "wordlm: error: --vocab-size must be >= 5, got 3\n")

    def test_param_count_invalid_model_exits_3(self, capsys):
        assert main(["param-count", "--vocab-size", "100", "--set", "model.heads=7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "wordlm: config error: model.hidden 768 not divisible by model.heads 7\n"
        )

    @pytest.mark.parametrize(
        "settings,line",
        [
            (["model.hidden=-8", "model.heads=2"], "model.hidden -8 must be positive"),
            (["model.hidden=0"], "model.hidden 0 must be positive"),
            (["model.layers=-3"], "model.layers -3 must be >= 0"),
        ],
        ids=["hidden-negative", "hidden-zero", "layers-negative"],
    )
    def test_param_count_model_size_below_range_exits_3(self, capsys, settings, line):
        overrides = [arg for item in settings for arg in ("--set", item)]
        assert main(["param-count", "--vocab-size", "100", *overrides]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"wordlm: config error: {line}\n"


# a cloze item up to its answer_index, which each case below completes
CLOZE = '{"passage_words": ["sun", "[BLANK]"], "options": ["moon", "rain", "wind", "fog"], '
INT_AT_1 = ":1: answer_index must be an integer, got "


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        # the removed eval-tag and eval-span commands are unknown commands too
        for argv in (["frobnicate"], ["eval-tag", "--pred", "p", "--gold", "g"],
                     ["eval-span", "--pred", "p", "--gold", "g"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["build-vocab", "--corpus", "x", "--k", "1", "--out", "y", "--bogus"])
        assert exc.value.code == 2

    def test_missing_file_is_plain_error(self, tmp_path, capsys):
        code = main(["build-vocab", "--corpus", str(tmp_path / "nope.txt"),
                     "--k", "5", "--out", str(tmp_path / "v.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("wordlm: error:") and err.count("\n") == 1

    def test_corrupt_checkpoint_is_plain_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"#wordlm-checkpoint v1\nstep x\npayload_bytes 0\n---\n")
        assert main(["inspect-checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"wordlm: error: {path}:2:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "case,content,where",
        [
            ("pretrain", "#wordvocab v1 lowercase=true\n[PAD]\t0\n[UNK]\tmany\n", ":3:"),
            ("pretrain", "#wordvocab v1 lowercase=true\n[PAD]\t0\n[UNK]\t-7\n",
             ":3: frequency '-7' is negative\n"),
            ("pairs", "not an archive\n", ": not an npz archive: "),
            ("eval-cloze", CLOZE + '"answer_index": 0}\n{"passage_words": [\n', ":2: invalid JSON"),
            ("eval-cloze", CLOZE[:-2] + "}\n", ":1: missing fields ['answer_index']"),
            ("eval-cloze", CLOZE + '"answer_index": 0}\n' + CLOZE + '"answer_index": "x"}\n',
             ":2: answer_index must be an integer, got 'x'"),
            ("eval-cloze", CLOZE + '"answer_index": null}\n', INT_AT_1 + "None"),
            ("eval-cloze", CLOZE + '"answer_index": 2.7}\n', INT_AT_1 + "2.7"),
            ("eval-cloze", CLOZE + '"answer_index": true}\n', INT_AT_1 + "True"),
            ("eval-cloze", CLOZE + '"answer_index": 0, "score": 0.9}\n', ":1: unknown fields ['score']"),
            ("eval-cloze", "5\n", ":1: not a JSON object"),
            ("eval-cloze", '{"passage_words": ["[BLANK]"], "options": ["w", "x", "y", 7], '
             '"answer_index": 0}\n', ":1: options must be a list of strings, got ['w', 'x', 'y', 7]"),
            ("eval-cloze", '{"passage_words": 5, "options": ["w", "x", "y", "z"], "answer_index": 0}\n',
             ":1: passage_words must be a list of strings, got 5"),
            ("eval-cloze", '{"passage_words": "a [BLANK] b", "options": ["w", "x", "y", "z"], '
             '"answer_index": 0}\n', ":1: passage_words must be a list of strings, got 'a [BLANK] b'"),
            ("eval-cloze", '{"passage_words": ["[BLANK]"], "options": "wxyz", "answer_index": 0}\n',
             ":1: options must be a list of strings, got 'wxyz'"),
            # well-typed fields, but an item that checks itself and fails
            ("eval-cloze", '{"passage_words": ["sun"], "options": ["w", "x", "y", "z"], '
             '"answer_index": 0}\n', ":1: passage must contain exactly one [BLANK]\n"),
        ],
        # the ids from span-json to tag-field-type name the prediction files these loader
        # cases were first written against; they now feed the same faults in cloze items
        ids=["vocab-frequency", "vocab-negative-frequency", "npz", "span-json", "span-fields",
             "span-string", "span-null", "span-float", "span-bool", "span-unknown-field",
             "gold-not-object", "tag-field-type", "cloze-passage-int", "cloze-passage-string",
             "cloze-options-string", "cloze-no-blank"],
    )
    def test_malformed_input_is_plain_error(self, workdir, capsys, case, content, where):
        tmp, corpus, cfg = workdir
        bad, out = tmp / "bad", tmp / "out"
        bad.write_text(content)
        vocab, vectors = tmp / "vocab.tsv", tmp / "vectors.npz"
        if case == "pairs":  # a vocabulary and vectors that pass, so the pairs are at fault
            run_ok(["build-vocab", "--corpus", str(corpus), "--k", "50", "--out", str(vocab)])
            np.savez(vectors, vectors=np.ones((WordVocab.load(vocab).size, 3)))
        argv = {
            "pretrain": ["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                         "--vocab", str(bad), "--out", str(out)],
            "pairs": ["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                      "--vocab", str(vocab), "--out", str(out), "--word-vectors", str(vectors),
                      "--pairs", str(bad)],
            # the items are read first: neither the vocabulary nor the checkpoint exists
            "eval-cloze": ["eval-cloze", "--checkpoint", str(tmp / "none.ckpt"),
                           "--vocab", str(tmp / "none.tsv"), "--items", str(bad), "--out", str(out)],
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"wordlm: error: {bad}{where}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "probe"])
    def test_undecodable_corpus_line_is_plain_error(self, trained, capsys, command):
        tmp, corpus, cfg, vocab, ckpt = trained
        bad, out = tmp / "bad.txt", tmp / "out"
        bad.write_bytes(b"sun moon\n\xff\xfe bad\nstar\n")
        capsys.readouterr()
        argv = {
            "pretrain": ["pretrain", "--config", str(cfg), "--corpus", str(bad),
                         "--vocab", str(vocab), "--out", str(out)],
            "probe": ["probe", "--config", str(cfg), "--checkpoint", str(ckpt), "--vocab", str(vocab),
                      "--corpus", str(bad), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"wordlm: error: {bad}:2: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "second,message",
        [
            # the checkpoint encodes model.max_positions = 8 positions: 6 words
            ({"passage_words": ["sun"] * 15 + ["[BLANK]"], "options": ["moon", "rain", "wind", "fog"]},
             "blank position falls outside the encoded window"),
            ({"passage_words": ["sun", "[BLANK]"], "options": ["a", "b", "c", "d"]},
             "every cloze option is out of vocabulary"),
            # the vocabulary is lowercased: both spellings are one id, whose tie
            # would always go to the first
            ({"passage_words": ["sun", "[BLANK]"], "options": ["Rain", "rain", "wind", "fog"]},
             "options 'Rain' and 'rain' are one vocabulary word"),
        ],
        ids=["blank-outside-window", "options-out-of-vocabulary", "options-one-word"],
    )
    def test_unscorable_cloze_item_is_named(self, trained, capsys, second, message):
        tmp, corpus, cfg, vocab, ckpt = trained
        items, out = tmp / "cloze.jsonl", tmp / "out"
        good = {"passage_words": ["sun", "[BLANK]"], "options": ["moon", "rain", "wind", "fog"]}
        items.write_text("".join(json.dumps({**item, "answer_index": 0}) + "\n"
                                 for item in (good, second)))
        capsys.readouterr()
        assert main(["eval-cloze", "--checkpoint", str(ckpt), "--vocab",
                     str(vocab), "--items", str(items), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"wordlm: error: {items}: item 2: {message}\n"
        assert not out.exists()

    def test_cloze_window_is_the_checkpoints_max_positions(self, trained, capsys):
        """max_positions = 8 encodes [CLS], 6 words and [SEP]: a blank that is
        the 6th word is scored, and one that is the 7th is outside the window."""
        tmp, corpus, cfg, vocab, ckpt = trained
        options = {"options": ["moon", "rain", "wind", "fog"], "answer_index": 0}
        sixth = json.dumps({"passage_words": ["sun"] * 5 + ["[BLANK]"], **options}) + "\n"
        seventh = json.dumps({"passage_words": ["sun"] * 6 + ["[BLANK]"], **options}) + "\n"
        items, out = tmp / "cloze.jsonl", tmp / "out"
        items.write_text(sixth)
        capsys.readouterr()
        run_ok(["eval-cloze", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--items", str(items), "--out", str(out)])
        assert capsys.readouterr().out.endswith(" over 1 items\n")
        assert [p.name for p in out.iterdir()] == ["cloze_report.tsv"]  # no setting to echo
        items.write_text(sixth + seventh)
        assert main(["eval-cloze", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                     "--items", str(items)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"wordlm: error: {items}: item 2: "
                                "blank position falls outside the encoded window\n")

    @pytest.mark.parametrize(
        "argv",
        [["pretrain", "--corpus", "c", "--vocab", "v", "--out", "o", "--seed", "7"],
         ["eval-cloze", "--checkpoint", "c", "--vocab", "v", "--items", "i", "--config", "x"],
         ["eval-cloze", "--checkpoint", "c", "--vocab", "v", "--items", "i", "--set", "k=v"],
         ["pretrain", "--corpus", "c", "--vocab", "v", "--out", "o", "--word-vectors", "w",
          "--projection", "p"]],
        ids=["pretrain-seed", "eval-cloze-config", "eval-cloze-set", "pretrain-projection"],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_pretrain_projection_command_is_gone(self, tmp_path, capsys):
        """``pretrain --pairs`` fits the projection where it is used, so the
        command that wrote it to a file for ``pretrain`` is a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["pretrain-projection", "--pairs", "pairs.npz", "--out", str(tmp_path / "p.npz")])
        assert exc.value.code == 2
        assert "invalid choice: 'pretrain-projection'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "sources,message",
        [(["--corpus", "c.txt", "--ref-corpus", "c.txt"], "unrecognized arguments: --ref-corpus"),
         (["--probes", "p.jsonl", "--corpus", "c.txt"],
          "argument --corpus: not allowed with argument --probes"),
         ([], "one of the arguments --probes --corpus is required")],
        ids=["ref-corpus", "both", "neither"],
    )
    def test_probe_takes_exactly_one_source(self, tmp_path, capsys, sources, message):
        """The buckets come from the vocabulary's counts, so ``--ref-corpus`` is
        gone; ``--probes`` and ``--corpus`` are one required choice. None of
        the files exists: argparse refuses each command line before any is read."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["probe", "--checkpoint", "c.ckpt", "--vocab", "v.tsv", *sources,
                  "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert captured.out == "" and len(errors) == 1 and message in errors[0], captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "reader,code,prefix",
        [("vocab", 1, "error"), ("config", 3, "config error"), ("items", 1, "error")],
        ids=["vocab", "config", "items"],
    )
    def test_undecodable_line_is_one_line(self, workdir, capsys, reader, code, prefix):
        tmp, corpus, cfg = workdir
        bad, out = tmp / "bad", tmp / "out"
        bad.write_bytes(b"# line one\n\xff\xfe bad\n")
        # each file is read before the checkpoint, which does not exist
        argv = {
            "vocab": ["probe", "--config", str(cfg), "--checkpoint", str(tmp / "none.ckpt"),
                      "--vocab", str(bad), "--corpus", str(corpus), "--out", str(out)],
            "config": ["probe", "--config", str(bad), "--checkpoint", str(tmp / "none.ckpt"),
                       "--vocab", str(tmp / "none.tsv"), "--corpus", str(corpus),
                       "--out", str(out)],
            "items": ["eval-cloze", "--checkpoint", str(tmp / "none.ckpt"),
                      "--vocab", str(tmp / "none.tsv"), "--items", str(bad), "--out", str(out)],
        }[reader]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"wordlm: {prefix}: {bad}:2: 'utf-8' codec can't decode byte 0xff")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "words,message",
        [
            (["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "sun", "moon", "rain", "moon", "sun"],
             "vocabulary contains duplicate word 'sun'"),
            (["[PAD]", "[UNK]", "[CLS]", "[MASK]", "[SEP]", "sun"],
             "vocabulary must start with the five special tokens"),
            (["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "sun", "moon", "[PAD]"],
             "special token '[PAD]' repeated as a word at id 7"),
        ],
        ids=["duplicate-word", "specials-out-of-order", "special-spelled-word"],
    )
    def test_vocabulary_content_error_names_file(self, workdir, capsys, words, message):
        tmp, corpus, cfg = workdir
        bad, out = tmp / "vocab.tsv", tmp / "out"
        bad.write_text("#wordvocab v1 lowercase=true\n" + "".join(f"{w}\t1\n" for w in words))
        assert main(["probe", "--config", str(cfg), "--checkpoint", str(tmp / "none.ckpt"),
                     "--vocab", str(bad), "--corpus", str(corpus), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"wordlm: error: {bad}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "probe"])
    def test_vocabulary_lowercase_flag_must_be_true_or_false(self, workdir, capsys, command):
        tmp, corpus, cfg = workdir
        bad, out = tmp / "vocab.tsv", tmp / "out"
        bad.write_text("#wordvocab v1 lowercase=TRUE\n" + "".join(
            f"{w}\t1\n" for w in ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "sun"]))
        argv = {
            "pretrain": ["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                         "--vocab", str(bad), "--out", str(out)],
            "probe": ["probe", "--config", str(cfg), "--checkpoint", str(tmp / "none.ckpt"),
                      "--vocab", str(bad), "--corpus", str(corpus), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"wordlm: error: {bad}:1: lowercase='TRUE' must be true or false\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["probe", "eval-cloze"])
    def test_vocabulary_of_another_size_than_checkpoint_is_plain_error(self, trained, capsys, command):
        tmp, corpus, cfg, vocab, ckpt = trained
        other_corpus, other, out = tmp / "other.txt", tmp / "other_vocab.tsv", tmp / "out"
        other_corpus.write_text(" ".join(f"word{i}" for i in range(30)) + "\n")
        run_ok(["build-vocab", "--corpus", str(other_corpus), "--k", "30", "--out", str(other)])
        items = tmp / "cloze.jsonl"
        items.write_text(CLOZE + '"answer_index": 0}\n')
        argv = {
            "probe": ["probe", "--config", str(cfg), "--checkpoint", str(ckpt), "--vocab", str(other),
                      "--corpus", str(corpus), "--out", str(out)],
            "eval-cloze": ["eval-cloze", "--checkpoint", str(ckpt),
                           "--vocab", str(other), "--items", str(items), "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"wordlm: error: vocabulary {other} holds 35 words, but checkpoint {ckpt} "
            f"was trained on {WordVocab.load(vocab).size}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval-cloze"])
    def test_evaluation_over_no_records_is_plain_error(self, workdir, capsys, command):
        tmp, corpus, cfg = workdir
        empty = tmp / "empty.jsonl"
        empty.write_text("\n")
        # the items are read first: neither the vocabulary nor the checkpoint exists
        assert main([command, "--checkpoint", str(tmp / "none.ckpt"),
                     "--vocab", str(tmp / "none.tsv"), "--items", str(empty)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"wordlm: error: {empty}: no records\n"

    @pytest.mark.parametrize("flag", ["--lr", "--epochs", "--seed"])
    def test_pretrain_projection_has_no_descent_flags(self, tmp_path, flag):
        """The projection is fitted by least squares: ``pretrain --pairs`` takes
        no learning rate, epoch count or seed for it."""
        with pytest.raises(SystemExit) as exc:
            main(["pretrain", "--corpus", "c.txt", "--vocab", "v.tsv", "--out", str(tmp_path),
                  "--word-vectors", "vectors.npz", "--pairs", "pairs.npz", flag, "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name,bad", [("v_in", np.nan), ("v_out", np.inf),
                                          ("v_in", np.inf), ("v_out", np.nan)],
                             ids=["nan-v_in", "inf-v_out", "inf-v_in", "nan-v_out"])
    def test_pretrain_projection_non_finite_pairs_refused_without_output(
        self, workdir, name, bad
    ):
        arrays = {"v_in": np.ones((6, 3)), "v_out": np.ones((6, 8))}
        arrays[name][4, 2] = bad
        arrays[name][5, 0] = bad
        pairs, err = _pairs_refusal(workdir, arrays)
        assert err == f"wordlm: error: {pairs}: row 4 of array {name!r} holds a NaN or infinity\n"

    @pytest.mark.parametrize("name,big", [("v_in", 1e300), ("v_out", -1e300)])
    def test_pretrain_projection_pairs_beyond_float32_refused_without_output(
        self, workdir, name, big
    ):
        arrays = {"v_in": np.ones((6, 3)), "v_out": np.ones((6, 8))}
        arrays[name][3, 1] = big
        pairs, err = _pairs_refusal(workdir, arrays)
        assert err == (f"wordlm: error: {pairs}: row 3 of array {name!r} holds a value "
                       "outside float32 range\n")

    @pytest.mark.parametrize(
        "v_in,v_out",
        [((3,), (3, 8)), ((3, 3), (3,)), ((2, 3), (3, 8)), ((0, 3), (0, 8)), ((4, 0), (4, 8)),
         ((4, 3), (4, 0)), ((2, 2, 3), (2, 2, 8)), ((4, 2), (4, 8)), ((4, 3), (4, 4))],
        ids=["v_in-1d", "v_out-1d", "pair-counts-differ", "no-pairs", "v_in-no-columns",
             "v_out-no-columns", "3d", "v_in-not-the-vectors-width", "v_out-not-model-hidden"],
    )
    def test_pretrain_projection_pair_shapes_refused_without_output(self, workdir, v_in, v_out):
        # the NaN shows the shapes are checked from the headers, before any data is read
        pairs, err = _pairs_refusal(workdir, {"v_in": np.full(v_in, np.nan),
                                              "v_out": np.ones(v_out)})
        assert err == (f"wordlm: error: {pairs}: arrays 'v_in' and 'v_out' have shapes {v_in} "
                       f"and {v_out}, expected [N, 3] and [N, 8] with the same N >= 1: the "
                       "vectors' width and model.hidden\n")

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
    def test_pretrain_unusable_out_refused_before_training(self, workdir, capsys, monkeypatch,
                                                           sub):
        """An --out that is a file, or lies below one, is refused before the
        corpus is read (here it is missing) and before training, and nothing is
        created."""
        tmp, corpus, cfg = workdir
        vocab = tmp / "vocab.tsv"
        run_ok(["build-vocab", "--corpus", str(corpus), "--k", "50", "--out", str(vocab)])
        capsys.readouterr()
        monkeypatch.setattr(cli, "run_training", lambda *a, **k: pytest.fail("training ran"))
        before = sorted(tmp.iterdir())
        out = cfg / sub if sub else cfg
        code = main(["pretrain", "--config", str(cfg), "--corpus", str(tmp / "missing.txt"),
                     "--vocab", str(vocab), "--out", str(out)])
        assert (code, capsys.readouterr()) == (
            1, ("", f"wordlm: error: --out {out}: {cfg} is not a writable directory\n"))
        assert sorted(tmp.iterdir()) == before and cfg.read_text() == TOY_CFG

    @pytest.mark.parametrize(
        "command,worker,out,message",
        [
            ("probe", "probe_topk", "corpus.txt",
             "{out}: {tmp}/corpus.txt is not a writable directory"),
            ("eval-cloze", "cloze_accuracy", "cloze.jsonl/sub",
             "{out}: {tmp}/cloze.jsonl is not a writable directory"),
            ("build-vocab", "count_frequencies", "adir", "{out} is a directory"),
            ("build-vocab", "count_frequencies", "corpus.txt/vocab.tsv",
             "{out}: {tmp}/corpus.txt is not a writable directory"),
        ],
        ids=["probe-file", "eval-cloze-below-file", "build-vocab-directory",
             "build-vocab-below-file"],
    )
    def test_unusable_out_refused_before_the_work(self, trained, capsys, monkeypatch, command,
                                                  worker, out, message):
        """An --out that cannot be written is refused on one line before any
        input is read, and nothing is created: the monkeypatched worker fails
        the test if it runs."""
        tmp, corpus, cfg, vocab, ckpt = trained
        (tmp / "adir").mkdir()
        items = tmp / "cloze.jsonl"
        items.write_text(CLOZE + '"answer_index": 0}\n')
        monkeypatch.setattr(cli, worker, lambda *a, **k: pytest.fail(f"{worker} ran"))
        out = tmp / out
        argv = {
            "probe": ["probe", "--config", str(cfg), "--checkpoint", str(ckpt),
                      "--vocab", str(vocab), "--corpus", str(corpus), "--out", str(out)],
            "eval-cloze": ["eval-cloze", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                           "--items", str(items), "--out", str(out)],
            "build-vocab": ["build-vocab", "--corpus", str(corpus), "--k", "5", "--out", str(out)],
        }[command]
        before = sorted(tmp.rglob("*"))
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"wordlm: error: --out {message.format(out=out, tmp=tmp)}\n")
        assert sorted(tmp.rglob("*")) == before

    @pytest.mark.parametrize("command,flags", [
        ("build-vocab", ["--corpus", "in.txt", "--k", "5"]),
        ("pretrain", ["--config", "in.cfg", "--corpus", "in.txt", "--vocab", "in.tsv",
                      "--word-vectors", "in.npz", "--pairs", "in.npz"]),
        ("pretrain", ["--config", "in.cfg", "--corpus", "in.txt", "--vocab", "in.tsv"]),
        ("probe", ["--config", "in.cfg", "--checkpoint", "in.ckpt", "--vocab", "in.tsv",
                   "--corpus", "in.txt"]),
        ("eval-cloze", ["--checkpoint", "in.ckpt", "--vocab", "in.tsv", "--items", "in.jsonl"]),
    ])
    def test_empty_out_refused_before_any_input(self, tmp_path, capsys, monkeypatch, command,
                                                flags):
        """An empty --out names no file or directory. It is refused on one line
        before any input is read (each named input is missing, which would be
        another error), and nothing is created in the working directory."""
        monkeypatch.chdir(tmp_path)
        assert main([command, *flags, "--out", ""]) == 1
        assert capsys.readouterr() == ("", "wordlm: error: --out is empty\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "setting,message",
        [
            ("model.max_positions=1000000000000", "out of memory: Unable to allocate 466. TiB "
             "for an array with shape (1000000000000, 64) and data type float64"),
            ("train.batch_size=100000000000000", "out of memory: Unable to allocate 728. TiB "
             "for an array with shape (100000000000000,) and data type int64"),
            ("model.max_positions=1000000000000000000",
             "the model's 64000000000000050829 parameters exceed what this machine can address"),
        ],
        ids=["positions-tib", "batch-tib", "positions-beyond-address-space"],
    )
    def test_pretrain_size_no_machine_holds_is_one_line(self, workdir, setting, message):
        """Sizes far beyond any machine's memory, so nothing is allocated: numpy
        refuses the first array at once, and a model beyond the address space
        is refused before it is built."""
        tmp, corpus, cfg = workdir
        vocab = tmp / "vocab.tsv"
        run_ok(["build-vocab", "--corpus", str(corpus), "--k", "50", "--out", str(vocab)])
        out = tmp / "out"
        err = _refusal(["pretrain", "--config", cfg, "--corpus", corpus, "--vocab", vocab,
                        "--out", out, "--set", "model.hidden=64", "--set", setting])
        assert err == f"wordlm: error: {message}\n"
        assert not out.exists()

    def test_pretrain_zero_steps_rejected_before_output(self, workdir, capsys):
        """--steps 0 trains nothing, and steps past train.total_steps (12 in
        TOY_CFG) would train at learning rate 0: both exit 1 on one line."""
        tmp, corpus, cfg = workdir
        vocab = tmp / "vocab.tsv"
        run_ok(["build-vocab", "--corpus", str(corpus), "--k", "50", "--out", str(vocab)])
        capsys.readouterr()
        out = tmp / "zero"
        for steps, message in (("0", "--steps must be >= 1"),
                               ("13", "--steps 13 exceeds train.total_steps 12")):
            code = main(["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                         "--vocab", str(vocab), "--out", str(out), "--steps", steps])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"wordlm: error: {message}") and err.count("\n") == 1
            assert not out.exists()
