"""End-to-end CLI tests: the rows of ``cli_cases`` through one runner, and the
commands' outputs, artifacts and determinism."""

import argparse
import ast
import codecs
import json
import re
import shlex
import shutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cli_cases import CASES, GOOD_ITEM, SETUPS, WIDTH
from wordlm import cli
from wordlm.checkpoint import load_checkpoint
from wordlm.cli import build_parser, main
from wordlm.config import RunConfig
from wordlm.errors import WordlmError
from wordlm.evaluation import BUCKET_NAMES, FrequencyBuckets, build_probe_set, probe_topk
from wordlm.seeding import substream
from wordlm.vocab import WordVocab, read_text_lines

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def setups(tmp_path_factory):
    """The directory of each setup of ``cli_cases``, built once per module."""
    built = {}
    for name, build in SETUPS.items():
        built[name] = tmp_path_factory.mktemp(name)
        build(built[name])
    return built


def _copy(setups, name, tmp_path):
    return Path(shutil.copytree(setups[name], tmp_path / name))


@pytest.fixture
def workdir(setups, tmp_path):
    tmp = _copy(setups, "toy", tmp_path)
    return tmp, tmp / "corpus.txt", tmp / "toy.cfg"


@pytest.fixture
def trained(setups, tmp_path):
    tmp = _copy(setups, "trained", tmp_path)
    return (tmp, tmp / "corpus.txt", tmp / "toy.cfg", tmp / "vocab.tsv",
            tmp / "run" / "checkpoint.ckpt")


def _contents(work):
    return {str(path.relative_to(work)): path.read_bytes() if path.is_file() else None
            for path in work.rglob("*")}


def _printed(expected, text):
    """Whether ``text`` is the lines ``expected`` states, each ending in a
    newline: those exact lines, or a full match of the pattern; nothing for
    ``""``."""
    if not expected or not text.endswith("\n"):
        return text == expected
    body = text[:-1]
    return bool(expected.fullmatch(body)) if isinstance(expected, re.Pattern) else body == expected


def run_case(case, setups, work, monkeypatch, capsys):
    """Run one row of ``cli_cases`` in ``work``, a copy of its setup: its exit
    code, stdout and stderr are the row's, and the command wrote nothing there
    and raised no warning."""
    shutil.copytree(setups[case.setup], work)
    for name, content in case.files.items():
        content = content(work) if callable(content) else content
        if isinstance(content, bytes):
            (work / name).write_bytes(content)
        else:
            (work / name).write_text(content, encoding="utf-8")
    monkeypatch.chdir(work)
    before = _contents(work)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(case.argv)
        except SystemExit as usage_error:  # argparse's
            code = usage_error.code
    out, err = capsys.readouterr()
    if code == 2:  # argparse's usage text comes before its error line
        err = "".join(err.splitlines(keepends=True)[-1:])
    assert code == case.code, err
    assert _printed(case.stdout, out), out
    assert _printed(case.stderr, err), err
    assert [str(warning.message) for warning in caught] == []
    assert _contents(work) == before


def _table_test(cases):
    """The test of one group of ``CASES``: a test per row id, or one test that
    runs each row in turn when the rows have none."""
    if cases[0].id is None:
        def test(self, setups, tmp_path, monkeypatch, capsys):
            for i, case in enumerate(cases):
                run_case(case, setups, tmp_path / f"row{i}", monkeypatch, capsys)
        return test

    @pytest.mark.parametrize("case", cases, ids=[case.id for case in cases])
    def test(self, setups, tmp_path, monkeypatch, capsys, case):
        run_case(case, setups, tmp_path / "work", monkeypatch, capsys)
    return test


def run_ok(argv):
    code = main(argv)
    assert code == 0, f"command failed: {argv}"


class TestBuildVocab:
    def test_k_plus_specials_plus_header_lines(self, workdir):
        tmp, corpus, _ = workdir
        out = tmp / "v.tsv"
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
    def test_two_runs_byte_identical_metrics(self, setups, tmp_path):
        tmp = _copy(setups, "vocab", tmp_path)
        run1, run2 = tmp / "run1", tmp / "run2"
        for out in (run1, run2):
            run_ok(["pretrain", "--config", str(tmp / "toy.cfg"), "--corpus",
                    str(tmp / "corpus.txt"), "--vocab", str(tmp / "vocab.tsv"), "--out", str(out),
                    "--set", "train.seed=7"])
        assert (run1 / "metrics.tsv").read_bytes() == (run2 / "metrics.tsv").read_bytes()
        assert (run1 / "checkpoint.ckpt").exists()
        assert (run1 / "effective.cfg").read_text().splitlines()[0].startswith("eval.")

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


class TestProjectedPretrain:
    """``pretrain --word-vectors`` trains the projected variant: the file's vectors,
    frozen, through a learned map to ``model.hidden``."""

    @pytest.fixture
    def inputs(self, setups, tmp_path):
        tmp = _copy(setups, "projected", tmp_path)
        return (tmp, tmp / "corpus.txt", tmp / "toy.cfg", tmp / "vocab.tsv", tmp / "vectors.npz",
                tmp / "pairs.npz")

    # "projection": the map starts from the least-squares fit to --pairs
    @pytest.mark.parametrize("projection,neighbors", [(False, False), (True, False), (True, True)],
                             ids=["vectors", "vectors-projection", "vectors-projection-neighbors"])
    def test_pretrain_then_probe_and_cloze(self, inputs, capsys, projection, neighbors):
        tmp, corpus, cfg, vocab, vectors, pairs = inputs
        out = tmp / "out"
        capsys.readouterr()
        run_ok(["pretrain", "--config", str(cfg), "--corpus", str(corpus), "--vocab", str(vocab),
                "--out", str(out), "--word-vectors", str(vectors),
                *(["--pairs", str(pairs)] if projection else []),
                *(["--set", "train.use_neighbors=true"] if neighbors else [])])
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1 + projection and printed[-1].startswith("trained 12 steps")
        assert not projection or printed[0].startswith(
            f"fitted {WIDTH}x8 projection on 20 pairs, final mse ")
        ckpt = out / "checkpoint.ckpt"
        run_ok(["inspect-checkpoint", str(ckpt)])
        lines = capsys.readouterr().out.splitlines()
        assert {"model_config variant projected", f"model_config embed_dim {WIDTH}",
                "model_config freeze_embeddings true"} <= set(lines)
        with np.load(vectors) as z:  # the word table is the file's, unchanged by training
            np.testing.assert_array_equal(
                load_checkpoint(ckpt).model.params["embedding.word"].data,
                z["vectors"].astype(np.float32))
        run_ok(["probe", "--config", str(cfg), "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--corpus", str(corpus)])
        items = tmp / "cloze.jsonl"
        items.write_text(GOOD_ITEM)
        run_ok(["eval-cloze", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--items", str(items)])

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
                     "--vocab", str(vocab), "--out", str(tmp / "out"),
                     "--word-vectors", str(vectors), "--pairs", str(pairs)]) == 1
        (w,) = started
        expected = np.linalg.lstsq(v_in.astype(np.float64), v_out.astype(np.float64), rcond=None)[0]
        np.testing.assert_allclose(w, expected, atol=1e-5)
        mse = np.float32(((v_in @ w - v_out) ** 2).mean(dtype=np.float64))
        assert capsys.readouterr().out == (
            f"fitted {WIDTH}x8 projection on 20 pairs, final mse {mse:.6g}\n")


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


class TestEvalCommands:
    def test_probe_prints_bucket_rows(self, trained, capsys, monkeypatch):
        tmp, corpus, cfg, vocab, ckpt = trained
        monkeypatch.chdir(tmp)
        before = _contents(tmp)
        run_ok(["probe", "--config", str(cfg), "--checkpoint", str(ckpt),
                "--vocab", str(vocab), "--corpus", str(corpus)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("bucket")
        assert [l.split("\t")[0] for l in lines[1:]] == ["High", "Medium", "Low", "Rare"]
        assert _contents(tmp) == before  # the table is printed, and no file is written

    def test_byte_order_mark_in_config_vocab_and_items_ignored(self, trained, capsys):
        """A config, vocabulary and cloze JSONL saved with a UTF-8 byte-order
        mark each load as the file without it."""
        tmp, corpus, cfg, vocab, ckpt = trained
        items = tmp / "cloze.jsonl"
        items.write_text(GOOD_ITEM)
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
        tmp, corpus, cfg, vocab, ckpt = trained
        loaded = WordVocab.load(vocab)
        count = int(loaded.frequency[loaded.lookup("sun")])
        assert count > 10  # above the toy config's eval.threshold_medium
        probe_corpus = tmp / "probe.txt"
        probe_corpus.write_text("sun\n", encoding="utf-8")
        # the first seed whose High stream masks the one High word (p = 0.15)
        seed = next(s for s in range(100) if substream(s, "probe-High").random() < 0.15)
        run_ok(["probe", "--config", str(cfg), "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--corpus", str(probe_corpus),
                "--set", f"eval.threshold_high={count}", "--set", f"train.seed={seed}"])
        rows = [line.split("\t")[:3] for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["High", "1", "0"], ["Medium", "0", "0"], ["Low", "0", "0"],
                        ["Rare", "0", "0"]]

    def test_probe_matches_library(self, trained, capsys):
        """The table is ``probe_topk``'s report on the probe set ``build_probe_set``
        draws from the corpus, bucketed by the vocabulary's counts."""
        tmp, corpus, cfg, vocab, ckpt = trained
        capsys.readouterr()
        run_ok(["probe", "--config", str(cfg), "--checkpoint", str(ckpt),
                "--vocab", str(vocab), "--corpus", str(corpus)])
        out = capsys.readouterr().out
        loaded, config = WordVocab.load(vocab), RunConfig.load(cfg)
        buckets = config.view(FrequencyBuckets, reference_frequencies=dict(
            zip(loaded.words, loaded.frequency.tolist())))
        lines = read_text_lines(corpus)
        probes = [ex for bucket in BUCKET_NAMES for ex in build_probe_set(
            lines, buckets, bucket, rng=substream(config["train.seed"], f"probe-{bucket}"))]
        report = probe_topk(load_checkpoint(ckpt).model, loaded, probes, ks=(1, 5, 10))
        assert out == "bucket\tmasked\toov\ttop-1\ttop-5\ttop-10\n" + "".join(
            f"{b}\t{report['total'][b]}\t{report['oov'][b]}"
            + "".join(f"\t{report['accuracy'][b][k]:.4f}" for k in (1, 5, 10)) + "\n"
            for b in BUCKET_NAMES)
        assert sum(report["total"].values()) > 0

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


class TestExitCodes:
    def test_cloze_window_is_the_checkpoints_max_positions(self, trained, capsys):
        """max_positions = 8 encodes [CLS], 6 words and [SEP]: a blank that is
        the 6th word is scored, and one that is the 7th is outside the window."""
        tmp, corpus, cfg, vocab, ckpt = trained
        options = {"options": ["moon", "rain", "wind", "fog"], "answer_index": 0}
        sixth = json.dumps({"passage_words": ["sun"] * 5 + ["[BLANK]"], **options}) + "\n"
        seventh = json.dumps({"passage_words": ["sun"] * 6 + ["[BLANK]"], **options}) + "\n"
        items = tmp / "cloze.jsonl"
        items.write_text(sixth)
        capsys.readouterr()
        run_ok(["eval-cloze", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                "--items", str(items)])
        assert capsys.readouterr().out.endswith(" over 1 items\n")
        items.write_text(sixth + seventh)
        assert main(["eval-cloze", "--checkpoint", str(ckpt), "--vocab", str(vocab),
                     "--items", str(items)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"wordlm: error: {items}: item 2: "
                                "blank position falls outside the encoded window\n")


for _name, _cases in CASES.items():
    _owner, _test = _name.split("::")
    setattr(globals()[_owner], _test, _table_test(_cases))
