"""End-to-end CLI tests: commands, exit codes, artifacts, determinism."""

import json
import warnings

import numpy as np
import pytest

from wordlm.cli import main

TOY_CFG = """\
model.layers = 1
model.heads = 2
model.hidden = 8
model.embed_dim = 8
model.max_positions = 10
model.dropout = 0.0
train.peak_lr = 1e-3
train.warmup_steps = 2
train.total_steps = 12
train.batch_size = 4
train.seed = 3
train.sample_size = 50
train.max_length = 8
eval.threshold_high = 20
eval.threshold_medium = 10
eval.threshold_low = 3
"""


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
                "--vocab", str(vocab), "--out", str(out), "--seed", "7",
            ])
            outs.append(out)
        m1 = (outs[0] / "metrics.tsv").read_bytes()
        m2 = (outs[1] / "metrics.tsv").read_bytes()
        assert m1 == m2
        assert (outs[0] / "checkpoint.ckpt").exists()
        assert (outs[0] / "effective.cfg").read_text().splitlines()[0].startswith("eval.")

    def test_env_override_reaches_training(self, workdir, monkeypatch):
        tmp, corpus, cfg = workdir
        vocab = self._vocab(tmp, corpus)
        monkeypatch.setenv("WORDLM_TRAIN_TOTAL_STEPS", "9")
        out = tmp / "env_run"
        run_ok(["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                "--vocab", str(vocab), "--out", str(out)])
        assert len((out / "metrics.tsv").read_text().splitlines()) == 9

    def test_invalid_config_exits_3(self, workdir, capsys):
        tmp, corpus, cfg = workdir
        vocab = self._vocab(tmp, corpus)
        bad = tmp / "bad.cfg"
        bad.write_text(TOY_CFG + "model.depth = 9\n")
        code = main(["pretrain", "--config", str(bad), "--corpus", str(corpus),
                     "--vocab", str(vocab), "--out", str(tmp / "x")])
        assert code == 3
        assert "model.depth" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting,keys",
        [
            ("train.mask_ratio=2", ["train.mask_ratio"]),
            ("train.replace_mask=0.5",
             ["train.replace_mask", "train.replace_random", "train.keep_original"]),
            ("train.warmup_steps=12", ["train.warmup_steps", "train.total_steps"]),
            ("train.batch_size=0", ["train.batch_size"]),
            ("model.hidden=15", ["model.hidden", "model.heads", "model.embed_dim"]),
            ("model.dropout=1.5", ["model.dropout"]),
            ("model.variant=bogus", ["model.variant"]),
            ("train.max_length=20", ["train.max_length", "model.max_positions"]),
            ("vocab.k=3", ["vocab.k"]),
            ("model.gelu_approx=false", ["model.gelu_approx"]),  # removed with the tanh GELU
            ("train.use_neighbors=true train.neighbor_k=-1", ["train.neighbor_k"]),
            # neighbor lists are computed once, so the word table they rank must not train
            ("train.use_neighbors=true", ["train.use_neighbors", "model.freeze_embeddings"]),
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
            load_records(probes, ProbeExample), ks=(1, 5, 10), max_length=8,
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
            ("eval.mask_probability=2", ["eval.mask_probability"]),
            ("eval.mask_probability=0", ["eval.mask_probability"]),
            ("eval.topk=0,5", ["eval.topk"]),
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
        run_ok(["eval-cloze", "--config", str(cfg), "--checkpoint", str(ckpt),
                "--vocab", str(vocab), "--items", str(items)])
        assert "cloze accuracy" in capsys.readouterr().out

    def test_inspect_checkpoint(self, trained, capsys):
        tmp, corpus, cfg, vocab, ckpt = trained
        run_ok(["inspect-checkpoint", str(ckpt)])
        out = capsys.readouterr().out
        assert "step 12" in out
        assert "tensor embedding.word" in out

    def test_param_count(self, capsys):
        run_ok(["param-count", "--vocab-size", "500005"])
        out = capsys.readouterr().out
        counts = {line.split("\t")[0]: int(line.split("\t")[1]) for line in out.strip().splitlines()}
        assert abs(counts["transformer"] - 85e6) / 85e6 < 0.02
        assert abs(counts["embedding"] - 384e6) / 384e6 < 0.02

    def test_param_count_invalid_model_exits_3(self, capsys):
        assert main(["param-count", "--vocab-size", "100", "--set", "model.heads=7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "wordlm: config error: model.hidden 768 not divisible by model.heads 7\n"
        )


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
            ("pretrain-projection", "not an archive\n", ":"),
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
        ],
        # the ids from span-json to tag-field-type name the prediction files these loader
        # cases were first written against; they now feed the same faults in cloze items
        ids=["vocab-frequency", "npz", "span-json", "span-fields",
             "span-string", "span-null", "span-float", "span-bool", "span-unknown-field",
             "gold-not-object", "tag-field-type", "cloze-passage-int", "cloze-passage-string",
             "cloze-options-string"],
    )
    def test_malformed_input_is_plain_error(self, workdir, capsys, case, content, where):
        tmp, corpus, cfg = workdir
        bad, out = tmp / "bad", tmp / "out"
        bad.write_text(content)
        argv = {
            "pretrain": ["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                         "--vocab", str(bad), "--out", str(out)],
            "pretrain-projection": ["pretrain-projection", "--pairs", str(bad), "--out", str(out)],
            # the items are read first: neither the vocabulary nor the checkpoint exists
            "eval-cloze": ["eval-cloze", "--config", str(cfg), "--checkpoint", str(tmp / "none.ckpt"),
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
            # the reference counts come from a good file: the probe corpus itself is bad
            "probe": ["probe", "--config", str(cfg), "--checkpoint", str(ckpt), "--vocab", str(vocab),
                      "--corpus", str(bad), "--ref-corpus", str(corpus), "--out", str(out)],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"wordlm: error: unreadable document {bad}:2: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "second,message",
        [
            # the toy config encodes train.max_length = 8 positions: 6 words
            ({"passage_words": ["sun"] * 15 + ["[BLANK]"], "options": ["moon", "rain", "wind", "fog"]},
             "blank position falls outside the encoded window"),
            ({"passage_words": ["sun", "[BLANK]"], "options": ["a", "b", "c", "d"]},
             "every cloze option is out of vocabulary"),
        ],
        ids=["blank-outside-window", "options-out-of-vocabulary"],
    )
    def test_unscorable_cloze_item_is_named(self, trained, capsys, second, message):
        tmp, corpus, cfg, vocab, ckpt = trained
        items, out = tmp / "cloze.jsonl", tmp / "out"
        good = {"passage_words": ["sun", "[BLANK]"], "options": ["moon", "rain", "wind", "fog"]}
        items.write_text("".join(json.dumps({**item, "answer_index": 0}) + "\n"
                                 for item in (good, second)))
        capsys.readouterr()
        assert main(["eval-cloze", "--config", str(cfg), "--checkpoint", str(ckpt), "--vocab",
                     str(vocab), "--items", str(items), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"wordlm: error: {items}: item 2: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval-cloze"])
    def test_evaluation_over_no_records_is_plain_error(self, workdir, capsys, command):
        tmp, corpus, cfg = workdir
        empty = tmp / "empty.jsonl"
        empty.write_text("\n")
        # the items are read first: neither the vocabulary nor the checkpoint exists
        assert main([command, "--config", str(cfg), "--checkpoint", str(tmp / "none.ckpt"),
                     "--vocab", str(tmp / "none.tsv"), "--items", str(empty)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"wordlm: error: {empty}: no records\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--epochs", "0"], "--epochs must be >= 1, got 0"),
            (["--lr", "50", "--epochs", "100"], "projection fit diverged at epoch "),
            (["--lr", "0"], "lr must be a finite number > 0, got 0.0"),
            (["--lr", "-1"], "lr must be a finite number > 0, got -1.0"),
            (["--lr", "nan"], "lr must be a finite number > 0, got nan"),
        ],
        ids=["zero-epochs", "diverging-lr", "zero-lr", "negative-lr", "nan-lr"],
    )
    def test_pretrain_projection_refused_without_output(self, tmp_path, capsys, flags, message):
        rng = np.random.default_rng(12)
        pairs, out = tmp_path / "pairs.npz", tmp_path / "proj.npz"
        np.savez(pairs, v_in=rng.standard_normal((120, 30)), v_out=rng.standard_normal((120, 40)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings included
            code = main(["pretrain-projection", "--pairs", str(pairs), "--out", str(out), *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"wordlm: error: {message}"), captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_pretrain_zero_steps_rejected_before_output(self, workdir, capsys):
        tmp, corpus, cfg = workdir
        vocab = tmp / "vocab.tsv"
        run_ok(["build-vocab", "--corpus", str(corpus), "--k", "50", "--out", str(vocab)])
        capsys.readouterr()
        out = tmp / "zero"
        code = main(["pretrain", "--config", str(cfg), "--corpus", str(corpus),
                     "--vocab", str(vocab), "--out", str(out), "--steps", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("wordlm: error: --steps must be >= 1") and err.count("\n") == 1
        assert not out.exists()
