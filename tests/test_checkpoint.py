"""Checkpoint archive round-trip, integrity, and resume-equivalence tests."""

import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from wordlm.checkpoint import config_digest, load_checkpoint, read_manifest, save_checkpoint
from wordlm.cli import main
from wordlm.errors import ContractError, IntegrityError
from wordlm.model import ModelConfig, WordBertModel
from wordlm.optim import Adam
from wordlm.training import TrainConfig, train
from wordlm.vocab import build_vocabulary


def small_model(seed=3, word_vectors=None, **kw):
    cfg = dict(
        vocab_size=30, num_layers=1, num_heads=2, hidden=8, embed_dim=8,
        max_positions=10, dropout=0.0,
    )
    cfg.update(kw)
    return WordBertModel(ModelConfig(**cfg), seed=seed, word_vectors=word_vectors)


def corpus_and_vocab():
    words = ["red", "green", "blue", "cyan", "teal", "plum", "gold", "jade"]
    rng = np.random.default_rng(50)
    lines = [" ".join(rng.choice(words, size=5)) for _ in range(20)]
    return lines, build_vocabulary({w: 5 for w in words}, k=8)


MLM_BIAS_MOMENTS = ("tensor optimizer.m.mlm.bias ", "tensor optimizer.v.mlm.bias ")


def _rewrite_manifest_line(tmp_path, prefix, replacement):
    """Save a small checkpoint with Adam state, then replace (or, for None, drop)
    its manifest lines starting with ``prefix`` (a string or a tuple of them);
    ``{}`` in the replacement is filled with the line's payload offset, and a
    callable replacement maps the old line to the new one. Returns the path
    and the manifest's lines before and after the edit."""
    path = tmp_path / "c.ckpt"
    model = small_model(seed=9)
    save_checkpoint(model, Adam(model.trainable_parameters()), 0, path)
    manifest, payload = path.read_bytes().split(b"---\n", 1)
    before, lines = manifest.decode().split("\n"), []
    for line in before:
        if line.startswith(prefix):
            if replacement is None:
                continue
            if callable(replacement):
                line = replacement(line)
            else:
                line = replacement.format(*line.split(" ")[4:5])
        lines.append(line)
    path.write_bytes("\n".join(lines).encode() + b"---\n" + payload)
    return path, before, lines


def _first_difference(before, after):
    """The 1-based number of the first line at which two manifests differ, with
    the line before the edit and the line after it, both quoted."""
    i = next(i for i, (a, b) in enumerate(zip(before, after)) if a != b)
    return i + 1, repr(before[i]), repr(after[i])


class TestRoundTrip:
    def test_tensors_bit_exact(self, tmp_path):
        model = small_model()
        opt = Adam(model.trainable_parameters())
        for p in opt.params.values():
            p.grad = np.ones_like(p.data)
        opt.step(lr=0.01)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, opt, step=17, path=path, digest="abcd1234")

        loaded = load_checkpoint(path)
        assert loaded.step == 17
        assert loaded.model.seed == model.seed
        assert loaded.digest == "abcd1234"
        assert loaded.model.config == model.config
        for name, t in model.parameters().items():
            np.testing.assert_array_equal(loaded.model.params[name].data, t.data, err_msg=name)
        for name in opt.params:
            got = loaded.optimizer
            np.testing.assert_array_equal(got.first_moment[name], opt.first_moment[name])
            np.testing.assert_array_equal(got.second_moment[name], opt.second_moment[name])
        assert loaded.optimizer.step_count == opt.step_count == 1

    def test_save_load_save_byte_identical(self, tmp_path):
        model = small_model(seed=4)
        opt = Adam(model.trainable_parameters())
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, opt, step=3, path=p1, digest="d1")
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded.model, loaded.optimizer, loaded.step, p2, digest=loaded.digest)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("variant", ["direct", "projected"])
    def test_manifest_head_is_unchanged(self, tmp_path, variant):
        """Through the first opt_step line, the manifest is the one every writer
        of the format has written, the fixed epsilon line included; such a
        file loads and saves back byte-identically."""
        if variant == "direct":
            model, embed, frozen = small_model(seed=7), 8, "false"
        else:
            wv = np.random.default_rng(8).standard_normal((30, 6)).astype(np.float32)
            model = small_model(seed=7, embed_dim=6, variant="projected",
                                freeze_embeddings=True, word_vectors=wv)
            embed, frozen = 6, "true"
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, Adam(model.trainable_parameters()), 5, p1, digest="0123abcd")
        head = ["#wordlm-checkpoint v1", "step 5", "seed 7", "config_digest 0123abcd",
                *[f"model_config {line}" for line in (
                    "vocab_size 30", "num_layers 1", "num_heads 2", "hidden 8",
                    f"embed_dim {embed}", "max_positions 10", f"variant {variant}",
                    f"freeze_embeddings {frozen}", "dropout 0.0", "layer_norm_eps 1e-05")],
                "opt_step embedding.position 0"]
        assert p1.read_bytes().decode("latin-1").split("\n")[:len(head)] == head
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded.model, loaded.optimizer, loaded.step, p2, digest=loaded.digest)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float_field_given_as_int_round_trips(self, tmp_path):
        """``ModelConfig(dropout=0)`` is written as its field's type spells it."""
        model = small_model(seed=4, dropout=0)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, Adam(model.trainable_parameters()), 2, p1)
        assert b"\nmodel_config dropout 0.0\n" in p1.read_bytes()
        loaded = load_checkpoint(p1)
        assert loaded.model.config == model.config
        save_checkpoint(loaded.model, loaded.optimizer, loaded.step, p2, digest=loaded.digest)
        assert p1.read_bytes() == p2.read_bytes()

    def test_projected_variant_round_trip(self, tmp_path):
        wv = np.random.default_rng(5).standard_normal((30, 6)).astype(np.float32)
        model = WordBertModel(
            ModelConfig(vocab_size=30, num_layers=1, num_heads=2, hidden=8, embed_dim=6,
                        max_positions=10, variant="projected", freeze_embeddings=True,
                        dropout=0.0),
            seed=6,
            word_vectors=wv,
        )
        path = tmp_path / "p.ckpt"
        save_checkpoint(model, Adam(model.trainable_parameters()), 0, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.model.params["embedding.word"].data, wv)
        trainable = loaded.model.trainable_parameters()
        assert "embedding.word" not in trainable and "embedding.projection" in trainable

    @pytest.mark.parametrize("variant", ["direct", "projected"])
    def test_load_draws_no_random_init(self, tmp_path, monkeypatch, variant):
        if variant == "direct":
            model = small_model(seed=7)
        else:
            wv = np.random.default_rng(8).standard_normal((30, 6)).astype(np.float32)
            model = small_model(seed=7, embed_dim=6, variant="projected",
                                freeze_embeddings=True, word_vectors=wv)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, Adam(model.trainable_parameters()), 0, path)

        def no_draw(*args):
            raise AssertionError("load_checkpoint drew a random initialization")

        monkeypatch.setattr("wordlm.model.substream", no_draw)
        assert load_checkpoint(path).model.checksum() == model.checksum()


class TestIntegrity:
    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        model = small_model(seed=7)
        path = tmp_path / "t.ckpt"
        save_checkpoint(model, Adam(model.trainable_parameters()), 0, path)
        blob = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(blob[:-100])
        with pytest.raises(IntegrityError, match=r"expected \d+ bytes, got \d+"):
            load_checkpoint(tmp_path / "cut.ckpt")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"hello\n---\nworld")
        with pytest.raises(IntegrityError, match="not a"):
            load_checkpoint(path)

    def test_missing_separator(self, tmp_path):
        path = tmp_path / "nosep.ckpt"
        path.write_bytes(b"#wordlm-checkpoint v1\nstep 0\n")
        with pytest.raises(IntegrityError, match="separator"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "prefix,replacement,message",
        [
            ("step ", "step x", "expected 'step <int>', found 'step x'"),
            ("tensor mlm.bias ", "tensor mlm.bias f32 30 0", "expected {want}, found {got}"),
            ("tensor mlm.bias ", "tensor mlm.bias f32 30 -4 120", "expected {want}, found {got}"),
            ("model_config hidden ", "model_config depth 3",
             "expected 'model_config hidden <int>', found 'model_config depth 3'"),
            ("model_config hidden ", "model_config hidden eight",
             "expected 'model_config hidden <int>', found 'model_config hidden eight'"),
            ("tensor optimizer.v.mlm.bias ", None, "expected {want}, found {got}"),
            # a second step line, in place of the seed line
            ("seed ", "step 999", "expected 'seed <int>', found 'step 999'"),
            # a moment pointed at the bytes of its parameter, at payload offset 0
            ("tensor optimizer.m.embedding.position ",
             "tensor optimizer.m.embedding.position f32 10x8 0 320", "expected {want}, found {got}"),
        ],
        ids=["step-not-int", "tensor-too-few-fields", "negative-offset", "unknown-config-key",
             "config-value-type", "moment-without-twin", "repeated-key", "overlapping-tensors"],
    )
    def test_corrupt_manifest_line_names_file_and_line(self, tmp_path, prefix, replacement, message):
        path, before, after = _rewrite_manifest_line(tmp_path, prefix, replacement)
        # the named line is the first that differs from the saved manifest
        lineno, want, got = _first_difference(before, after)
        message = message.format(want=want, got=got)
        for read in (read_manifest, load_checkpoint):
            with pytest.raises(IntegrityError, match=re.escape(f"{path}:{lineno}: {message}")):
                read(path)

    @pytest.mark.parametrize(
        "prefix,replacement,message",
        [
            ("step ", None, ":{line}: expected 'step <int>', found 'seed 9'"),
            ("model_config vocab_size ", None,
             ":{line}: expected 'model_config vocab_size <int>', found 'model_config num_layers 1'"),
            ("tensor mlm.bias ", None, ":{line}: expected {want}, found {got}"),
            ("tensor optimizer.m.mlm.bias ", "tensor optimizer.m.mlm.bias f32 3x10 {} 120",
             ":{line}: expected {want}, found {got}"),
            ("model_config num_heads ", "model_config num_heads 3",
             ": invalid model_config: hidden 8 not divisible by num_heads 3"),
            ("tensor mlm.bias ", "tensor head.tags.weight f32 30 {} 120",
             ":{line}: expected {want}, found {got}"),
            (MLM_BIAS_MOMENTS, lambda line: line.replace("mlm.bias", "bogus"),
             ":{line}: expected {want}, found {got}"),
            ("opt_step mlm.bias ", "opt_step bogus 0", ":{line}: expected {want}, found {got}"),
            (MLM_BIAS_MOMENTS, None, ":{line}: expected {want}, found {got}"),
            (("tensor optimizer.", "opt_step "), None,
             ":{line}: expected 'opt_step <int>', found {got}"),
            ("opt_step mlm.bias ", None, ":{line}: expected {want}, found {got}"),
            ("opt_step mlm.bias ", "opt_step mlm.bias 5", ":{line}: expected {want}, found {got}"),
            *[("model_config layer_norm_eps ", f"model_config layer_norm_eps {eps}",
               ":{line}: expected {want}, found {got}")
              for eps in ("nan", "-1.0", "0.0", "inf")],
            ("model_config freeze_embeddings ", "model_config freeze_embeddings true",
             ": invalid model_config: variant 'direct' requires freeze_embeddings=false"),
            # negative counts: the lines agree with the layout they imply
            ("step ", "step -3", ":{line}: step must not be negative, found 'step -3'"),
            ("seed ", "seed -1", ":{line}: seed must not be negative, found 'seed -1'"),
            ("opt_step ", lambda line: line.rpartition(" ")[0] + " -3",
             ":{line}: opt_step must not be negative, found {got}"),
        ],
        ids=["no-step", "no-vocab-size", "no-parameter", "moment-shape", "invalid-config",
             "unknown-tensor", "unknown-moments", "unknown-opt-step", "partial-moments",
             "no-optimizer-state", "partial-opt-steps", "opt-steps-differ", "eps-nan",
             "eps-negative", "eps-zero", "eps-inf", "direct-frozen", "negative-step",
             "negative-seed", "negative-opt-step"],
    )
    def test_inconsistent_manifest_names_file(self, tmp_path, prefix, replacement, message):
        path, before, after = _rewrite_manifest_line(tmp_path, prefix, replacement)
        lineno, want, got = _first_difference(before, after)
        message = message.format(line=lineno, want=want, got=got)
        with pytest.raises(IntegrityError, match=re.escape(f"{path}{message}")):
            load_checkpoint(path)

    def test_manifest_line_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "c.ckpt"
        model = small_model(seed=9)
        save_checkpoint(model, Adam(model.trainable_parameters()), 0, path)
        data = path.read_bytes()
        at = data.index(b"\nseed ") + len(b"\nseed ")
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        lineno = data[:at].count(b"\n") + 1
        for read in (read_manifest, load_checkpoint):
            with pytest.raises(IntegrityError, match=re.escape(
                    f"{path}:{lineno}: manifest is not UTF-8: 'utf-8' codec can't decode byte 0xff")):
                read(path)

    def test_gap_between_tensors_is_refused(self, tmp_path):
        """Four bytes before the last tensor, with its offset and the payload size
        moved to match: every tensor still lies in the payload, but no writer
        leaves a gap."""
        path, before, _ = _rewrite_manifest_line(tmp_path, "tensor optimizer.v.mlm.bias ", None)
        last = next(line for line in before if line.startswith("tensor optimizer.v.mlm.bias "))
        *head, offset, length = last.split(" ")
        size = int(before[-2].split(" ")[1])
        lines = before[:-3] + [" ".join([*head, str(int(offset) + 4), length]),
                               f"payload_bytes {size + 4}", ""]
        payload = path.read_bytes().split(b"---\n", 1)[1]
        path.write_bytes("\n".join(lines).encode() + b"---\n" + payload[:int(offset)]
                         + bytes(4) + payload[int(offset):])
        lineno = len(lines) - 2
        for read in (read_manifest, load_checkpoint):
            with pytest.raises(IntegrityError, match=re.escape(
                    f"{path}:{lineno}: expected {last!r}, found {lines[lineno - 1]!r}")):
                read(path)

    @pytest.mark.parametrize("value", ["false", "true"])
    def test_legacy_gelu_approx_line(self, tmp_path, value):
        """Files written while a tanh GELU could be selected carry a gelu_approx
        line after dropout: false loads as before, true is refused."""
        legacy = f"model_config gelu_approx {value}"
        path, _, _ = _rewrite_manifest_line(
            tmp_path, "model_config dropout ", lambda line: f"{line}\n{legacy}"
        )
        if value == "false":
            assert load_checkpoint(path).model.checksum() == small_model(seed=9).checksum()
            return
        lineno = path.read_bytes().split(b"\n").index(legacy.encode()) + 1
        for read in (read_manifest, load_checkpoint):
            with pytest.raises(IntegrityError, match=re.escape(
                    f"{path}:{lineno}: expected 'model_config layer_norm_eps 1e-05', "
                    f"found {legacy!r}")):
                read(path)

    @pytest.mark.parametrize("eps", ["1e+30", "0.5", "1.0e-05"])
    def test_other_epsilon_is_refused_at_its_line(self, tmp_path, capsys, eps):
        """The layer-norm epsilon is a constant of the model, so its line reads
        1e-05 and nothing else, not even the same value spelled another way."""
        path, _, _ = _rewrite_manifest_line(tmp_path, "model_config layer_norm_eps ",
                                            f"model_config layer_norm_eps {eps}")
        message = (f"{path}:14: expected 'model_config layer_norm_eps 1e-05', "
                   f"found 'model_config layer_norm_eps {eps}'")
        for read in (read_manifest, load_checkpoint):
            with pytest.raises(IntegrityError, match=re.escape(message)):
                read(path)
        vocab, items = tmp_path / "vocab.tsv", tmp_path / "cloze.jsonl"
        corpus_and_vocab()[1].save(vocab)
        items.write_text(json.dumps({"passage_words": ["red", "[BLANK]", "blue"],
                                     "options": ["green", "cyan", "teal", "plum"],
                                     "answer_index": 0}) + "\n")
        for argv in (["inspect-checkpoint", str(path)],
                     ["eval-cloze", "--checkpoint", str(path), "--vocab", str(vocab),
                      "--items", str(items)]):
            assert main(argv) == 1
            assert capsys.readouterr() == ("", f"wordlm: error: {message}\n")

    def test_manifest_lists_tensors(self, tmp_path):
        model = small_model(seed=8)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, Adam(model.trainable_parameters()), 12, path,
                        digest=config_digest("cfg text"))
        manifest, _ = read_manifest(path)
        assert manifest.step == 12
        assert manifest.lines == path.read_bytes().split(b"\n---\n")[0].decode().split("\n")
        shape, offset, length = manifest.tensors["embedding.word"]
        assert shape == (30, 8) and length == 30 * 8 * 4


class TestRefusedEarly:
    """A manifest value is checked against the file before anything in
    proportion to it is computed or allocated."""

    @pytest.mark.parametrize(
        "prefix,replacement,message",
        [
            ("model_config vocab_size ", "model_config vocab_size 1000000000000",
             ":{line}: expected 'tensor embedding.word f32 1000000000000x8 320 32000000000000', "
             "found 'tensor embedding.word f32 30x8 320 960'"),
            ("model_config num_layers ", "model_config num_layers 1000000000",
             ":{line}: model_config num_layers 1000000000 exceeds the {lines} lines of the manifest"),
        ],
        ids=["vocab-size", "num-layers"],
    )
    def test_huge_config_value_is_one_line(self, tmp_path, capsys, prefix, replacement, message):
        path, before, after = _rewrite_manifest_line(tmp_path, prefix, replacement)
        named = "tensor embedding.word " if "vocab_size" in prefix else prefix
        line = next(i for i, text in enumerate(after, 1) if text.startswith(named))
        message = message.format(line=line, lines=len(after) - 1)  # from step to the separator
        tracemalloc.start()
        try:
            code = main(["inspect-checkpoint", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"wordlm: error: {path}{message}\n")
        assert peak < 2**20, f"inspect-checkpoint allocated {peak} B"
        with pytest.raises(IntegrityError, match=re.escape(f"{path}{message}")):
            load_checkpoint(path)

    def test_text_file_is_refused_at_its_first_line(self, tmp_path, capsys):
        path = tmp_path / "corpus.txt"
        line = b"the quick brown fox jumps over the lazy dog\n"
        path.write_bytes(line * (16 * 2**20 // len(line)))
        tracemalloc.start()
        try:
            code = main(["inspect-checkpoint", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"wordlm: error: {path}: not a #wordlm-checkpoint v1 file\n"
        assert peak < 2**20, f"inspect-checkpoint allocated {peak} B on a {path.stat().st_size} B file"


class TestSave:
    def test_save_streams_tensors_without_copying_payload(self, tmp_path):
        model = small_model(vocab_size=4_000, hidden=32, embed_dim=32)
        opt = Adam(model.trainable_parameters())
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(model, opt, 0, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload = read_manifest(path)[0].payload_bytes
        assert peak < 0.1 * payload, f"peak {peak} B for a {payload} B payload"

    def test_optimizer_over_other_parameters_is_refused(self, tmp_path):
        wv = np.random.default_rng(8).standard_normal((30, 6)).astype(np.float32)
        model = small_model(seed=7, embed_dim=6, variant="projected",
                            freeze_embeddings=True, word_vectors=wv)
        path = tmp_path / "m.ckpt"
        trainable = model.trainable_parameters()
        del trainable["mlm.bias"]
        for optimizer, name in ((Adam(model.parameters()), "optimizer.m.embedding.word"),
                                (Adam(trainable), "optimizer.m.mlm.bias")):
            with pytest.raises(ContractError, match=re.escape(f"cannot save tensor {name}: ")):
                save_checkpoint(model, optimizer, 0, path)
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        model = small_model(seed=4)
        path = tmp_path / "keep.ckpt"
        opt = Adam(model.trainable_parameters())
        save_checkpoint(model, opt, 1, path)
        before = path.read_bytes()

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fail)
        model.params["mlm.bias"].data[:] = 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(model, opt, 2, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.ckpt"]


class TestLoadMemory:
    """A load reads each tensor into the array that owns it; the manifest
    alone is read without touching the payload."""

    @pytest.fixture(scope="class")
    def big_checkpoint(self, tmp_path_factory):
        model = small_model(vocab_size=30_000, hidden=32, embed_dim=32)
        path = tmp_path_factory.mktemp("big") / "big.ckpt"
        save_checkpoint(model, Adam(model.trainable_parameters()), 0, path)
        assert path.stat().st_size >= 10 * 2**20
        return path, model.checksum()

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_load_peak_is_one_copy_of_the_file(self, big_checkpoint):
        path, checksum = big_checkpoint
        loaded, peak = self._peak(lambda: load_checkpoint(path))
        size = path.stat().st_size
        assert peak <= 1.05 * size, f"peak {peak} B for a {size} B file"
        assert loaded.model.checksum() == checksum

    def test_read_manifest_reads_no_payload(self, big_checkpoint):
        path, _ = big_checkpoint
        (manifest, offset), peak = self._peak(lambda: read_manifest(path))
        assert peak < 2**20, f"read_manifest allocated {peak} B"
        assert offset + manifest.payload_bytes == path.stat().st_size


class TestResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        lines, vocab = corpus_and_vocab()
        cfg = TrainConfig(
            peak_lr=1e-3, warmup_steps=2, total_steps=10, batch_size=4,
            seed=13, sample_size=1000, max_length=8,
        )

        def fresh_model():
            return WordBertModel(
                ModelConfig(vocab_size=vocab.size, num_layers=1, num_heads=2, hidden=8,
                            embed_dim=8, max_positions=8, dropout=0.0),
                seed=14,
            )

        model_a = fresh_model()
        records_a, _ = train(lines, vocab, model_a, cfg, num_steps=10)

        model_b = fresh_model()
        records_b1, opt_b = train(lines, vocab, model_b, cfg, num_steps=5)
        path = tmp_path / "resume.ckpt"
        save_checkpoint(model_b, opt_b, step=5, path=path)

        loaded = load_checkpoint(path)
        resumed_cfg = TrainConfig(**{**cfg.__dict__, "seed": cfg.seed})
        records_b2, _ = train(
            lines, vocab, loaded.model, resumed_cfg,
            optimizer=loaded.optimizer, num_steps=5,
        )
        all_b = [r.loss for r in records_b1 + records_b2]
        all_a = [r.loss for r in records_a]
        assert all_a == all_b  # bit-exact
