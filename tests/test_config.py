"""Run-configuration parsing, merging, and validation tests."""

import pytest

from wordlm.config import DECLARED_KEYS, RunConfig, env_var_name
from wordlm.errors import ConfigError


class TestLoading:
    def test_defaults(self):
        cfg = RunConfig.load(env={})
        assert cfg["model.hidden"] == 768
        assert cfg["train.peak_lr"] == 5e-5
        assert cfg["train.warmup_steps"] == 5_000
        assert cfg["vocab.lowercase"] is True

    def test_file_values_override_defaults(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\n\nmodel.hidden = 64\ntrain.peak_lr = 1e-3\n")
        cfg = RunConfig.load(p, env={})
        assert cfg["model.hidden"] == 64
        assert cfg["train.peak_lr"] == 1e-3

    def test_env_overrides_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.batch_size = 8\n")
        cfg = RunConfig.load(p, env={"WORDLM_TRAIN_BATCH_SIZE": "16"})
        assert cfg["train.batch_size"] == 16

    def test_cli_overrides_env(self, tmp_path):
        cfg = RunConfig.load(
            None, overrides=["train.batch_size=32"], env={"WORDLM_TRAIN_BATCH_SIZE": "16"}
        )
        assert cfg["train.batch_size"] == 32

    def test_unknown_key_rejected_by_name(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("model.depth = 3\n")
        with pytest.raises(ConfigError) as exc:
            RunConfig.load(p, env={})
        assert "model.depth" in str(exc.value)

    def test_all_violations_listed(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("bogus.key = 1\nmodel.hidden = not-a-number\n")
        with pytest.raises(ConfigError) as exc:
            RunConfig.load(p, env={})
        assert "bogus.key" in str(exc.value)
        assert "model.hidden" in str(exc.value)

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            RunConfig.load(p, env={})

    def test_bool_parsing(self):
        cfg = RunConfig.load(None, overrides=["model.gelu_approx=true"], env={})
        assert cfg["model.gelu_approx"] is True
        with pytest.raises(ConfigError):
            RunConfig.load(None, overrides=["model.gelu_approx=maybe"], env={})

    def test_every_declared_key_has_env_name(self):
        names = {env_var_name(k) for k in DECLARED_KEYS}
        assert len(names) == len(DECLARED_KEYS)
        assert env_var_name("train.peak_lr") == "WORDLM_TRAIN_PEAK_LR"


class TestViews:
    def test_canonical_text_round_trips(self, tmp_path):
        cfg = RunConfig.load(None, overrides=["model.hidden=32"], env={})
        p = tmp_path / "echo.cfg"
        p.write_text(cfg.text())
        again = RunConfig.load(p, env={})
        assert again.values == cfg.values
        assert again.text() == cfg.text()

    def test_echo_into_directory(self, tmp_path):
        cfg = RunConfig.load(env={})
        cfg.echo_into(tmp_path)
        assert (tmp_path / "effective.cfg").read_text() == cfg.text()

    def test_model_config_view(self):
        cfg = RunConfig.load(
            None,
            overrides=["model.layers=2", "model.hidden=16", "model.embed_dim=16", "model.heads=2"],
            env={},
        )
        mc = cfg.model_config(vocab_size=100)
        mc.validate()
        assert (mc.num_layers, mc.hidden, mc.vocab_size) == (2, 16, 100)

    def test_train_and_masking_views(self):
        cfg = RunConfig.load(
            None,
            overrides=["train.mask_ratio=0.2", "train.total_steps=100", "train.warmup_steps=10"],
            env={},
        )
        tc = cfg.train_config()
        tc.validate()
        assert tc.total_steps == 100
        mp = cfg.masking_policy()
        mp.validate()
        assert mp.mask_ratio == 0.2

    def test_topk_list(self):
        cfg = RunConfig.load(None, overrides=["eval.topk=1,5,10"], env={})
        assert cfg.topk_list() == (1, 5, 10)
        bad = RunConfig.load(None, overrides=["eval.topk=one"], env={})
        with pytest.raises(ConfigError):
            bad.topk_list()
        below_one = RunConfig.load(None, overrides=["eval.topk=0,-3"], env={})
        with pytest.raises(ConfigError, match="eval.topk"):
            below_one.topk_list()
