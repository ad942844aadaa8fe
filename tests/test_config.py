"""Run-configuration parsing, merging, and validation tests."""

import ast
import re
from pathlib import Path

import pytest

from wordlm import cli, config
from wordlm.config import DECLARED_KEYS, RunConfig, env_var_name
from wordlm.errors import ConfigError, ContractError
from wordlm.evaluation import ClozeItem, FrequencyBuckets, ProbeExample
from wordlm.model import ModelConfig
from wordlm.training import MaskingPolicy, TrainConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wordlm"


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: ModelConfig(vocab_size=40, num_heads=3, hidden=16, embed_dim=16),
         "hidden 16 not divisible by num_heads 3"),
        (lambda: TrainConfig(batch_size=0), "batch_size must be positive"),
        (lambda: MaskingPolicy(mask_ratio=0.0), "mask_ratio 0.0 outside (0, 1]"),
        (lambda: FrequencyBuckets({}, high=10, medium=10, low=3),
         "thresholds must satisfy high > medium > low > 0, got 10/10/3"),
        (lambda: ProbeExample(["a", "b"], [1], ["a"], "Low"),
         "gold word 'a' does not sit at position 1"),
        (lambda: ClozeItem(["a", "b"], ["w", "x", "y", "z"], 0),
         "passage must contain exactly one [BLANK]"),
    ],
    ids=["ModelConfig", "TrainConfig", "MaskingPolicy", "FrequencyBuckets", "ProbeExample",
         "ClozeItem"],
)
def test_settings_and_records_check_themselves_when_built(build, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        build()


class TestLoading:
    def test_defaults(self):
        cfg = RunConfig.load(env={})
        assert cfg["model.hidden"] == 768
        assert cfg["train.peak_lr"] == 5e-5
        assert cfg["train.warmup_steps"] == 5_000

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
        cfg = RunConfig.load(None, overrides=["model.freeze_embeddings=true"], env={})
        assert cfg["model.freeze_embeddings"] is True
        with pytest.raises(ConfigError):
            RunConfig.load(None, overrides=["model.freeze_embeddings=maybe"], env={})

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
        mc = cfg.view(ModelConfig, vocab_size=100)
        assert (mc.num_layers, mc.num_heads, mc.hidden, mc.vocab_size) == (2, 2, 16, 100)

    def test_train_and_masking_views(self):
        cfg = RunConfig.load(
            None,
            overrides=["train.mask_ratio=0.2", "train.total_steps=100", "train.warmup_steps=10"],
            env={},
        )
        tc = cfg.view(TrainConfig)
        assert tc.total_steps == 100
        mp = cfg.view(MaskingPolicy)
        assert mp.mask_ratio == 0.2

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = RunConfig.load(env={})
        assert cfg.view(ModelConfig, vocab_size=100) == ModelConfig(vocab_size=100)
        assert cfg.view(TrainConfig) == TrainConfig()
        assert cfg.view(MaskingPolicy) == MaskingPolicy()
        assert cfg.view(FrequencyBuckets, reference_frequencies={}) == FrequencyBuckets({})
        assert len(DECLARED_KEYS) == 27
        assert {"model.layers", "model.heads"} <= set(DECLARED_KEYS)
        assert not {"model.vocab_size", "model.layer_norm_eps", "vocab.k"} & set(DECLARED_KEYS)

    @pytest.mark.parametrize(
        "overrides,cls,expected",
        [
            (["model.heads=0"], ModelConfig, ["model.heads 0 must be positive"]),
            (["model.variant=hidden"], ModelConfig,
             ["model.variant must be one of ('direct', 'projected'), got 'hidden'"]),
            (["train.mask_ratio=0", "train.keep_original=0.3"], MaskingPolicy,
             ["train.mask_ratio 0.0 outside (0, 1]",
              "train.replace_mask + train.replace_random + train.keep_original sum to 1.2, "
              "expected 1"]),
            (["train.max_length=600"], TrainConfig,
             ["train.max_length 600 exceeds model.max_positions 512"]),
            (["eval.threshold_medium=5000"], FrequencyBuckets,
             ["thresholds must satisfy eval.threshold_high > eval.threshold_medium > "
              "eval.threshold_low > 0, got 3000/5000/3"]),
        ],
        ids=["heads-zero", "quoted-value-kept", "two-masking-violations", "max-length",
             "bucket-thresholds"],
    )
    def test_violations_name_keys(self, overrides, cls, expected):
        cfg = RunConfig.load(None, overrides=overrides, env={})
        extra = {ModelConfig: {"vocab_size": 100},
                 FrequencyBuckets: {"reference_frequencies": {}}}.get(cls, {})
        with pytest.raises(ConfigError) as exc:
            cfg.view(cls, **extra)
        assert exc.value.violations == expected

    def test_topk_list(self):
        cfg = RunConfig.load(None, overrides=["eval.topk=1,5,10"], env={})
        assert cfg.topk_list() == (1, 5, 10)
        bad = RunConfig.load(None, overrides=["eval.topk=one"], env={})
        with pytest.raises(ConfigError):
            bad.topk_list()
        below_one = RunConfig.load(None, overrides=["eval.topk=0,-3"], env={})
        with pytest.raises(ConfigError, match="eval.topk"):
            below_one.topk_list()


def test_every_declared_key_is_consumed():
    """A key counts as consumed when ``src/wordlm`` reads it as ``cfg["key"]``
    (or ``self["key"]``), or when the CLI builds a view of its dataclass."""
    consumed = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id in ("cfg", "self") and isinstance(node.slice, ast.Constant)):
                consumed.add(node.slice.value)
            if (path.name == "cli.py" and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute) and node.func.attr == "view"):
                consumed.update(config.FIELD_KEYS[getattr(cli, node.args[0].id)].values())
    assert sorted(set(DECLARED_KEYS) - consumed) == []
