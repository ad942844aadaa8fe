"""Run-configuration parsing, merging, and validation tests."""

import ast
import re
from pathlib import Path

import pytest

from wordlm import cli, config
from wordlm.config import DECLARED_KEYS, RunConfig
from wordlm.errors import ConfigError, ContractError
from wordlm.evaluation import ClozeItem, FrequencyBuckets, ProbeExample
from wordlm.model import ModelConfig
from wordlm.training import TrainConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wordlm"


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: ModelConfig(vocab_size=40, num_heads=3, hidden=16, embed_dim=16),
         "hidden 16 not divisible by num_heads 3"),
        (lambda: TrainConfig(batch_size=0), "batch_size must be positive"),
        (lambda: FrequencyBuckets({}, high=10, medium=10, low=3),
         "thresholds must satisfy high > medium > low > 0, got 10/10/3"),
        (lambda: ProbeExample(["a", "b"], [1], ["a"], "Low"),
         "gold word 'a' does not sit at position 1"),
        (lambda: ClozeItem(["a", "b"], ["w", "x", "y", "z"], 0),
         "passage must contain exactly one [BLANK]"),
        (lambda: ModelConfig(vocab_size=4, num_heads=2, hidden=16, embed_dim=16),
         "vocab_size 4 must cover the specials"),
        (lambda: ModelConfig(vocab_size=40, num_heads=2, hidden=16, embed_dim=0,
                             variant="projected", freeze_embeddings=True),
         "embed_dim 0 must be positive"),
        (lambda: ProbeExample(["a", "b"], [1], ["b"], "Common"), "unknown bucket 'Common'"),
        (lambda: ProbeExample(["a", "b"], [0, 1], ["a"], "Low"),
         "masked_positions and gold_words must align"),
        (lambda: ProbeExample(["a", "b"], [1, 0], ["b", "a"], "Low"),
         "masked_positions must be strictly increasing"),
    ],
    ids=["ModelConfig", "TrainConfig", "FrequencyBuckets", "ProbeExample", "ClozeItem",
         "ModelConfig-vocab-size", "ModelConfig-projected-embed-dim", "ProbeExample-bucket",
         "ProbeExample-unaligned", "ProbeExample-unordered"],
)
def test_settings_and_records_check_themselves_when_built(build, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        build()


class TestLoading:
    def test_defaults(self):
        cfg = RunConfig.load()
        assert cfg["model.hidden"] == 768
        assert cfg["train.peak_lr"] == 5e-5
        assert cfg["train.warmup_steps"] == 5_000

    def test_file_values_override_defaults(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\n\nmodel.hidden = 64\ntrain.peak_lr = 1e-3\n")
        cfg = RunConfig.load(p)
        assert cfg["model.hidden"] == 64
        assert cfg["train.peak_lr"] == 1e-3
        assert RunConfig.load(p, overrides=["model.hidden=32"])["model.hidden"] == 32  # --set wins

    def test_unknown_key_rejected_by_name(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("model.depth = 3\n")
        with pytest.raises(ConfigError) as exc:
            RunConfig.load(p)
        assert "model.depth" in str(exc.value)

    def test_all_violations_listed(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("bogus.key = 1\nmodel.hidden = not-a-number\n")
        with pytest.raises(ConfigError) as exc:
            RunConfig.load(p)
        assert "bogus.key" in str(exc.value)
        assert "model.hidden" in str(exc.value)

    def test_key_set_twice_in_the_file_rejected(self, tmp_path):
        """A file that sets a key twice names both lines; a ``--set`` still
        overrides the file, and a repeated ``--set`` keeps its last value."""
        p = tmp_path / "run.cfg"
        p.write_text("train.seed = 1\n" + "# filler\n" * 8 + "train.seed = 2\n")
        with pytest.raises(ConfigError) as exc:
            RunConfig.load(p)
        assert exc.value.violations == [f"{p}:10: key 'train.seed' already set at line 1"]
        p.write_text("train.seed = 1\n")
        overrides = ["train.seed=2", "train.seed=3"]
        assert RunConfig.load(p, overrides=overrides)["train.seed"] == 3

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            RunConfig.load(p)

    def test_unreadable_file_and_override_without_equals_rejected(self, tmp_path):
        missing = tmp_path / "none.cfg"
        with pytest.raises(ConfigError) as exc:
            RunConfig.load(missing)
        assert exc.value.violations == [
            f"cannot read config file {missing}: [Errno 2] No such file or directory: "
            f"'{missing}'"]
        with pytest.raises(ConfigError) as exc:
            RunConfig.load(None, overrides=["train.seed"])
        assert exc.value.violations == ["override 'train.seed' is not key=value"]

    def test_bool_parsing(self):
        cfg = RunConfig.load(None, overrides=["train.use_neighbors=true"])
        assert cfg["train.use_neighbors"] is True
        with pytest.raises(ConfigError):
            RunConfig.load(None, overrides=["train.use_neighbors=maybe"])

    # a boolean is spelled as effective.cfg and the checkpoint manifest write it
    @pytest.mark.parametrize("value", ["yes", "1", "TRUE"])
    def test_bool_spelled_otherwise_refused(self, value):
        with pytest.raises(ConfigError) as exc:
            RunConfig.load(None, overrides=[f"train.use_neighbors={value}"])
        assert exc.value.violations == [
            f"bad value for train.use_neighbors: '{value}' (command line)"]


class TestViews:
    def test_canonical_text_round_trips(self, tmp_path):
        cfg = RunConfig.load(None, overrides=["model.hidden=32"])
        p = tmp_path / "echo.cfg"
        p.write_text(cfg.text())
        again = RunConfig.load(p)
        assert again.values == cfg.values
        assert again.text() == cfg.text()
        # each value spelled as the checkpoint manifest spells it
        assert {"train.use_neighbors = false", "train.peak_lr = 5e-05",
                "model.hidden = 32"} <= set(cfg.text().splitlines())

    def test_echo_into_directory(self, tmp_path):
        cfg = RunConfig.load()
        cfg.echo_into(tmp_path)
        assert (tmp_path / "effective.cfg").read_text() == cfg.text()

    def test_model_config_view(self):
        cfg = RunConfig.load(
            None,
            overrides=["model.layers=2", "model.hidden=16", "model.heads=2"]
        )
        mc = cfg.view(ModelConfig, vocab_size=100, embed_dim=16)  # the word table is not a key
        assert (mc.num_layers, mc.num_heads, mc.hidden, mc.vocab_size) == (2, 2, 16, 100)

    def test_train_and_masking_views(self):
        cfg = RunConfig.load(None, overrides=["train.total_steps=100", "train.warmup_steps=10"])
        tc = cfg.view(TrainConfig)
        assert (tc.total_steps, tc.warmup_steps) == (100, 10)
        # BERT's masking recipe is fixed in training.py, so it has no view and no keys
        with pytest.raises(ConfigError, match="unknown key 'train.mask_ratio'"):
            RunConfig.load(None, overrides=["train.mask_ratio=0.2"])

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = RunConfig.load()
        assert cfg.view(ModelConfig, vocab_size=100) == ModelConfig(vocab_size=100)
        assert cfg.view(TrainConfig) == TrainConfig()
        assert cfg.view(FrequencyBuckets, reference_frequencies={}) == FrequencyBuckets({})
        assert len(DECLARED_KEYS) == 15
        assert {"model.layers", "model.heads"} <= set(DECLARED_KEYS)
        assert not {"model.vocab_size", "model.layer_norm_eps", "vocab.k", "train.max_length",
                    "model.variant", "model.embed_dim", "model.freeze_embeddings",
                    "model.seed", "train.mask_ratio", "train.replace_mask",
                    "train.replace_random", "train.keep_original", "train.neighbor_k",
                    "eval.mask_probability", "eval.topk"} & set(DECLARED_KEYS)

    @pytest.mark.parametrize(
        "overrides,cls,extra,expected",
        [
            (["model.heads=0"], ModelConfig, {}, ["model.heads 0 must be positive"]),
            # 'hidden', a field name, is quoted and stays; variant, a field without a
            # key, is passed as an extra and keeps its name
            ([], ModelConfig, {"variant": "hidden"},
             ["variant must be one of ('direct', 'projected'), got 'hidden'"]),
            (["model.max_positions=2"], ModelConfig, {}, ["model.max_positions 2 must be >= 3"]),
            (["train.batch_size=0", "train.sample_size=0"], TrainConfig, {},
             ["train.batch_size must be positive", "train.sample_size must be positive"]),
            (["eval.threshold_medium=5000"], FrequencyBuckets, {},
             ["thresholds must satisfy eval.threshold_high > eval.threshold_medium > "
              "eval.threshold_low > 0, got 3000/5000/3"]),
        ],
        ids=["heads-zero", "quoted-value-kept", "max-positions", "two-train-violations",
             "bucket-thresholds"],
    )
    def test_violations_name_keys(self, overrides, cls, extra, expected):
        cfg = RunConfig.load(None, overrides=overrides)
        extra = {ModelConfig: {"vocab_size": 100},
                 FrequencyBuckets: {"reference_frequencies": {}}}.get(cls, {}) | extra
        with pytest.raises(ConfigError) as exc:
            cfg.view(cls, **extra)
        assert exc.value.violations == expected


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
