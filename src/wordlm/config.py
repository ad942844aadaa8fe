"""Flat ``key = value`` run configuration with env and CLI overrides.

Keys are sectioned with dots (model.hidden, train.peak_lr). Precedence:
defaults < config file < WORDLM_<SECTION>_<KEY> environment variables < CLI
overrides. Unknown keys and uncoercible values are rejected together, each
named in the error.
"""

from __future__ import annotations

import os

from .errors import ConfigError
from .model import ModelConfig
from .training import MaskingPolicy, TrainConfig

_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(s: str) -> bool:
    try:
        return _BOOL_STRINGS[s.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {s!r}")


# key -> (type converter, default)
DECLARED_KEYS: dict[str, tuple] = {
    "model.layers": (int, 12),
    "model.heads": (int, 12),
    "model.hidden": (int, 768),
    "model.embed_dim": (int, 768),
    "model.max_positions": (int, 512),
    "model.variant": (str, "direct"),
    "model.freeze_embeddings": (_parse_bool, False),
    "model.dropout": (float, 0.1),
    "model.gelu_approx": (_parse_bool, False),
    "model.seed": (int, 0),
    "train.peak_lr": (float, 5e-5),
    "train.warmup_steps": (int, 5_000),
    "train.total_steps": (int, 200_000),
    "train.batch_size": (int, 32),
    "train.seed": (int, 0),
    "train.sample_size": (int, 30_000),
    "train.max_length": (int, 512),
    "train.neighbor_k": (int, 10),
    "train.use_neighbors": (_parse_bool, False),
    "train.mask_ratio": (float, 0.15),
    "train.replace_mask": (float, 0.8),
    "train.replace_random": (float, 0.1),
    "train.keep_original": (float, 0.1),
    "vocab.k": (int, 500_000),
    "vocab.lowercase": (_parse_bool, True),
    "eval.threshold_high": (int, 3_000),
    "eval.threshold_medium": (int, 300),
    "eval.threshold_low": (int, 3),
    "eval.mask_probability": (float, 0.15),
    "eval.topk": (str, "1,5,10"),
}


def env_var_name(key: str) -> str:
    return "WORDLM_" + key.replace(".", "_").upper()


class RunConfig:
    """Effective merged configuration; every consumed key is declared."""

    def __init__(self, values: dict):
        self.values = values

    def __getitem__(self, key: str):
        return self.values[key]

    @classmethod
    def load(
        cls,
        path=None,
        overrides: list[str] | None = None,
        env: dict | None = None,
    ) -> "RunConfig":
        env = os.environ if env is None else env
        values = {k: default for k, (_, default) in DECLARED_KEYS.items()}
        violations = []

        def apply(key: str, raw: str, source: str):
            if key not in DECLARED_KEYS:
                violations.append(f"unknown key {key!r} ({source})")
                return
            conv = DECLARED_KEYS[key][0]
            try:
                values[key] = conv(raw.strip())
            except (ValueError, TypeError):
                violations.append(f"bad value for {key}: {raw!r} ({source})")

        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:
                    lines = fh.readlines()
            except OSError as err:
                raise ConfigError([f"cannot read config file {path}: {err}"]) from err
            for lineno, line in enumerate(lines, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    violations.append(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
                    continue
                key, _, raw = stripped.partition("=")
                apply(key.strip(), raw, f"{path}:{lineno}")

        for key in DECLARED_KEYS:
            var = env_var_name(key)
            if var in env:
                apply(key, env[var], f"env {var}")

        for item in overrides or []:
            if "=" not in item:
                violations.append(f"override {item!r} is not key=value")
                continue
            key, _, raw = item.partition("=")
            apply(key.strip(), raw, "command line")

        if violations:
            raise ConfigError(violations)
        return cls(values)

    def text(self) -> str:
        """Canonical rendering: sorted keys, one ``key = value`` per line."""
        out = []
        for key in sorted(self.values):
            v = self.values[key]
            if isinstance(v, bool):
                v = "true" if v else "false"
            out.append(f"{key} = {v}")
        return "\n".join(out) + "\n"

    def echo_into(self, out_dir):
        with open(os.path.join(out_dir, "effective.cfg"), "w", encoding="utf-8") as fh:
            fh.write(self.text())

    # ------------------------------------------------------------------
    # typed views
    # ------------------------------------------------------------------

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            vocab_size=vocab_size,
            num_layers=self["model.layers"],
            num_heads=self["model.heads"],
            hidden=self["model.hidden"],
            embed_dim=self["model.embed_dim"],
            max_positions=self["model.max_positions"],
            variant=self["model.variant"],
            freeze_embeddings=self["model.freeze_embeddings"],
            dropout=self["model.dropout"],
            gelu_approx=self["model.gelu_approx"],
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            peak_lr=self["train.peak_lr"],
            warmup_steps=self["train.warmup_steps"],
            total_steps=self["train.total_steps"],
            batch_size=self["train.batch_size"],
            seed=self["train.seed"],
            sample_size=self["train.sample_size"],
            max_length=self["train.max_length"],
            neighbor_k=self["train.neighbor_k"],
        )

    def masking_policy(self) -> MaskingPolicy:
        return MaskingPolicy(
            mask_ratio=self["train.mask_ratio"],
            replace_mask=self["train.replace_mask"],
            replace_random=self["train.replace_random"],
            keep_original=self["train.keep_original"],
        )

    def topk_list(self) -> tuple[int, ...]:
        try:
            ks = tuple(int(p) for p in self["eval.topk"].split(",") if p.strip())
        except ValueError as err:
            raise ConfigError([f"bad value for eval.topk: {self['eval.topk']!r}"]) from err
        if not ks:
            raise ConfigError(["eval.topk must list at least one k"])
        if min(ks) < 1:
            raise ConfigError([f"bad value for eval.topk: {self['eval.topk']!r} (k must be >= 1)"])
        return ks
