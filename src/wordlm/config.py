"""Flat ``key = value`` run configuration with env and CLI overrides.

Keys are sectioned with dots (model.hidden, train.peak_lr). Precedence:
defaults < config file < WORDLM_<SECTION>_<KEY> environment variables < CLI
overrides. Unknown keys and uncoercible values are rejected together, each
named in the error. A key backed by a dataclass field (``FIELD_KEYS``) takes
its type and default from that field.
"""

from __future__ import annotations

import os
import re
from dataclasses import fields
from typing import get_type_hints

from .errors import ConfigError, ContractError
from .evaluation import FrequencyBuckets
from .model import ModelConfig
from .training import MaskingPolicy, TrainConfig

_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(s: str) -> bool:
    try:
        return _BOOL_STRINGS[s.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {s!r}")


_RENAMED = {
    "num_layers": "layers", "num_heads": "heads",
    "high": "threshold_high", "medium": "threshold_medium", "low": "threshold_low",
}

# dataclass -> {field name: dotted key}; vocab_size, layer_norm_eps and the
# reference frequencies are not settings
FIELD_KEYS = {
    cls: {f.name: f"{section}.{_RENAMED.get(f.name, f.name)}" for f in fields(cls)
          if f.name not in ("vocab_size", "layer_norm_eps", "reference_frequencies")}
    for cls, section in ((ModelConfig, "model"), (TrainConfig, "train"), (MaskingPolicy, "train"),
                         (FrequencyBuckets, "eval"))
}

# key -> (type converter, default)
DECLARED_KEYS: dict[str, tuple] = {
    keys[f.name]: (_parse_bool if hint is bool else hint, f.default)
    for cls, keys in FIELD_KEYS.items() for f in fields(cls) if f.name in keys
    for hint in [get_type_hints(cls)[f.name]]
} | {
    "model.seed": (int, 0),
    "train.use_neighbors": (_parse_bool, False),
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
    def load(cls, path=None, overrides: list[str] | None = None, env: dict | None = None):
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

    def view(self, cls, **extra):
        """Build ``cls``, which checks itself, from its keys plus the ``extra`` fields.

        Every violation becomes one ``ConfigError`` line, with each field name
        outside quotes replaced by its key.
        """
        keys = FIELD_KEYS[cls]
        violations = []
        try:
            obj = cls(**extra, **{name: self[key] for name, key in keys.items()})
        except ContractError as err:
            field_name = r"'[^']*'|\b(" + "|".join(keys) + r")\b"
            keyed = re.sub(field_name, lambda m: keys[m[1]] if m[1] else m[0], str(err))
            violations = keyed.split("; ")
        if cls is TrainConfig and self["train.max_length"] > self["model.max_positions"]:
            violations.append(
                f"train.max_length {self['train.max_length']} exceeds "
                f"model.max_positions {self['model.max_positions']}"
            )
        if violations:
            raise ConfigError(violations)
        return obj

    def topk_list(self) -> tuple[int, ...]:
        topk = self["eval.topk"]
        try:
            ks = tuple(int(p) for p in topk.split(",") if p.strip())
        except ValueError:
            ks = ()
        if not ks or min(ks) < 1:
            raise ConfigError([f"bad value for eval.topk: {topk!r} (a comma-separated list of k >= 1)"])
        return ks
