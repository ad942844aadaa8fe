"""Flat ``key = value`` run configuration with command-line overrides.

Keys are sectioned with dots (model.hidden, train.peak_lr). Precedence:
defaults < config file < ``--set`` overrides. Unknown keys, uncoercible
values (a negative train.seed among them) and a key the file sets twice are
rejected together, each named in the error. A key backed by a
dataclass field (``FIELD_KEYS``) takes its type and default from that field.
"""

from __future__ import annotations

import os
import re
from dataclasses import fields
from typing import get_type_hints

from .checkpoint import _PARSE, format_value
from .errors import ConfigError, ContractError
from .evaluation import FrequencyBuckets
from .model import ModelConfig
from .training import TrainConfig
from .vocab import read_text_lines

def _parse_seed(s: str) -> int:
    seed = int(s)
    if seed < 0:  # numpy seeds a generator from non-negative integers only
        raise ValueError(f"negative seed: {s!r}")
    return seed


_RENAMED = {
    "num_layers": "layers", "num_heads": "heads",
    "high": "threshold_high", "medium": "threshold_medium", "low": "threshold_low",
}

# dataclass -> {field name: dotted key}; vocab_size, the reference frequencies and
# the word table's kind and width (set by --word-vectors) are not settings, and
# TrainConfig.max_length, the encoded window, is model.max_positions
FIELD_KEYS = {
    cls: {f.name: f"{section}.{_RENAMED.get(f.name, f.name)}" for f in fields(cls)
          if f.name not in ("vocab_size", "reference_frequencies", "variant", "embed_dim",
                            "freeze_embeddings", "max_length")}
    for cls, section in ((ModelConfig, "model"), (TrainConfig, "train"), (FrequencyBuckets, "eval"))
}

# key -> (type converter, default)
DECLARED_KEYS: dict[str, tuple] = {
    keys[f.name]: (_PARSE[bool] if hint is bool else hint, f.default)
    for cls, keys in FIELD_KEYS.items() for f in fields(cls) if f.name in keys
    for hint in [get_type_hints(cls)[f.name]]
} | {"train.use_neighbors": (_PARSE[bool], False), "train.seed": (_parse_seed, TrainConfig.seed)}


class RunConfig:
    """Effective merged configuration; every consumed key is declared."""

    def __init__(self, values: dict):
        self.values = values

    def __getitem__(self, key: str):
        return self.values[key]

    @classmethod
    def load(cls, path=None, overrides: list[str] | None = None):
        values = {k: default for k, (_, default) in DECLARED_KEYS.items()}
        violations = []

        def apply(key: str, raw: str, source: str):
            if key not in DECLARED_KEYS:
                violations.append(f"unknown key {key!r} ({source})")
                return
            conv = DECLARED_KEYS[key][0]
            try:
                values[key] = conv(raw.strip())
            except (KeyError, ValueError, TypeError):  # KeyError: a bool not spelled true or false
                violations.append(f"bad value for {key}: {raw!r} ({source})")

        if path is not None:
            try:
                lines = read_text_lines(path)
            except OSError as err:
                raise ConfigError([f"cannot read config file {path}: {err}"]) from err
            except ContractError as err:  # a line that is not UTF-8
                raise ConfigError([str(err)]) from err
            set_at = {}  # key -> the file line that set it
            for lineno, line in enumerate(lines, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    violations.append(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
                    continue
                key, _, raw = stripped.partition("=")
                key = key.strip()
                if key in set_at:
                    violations.append(
                        f"{path}:{lineno}: key {key!r} already set at line {set_at[key]}")
                    continue
                set_at[key] = lineno
                apply(key, raw, f"{path}:{lineno}")

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
        return "".join(f"{key} = {format_value(self.values[key])}\n" for key in sorted(self.values))

    def echo_into(self, out_dir):
        with open(os.path.join(out_dir, "effective.cfg"), "w", encoding="utf-8") as fh:
            fh.write(self.text())

    def view(self, cls, **extra):
        """Build ``cls``, which checks itself, from its keys plus the ``extra`` fields.

        Every violation becomes one ``ConfigError`` line, with each field name
        outside quotes replaced by its key.
        """
        keys = FIELD_KEYS[cls]
        try:
            return cls(**extra, **{name: self[key] for name, key in keys.items()})
        except ContractError as err:
            field_name = r"'[^']*'|\b(" + "|".join(keys) + r")\b"
            keyed = re.sub(field_name, lambda m: keys[m[1]] if m[1] else m[0], str(err))
            raise ConfigError(keyed.split("; ")) from err

