"""Checkpoint archive: text manifest + concatenated little-endian float32 payload.

The layout is stated once, by ``layout``: from the model configuration, the
step, seed, config digest and the optimizer's step count it gives every
manifest line and each tensor's shape, byte offset and byte length. The
manifest is a magic line; ``step``, ``seed`` and ``config_digest`` lines; a
``model_config <field> <value>`` line per ``ModelConfig`` field, the value
spelled by the field's type, and the fixed line ``model_config layer_norm_eps
1e-05``, the model's constant; an ``opt_step <name> <count>`` line per
trainable parameter; a ``tensor <name> f32 <shape> <offset> <length>`` line
per array (every parameter, and the Adam moments ``optimizer.m.<name>`` and
``optimizer.v.<name>`` of every trainable one), in name order with no gaps;
and ``payload_bytes``. A ``---`` line and the payload follow. So save ->
load -> save is byte-identical.

A read checks the magic line before reading on, parses only what no
configuration implies (step, seed, digest, the optimizer's step count; a
negative step, seed or count is refused at its line) and the typed
``model_config`` field values, then compares the manifest line by
line with the layout those imply: the first line that differs is an
``IntegrityError`` naming the file, the line and the expected text. The line
``model_config gelu_approx false``, which files written before the tanh GELU
was removed carry, is skipped. The layer count is checked against the
manifest's length before the layout is built, so no manifest value makes a
read compute or allocate in proportion to it.

A load reads each tensor's bytes straight into the parameter or moment array
that owns it, so it holds no copy of the payload; ``read_manifest`` alone
(``inspect-checkpoint``) reads no tensor bytes. A save streams each tensor's
bytes into ``<path>.tmp``, fsyncs it and renames it onto ``path``, so a crash
mid-save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from .errors import ContractError, IntegrityError
from .model import ModelConfig, WordBertModel, parameter_shapes, trainable_names
from .optim import Adam
from .vocab import write_atomically

_MAGIC = "#wordlm-checkpoint v1"
_SEPARATOR = b"---\n"
_LEGACY_GELU = "model_config gelu_approx false"
_EPS_LINE = f"model_config layer_norm_eps {ModelConfig.layer_norm_eps!r}"
_FIELD_TYPES = {f.name: get_type_hints(ModelConfig)[f.name] for f in fields(ModelConfig)}
_PARSE = {int: int, float: float, str: str, bool: {"true": True, "false": False}.__getitem__}


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


@dataclass
class Layout:
    """The values a checkpoint's layout is built from, its manifest lines (the
    ``---`` line excluded), and each tensor's (shape, offset, byte length) in
    name order."""

    config: ModelConfig
    step: int
    seed: int
    digest: str
    opt_step: int
    lines: list[str]
    tensors: dict[str, tuple[tuple[int, ...], int, int]]

    @property
    def payload_bytes(self) -> int:
        return sum(length for _, _, length in self.tensors.values())


def layout(config: ModelConfig, step: int, seed: int, digest: str, opt_step: int) -> Layout:
    """The checkpoint layout these values imply; allocates no tensor."""
    shapes = parameter_shapes(config)
    trainable = sorted(trainable_names(config))
    for name in trainable:
        shapes[f"optimizer.m.{name}"] = shapes[f"optimizer.v.{name}"] = shapes[name]
    lines = [_MAGIC, f"step {step}", f"seed {seed}", f"config_digest {digest}"]
    lines += [f"model_config {key} {format_value(kind(getattr(config, key)))}"
              for key, kind in _FIELD_TYPES.items()] + [_EPS_LINE]
    lines += [f"opt_step {name} {opt_step}" for name in trainable]
    tensors, offset = {}, 0
    for name in sorted(shapes):
        shape, length = shapes[name], 4 * math.prod(shapes[name])
        tensors[name] = (shape, offset, length)
        lines.append(f"tensor {name} f32 {'x'.join(map(str, shape))} {offset} {length}")
        offset += length
    lines.append(f"payload_bytes {offset}")
    return Layout(config, step, seed, digest, opt_step, lines, tensors)


def _arrays(model: WordBertModel, optimizer: Adam) -> dict[str, np.ndarray]:
    """Every array a checkpoint of ``model`` and ``optimizer`` holds, by tensor name."""
    arrays = {name: t.data for name, t in model.params.items()}
    for name in optimizer.params:
        arrays[f"optimizer.m.{name}"] = optimizer.first_moment[name]
        arrays[f"optimizer.v.{name}"] = optimizer.second_moment[name]
    return arrays


def save_checkpoint(
    model: WordBertModel,
    optimizer: Adam,
    step: int,
    path,
    digest: str = "-",
):
    """Write model and optimizer state to the archive format, atomically. The
    optimizer must hold exactly the model's trainable parameters."""
    manifest = layout(model.config, int(step), int(model.seed), digest, optimizer.step_count)
    arrays = _arrays(model, optimizer)
    for name in sorted(arrays.keys() | manifest.tensors.keys()):
        held = arrays[name].shape if name in arrays else None
        implied = manifest.tensors[name][0] if name in manifest.tensors else None
        if held != implied:
            raise ContractError(f"cannot save tensor {name}: shape {held}, but the model's "
                                f"configuration implies {implied}")

    def chunks():  # each tensor's bytes made as they are written: no copy of the payload
        yield "\n".join(manifest.lines).encode("utf-8") + b"\n" + _SEPARATOR
        for name in manifest.tensors:
            yield np.ascontiguousarray(arrays[name], dtype="<f4")

    write_atomically(path, chunks())


@dataclass
class Checkpoint:
    model: WordBertModel
    optimizer: Adam
    step: int
    digest: str


def read_manifest(path) -> tuple[Layout, int]:
    """The file's layout, once its manifest matches line by line the one its
    values imply, and the payload's offset in the file. Reads the file up to
    the ``---`` line and takes the payload size from the file size."""
    with open(path, "rb") as fh:
        if fh.readline(len(_MAGIC) + 1) != _MAGIC.encode() + b"\n":
            raise IntegrityError(f"{path}: not a {_MAGIC} file")
        lines = []  # (line number, text) of each line after the magic, through the separator
        for lineno, raw in enumerate(fh, start=2):
            try:
                line = raw.decode("utf-8")[:-1]
            except UnicodeDecodeError as err:
                raise IntegrityError(f"{path}:{lineno}: manifest is not UTF-8: {err}") from err
            if line != _LEGACY_GELU:  # only the erf GELU is left
                lines.append((lineno, line))
            if raw == _SEPARATOR:
                break
        else:
            raise IntegrityError(f"{path}: missing manifest separator")
        payload_offset = fh.tell()
        payload_size = os.fstat(fh.fileno()).st_size - payload_offset

    found = iter(lines)  # the separator ends it, and matches no key

    def value(key, kind, nonnegative=False):
        """The value ending the next line, which must start with ``key``."""
        lineno, line = next(found)
        try:
            if line.startswith(key + " "):
                parsed = _PARSE[kind](line.rpartition(" ")[2])
                if nonnegative and parsed < 0:
                    raise IntegrityError(f"{path}:{lineno}: {key} must not be negative, "
                                         f"found {line!r}")
                return parsed
        except (KeyError, ValueError):
            pass
        raise IntegrityError(f"{path}:{lineno}: expected '{key} <{kind.__name__}>', found {line!r}")

    step, seed = value("step", int, nonnegative=True), value("seed", int, nonnegative=True)
    digest = value("config_digest", str)
    values = {key: value(f"model_config {key}", kind) for key, kind in _FIELD_TYPES.items()}
    if (eps := next(found))[1] != _EPS_LINE:  # the model's constant: a fixed line, no value
        raise IntegrityError(f"{path}:{eps[0]}: expected {_EPS_LINE!r}, found {eps[1]!r}")
    try:
        config = ModelConfig(**values)
    except ContractError as err:
        raise IntegrityError(f"{path}: invalid model_config: {err}") from err
    if config.num_layers > len(lines):  # each layer has its own lines
        lineno = next(n for n, line in lines if line.startswith("model_config num_layers "))
        raise IntegrityError(f"{path}:{lineno}: model_config num_layers {config.num_layers} "
                             f"exceeds the {len(lines)} lines of the manifest")
    manifest = layout(config, step, seed, digest, value("opt_step", int, nonnegative=True))
    for (lineno, line), expected in zip(lines, manifest.lines[1:] + ["---"]):
        if line != expected:
            raise IntegrityError(f"{path}:{lineno}: expected {expected!r}, found {line!r}")
    if manifest.payload_bytes != payload_size:
        raise IntegrityError(f"{path}: payload size mismatch: expected "
                             f"{manifest.payload_bytes} bytes, got {payload_size}")
    return manifest, payload_offset


def load_checkpoint(path) -> Checkpoint:
    """Reconstruct model, optimizer state, and step from an archive."""
    manifest, payload_offset = read_manifest(path)
    model = WordBertModel._unfilled(manifest.config, manifest.seed)
    optimizer = Adam(model.trainable_parameters())
    optimizer.step_count = manifest.opt_step
    arrays = _arrays(model, optimizer)
    with open(path, "rb") as fh:
        fh.seek(payload_offset)
        for name, (_, _, length) in manifest.tensors.items():  # back to back, in file order
            got = fh.readinto(arrays[name])
            if got != length:
                raise IntegrityError(f"{path}: tensor {name}: read {got} of {length} bytes")
            if sys.byteorder == "big":
                arrays[name].byteswap(inplace=True)
    return Checkpoint(model, optimizer, step=manifest.step, digest=manifest.digest)
