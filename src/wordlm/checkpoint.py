"""Checkpoint archive: text manifest + concatenated little-endian float32 payload.

Layout: a UTF-8 manifest block (one line per field, one ``tensor`` line per
array with name, dtype, shape, byte offset, byte length), a ``---`` separator
line, then the raw payload. Tensors are sorted by name, so save -> load ->
save is byte-identical. The manifest also carries the model configuration so
a model can be reconstructed from the file alone; the line
``model_config gelu_approx false``, which files written before the tanh GELU
was removed carry, is read as a no-op. A checkpoint holds exactly the tensors
the model and its optimizer own: every parameter, and the two moments of every
trainable parameter with one ``opt_step`` line each, all carrying the
optimizer's single step count.

A load reads the manifest up to the ``---`` line, then reads each tensor's
bytes straight into the parameter or moment array that owns it, so it holds
no copy of the payload; ``read_manifest`` alone (``inspect-checkpoint``)
reads no tensor bytes. A save streams each tensor's bytes into
``<path>.tmp``, fsyncs it and renames it onto ``path``, so a crash mid-save
leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from typing import get_type_hints

import numpy as np

from .errors import ContractError, IntegrityError
from .model import ModelConfig, WordBertModel
from .optim import Adam

_MAGIC = "#wordlm-checkpoint v1"
_SEPARATOR = b"---\n"
# Value types a manifest may give each ModelConfig field (an int is a valid float).
_CONFIG_TYPES = {
    key: (float, int) if hint is float else (hint,)
    for key, hint in get_type_hints(ModelConfig).items()
}
_REQUIRED_CONFIG = [f.name for f in fields(ModelConfig) if f.default is MISSING]


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def format_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def _parse_value(s: str):
    if s in ("true", "false"):
        return s == "true"
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def save_checkpoint(
    model: WordBertModel,
    optimizer: Adam,
    step: int,
    path,
    digest: str = "-",
):
    """Write model and optimizer state to the archive format, atomically."""
    tensors: dict[str, np.ndarray] = {name: t.data for name, t in model.parameters().items()}
    lines = [_MAGIC, f"step {int(step)}", f"seed {int(model.seed)}", f"config_digest {digest}"]
    for key, value in asdict(model.config).items():
        lines.append(f"model_config {key} {format_value(value)}")
    for name in sorted(optimizer.params):
        tensors[f"optimizer.m.{name}"] = optimizer.first_moment[name]
        tensors[f"optimizer.v.{name}"] = optimizer.second_moment[name]
        lines.append(f"opt_step {name} {optimizer.step_count}")

    arrays = {name: np.ascontiguousarray(tensors[name], dtype="<f4") for name in sorted(tensors)}
    offset = 0
    for name, arr in arrays.items():
        shape = "x".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} f32 {shape} {offset} {arr.nbytes}")
        offset += arr.nbytes
    lines.append(f"payload_bytes {offset}")

    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write("\n".join(lines).encode("utf-8") + b"\n")
            fh.write(_SEPARATOR)
            for arr in arrays.values():
                fh.write(arr)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@dataclass
class Checkpoint:
    model: WordBertModel
    optimizer: Adam
    step: int
    digest: str


def read_manifest(path) -> tuple[dict, int]:
    """Parse and check the manifest; also return the payload's offset in the file.

    Reads the file only up to the ``---`` line and takes the payload size
    from the file size. Any malformed line, a key given twice (``step``,
    ``model_config hidden``, ``tensor mlm.bias``, ...) or a tensor whose bytes
    overlap another's raises ``IntegrityError`` naming the file and the line.
    Gaps between tensors are allowed.
    """
    with open(path, "rb") as fh:
        head = []
        for raw in fh:
            if raw == _SEPARATOR:
                break
            head.append(raw)
        else:
            raise IntegrityError(f"{path}: missing manifest separator")
        payload_offset = fh.tell()
        payload_size = os.fstat(fh.fileno()).st_size - payload_offset
    try:
        manifest_text = b"".join(head).decode("utf-8")
    except UnicodeDecodeError as err:
        raise IntegrityError(f"{path}: manifest is not UTF-8: {err}") from err

    info = {"model_config": {}, "opt_steps": {}, "tensors": {}}
    lines = manifest_text.rstrip("\n").split("\n")
    if not lines or lines[0] != _MAGIC:
        raise IntegrityError(f"{path}: not a {_MAGIC} file")
    tensor_lines, seen = {}, set()
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{path}:{lineno}"
        parts = line.split(" ")
        named = parts[0] in ("model_config", "opt_step", "tensor")  # one key per name
        field = " ".join(parts[:2]) if named else parts[0]
        if field in seen:  # only a well-formed line gets here twice: a bad one raises below
            raise IntegrityError(f"{where}: repeated manifest key {field!r}")
        seen.add(field)
        try:
            if parts[0] in ("step", "seed", "payload_bytes"):
                info[parts[0]] = int(parts[1])
            elif parts[0] == "config_digest":
                info["digest"] = parts[1]
            elif parts[0] == "model_config":
                key, value = parts[1], _parse_value(" ".join(parts[2:]))
                if key == "gelu_approx":  # written by earlier versions; only the erf GELU is left
                    if value is not False:
                        raise IntegrityError(f"{where}: model_config gelu_approx {value!r} "
                                             "(tanh GELU) is no longer supported")
                    continue
                if key not in _CONFIG_TYPES:
                    raise IntegrityError(f"{where}: unknown model_config key {key!r}")
                if type(value) not in _CONFIG_TYPES[key]:
                    raise IntegrityError(f"{where}: model_config {key} has invalid value {value!r}")
                info["model_config"][key] = value
            elif parts[0] == "opt_step":
                info["opt_steps"][parts[1]] = int(parts[2])
            elif parts[0] == "tensor":
                _, name, dtype, shape_s, offset, length = parts
                if dtype != "f32":
                    raise IntegrityError(f"{where}: unsupported dtype {dtype} for {name}")
                shape = tuple(int(d) for d in shape_s.split("x")) if shape_s else ()
                offset, length = int(offset), int(length)
                if min(offset, *shape) < 0:
                    raise IntegrityError(f"{where}: negative offset or dimension for {name}")
                info["tensors"][name] = (shape, offset, length)
                tensor_lines[name] = lineno
            else:
                raise IntegrityError(f"{where}: unknown manifest line {line!r}")
        except (ValueError, IndexError) as err:
            raise IntegrityError(f"{where}: malformed manifest line {line!r}") from err

    missing = [key for key in ("step", "seed", "payload_bytes") if key not in info]
    missing += [f"model_config {key}" for key in _REQUIRED_CONFIG if key not in info["model_config"]]
    if missing:
        raise IntegrityError(f"{path}: manifest missing {', '.join(missing)}")
    declared = info["payload_bytes"]
    if declared != payload_size:
        raise IntegrityError(
            f"{path}: payload size mismatch: expected {declared} bytes, got {payload_size}"
        )
    for name, (shape, offset, length) in info["tensors"].items():
        expected = int(np.prod(shape, dtype=np.int64)) * 4 if shape else 4
        if expected != length or offset + length > payload_size:
            raise IntegrityError(
                f"{path}: tensor {name} expects {expected} bytes at offset {offset}, "
                f"payload has {payload_size}"
            )
        for half, other in (("optimizer.m.", "optimizer.v."), ("optimizer.v.", "optimizer.m.")):
            twin = other + name[len(half):]
            if name.startswith(half) and twin not in info["tensors"]:
                raise IntegrityError(f"{path}:{tensor_lines[name]}: {name} has no {twin}")
    # sorted by offset, two tensors overlap only if two neighbours do
    spans = sorted((offset, tensor_lines[name], length, name)
                   for name, (_, offset, length) in info["tensors"].items() if length)
    for (offset, _, length, name), (next_offset, lineno, _, next_name) in zip(spans, spans[1:]):
        if next_offset < offset + length:
            raise IntegrityError(f"{path}:{lineno}: tensor {next_name} overlaps tensor {name}")
    return info, payload_offset


def _read_into(fh, path, name, entry, payload_offset: int, target: np.ndarray):
    """Fill ``target`` in place with the little-endian float32 bytes of one tensor."""
    shape, offset, length = entry
    if shape != target.shape:
        raise IntegrityError(
            f"{path}: tensor {name} shape {shape} does not match model {target.shape}"
        )
    fh.seek(payload_offset + offset)
    got = fh.readinto(target)
    if got != length:
        raise IntegrityError(f"{path}: tensor {name}: read {got} of {length} bytes")
    if sys.byteorder == "big":
        target.byteswap(inplace=True)


def load_checkpoint(path) -> Checkpoint:
    """Reconstruct model, optimizer state, and step from an archive."""
    info, payload_offset = read_manifest(path)
    try:
        config = ModelConfig(**info["model_config"])
    except ContractError as err:
        raise IntegrityError(f"{path}: invalid model_config: {err}") from err

    model = WordBertModel._unfilled(config, info["seed"])
    trainable = model.trainable_parameters()
    tensors, opt_steps = info["tensors"], info["opt_steps"]
    known = set(model.params) | {f"optimizer.{half}.{name}" for name in trainable for half in "mv"}
    unknown = sorted(set(tensors) - known)
    if unknown:
        raise IntegrityError(f"{path}: unknown tensor {', '.join(unknown)}")
    absent = sorted(known - set(tensors))
    if absent:
        raise IntegrityError(f"{path}: manifest has no tensor {', '.join(absent)}")
    stray = sorted(set(opt_steps) - set(trainable))
    if stray:
        raise IntegrityError(f"{path}: opt_step {', '.join(stray)} names no trainable parameter")
    missing = sorted(set(trainable) - set(opt_steps))
    if missing:
        raise IntegrityError(f"{path}: no opt_step for {', '.join(missing)}")
    if len(set(opt_steps.values())) > 1:
        raise IntegrityError(f"{path}: opt_step values differ: {sorted(set(opt_steps.values()))}")

    optimizer = Adam(trainable)
    targets = {name: param.data for name, param in model.params.items()}
    for name in trainable:
        targets[f"optimizer.m.{name}"] = optimizer.first_moment[name]
        targets[f"optimizer.v.{name}"] = optimizer.second_moment[name]
    with open(path, "rb") as fh:
        for name, target in targets.items():
            _read_into(fh, path, name, tensors[name], payload_offset, target)
    optimizer.step_count = next(iter(opt_steps.values()))
    return Checkpoint(model, optimizer, step=info["step"], digest=info.get("digest", "-"))
