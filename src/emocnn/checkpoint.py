"""Binary model checkpoints.

File layout, all integers little-endian:

    bytes 0..3   magic ``EMON``
    bytes 4..5   format version (u16)
    bytes 6..9   metadata length in bytes (u32)
    metadata     UTF-8 JSON: network config, label order, and a tensor
                 directory of (name, rank, dims, offset) entries
    data         raw float32 tensor values in directory order; offsets in
                 the directory are relative to the start of this section,
                 and the tensors tile it with no gap, overlap or trailing
                 byte

The JSON is serialized with sorted keys and fixed separators, so saving the
same parameters always produces byte-identical files.
"""
from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .labels import LABEL_NAMES
from .network import Model, NetworkConfig, allocate_model, config_from_dict, config_to_dict

MAGIC = b"EMON"
VERSION = 1

_HEADER = struct.Struct("<4sHI")


class CheckpointError(Exception):
    """Unreadable or inconsistent checkpoint file."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


class CheckpointConfigError(CheckpointError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_like(value, example) -> bool:
    """Whether ``value`` has the JSON type of ``example``, where a list's
    items take the type of its first item and a float also takes an int."""
    if isinstance(example, list):
        return isinstance(value, list) and all(_json_like(v, example[0]) for v in value)
    if isinstance(example, float):
        return _is_int(value) or isinstance(value, float)
    return _is_int(value) if isinstance(example, int) else isinstance(value, type(example))


def _network_config(path, fields) -> NetworkConfig:
    """The metadata's network config. Each field must have the JSON type
    that config_to_dict writes, and allocate_model must accept the config."""
    example = config_to_dict(NetworkConfig.for_variant("B"))
    try:
        for name, value in fields.items():
            if name in example and not (_json_like(value, example[name]) or name == "variant" and value is None):
                raise ValueError(f"field {name!r} has a bad value {value!r}")
        return config_from_dict(fields)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointConfigError(f"{path}: bad network config: {exc}") from None


def _directory_entry(path, entry):
    """(name, rank, dims, offset) of one tensor directory entry, type-checked."""
    if not isinstance(entry, dict):
        raise CheckpointShapeError(f"{path}: tensor directory entry is not an object: {entry!r}")
    try:
        name, rank, dims, offset = entry["name"], entry["rank"], entry["dims"], entry["offset"]
    except KeyError as exc:
        raise CheckpointShapeError(f"{path}: tensor directory entry lacks {exc}") from None
    if not (isinstance(name, str) and _is_int(rank) and _is_int(offset)
            and isinstance(dims, list) and all(_is_int(d) for d in dims)):
        raise CheckpointShapeError(f"{path}: malformed tensor directory entry {entry!r}")
    return name, rank, tuple(dims), offset


def _tiled_entries(path, directory, data_len):
    """(name, rank, dims) of each directory entry, type-checked. The
    offsets must tile the data section exactly in directory order: each
    tensor starts where the one before it ends, the first at 0, and the
    last ends at end of file."""
    entries = []
    end = 0
    for entry in directory:
        name, rank, dims, offset = _directory_entry(path, entry)
        if offset != end:
            raise CheckpointShapeError(
                f"{path}: tensor {name!r} at offset {offset}, expected {end} (a gap or an overlap)"
            )
        if any(d < 0 for d in dims):
            raise CheckpointShapeError(f"{path}: tensor {name!r} has negative dims {dims}")
        end += 4 * math.prod(dims)
        entries.append((name, rank, dims))
    if end > data_len:
        raise CheckpointTruncatedError(f"{path}: tensor data is {data_len} bytes, directory needs {end}")
    if end < data_len:
        raise CheckpointShapeError(f"{path}: {data_len - end} bytes after the last tensor")
    return entries


def save_checkpoint(model: Model, path) -> None:
    """Write the model's parameters as float32, bit-exactly recoverable."""
    directory = []
    blobs = []
    offset = 0
    for name, param in model.named_parameters():
        data = np.ascontiguousarray(param, dtype="<f4").tobytes()
        directory.append({
            "name": name,
            "rank": param.ndim,
            "dims": list(param.shape),
            "offset": offset,
        })
        blobs.append(data)
        offset += len(data)
    meta = {
        "config": config_to_dict(model.config),
        "labels": list(LABEL_NAMES),
        "tensors": directory,
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(meta_bytes)))
        fh.write(meta_bytes)
        for blob in blobs:
            fh.write(blob)


def _read_metadata(path, fh, expect_variant):
    """Read the header and metadata from ``fh``, leaving it at the start of
    the data section. Returns the validated config and the raw directory."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise CheckpointTruncatedError(f"{path}: file shorter than header")
    magic, version, meta_len = _HEADER.unpack(head)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointVersionError(f"{path}: format version {version}, expected {VERSION}")
    meta_bytes = fh.read(meta_len)
    if len(meta_bytes) < meta_len:
        raise CheckpointTruncatedError(f"{path}: metadata truncated")
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
        config, labels, directory = meta["config"], meta["labels"], meta["tensors"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: unreadable metadata: {exc}") from None
    config = _network_config(path, config)
    if not isinstance(directory, list):
        raise CheckpointShapeError(f"{path}: tensor directory is not a list")
    if not isinstance(labels, list) or tuple(labels) != LABEL_NAMES:
        raise CheckpointConfigError(f"{path}: label order {labels} does not match {list(LABEL_NAMES)}")
    if expect_variant is not None and config.variant != expect_variant:
        raise CheckpointConfigError(
            f"{path}: checkpoint is variant {config.variant}, expected {expect_variant}"
        )
    return config, directory


def load_checkpoint(path, expect_variant: str | None = None) -> Model:
    """Rebuild a model from a checkpoint, validating version, config, and
    every tensor's shape. Parameters load as float32, read from the file
    straight into the model; the data section is never held a second time."""
    with open(path, "rb") as fh:
        config, directory = _read_metadata(path, fh, expect_variant)
        entries = _tiled_entries(path, directory, os.fstat(fh.fileno()).st_size - fh.tell())
        # Little-endian float32 is the file's byte order, so each tensor's
        # bytes can be read into its parameter as they are.
        model = allocate_model(config, dtype="<f4")
        params = model.parameters()
        seen = set()
        for name, rank, dims in entries:
            if name not in params:
                raise CheckpointShapeError(f"{path}: unknown tensor {name!r}")
            if name in seen:
                raise CheckpointShapeError(f"{path}: tensor {name!r} listed twice")
            param = params[name]
            if dims != param.shape or rank != param.ndim:
                raise CheckpointShapeError(
                    f"{path}: tensor {name!r} has dims {dims}, model expects {param.shape}"
                )
            # The entries tile the data section in order, so the file is at
            # this tensor's offset.
            if fh.readinto(param) != param.nbytes:
                raise CheckpointTruncatedError(f"{path}: tensor {name!r} data out of bounds")
            seen.add(name)
    missing = set(params) - seen
    if missing:
        raise CheckpointShapeError(f"{path}: missing tensors: {sorted(missing)}")
    return model
