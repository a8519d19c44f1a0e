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

The directory is a function of the network config: every parameter in
``Model.named_parameters()`` order, each tensor starting where the one
before it ends. A file loads only if its directory equals, entry for entry,
the one its config implies, and its data section is exactly as long.

The JSON is serialized with sorted keys and fixed separators, so saving the
same parameters always produces byte-identical files.
"""
from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .atomic import atomic_write
from .labels import LABEL_NAMES
from .network import Model, NetworkConfig, allocate_model, config_from_dict, config_to_dict, _parameter_shapes

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


def _network_config(path, fields) -> NetworkConfig:
    """The metadata's network config. NetworkConfig rejects a field of
    another JSON type than config_to_dict writes, or a config that
    allocate_model would not accept."""
    try:
        return config_from_dict(fields)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointConfigError(f"{path}: bad network config: {exc}") from None


def _dumps(value) -> str:
    """Canonical JSON: sorted keys and fixed separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _directory(config: NetworkConfig) -> list[dict]:
    """The tensor directory of a checkpoint of ``config``: one (name, rank,
    dims, offset) entry per parameter in ``Model.named_parameters()`` order,
    each tensor starting where the one before it ends. Allocates nothing."""
    directory = []
    offset = 0
    for name, shape in _parameter_shapes(config):
        directory.append({"name": name, "rank": len(shape), "dims": list(shape), "offset": offset})
        offset += 4 * math.prod(shape)
    return directory


def save_checkpoint(model: Model, path) -> None:
    """Write the model's parameters as float32, bit-exactly recoverable."""
    meta = {
        "config": config_to_dict(model.config),
        "labels": list(LABEL_NAMES),
        "tensors": _directory(model.config),
    }
    meta_bytes = _dumps(meta).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(meta_bytes)))
        fh.write(meta_bytes)
        for _, param in model.named_parameters():
            fh.write(np.ascontiguousarray(param, dtype="<f4"))


def _read_metadata(path, fh):
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
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: unreadable metadata: {exc}") from None
    config = _network_config(path, config)
    if not isinstance(labels, list) or tuple(labels) != LABEL_NAMES:
        raise CheckpointConfigError(f"{path}: label order {labels} does not match {list(LABEL_NAMES)}")
    return config, directory


def _check_layout(path, directory, expected, data_len) -> None:
    """The file's directory must be ``expected``, entry for entry, and its
    tensors must fill the data section exactly. Entries are compared as
    canonical JSON, so 72.0 does not pass for 72, nor true for 1."""
    if not isinstance(directory, list) or len(directory) != len(expected):
        raise CheckpointShapeError(f"{path}: the tensor directory is not a list of {len(expected)} entries")
    for entry, want in zip(directory, expected):
        if _dumps(entry) != _dumps(want):
            raise CheckpointShapeError(
                f"{path}: tensor directory entry {_dumps(entry)}, the config implies {_dumps(want)}"
            )
    end = sum(4 * math.prod(entry["dims"]) for entry in expected)
    if end > data_len:
        raise CheckpointTruncatedError(f"{path}: tensor data is {data_len} bytes, directory needs {end}")
    if end < data_len:
        raise CheckpointShapeError(f"{path}: {data_len - end} bytes after the last tensor")


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint, validating version, config, and
    the whole tensor directory before any parameter is allocated.
    Parameters load as float32, read from the file straight into the model;
    the data section is never held a second time."""
    with open(path, "rb") as fh:
        config, directory = _read_metadata(path, fh)
        _check_layout(path, directory, _directory(config), os.fstat(fh.fileno()).st_size - fh.tell())
        # Little-endian float32 is the file's byte order, and the tensors
        # tile the data section in parameter order, so each one's bytes can
        # be read into its parameter as they come.
        model = allocate_model(config, dtype="<f4")
        for name, param in model.named_parameters():
            if fh.readinto(param) != param.nbytes:
                raise CheckpointTruncatedError(f"{path}: tensor {name!r} data out of bounds")
    return model
