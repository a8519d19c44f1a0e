"""Binary model checkpoints.

File layout, all integers little-endian:

    bytes 0..3   magic ``EMON``
    bytes 4..5   format version (u16)
    bytes 6..9   metadata length in bytes (u32)
    metadata     UTF-8 JSON: network config, label order, and a tensor
                 directory of (name, rank, dims, offset) entries, then
                 trailing spaces up to the next multiple of 64 bytes
    data         raw float32 tensor values in directory order; offsets in
                 the directory are relative to the start of this section,
                 and the tensors tile it with no gap, overlap or trailing
                 byte

The directory is a function of the network config: every parameter in
``Model.named_parameters()`` order, each tensor starting where the one
before it ends. A file loads only if its directory equals, entry for entry,
the one its config implies, its data section is exactly as long, and every
value is finite.

The JSON is serialized with sorted keys and fixed separators, then padded
with spaces, which JSON ignores, so that the data section starts at a
multiple of 64 bytes. Saving the same parameters always produces
byte-identical files. A file without the padding, as written before it was
added, loads too.

A loaded model's parameters are writable views of a private, copy-on-write
map of the file (``mmap.ACCESS_COPY``): loading reads no tensor into fresh
memory, and a write to a parameter never reaches the file. A tensor the
map would leave misaligned for float32, as in an unpadded file, is copied
once. Replacing the file with ``save_checkpoint``, which writes a new file
and renames it over the old one, leaves a loaded model as it was.
Truncating or rewriting a loaded file in place is not supported: the
process can end with SIGBUS, the same trade as ``numpy.load`` with
``mmap_mode``. Each loaded model holds the map, and before Python 3.13 one
duplicate file descriptor, until its last parameter is freed.
"""
from __future__ import annotations

import json
import math
import mmap
import os
import struct
import sys

import numpy as np

from .atomic import atomic_write
from .labels import LABEL_NAMES
from .network import Model, NetworkConfig, config_from_dict, config_to_dict, _make_model, _parameter_shapes
from .tensor import NumericalFault, _all_finite

MAGIC = b"EMON"
VERSION = 1

_HEADER = struct.Struct("<4sHI")
_DATA_ALIGNMENT = 64  # bytes; the data section starts at a multiple of this
# From Python 3.13 the map need not keep a duplicate of the file's descriptor.
_MAP_FD = {"trackfd": False} if sys.version_info >= (3, 13) and os.name == "posix" else {}


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


class CheckpointValueError(CheckpointError):
    """A tensor holds a NaN or an infinity, which save_checkpoint never writes."""


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
    """Write the model's parameters as float32, bit-exactly recoverable.
    Raises NumericalFault, writing nothing, if a parameter is not finite
    as float32."""
    # A float64 value beyond float32's range becomes inf here, and is caught.
    with np.errstate(over="ignore"):
        tensors = [(name, np.ascontiguousarray(p, dtype="<f4")) for name, p in model.named_parameters()]
    for name, t in tensors:
        if not _all_finite(t):
            raise NumericalFault(f"non-finite parameter {name}: checkpoint not written")
    meta = {
        "config": config_to_dict(model.config),
        "labels": list(LABEL_NAMES),
        "tensors": _directory(model.config),
    }
    meta_bytes = _dumps(meta).encode("utf-8")
    meta_bytes += b" " * (-(_HEADER.size + len(meta_bytes)) % _DATA_ALIGNMENT)
    with atomic_write(path, binary=True) as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(meta_bytes)))
        fh.write(meta_bytes)
        for _, t in tensors:
            fh.write(t)


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
    # Checked before the read, which would otherwise allocate up to 4 GiB for a bad length.
    if meta_len > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointTruncatedError(f"{path}: metadata truncated")
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


def _mapped_tensor(path, mapped, data_start: int, entry: dict) -> np.ndarray:
    """The directory entry's tensor as a view of ``mapped``, or as a copy
    where the view would be misaligned. Raises CheckpointValueError unless
    every value is finite."""
    dims = entry["dims"]
    view = np.frombuffer(mapped, "<f4", math.prod(dims), data_start + entry["offset"]).reshape(dims)
    # An unpadded file can put the data section at any byte; numpy takes
    # a slow path, off BLAS, for misaligned float32.
    tensor = view if view.flags.aligned else view.copy()
    if not _all_finite(tensor):
        raise CheckpointValueError(f"{path}: tensor {entry['name']} holds a non-finite value")
    return tensor


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint, validating version, config, and
    the whole tensor directory before the file is mapped. Each parameter
    is a float32 view of a copy-on-write map of the file (see the module
    docstring), checked to be finite."""
    with open(path, "rb") as fh:
        config, directory = _read_metadata(path, fh)
        data_start = fh.tell()
        _check_layout(path, directory, _directory(config), os.fstat(fh.fileno()).st_size - data_start)
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY, **_MAP_FD)
    # Little-endian float32 is the file's byte order, and the directory
    # runs in the order _make_model asks for its tensors.
    tensors = (_mapped_tensor(path, mapped, data_start, entry) for entry in directory)

    def take(shape):
        return next(tensors)

    return _make_model(config, take, take)
