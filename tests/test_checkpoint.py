import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from emocnn import checkpoint
from emocnn.checkpoint import (
    MAGIC,
    CheckpointConfigError,
    CheckpointError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from emocnn.network import build_model
from emocnn.tensor import Prng

from support import CHECKPOINT_LAYOUT_FAULTS, CHECKPOINT_META_FAULTS, rewrite_checkpoint_meta, tiny_config


def _small_model(seed=0):
    return build_model(tiny_config(), Prng(seed), dtype=np.float32)


def test_roundtrip_parameters_bit_identical(tmp_path):
    model = _small_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for (na, pa), (nb, pb) in zip(model.named_parameters(), loaded.named_parameters()):
        assert na == nb
        npt.assert_array_equal(pa, pb)
        assert pb.dtype == np.float32


def test_save_load_save_is_byte_identical(tmp_path):
    model = _small_model(1)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(model, first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_truncated_file(tmp_path):
    model = _small_model(2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(path)


def test_severely_truncated_file(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"EM")
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(path)


def test_bad_magic(tmp_path):
    model = _small_model(3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_version_mismatch(tmp_path):
    model = _small_model(4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    assert blob[:4] == MAGIC
    blob[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_variant_mismatch(tmp_path):
    model = _small_model(5)  # custom config, variant None
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(CheckpointConfigError, match="variant"):
        load_checkpoint(path, expect_variant="B")


def test_shape_mismatch(tmp_path):
    model = _small_model(6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)

    def corrupt_one_shape(meta):
        meta["tensors"][0]["dims"][0] += 1

    rewrite_checkpoint_meta(path, corrupt_one_shape)
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(path)


MALFORMED_ENTRIES = {
    "no-dims": lambda e: {k: v for k, v in e.items() if k != "dims"},
    "no-name": lambda e: {k: v for k, v in e.items() if k != "name"},
    "no-rank": lambda e: {k: v for k, v in e.items() if k != "rank"},
    "no-offset": lambda e: {k: v for k, v in e.items() if k != "offset"},
    "list-entry": lambda e: [e["name"], e["rank"], e["dims"], e["offset"]],
    "string-entry": lambda e: e["name"],
    "null-entry": lambda e: None,
    "int-name": lambda e: {**e, "name": 7},
    "string-dims": lambda e: {**e, "dims": ",".join(map(str, e["dims"]))},
    "float-dim": lambda e: {**e, "dims": [float(d) for d in e["dims"]]},
    "string-rank": lambda e: {**e, "rank": str(e["rank"])},
    "bool-offset": lambda e: {**e, "offset": True},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES))
def test_malformed_directory_entry_raises_checkpoint_error(tmp_path, case):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(8), path)

    def edit(meta):
        meta["tensors"][0] = MALFORMED_ENTRIES[case](meta["tensors"][0])

    rewrite_checkpoint_meta(path, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("field", ["tensors", "labels"])
def test_non_list_metadata_field_raises_checkpoint_error(tmp_path, field):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(9), path)

    def edit(meta):
        meta[field] = 5

    rewrite_checkpoint_meta(path, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("case", sorted(CHECKPOINT_META_FAULTS))
def test_bad_metadata_raises_config_or_shape_error(tmp_path, case):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(10), path)
    rewrite_checkpoint_meta(path, CHECKPOINT_META_FAULTS[case])
    with pytest.raises((CheckpointConfigError, CheckpointShapeError)):
        load_checkpoint(path)


def test_recorded_filter_size_5_still_loads(tmp_path):
    model = _small_model(11)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    rewrite_checkpoint_meta(path, lambda meta: meta["config"].update(filter_size=5))
    assert load_checkpoint(path).config == model.config


def test_float64_model_saves_as_float32(tmp_path):
    model = build_model(tiny_config(), Prng(7), dtype=np.float64)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for (_, pa), (_, pb) in zip(model.named_parameters(), loaded.named_parameters()):
        npt.assert_array_equal(pa.astype(np.float32), pb)


@pytest.mark.parametrize("case", sorted(CHECKPOINT_LAYOUT_FAULTS))
def test_offsets_must_tile_the_data_section(tmp_path, case):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(12), path)
    rewrite_checkpoint_meta(path, *CHECKPOINT_LAYOUT_FAULTS[case])
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(path)


@pytest.mark.parametrize("case", ["truncated", *sorted(CHECKPOINT_LAYOUT_FAULTS)])
def test_layout_is_checked_before_allocation(tmp_path, monkeypatch, case):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(13), path)
    if case == "truncated":
        path.write_bytes(path.read_bytes()[:-4])
    else:
        rewrite_checkpoint_meta(path, *CHECKPOINT_LAYOUT_FAULTS[case])
    allocations = []
    monkeypatch.setattr(checkpoint, "allocate_model", lambda *a, **k: allocations.append(a))
    with pytest.raises((CheckpointShapeError, CheckpointTruncatedError)):
        load_checkpoint(path)
    assert allocations == []


def test_load_peak_memory_is_about_the_file_size(tmp_path):
    # The parameters alone: the data section is read straight into them,
    # never held as a bytes object or a copy of one.
    config = tiny_config(input_len=144, aug_side=32, aug_channels=3, fc_sizes=(1024, 5))
    path = tmp_path / "m.ckpt"
    save_checkpoint(build_model(config, Prng(14), dtype=np.float32), path)
    size = path.stat().st_size
    assert size > 4_000_000
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * size, f"peak {peak / size:.2f}x the file size"
