import math
import mmap
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import emocnn
from emocnn import checkpoint
from emocnn.checkpoint import (
    MAGIC,
    CheckpointConfigError,
    CheckpointError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointValueError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from emocnn.cli import EXIT_DATA, main
from emocnn.network import NetworkConfig, build_model, forward
from emocnn.tensor import NumericalFault, Prng

from support import (
    CHECKPOINT_LAYOUT_FAULTS,
    CHECKPOINT_META_FAULTS,
    rewrite_checkpoint_meta,
    tiny_config,
    traced_peak,
    write_deeply_nested_checkpoint,
)


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


def test_deeply_nested_metadata_is_unreadable(tmp_path):
    path = tmp_path / "m.ckpt"
    write_deeply_nested_checkpoint(path)
    with pytest.raises(CheckpointError, match="unreadable metadata"):
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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda config: config.pop("conv_groups"), "conv_groups must be a list of lists of ints; it is missing"),
        (lambda config: config.update(conv_groups=[3]), "conv_groups must be a list of lists of ints; got [3]"),
        (
            lambda config: config.update(conv_groups=[[3], 4]),
            "conv_groups must be a list of lists of ints; got [[3], 4]",
        ),
        (lambda config: config.pop("fc_sizes"), "fc_sizes must be a list of ints; it is missing"),
        (lambda config: config.update(fc_sizes=5), "fc_sizes must be a list of ints; got 5"),
    ],
    ids=["missing-conv-groups", "flat-conv-groups", "int-in-conv-groups", "missing-fc-sizes", "int-fc-sizes"],
)
def test_config_fault_names_its_field(tmp_path, edit, message):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(12), path)
    rewrite_checkpoint_meta(path, lambda meta: edit(meta["config"]))
    with pytest.raises(CheckpointConfigError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: bad network config: {message}"


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


@pytest.mark.parametrize("dtype, value", [(np.float32, np.nan), (np.float32, -np.inf), (np.float64, 1e300)])
def test_a_non_finite_parameter_is_not_saved(tmp_path, dtype, value):
    # A float64 value beyond float32's range would be saved as inf.
    model = build_model(tiny_config(), Prng(0), dtype=dtype)
    dict(model.named_parameters())["conv1.bias"][1] = value
    with pytest.raises(NumericalFault, match="conv1.bias"):
        save_checkpoint(model, tmp_path / "m.ckpt")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", sorted(CHECKPOINT_LAYOUT_FAULTS))
def test_offsets_must_tile_the_data_section(tmp_path, case):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(12), path)
    rewrite_checkpoint_meta(path, *CHECKPOINT_LAYOUT_FAULTS[case])
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(path)


def _malform_first_entry(malform):
    def edit(meta):
        meta["tensors"][0] = malform(meta["tensors"][0])

    return edit


# (metadata edit, data edit) pairs of faults the loader finds in the
# directory, before it maps the file or builds a model.
DIRECTORY_FAULTS = {
    **CHECKPOINT_LAYOUT_FAULTS,
    "duplicate-tensor": (CHECKPOINT_META_FAULTS["duplicate-tensor"],),
    **{f"malformed-{case}": (_malform_first_entry(f),) for case, f in MALFORMED_ENTRIES.items()},
}


@pytest.mark.parametrize("case", ["truncated", *sorted(DIRECTORY_FAULTS)])
def test_layout_is_checked_before_allocation(tmp_path, monkeypatch, case):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(13), path)
    if case == "truncated":
        path.write_bytes(path.read_bytes()[:-4])
    else:
        rewrite_checkpoint_meta(path, *DIRECTORY_FAULTS[case])
    allocations = []
    monkeypatch.setattr(checkpoint.mmap, "mmap", lambda *a, **k: allocations.append(a))
    monkeypatch.setattr(checkpoint, "_make_model", lambda *a, **k: allocations.append(a))
    with pytest.raises((CheckpointShapeError, CheckpointTruncatedError)):
        load_checkpoint(path)
    assert allocations == []


def test_config_shapes_are_checked_before_allocation(tmp_path, monkeypatch):
    # The directory is intact; only the config implies a 1e9-row fc1.
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(15), path)
    rewrite_checkpoint_meta(path, CHECKPOINT_META_FAULTS["oversized-fc-size"])
    allocations = []
    monkeypatch.setattr(checkpoint.mmap, "mmap", lambda *a, **k: allocations.append(a))
    monkeypatch.setattr(checkpoint, "_make_model", lambda *a, **k: allocations.append(a))
    with pytest.raises(CheckpointShapeError, match="fc1.W"):
        load_checkpoint(path)
    assert allocations == []


def test_load_peak_memory_is_about_the_file_size(tmp_path):
    # The parameters are views of a map of the file: the data section is
    # never held as a bytes object or a copy of one.
    config = tiny_config(input_len=144, aug_side=32, aug_channels=3, fc_sizes=(1024, 5))
    path = tmp_path / "m.ckpt"
    save_checkpoint(build_model(config, Prng(14), dtype=np.float32), path)
    size = path.stat().st_size
    assert size > 4_000_000
    peak = traced_peak(load_checkpoint, path)
    assert peak <= 1.1 * size, f"peak {peak / size:.2f}x the file size"


def test_permuted_directory_does_not_load(tmp_path):
    # Two tensors swapped in the directory, their offsets re-tiled and their
    # data moved to match: a consistent file, but not the directory the
    # config implies, which save_checkpoint never writes.
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(16), path)

    def swap(meta):
        w, b = meta["tensors"][:2]
        meta["tensors"][:2] = [{**b, "offset": 0}, {**w, "offset": 4 * math.prod(b["dims"])}]

    def move(meta, data):
        n_b, n_w = meta["tensors"][1]["offset"], 4 * math.prod(meta["tensors"][1]["dims"])
        return data[n_w : n_w + n_b] + data[:n_w] + data[n_w + n_b :]

    rewrite_checkpoint_meta(path, swap, move)
    with pytest.raises(CheckpointShapeError, match="augmentation.b"):
        load_checkpoint(path)


def test_every_prefix_and_any_suffix_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(17), path)
    blob = path.read_bytes()
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
    for extra in (b"\0", bytes(4), b"EMON"):
        path.write_bytes(blob + extra)
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(path)


_LOAD_UNDER_2_GIB = """
import resource, sys
from emocnn.checkpoint import load_checkpoint
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard), hard))
try:
    load_checkpoint(sys.argv[1])
except Exception as exc:
    print(type(exc).__name__)
"""


def test_a_metadata_length_past_the_file_end_allocates_nothing(tmp_path):
    # A u32 length of 4 GiB - 1 before 2 bytes of metadata: read before the
    # length was checked, it needed a 4 GiB buffer, a MemoryError under this limit.
    pytest.importorskip("resource")
    path = tmp_path / "m.ckpt"
    path.write_bytes(struct.pack("<4sHI", MAGIC, 1, 0xFFFFFFFF) + b"{}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(Path(emocnn.__file__).parents[1]), env.get("PYTHONPATH", "")])
    child = subprocess.run(
        [sys.executable, "-c", _LOAD_UNDER_2_GIB, str(path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert child.stdout == "CheckpointTruncatedError\n", child.stderr


def test_tiny_config_metadata_is_format_v1(tmp_path):
    # The JSON is padded with spaces so that the data starts at a multiple of 64.
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(18), path)
    blob = path.read_bytes()
    magic, version, meta_len = struct.unpack_from("<4sHI", blob)
    assert (magic, version) == (MAGIC, 1)
    padding = " " * (-(10 + len(TINY_CONFIG_METADATA)) % 64)
    assert blob[10 : 10 + meta_len].decode("utf-8") == TINY_CONFIG_METADATA + padding
    assert (10 + meta_len) % 64 == 0
    assert len(blob) == 10 + meta_len + 4 * 626


TINY_CONFIG_METADATA = (
    '{"config":{"aug_channels":2,"aug_side":6,"conv_groups":[[3]],"dropout_keep_hidden":0.3,'
    '"dropout_keep_input":1.0,"fc_sizes":[4,5],"init_mean":0.0,"init_std":0.01,"input_len":5,'
    '"l2_strength":0.001,"variant":null},'
    '"labels":["positive","negative","wondering","neutral","meaningless"],'
    '"tensors":['
    '{"dims":[72,5],"name":"augmentation.W","offset":0,"rank":2},'
    '{"dims":[72],"name":"augmentation.b","offset":1440,"rank":1},'
    '{"dims":[3,5,5,2],"name":"conv1.filters","offset":1728,"rank":4},'
    '{"dims":[3],"name":"conv1.bias","offset":2328,"rank":1},'
    '{"dims":[4,3],"name":"fc1.W","offset":2340,"rank":2},'
    '{"dims":[4],"name":"fc1.b","offset":2388,"rank":1},'
    '{"dims":[5,4],"name":"fc2.W","offset":2404,"rank":2},'
    '{"dims":[5],"name":"fc2.b","offset":2484,"rank":1}]}'
)


def _data_start(path) -> int:
    return 10 + struct.unpack_from("<I", path.read_bytes(), 6)[0]


def _mapped_base(a):
    """The object at the end of ``a``'s chain of bases: the buffer its memory comes from."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


@pytest.fixture(scope="module")
def variant_b(tmp_path_factory):
    """(model, path): variant B from Prng(0), saved once for the module."""
    model = build_model(NetworkConfig.for_variant("B"), Prng(0))
    path = tmp_path_factory.mktemp("variant-b") / "b.ckpt"
    save_checkpoint(model, path)
    return model, path


def test_variant_b_data_starts_at_a_multiple_of_64(variant_b):
    _, path = variant_b
    assert _data_start(path) % 64 == 0


def test_variant_b_parameters_load_as_aligned_views_of_the_map(variant_b):
    _, path = variant_b
    loaded = load_checkpoint(path)
    bases = set()
    for name, p in loaded.named_parameters():
        assert p.flags.aligned and p.flags.c_contiguous and p.flags.writeable, name
        assert isinstance(_mapped_base(p), mmap.mmap), name
        bases.add(id(_mapped_base(p)))
    assert len(bases) == 1


def test_loaded_logits_equal_the_saved_models_bit_for_bit(variant_b):
    model, path = variant_b
    x = np.random.default_rng(0).random((4, model.config.input_len)).astype(np.float32)
    assert forward(load_checkpoint(path), x).tobytes() == forward(model, x).tobytes()


def test_a_nan_in_a_checkpoint_is_a_data_error(variant_b, tmp_path, capsys):
    # The last float32 of the file is fc3.b[4].
    _, saved = variant_b
    path = tmp_path / "nan.ckpt"
    path.write_bytes(saved.read_bytes()[:-4] + np.float32(np.nan).tobytes())
    with pytest.raises(CheckpointValueError, match="fc3.b"):
        load_checkpoint(path)
    assert main(["predict", "--ckpt", str(path), "--text", "hello"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "fc3.b" in err


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_value_in_any_tensor_does_not_load(tmp_path, value):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(19), path)
    blob = bytearray(path.read_bytes())
    offset = _data_start(path) + 1728 + 4  # conv1.filters, its second value
    blob[offset : offset + 4] = np.float32(value).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointValueError, match="conv1.filters"):
        load_checkpoint(path)


def test_a_write_to_a_loaded_parameter_does_not_reach_the_file(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(20), path)
    blob = path.read_bytes()
    loaded = load_checkpoint(path)
    for _, p in loaded.named_parameters():
        p[...] = 7.0
    assert path.read_bytes() == blob
    for (_, pa), (_, pb) in zip(_small_model(20).named_parameters(), load_checkpoint(path).named_parameters()):
        npt.assert_array_equal(pa, pb)


def test_saving_over_a_loaded_file_leaves_the_loaded_values(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_small_model(21), path)
    loaded = load_checkpoint(path)
    save_checkpoint(_small_model(22), path)
    for (_, pa), (_, pb) in zip(_small_model(21).named_parameters(), loaded.named_parameters()):
        npt.assert_array_equal(pa, pb)
    for (_, pa), (_, pb) in zip(_small_model(22).named_parameters(), load_checkpoint(path).named_parameters()):
        npt.assert_array_equal(pa, pb)


def test_an_unpadded_misaligned_layout_loads_its_values(tmp_path):
    # Rewritten without padding, as files were saved before it, this
    # config's data starts off a 4-byte boundary, so each tensor is copied.
    model = build_model(tiny_config(l2_strength=0.0015), Prng(23), dtype=np.float32)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    rewrite_checkpoint_meta(path, lambda meta: None)
    assert _data_start(path) % 4 != 0
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for (_, pa), (name, pb) in zip(model.named_parameters(), loaded.named_parameters()):
        npt.assert_array_equal(pa, pb)
        assert pb.flags.aligned and pb.flags.writeable, name
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(loaded, resaved)
    fresh = tmp_path / "fresh.ckpt"
    save_checkpoint(model, fresh)
    assert resaved.read_bytes() == fresh.read_bytes()
