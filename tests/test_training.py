import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import emocnn
from emocnn import network, tensor
from emocnn.network import build_model, loss_and_grads
from emocnn.tensor import FLAT_BLOCK, Prng
from emocnn.training import (
    AdamState,
    NumericalFault,
    TrainConfig,
    adam_step,
    make_batches,
    split_encoded,
    train,
)

from support import adam_step_whole, make_marker_dataset, randomized_tiny_model, tiny_config, traced_peak


def _scalar_state(lr):
    params = {"w": np.array([1.0])}
    return params, AdamState.for_params(params, learning_rate=lr)


def test_adam_first_step_hand_derived():
    # g=1 fresh state: m_hat = v_hat = 1, so the step is exactly -lr / (1 + eps)
    params, state = _scalar_state(lr=0.001)
    adam_step(params, {"w": np.array([1.0])}, state)
    expected = 1.0 - 0.001 / (1.0 + state.epsilon)
    assert abs(params["w"][0] - expected) < 1e-15


def test_adam_zero_gradient_keeps_parameters():
    params, state = _scalar_state(lr=0.1)
    before = params["w"].copy()
    for _ in range(10):
        adam_step(params, {"w": np.zeros(1)}, state)
    npt.assert_array_equal(params["w"], before)


def test_adam_zero_learning_rate_is_bit_identical():
    rng = np.random.default_rng(0)
    params = {"w": rng.random((3, 4)), "b": rng.random(4)}
    before = {k: v.copy() for k, v in params.items()}
    state = AdamState.for_params(params, learning_rate=0.0)
    for _ in range(100):
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        adam_step(params, grads, state)
    for k in params:
        npt.assert_array_equal(params[k], before[k])


def test_adam_step_counter():
    params, state = _scalar_state(lr=0.01)
    for i in range(1, 6):
        adam_step(params, {"w": np.ones(1)}, state)
        assert state.t == i


def test_adam_rejects_non_finite_gradient_without_update():
    params, state = _scalar_state(lr=0.1)
    before = params["w"].copy()
    with pytest.raises(NumericalFault):
        adam_step(params, {"w": np.array([np.nan])}, state)
    npt.assert_array_equal(params["w"], before)
    assert state.t == 0


def test_adam_accepts_a_finite_gradient_whose_square_sum_overflows():
    params = {"w": np.ones(8, dtype=np.float32)}
    state = AdamState.for_params(params, learning_rate=1e-3)
    g = np.full(8, 1e19, dtype=np.float32)  # each square is finite, their float32 sum is not
    assert not np.isfinite(np.vdot(g, g))
    adam_step(params, {"w": g}, state)
    assert state.t == 1
    assert np.isfinite(params["w"]).all() and (params["w"] < 1.0).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_non_finite_gradient_touches_no_tensor(bad):
    params = {"a": np.ones(5), "b": np.ones(3)}
    state = AdamState.for_params(params, learning_rate=0.1)
    with pytest.raises(NumericalFault, match="in b"):
        adam_step(params, {"a": np.ones(5), "b": np.array([1.0, bad, 1.0])}, state)
    assert state.t == 0
    for name in params:
        npt.assert_array_equal(params[name], 1.0)
        assert not state.m[name].any() and not state.v[name].any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [1, FLAT_BLOCK - 1, FLAT_BLOCK + 1, 3 * FLAT_BLOCK + 7])
def test_blocked_adam_is_bit_identical_to_whole_tensor_reference(size, dtype):
    rng = np.random.default_rng(size)
    params = {"w": rng.normal(size=size).astype(dtype), "b": rng.normal(size=(2, 3)).astype(dtype)}
    want = {k: p.copy() for k, p in params.items()}
    m, v = ({k: np.zeros_like(p) for k, p in params.items()} for _ in range(2))
    state = AdamState.for_params(params, learning_rate=1e-3)
    for t in range(1, 4):
        grads = {k: rng.normal(size=p.shape).astype(dtype) for k, p in params.items()}
        adam_step(params, grads, state)
        adam_step_whole(want, grads, m, v, t, 1e-3)
    for k in params:
        assert params[k].tobytes() == want[k].tobytes()
        assert state.m[k].tobytes() == m[k].tobytes() and state.v[k].tobytes() == v[k].tobytes()


def _check_adam_and_l2_at_flat_block(block, sizes, dtype):
    # Every blocked update reads the one tensor.FLAT_BLOCK, scratch included.
    rng = np.random.default_rng(block)
    params = {f"w{i}": rng.normal(size=n).astype(dtype) for i, n in enumerate(sizes)}
    want = {k: p.copy() for k, p in params.items()}
    m, v = ({k: np.zeros_like(p) for k, p in params.items()} for _ in range(2))
    state = AdamState.for_params(params, learning_rate=1e-3)
    l2 = 1.5e-4
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "FLAT_BLOCK", block)
        for t in (1, 2):
            grads = {k: rng.normal(size=p.shape).astype(dtype) for k, p in params.items()}
            adam_step(params, grads, state)
            adam_step_whole(want, grads, m, v, t, 1e-3)
        for k in params:
            assert params[k].tobytes() == want[k].tobytes()
            assert state.m[k].tobytes() == m[k].tobytes() and state.v[k].tobytes() == v[k].tobytes()
        want = {k: g + w * (2 * l2) for (k, g), w in zip(grads.items(), params.values())}
        network._add_l2_gradients(grads, params, l2)
    for k in params:
        assert grads[k].dtype == dtype and grads[k].tobytes() == want[k].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "block, sizes",
    [(1, (1, 2, 3)), (7, (1, 6, 7, 8, 15)), (1 << 15, (1, (1 << 15) - 1, (1 << 15) + 1)), (1 << 20, (1, (1 << 20) + 1))],
)
def test_adam_and_l2_follow_the_flat_block_size(block, sizes, dtype):
    _check_adam_and_l2_at_flat_block(block, sizes, dtype)


@st.composite
def flat_block_cases(draw):
    """A FLAT_BLOCK of 1 to 2^12 elements and 1-4 tensor sizes, drawn from
    its block edges and from 1 to four blocks."""
    block = draw(st.integers(1, 1 << 12))
    edges = sorted({1, block - 1, block, block + 1, 2 * block + 1} - {0})
    size = st.sampled_from(edges) | st.integers(1, 4 * block)
    return block, tuple(draw(st.lists(size, min_size=1, max_size=4)))


@settings(max_examples=60, deadline=None)
@given(case=flat_block_cases(), dtype=st.sampled_from([np.float32, np.float64]))
def test_adam_and_l2_follow_drawn_flat_block_sizes(case, dtype):
    _check_adam_and_l2_at_flat_block(*case, dtype)


def test_adam_step_peak_memory_is_block_sized():
    # 16 MB per float32 array; the scratch is two blocks of FLAT_BLOCK elements.
    params = {"w": np.zeros(1 << 22, dtype=np.float32)}
    state = AdamState.for_params(params, learning_rate=1e-3)
    grads = {"w": np.full(1 << 22, 0.5, dtype=np.float32)}
    peak = traced_peak(adam_step, params, grads, state)
    assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MB"


def test_adam_rejects_mismatched_shapes_without_update():
    params, state = _scalar_state(lr=0.1)
    with pytest.raises(ValueError):
        adam_step(params, {"w": np.ones(2)}, state)
    assert params["w"][0] == 1.0 and state.t == 0


def test_adam_update_magnitude_bounded():
    # after warm-up, per-coordinate steps stay within a few lr
    rng = np.random.default_rng(1)
    params = {"w": rng.random(50)}
    state = AdamState.for_params(params, learning_rate=1e-3)
    for step in range(200):
        before = params["w"].copy()
        adam_step(params, {"w": rng.normal(size=50)}, state)
        if step >= 20:
            assert np.abs(params["w"] - before).max() <= 3e-3


def test_adam_key_mismatch():
    params, state = _scalar_state(lr=0.1)
    with pytest.raises(ValueError):
        adam_step(params, {"other": np.ones(1)}, state)


def test_make_batches_even_split():
    batches = make_batches(64, 32, Prng(0))
    assert len(batches) == 32
    assert all(len(b) == 2 for b in batches)


def test_make_batches_remainder_goes_first():
    batches = make_batches(65, 32, Prng(0))
    sizes = [len(b) for b in batches]
    assert sizes[0] == 3 and sizes.count(2) == 31


def test_make_batches_deterministic():
    a = make_batches(40, 8, Prng(5))
    b = make_batches(40, 8, Prng(5))
    for ba, bb in zip(a, b):
        npt.assert_array_equal(ba, bb)


def test_make_batches_covers_every_example_once():
    batches = make_batches(53, 7, Prng(6))
    npt.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(53))


def test_make_batches_too_many():
    with pytest.raises(ValueError):
        make_batches(5, 6, Prng(0))


def test_split_encoded_matches_seeded_split():
    codes, labels = make_marker_dataset(20, seed=0)
    a = split_encoded(len(codes), 0.2, seed=3)
    b = split_encoded(len(codes), 0.2, seed=3)
    npt.assert_array_equal(a[0], b[0])
    npt.assert_array_equal(a[1], b[1])
    assert len(a[0]) == 16 and len(a[1]) == 4


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batches_per_epoch=0)
    with pytest.raises(ValueError):
        TrainConfig(eval_fraction=0.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1e-3)


def _tiny_dataset(n=24, seed=1):
    codes, labels = make_marker_dataset(n, seed=seed)
    return codes[:, :5].copy(), labels  # tiny model reads 5-byte inputs


def test_train_zero_epochs_changes_nothing():
    model = build_model(tiny_config(), Prng(2))
    before = {k: v.copy() for k, v in model.named_parameters()}
    dataset = _tiny_dataset()
    _, log = train(model, dataset, TrainConfig(epochs=0, batches_per_epoch=4, seed=0))
    assert log.steps == [] and log.val_top1 == []
    for k, v in model.named_parameters():
        npt.assert_array_equal(v, before[k])


def test_train_is_deterministic_under_seed():
    dataset = _tiny_dataset()
    config = TrainConfig(epochs=3, batches_per_epoch=4, learning_rate=1e-3, seed=9)
    runs = []
    for _ in range(2):
        model = build_model(tiny_config(), Prng(3))
        _, log = train(model, dataset, config)
        runs.append((log.steps, [p.copy() for _, p in model.named_parameters()]))
    assert runs[0][0] == runs[1][0]
    for pa, pb in zip(runs[0][1], runs[1][1]):
        npt.assert_array_equal(pa, pb)


# Trains a stack whose augmentation and conv GEMMs are large enough that
# OpenBLAS splits them across threads, and saves the parameters and the log.
_TRAIN_CHILD = """
import sys
import numpy as np
from emocnn.network import build_model
from emocnn.tensor import Prng
from emocnn.training import TrainConfig, train
from support import make_marker_dataset, tiny_config

config = tiny_config(input_len=144, aug_side=16, aug_channels=3, conv_groups=((8,), (16,)), fc_sizes=(64, 5))
model, log = train(
    build_model(config, Prng(3)),
    make_marker_dataset(60, seed=1),
    TrainConfig(epochs=3, batches_per_epoch=4, learning_rate=1e-3, seed=9),
)
np.savez(sys.argv[1], steps=np.array(log.steps), val_top1=np.array(log.val_top1), **model.parameters())
"""


def _train_in_child(out, blas_threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(emocnn.__file__).parents[1]), str(Path(__file__).parent), env.get("PYTHONPATH", "")]
    )
    subprocess.run([sys.executable, "-c", _TRAIN_CHILD, str(out)], env=env, check=True, timeout=300)
    with np.load(out) as saved:
        return {name: saved[name] for name in saved.files}


def test_training_is_bit_exact_at_each_blas_thread_count(tmp_path):
    runs = {
        threads: [_train_in_child(tmp_path / f"t{threads}-{i}.npz", threads) for i in range(2)]
        for threads in (1, 2)
    }
    for threads, (first, second) in runs.items():
        for name in first:
            assert first[name].tobytes() == second[name].tobytes(), f"{name} at {threads} BLAS threads"
    # Across thread counts the promise is not made; report the gap only.
    one, two = runs[1][0], runs[2][0]
    gap = max(float(np.abs(one[name] - two[name]).max()) for name in one)
    print(f"largest gap between 1 and 2 BLAS threads: {gap:.3g}")


def test_train_logs_steps_and_validation():
    dataset = _tiny_dataset()
    model = build_model(tiny_config(), Prng(4))
    _, log = train(model, dataset, TrainConfig(epochs=2, batches_per_epoch=4, seed=0))
    assert [s for s, _ in log.steps] == list(range(1, 9))
    assert [e for e, _ in log.val_top1] == [1, 2]
    assert all(np.isfinite(l) for _, l in log.steps)


def test_train_requires_two_examples_per_class():
    codes, labels = _tiny_dataset(10)
    labels = labels.copy()
    labels[:] = 0
    labels[0] = 1  # class 1 has a single example
    model = build_model(tiny_config(), Prng(5))
    with pytest.raises(ValueError):
        train(model, (codes, labels), TrainConfig(epochs=1, batches_per_epoch=2))


def test_repeated_batch_loss_descends():
    # fixed batch, dropout off: loss should fall with at most rare upticks
    model = randomized_tiny_model(7, dtype=np.float64, dropout_keep_hidden=1.0)
    codes, labels = _tiny_dataset(8, seed=2)
    x = codes.astype(np.float64) / 255.0
    params = model.parameters()
    state = AdamState.for_params(params, learning_rate=1e-3)
    losses = []
    for _ in range(100):
        loss, grads = loss_and_grads(model, x, labels, mode="test")
        adam_step(params, grads, state)
        losses.append(loss)
    upticks = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-12)
    assert losses[-1] < losses[0]
    assert upticks <= 5


def test_tiny_model_overfits_separable_classes():
    # end-to-end learning sanity at miniature scale: constant input per class
    labels = np.arange(30, dtype=np.int64) % 5
    codes = np.tile((labels * 51).astype(np.uint8)[:, None], (1, 5))
    cfg = tiny_config(conv_groups=((8,),), fc_sizes=(16, 5), init_std=0.1, dropout_keep_hidden=1.0)
    model = build_model(cfg, Prng(9))
    config = TrainConfig(epochs=60, batches_per_epoch=5, learning_rate=1e-2, seed=1, eval_fraction=0.2)
    _, log = train(model, (codes, labels), config)
    from emocnn.network import predict_batch

    train_idx, _ = split_encoded(len(codes), 0.2, config.seed)
    preds = predict_batch(model, codes[train_idx])
    assert (preds == labels[train_idx]).mean() >= 0.95
    assert log.steps[-1][1] < 0.2
