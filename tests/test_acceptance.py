"""Acceptance suite.

One test per acceptance criterion. Each prints a single PASS line after its
assertions hold (run with -s or -rP to see them). Criteria cover gradient
correctness, the convolution oracle, dimension flow, encoding guarantees,
optimizer behavior, determinism, learning capability, baseline arithmetic,
and checkpoint integrity.
"""
import time

import numpy as np
import numpy.testing as npt
import pytest

from emocnn.checkpoint import (
    CheckpointError,
    CheckpointTruncatedError,
    load_checkpoint,
    save_checkpoint,
)
from emocnn.cli import EXIT_DATA, main as cli_main
from emocnn.evaluation import evaluate
from emocnn.layers import (
    AffineParams,
    ConvParams,
    PoolSpec,
    affine_backward,
    affine_forward,
    conv2d_backward,
    conv2d_forward,
    maxpool_backward,
    maxpool_forward,
    relu,
    relu_backward,
    softmax_cross_entropy,
)
from emocnn.network import (
    NetworkConfig,
    VARIANTS,
    build_model,
    compute_augmentation_size,
    loss_and_grads,
    predict_batch,
)
from emocnn.tensor import Prng
from emocnn.text import ALPHABET_RANGES, ALPHABET_SIZE, encode_dialogue, remap
from emocnn.training import AdamState, TrainConfig, adam_step, make_batches, train

from support import (
    conv2d_naive,
    distinct_values,
    make_marker_dataset,
    numeric_gradient,
    rel_error,
    tiny_config,
    write_marker_tsv,
)

GRAD_TOL = 1e-4


def _pass(number, message):
    print(f"[acceptance] criterion {number:2d} PASS - {message}")


# ------------------------------------------------------------------ 1

def test_c01_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)

    for i in range(20):  # affine
        b, d_in, d_out = rng.integers(1, 5), rng.integers(1, 8), rng.integers(1, 6)
        x = rng.random((b, d_in)) - 0.5
        p = AffineParams(W=rng.random((d_out, d_in)) - 0.5, b=rng.random(d_out) - 0.5)
        w = rng.random((b, d_out))
        dx, dw, db = affine_backward(w, x, p)
        f = lambda: float((affine_forward(x, p) * w).sum())
        assert rel_error(dx, numeric_gradient(f, x)) < GRAD_TOL
        assert rel_error(dw, numeric_gradient(f, p.W)) < GRAD_TOL
        assert rel_error(db, numeric_gradient(f, p.b)) < GRAD_TOL

    for i in range(20):  # conv
        b, h, wdt, c, k = rng.integers(1, 3), rng.integers(5, 9), rng.integers(5, 9), rng.integers(1, 3), rng.integers(1, 4)
        x = rng.random((b, h, wdt, c)) - 0.5
        p = ConvParams(filters=rng.random((k, 5, 5, c)) - 0.5, bias=rng.random(k) - 0.5)
        w = rng.random((b, h - 4, wdt - 4, k))
        dx, df, dbias = conv2d_backward(w, x, p)
        f = lambda: float((conv2d_forward(x, p) * w).sum())
        assert rel_error(dx, numeric_gradient(f, x)) < GRAD_TOL
        assert rel_error(df, numeric_gradient(f, p.filters)) < GRAD_TOL
        assert rel_error(dbias, numeric_gradient(f, p.bias)) < GRAD_TOL

    for i in range(20):  # relu, inputs kept away from the kink at 0
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)))
        mag = 0.05 + rng.random(shape)
        x = mag * np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        w = rng.random(shape)
        dx = relu_backward(w, x)
        assert rel_error(dx, numeric_gradient(lambda: float((relu(x) * w).sum()), x)) < GRAD_TOL

    specs = [
        PoolSpec(5, 1, "same"),
        PoolSpec(2, 2, "none"),
        PoolSpec(3, 1, "same"),
        PoolSpec(2, 1, "none"),
    ]
    for i in range(20):  # max pool, distinct values so windows are tie-free
        spec = specs[i % len(specs)]
        x = distinct_values((1, 6, 6, 2), seed=300 + i)
        out = maxpool_forward(x, spec)
        w = np.asarray(rng.random(out.shape))
        dx = maxpool_backward(w, x, spec)
        fd = numeric_gradient(lambda: float((maxpool_forward(x, spec) * w).sum()), x)
        assert rel_error(dx, fd) < GRAD_TOL

    for i in range(20):  # softmax cross-entropy
        b = int(rng.integers(1, 7))
        logits = rng.normal(size=(b, 5))
        labels = rng.integers(0, 5, size=b)
        _, _, dlogits = softmax_cross_entropy(logits, labels)
        fd = numeric_gradient(lambda: softmax_cross_entropy(logits, labels)[0], logits)
        assert rel_error(dlogits, fd) < GRAD_TOL

    # end-to-end: augmentation + conv + pool + FC stack, all parameters
    e2e_cfg = tiny_config(conv_groups=((2,),), aug_channels=1, fc_sizes=(3, 5))
    for i in range(20):
        model = build_model(e2e_cfg, Prng(500 + i), dtype=np.float64)
        prm_rng = Prng(600 + i)
        for _, p in model.named_parameters():
            p[...] = prm_rng.uniform(p.size).reshape(p.shape) - 0.5
        x = Prng(700 + i).uniform(3 * 5).reshape(3, 5)
        y = np.array([0, 2, 4])
        _, grads = loss_and_grads(model, x, y, mode="test")
        f = lambda: loss_and_grads(model, x, y, mode="test")[0]
        for name, p in model.named_parameters():
            assert rel_error(grads[name], numeric_gradient(f, p)) < GRAD_TOL, name

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _pass(1, f"all layer and end-to-end gradients match finite differences ({elapsed:.1f}s)")


# ------------------------------------------------------------------ 2

def test_c02_convolution_oracle():
    rng = np.random.default_rng(202)
    for i in range(50):
        b = int(rng.integers(1, 3))
        h = int(rng.integers(5, 11))
        w = int(rng.integers(5, 11))
        c = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        x = rng.random((b, h, w, c)) - 0.5
        p = ConvParams(filters=rng.random((k, 5, 5, c)) - 0.5, bias=rng.random(k) - 0.5)
        assert rel_error(conv2d_forward(x, p), conv2d_naive(x, p.filters, p.bias)) < 1e-12
    _pass(2, "vectorized convolution matches the naive loop reference on 50 instances")


# ------------------------------------------------------------------ 3

def test_c03_dimension_flow():
    cfg = NetworkConfig.for_variant("B")
    assert cfg.spatial_trace() == [32, 28, 28, 24, 20, 20, 16, 16, 12, 6]
    assert cfg.flatten_width() == 9216
    model = build_model(cfg, Prng(3))
    assert model.fcs[0].W.shape == (1024, 9216)
    for variant in VARIANTS:
        vcfg = NetworkConfig.for_variant(variant)
        build_model(vcfg, Prng(3))
        assert vcfg.n_weighted_layers == 9
    _pass(3, "variant B spatial trace 32-28-28-24-20-20-16-16-12-6, FC input 9216, 9 weighted layers in all variants")


# ------------------------------------------------------------------ 4

def test_c04_augmentation_size():
    assert compute_augmentation_size(12, 5, 5, 1) == 32
    _pass(4, "five 5x5 stride-1 convolutions from a 32-wide grid leave 12")


# ------------------------------------------------------------------ 5

def test_c05_alphabet_and_encoding():
    members = [cp for lo, hi in ALPHABET_RANGES for cp in range(lo, hi + 1)]
    assert len(members) == len(set(members)) == ALPHABET_SIZE == 20964
    assert remap(20963) == 227
    import random as pyrandom

    rnd = pyrandom.Random(505)
    for _ in range(10_000):
        chars = []
        for _ in range(rnd.randrange(0, 200)):
            cp = rnd.randrange(0, 0x110000)
            if 0xD800 <= cp <= 0xDFFF:
                cp = 0x4E00
            chars.append(chr(cp))
        seq = encode_dialogue("".join(chars))
        assert seq.shape == (144,) and seq.dtype == np.uint8
    _pass(5, "alphabet has 20964 members, remap(20963)=227, encoding is always 144 bytes")


# ------------------------------------------------------------------ 6

def test_c06_softmax_properties():
    rng = np.random.default_rng(606)
    logits = rng.normal(size=(32, 5)) * 40
    labels = rng.integers(0, 5, size=32)
    _, probs, _ = softmax_cross_entropy(logits, labels)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    uniform_loss, _, _ = softmax_cross_entropy(np.zeros((8, 5)), np.arange(8) % 5)
    assert abs(uniform_loss - np.log(5.0)) < 1e-9

    _, shifted, _ = softmax_cross_entropy(logits + 987.25, labels)
    assert np.abs(probs - shifted).max() < 1e-9
    _pass(6, "softmax rows sum to 1, uniform loss is ln 5, shift invariant (all at 1e-9)")


# ------------------------------------------------------------------ 7

def test_c07_adam_oracle():
    lr = 1e-3
    params = {"w": np.array([1.0])}
    state = AdamState.for_params(params, learning_rate=lr)
    adam_step(params, {"w": np.array([1.0])}, state)
    hand_derived = 1.0 - lr / (1.0 + state.epsilon)
    assert abs(params["w"][0] - hand_derived) < 1e-12

    rng = np.random.default_rng(707)
    frozen = {"w": rng.random((7, 5)), "b": rng.random(5)}
    before = {k: v.copy() for k, v in frozen.items()}
    state = AdamState.for_params(frozen, learning_rate=0.0)
    for _ in range(100):
        adam_step(frozen, {k: rng.normal(size=v.shape) for k, v in frozen.items()}, state)
    for k in frozen:
        npt.assert_array_equal(frozen[k], before[k])
    _pass(7, "first Adam step equals -lr/(1+eps); lr=0 leaves parameters bit-identical for 100 steps")


# ------------------------------------------------------------------ 8

@pytest.mark.slow
def test_c08_full_training_determinism(tmp_path):
    dataset = make_marker_dataset(256, seed=808)
    config = TrainConfig(epochs=2, batches_per_epoch=32, learning_rate=1e-4, seed=11, eval_fraction=0.2)
    checkpoints = []
    losses = []
    for run in range(2):
        model = build_model(NetworkConfig.for_variant("B"), Prng(12))
        model, log = train(model, dataset, config)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(model, path)
        checkpoints.append(path.read_bytes())
        losses.append(log.steps)
    assert losses[0] == losses[1]
    assert checkpoints[0] == checkpoints[1]
    _pass(8, "two identical-seed trainings agree bit-for-bit in losses and checkpoints")


# ------------------------------------------------------------------ 9

@pytest.mark.slow
def test_c09_learning_capability():
    started = time.perf_counter()
    codes, labels = make_marker_dataset(64, seed=100)
    x = (codes.astype(np.float64) / 255.0).astype(np.float32)

    model = build_model(NetworkConfig.for_variant("B", init_std=0.03), Prng(0))
    params = model.parameters()
    state = AdamState.for_params(params, learning_rate=1e-3)
    rng = Prng(1)
    train_top1 = 0.0
    reached_epoch = None
    for epoch in range(1, 51):
        for batch in make_batches(len(codes), 8, rng):
            _, grads = loss_and_grads(model, x[batch], labels[batch], mode="train", rng=rng)
            adam_step(params, grads, state)
        train_top1 = float((predict_batch(model, codes) == labels).mean())
        if train_top1 >= 0.95:
            reached_epoch = epoch
            break
    elapsed = time.perf_counter() - started
    assert reached_epoch is not None, f"top-1 only reached {train_top1:.3f} after 50 epochs"
    assert elapsed < 600.0

    held_codes, held_labels = make_marker_dataset(200, seed=200)
    held_top1 = float((predict_batch(model, held_codes) == held_labels).mean())
    assert held_top1 >= 0.90
    _pass(9, f"train top-1 {train_top1:.2f} at epoch {reached_epoch} in {elapsed:.0f}s; held-out {held_top1:.2f}")


# ------------------------------------------------------------------ 10

def test_c10_majority_baseline_arithmetic():
    counts = {0: 3679, 1: 4205, 2: 1747, 3: 2555}  # positive..neutral
    labels = np.concatenate([np.full(n, cls, dtype=np.int64) for cls, n in counts.items()])
    codes = np.zeros((len(labels), 144), dtype=np.uint8)
    always_negative = lambda batch: np.full(len(batch), 1, dtype=np.int64)
    report = evaluate(always_negative, (codes, labels))
    assert report.n_examples == 12186
    assert abs(report.overall_top1 - 4205 / 12186) < 1e-6
    _pass(10, f"constant-negative predictor scores {report.overall_top1:.6f} = 4205/12186")


# ------------------------------------------------------------------ 11

def test_c11_checkpoint_roundtrip_and_errors(tmp_path):
    model = build_model(tiny_config(), Prng(21), dtype=np.float32)
    first = tmp_path / "first.ckpt"
    second = tmp_path / "second.ckpt"
    save_checkpoint(model, first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()

    blob = first.read_bytes()
    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(blob[:-1])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(truncated)

    corrupted = tmp_path / "corrupt.ckpt"
    corrupted.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError):
        load_checkpoint(corrupted)

    # the CLI maps checkpoint damage to the data-error exit code
    data = write_marker_tsv(tmp_path / "d.tsv", n=10, seed=0)
    ckpt = tmp_path / "cli.ckpt"
    assert cli_main([
        "train", "--data", str(data), "--out", str(ckpt),
        "--epochs", "0", "--batches", "2", "--seed", "0",
    ]) == 0
    ckpt.write_bytes(ckpt.read_bytes()[:-10])
    code = cli_main(["eval", "--data", str(data), "--ckpt", str(ckpt), "--report", str(tmp_path / "r.csv")])
    assert code == EXIT_DATA
    _pass(11, "save-load-save is byte-identical; truncation and corruption raise their designated errors")
