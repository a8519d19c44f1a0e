import dataclasses
import hashlib
import threading
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from emocnn import checkpoint, network, tensor
from emocnn.labels import N_CLASSES, EmotionLabel
from emocnn.network import (
    CONV_GROUPS,
    VARIANTS,
    NetworkConfig,
    allocate_model,
    build_model,
    compute_augmentation_size,
    forward,
    loss_and_grads,
    predict,
    predict_batch,
)
from emocnn.tensor import FLAT_BLOCK, Prng
from emocnn.training import NumericalFault

from support import (
    composed_forward,
    composed_grads,
    composed_loss,
    numeric_gradient,
    randomized_tiny_model,
    rel_error,
    tiny_config,
    traced_peak,
)


@pytest.fixture(scope="module")
def served_b():
    """Variant B drawn wide enough that labels are not near-ties, as served."""
    return build_model(NetworkConfig.for_variant("B", init_std=0.05), Prng(30))


def _codes(n, seed):
    return np.random.default_rng(seed).integers(0, 256, size=(n, 144), dtype=np.uint8)


def test_augmentation_size_five_layers():
    assert compute_augmentation_size(12, 5, 5, 1) == 32


def test_augmentation_size_zero_layers():
    assert compute_augmentation_size(12, 0, 5, 1) == 12


def test_augmentation_size_generic():
    assert compute_augmentation_size(10, 3, 3, 1) == 16


def test_variant_channel_plans():
    plans = {
        "A": (32, 32, 64, 128, 256),
        "B": (32, 64, 64, 128, 256),
        "C": (32, 64, 128, 128, 256),
        "D": (32, 64, 128, 256, 256),
    }
    for variant, plan in plans.items():
        assert NetworkConfig.for_variant(variant).channel_plan == plan


def test_variant_b_spatial_trace():
    trace = NetworkConfig.for_variant("B").spatial_trace()
    assert trace == [32, 28, 28, 24, 20, 20, 16, 16, 12, 6]


def test_all_variants_flatten_to_9216():
    for variant in VARIANTS:
        cfg = NetworkConfig.for_variant(variant)
        assert cfg.flatten_width() == 9216 == 6 * 6 * 256
        assert cfg.n_weighted_layers == 9
        assert len(cfg.channel_plan) == 5


def test_variant_b_layer_names():
    # The per-layer span names of the benchmark, which calls the first "aug".
    names = [name for name, _, _ in NetworkConfig.for_variant("B").layer_plan()]
    assert names == [
        "augmentation", "conv1", "pool1", "conv2", "conv3", "pool2",
        "conv4", "pool3", "conv5", "pool4", "fc1", "fc2", "fc3",
    ]


PLAN_CONFIGS = {
    **{variant: NetworkConfig.for_variant(variant) for variant in VARIANTS},
    "tiny": tiny_config(),
    "two-groups-input-dropout": tiny_config(conv_groups=((3, 4), (2,)), aug_side=14, dropout_keep_input=0.5),
}


@pytest.mark.parametrize("case", sorted(PLAN_CONFIGS))
def test_parameter_names_and_order_agree_everywhere(case):
    config = PLAN_CONFIGS[case]
    model = build_model(config, Prng(41))
    x = Prng(42).uniform(2 * config.input_len).reshape(2, -1).astype(model.dtype)
    _, grads = loss_and_grads(model, x, np.array([0, 4]), mode="train", rng=Prng(43))
    assert [(name, p.shape) for name, p in model.named_parameters()] == network._parameter_shapes(config)
    names = [name for name, _ in model.named_parameters()]
    assert names == [entry["name"] for entry in checkpoint._directory(config)]
    # Filled layer by layer as the backward walk reaches each, weight first.
    layers = [names[i : i + 2] for i in range(0, len(names), 2)]
    assert list(grads) == [name for layer in reversed(layers) for name in layer]
    params = model.parameters()
    for name in names:
        assert grads[name].shape == params[name].shape, name


@st.composite
def small_configs(draw):
    """1-3 conv groups of 1-2 convs of 1-6 channels, and 1-3 fc layers.
    Each conv takes 4 off the side and the last pool needs 2, so the
    augmentation side starts at 4 per conv plus 2."""
    channels = st.integers(1, 6)
    groups = draw(st.lists(st.lists(channels, min_size=1, max_size=2).map(tuple), min_size=1, max_size=3))
    n_convs = sum(map(len, groups))
    return NetworkConfig(
        variant=None,
        conv_groups=tuple(groups),
        input_len=draw(st.integers(1, 8)),
        aug_side=draw(st.integers(4 * n_convs + 2, 4 * n_convs + 6)),
        aug_channels=draw(st.integers(1, 3)),
        fc_sizes=(*draw(st.lists(st.integers(1, 8), max_size=2)), N_CLASSES),
    )


@settings(max_examples=100, deadline=None)
@given(config=small_configs(), seed=st.integers(0, 2**32 - 1))
def test_random_architectures_agree_on_parameters_and_checkpoint(tmp_path_factory, config, seed):
    shapes = [(name, p.shape) for name, p in allocate_model(config).named_parameters()]
    assert shapes == network._parameter_shapes(config)
    assert shapes == [(entry["name"], tuple(entry["dims"])) for entry in checkpoint._directory(config)]
    model = build_model(config, Prng(seed))
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    checkpoint.save_checkpoint(model, path)
    loaded = checkpoint.load_checkpoint(path)
    assert loaded.config == config
    assert [(n, p.tobytes()) for n, p in loaded.named_parameters()] == [
        (n, p.tobytes()) for n, p in model.named_parameters()
    ]


def test_variant_b_parameter_shapes():
    # Written out by hand, so that a transposed or misplaced shape shows.
    assert network._parameter_shapes(NetworkConfig.for_variant("B")) == [
        ("augmentation.W", (3072, 144)), ("augmentation.b", (3072,)),
        ("conv1.filters", (32, 5, 5, 3)), ("conv1.bias", (32,)),
        ("conv2.filters", (64, 5, 5, 32)), ("conv2.bias", (64,)),
        ("conv3.filters", (64, 5, 5, 64)), ("conv3.bias", (64,)),
        ("conv4.filters", (128, 5, 5, 64)), ("conv4.bias", (128,)),
        ("conv5.filters", (256, 5, 5, 128)), ("conv5.bias", (256,)),
        ("fc1.W", (1024, 9216)), ("fc1.b", (1024,)),
        ("fc2.W", (1024, 1024)), ("fc2.b", (1024,)),
        ("fc3.W", (5, 1024)), ("fc3.b", (5,)),
    ]


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        NetworkConfig.for_variant("E")


def test_underflow_config_rejected():
    with pytest.raises(ValueError, match="smaller than"):
        NetworkConfig(variant=None, conv_groups=((4,), (4,)), aug_side=8, input_len=5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: NetworkConfig.for_variant("B", init_std=float("inf")),
        lambda: NetworkConfig.for_variant("B", init_mean=float("nan")),
        lambda: NetworkConfig.for_variant("B", dropout_keep_hidden=True),
        lambda: NetworkConfig.for_variant("B", input_len=144.0),
        lambda: dataclasses.replace(tiny_config(), aug_side=np.int64(6)),
        lambda: dataclasses.replace(tiny_config(), conv_groups=[[3]]),
        lambda: dataclasses.replace(tiny_config(), fc_sizes=[4, 5]),
        lambda: dataclasses.replace(tiny_config(), variant=b"B"),
    ],
)
def test_config_of_a_bad_type_or_non_finite_cannot_be_built(make):
    with pytest.raises(ValueError):
        make()


def test_variant_b_parameter_count():
    model = build_model(NetworkConfig.for_variant("B"), Prng(0))
    # independent shape-by-shape summation
    expected = (
        (3072 * 144 + 3072)          # augmentation
        + (32 * 5 * 5 * 3 + 32)      # conv1
        + (64 * 5 * 5 * 32 + 64)     # conv2
        + (64 * 5 * 5 * 64 + 64)     # conv3
        + (128 * 5 * 5 * 64 + 128)   # conv4
        + (256 * 5 * 5 * 128 + 256)  # conv5
        + (1024 * 9216 + 1024)       # fc1
        + (1024 * 1024 + 1024)       # fc2
        + (5 * 1024 + 5)             # fc3
    )
    assert model.n_parameters == expected


def test_build_is_deterministic_under_seed():
    a = build_model(tiny_config(), Prng(11))
    b = build_model(tiny_config(), Prng(11))
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        npt.assert_array_equal(pa, pb)


@pytest.mark.parametrize("threads", [None, 1, 3])
def test_variant_b_initial_parameters_are_pinned(monkeypatch, threads):
    # None draws on this machine's CPUs; the values hold for any count.
    if threads is not None:
        monkeypatch.setattr(tensor, "_fill_threads", lambda: threads)
    before = threading.active_count()
    model = build_model(NetworkConfig.for_variant("B"), Prng(0))
    assert threading.active_count() == before
    digest = hashlib.sha256()
    for name, p in model.named_parameters():
        digest.update(name.encode())
        digest.update(str(p.dtype).encode())
        digest.update(p.tobytes())
    assert digest.hexdigest() == "fa76c388b723d39e233a6afeefdffe949de70364b7160125a55c311034028c7c"


def test_biases_start_at_zero():
    model = build_model(tiny_config(), Prng(1))
    for name, p in model.named_parameters():
        if name.endswith(".b") or name.endswith(".bias"):
            assert not p.any()


def test_forward_shape_and_test_mode_purity():
    model = build_model(NetworkConfig.for_variant("B"), Prng(2))
    x = (Prng(3).uniform(2 * 144).reshape(2, 144)).astype(np.float32)
    first = forward(model, x, mode="test")
    second = forward(model, x, mode="test")
    assert first.shape == (2, 5)
    npt.assert_array_equal(first, second)


def test_forward_zero_input_is_finite():
    model = build_model(NetworkConfig.for_variant("B"), Prng(4))
    logits = forward(model, np.zeros((1, 144), dtype=np.float32))
    assert np.isfinite(logits).all()


@pytest.mark.parametrize("l2", [-1e-4, float("nan")])
def test_negative_or_nan_l2_strength_rejected(l2):
    with pytest.raises(ValueError, match="l2_strength"):
        build_model(tiny_config(l2_strength=l2), Prng(0))


def test_forward_rejects_wrong_width():
    model = build_model(tiny_config(), Prng(5))
    with pytest.raises(ValueError):
        forward(model, np.zeros((1, 7)))


def test_train_mode_consumes_rng_only_for_dropout():
    model = randomized_tiny_model(6)
    x = Prng(7).uniform(3 * 5).reshape(3, 5)
    same_seed_a = forward(model, x, mode="train", rng=Prng(8))
    same_seed_b = forward(model, x, mode="train", rng=Prng(8))
    other_seed = forward(model, x, mode="train", rng=Prng(9))
    npt.assert_array_equal(same_seed_a, same_seed_b)
    assert not np.array_equal(same_seed_a, other_seed)


def _with_l2(model, l2):
    """The model's parameters under its config with L2 strength ``l2``."""
    return dataclasses.replace(model, config=dataclasses.replace(model.config, l2_strength=l2))


def test_loss_without_l2_is_bare_cross_entropy():
    model = randomized_tiny_model(10)
    x = Prng(11).uniform(4 * 5).reshape(4, 5)
    y = np.array([0, 1, 2, 3])
    from emocnn.layers import softmax_cross_entropy

    bare, _, _ = softmax_cross_entropy(forward(model, x), y)
    loss, _ = loss_and_grads(_with_l2(model, 0.0), x, y, mode="test")
    assert abs(loss - bare) < 1e-12


def test_zero_weights_have_zero_regularization():
    model = allocate_model(tiny_config(), dtype=np.float64)
    x = Prng(12).uniform(2 * 5).reshape(2, 5)
    y = np.array([0, 1])
    with_l2, _ = loss_and_grads(_with_l2(model, 10.0), x, y, mode="test")
    without, _ = loss_and_grads(_with_l2(model, 0.0), x, y, mode="test")
    assert with_l2 == without


def test_l2_component_monotone_in_strength():
    model = randomized_tiny_model(13)
    x = Prng(14).uniform(2 * 5).reshape(2, 5)
    y = np.array([0, 1])
    losses = [loss_and_grads(_with_l2(model, l2), x, y, mode="test")[0] for l2 in (0.0, 1e-4, 1e-2, 1.0)]
    assert all(b >= a for a, b in zip(losses, losses[1:]))


def test_l2_gradient_term():
    model = randomized_tiny_model(15)
    x = Prng(16).uniform(2 * 5).reshape(2, 5)
    y = np.array([0, 1])
    _, g0 = loss_and_grads(_with_l2(model, 0.0), x, y, mode="test")
    _, g1 = loss_and_grads(_with_l2(model, 0.5), x, y, mode="test")
    params = model.parameters()
    for name in model.weight_names():
        npt.assert_allclose(g1[name], g0[name] + params[name], rtol=1e-12, atol=1e-12)
    npt.assert_allclose(g1["fc1.b"], g0["fc1.b"])  # biases not regularized


def test_end_to_end_gradient_matches_finite_differences():
    model = randomized_tiny_model(17)
    x = Prng(18).uniform(4 * 5).reshape(4, 5)
    y = np.array([0, 1, 2, 3])
    _, grads = loss_and_grads(model, x, y, mode="test")
    for name, p in model.named_parameters():
        fd = numeric_gradient(lambda: loss_and_grads(model, x, y, mode="test")[0], p)
        assert rel_error(grads[name], fd) < 1e-4, name


def test_two_group_train_mode_matches_hand_composition():
    # Two groups run both pool kinds; dropout below 1 draws from the Prng.
    model = randomized_tiny_model(
        25, conv_groups=((3,), (4, 2)), aug_side=16, input_len=7, fc_sizes=(16, 5),
        dropout_keep_input=0.8, dropout_keep_hidden=0.7,
    )
    x = Prng(26).uniform(4 * 7).reshape(4, 7)
    y = np.array([4, 0, 2, 1])
    npt.assert_array_equal(forward(model, x, "train", Prng(27)), composed_forward(model, x, "train", Prng(27)))
    loss, _ = loss_and_grads(model, x, y, mode="train", rng=Prng(27))
    assert loss == composed_loss(model, x, y, "train", Prng(27))


def test_variant_b_test_mode_matches_hand_composition():
    model = build_model(NetworkConfig.for_variant("B", init_std=0.05), Prng(28), dtype=np.float64)
    x = Prng(29).uniform(2 * 144).reshape(2, 144)
    y = np.array([3, 1])
    npt.assert_array_equal(forward(model, x), composed_forward(model, x))
    assert loss_and_grads(model, x, y, mode="test")[0] == composed_loss(model, x, y)


GRAD_CASES = {
    "two-groups-float32-train": (
        lambda: randomized_tiny_model(
            45, dtype=np.float32, conv_groups=((3,), (4, 2)), aug_side=16, input_len=7, fc_sizes=(16, 5),
            dropout_keep_input=0.8, dropout_keep_hidden=0.7,
        ),
        "train",
    ),
    "two-groups-float64-test": (
        lambda: randomized_tiny_model(46, conv_groups=((3,), (4, 2)), aug_side=16, input_len=7, fc_sizes=(16, 5)),
        "test",
    ),
    "variant-b-float64-test": (
        lambda: build_model(NetworkConfig.for_variant("B", init_std=0.05), Prng(47), dtype=np.float64),
        "test",
    ),
}


@pytest.mark.parametrize("case", sorted(GRAD_CASES))
def test_gradients_match_the_hand_unrolled_backward_bit_for_bit(case):
    make_model, mode = GRAD_CASES[case]
    model = make_model()
    n = model.config.input_len
    x = Prng(48).uniform(4 * n).reshape(4, n).astype(model.dtype)
    y = np.array([4, 0, 2, 1])
    loss, grads = loss_and_grads(model, x, y, mode=mode, rng=Prng(49))
    want_loss, want = composed_grads(model, x, y, mode=mode, rng=Prng(49))
    assert loss == want_loss
    assert list(grads) == list(want)
    for name, g in grads.items():
        assert g.dtype == want[name].dtype and g.tobytes() == want[name].tobytes(), name


@settings(max_examples=150, deadline=None)
@given(
    config=small_configs(),
    dtype=st.sampled_from([np.float32, np.float64]),
    mode=st.sampled_from(["train", "test"]),
    keep_input=st.sampled_from([1.0, 0.7]),
    keep_hidden=st.sampled_from([1.0, 0.5]),
    l2=st.sampled_from([0.0, 1.5e-4]),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 2),
)
def test_random_architectures_match_the_hand_unrolled_backward(
    config, dtype, mode, keep_input, keep_hidden, l2, rows, seed
):
    # Weights of O(1), so the ReLUs cut some units and pass others.
    config = dataclasses.replace(
        config, dropout_keep_input=keep_input, dropout_keep_hidden=keep_hidden, l2_strength=l2, init_std=0.5
    )
    model = build_model(config, Prng(seed), dtype=dtype)
    x = Prng(seed + 1).uniform(rows * config.input_len).reshape(rows, -1).astype(dtype)
    y = np.random.default_rng(seed).integers(0, N_CLASSES, size=rows)
    loss, grads = loss_and_grads(model, x, y, mode=mode, rng=Prng(seed))
    want_loss, want = composed_grads(model, x, y, mode=mode, rng=Prng(seed))
    assert loss == want_loss
    assert list(grads) == list(want)
    for name, g in grads.items():
        assert g.dtype == want[name].dtype and g.tobytes() == want[name].tobytes(), name


def test_loss_and_grads_peak_memory_is_about_its_gradients(served_b):
    # The affine weight gradients, fc1's 37.7 MB above all, are computed
    # after the conv activations are freed. Measured: 4 MB above the
    # gradients (44 MB when fc1's gradient was made as the replay reached it).
    x = network.scale_codes(_codes(32, 50), np.float32)
    y = np.arange(32) % 5
    grads = {}
    peak = traced_peak(lambda: grads.update(loss_and_grads(served_b, x, y, mode="train", rng=Prng(51))[1]))
    grad_bytes = sum(g.nbytes for g in grads.values())
    assert peak <= grad_bytes + 8e6, f"peak {peak / 1e6:.1f} MB, gradients {grad_bytes / 1e6:.1f} MB"


def test_predict_uniform_on_zero_model():
    model = allocate_model(tiny_config())
    label, probs = predict(model, np.zeros(5, dtype=np.uint8))
    npt.assert_allclose(probs, 0.2, atol=1e-7)
    assert label == EmotionLabel.POSITIVE  # tie resolves to lowest index


def test_predict_probs_sum_to_one():
    model = randomized_tiny_model(19, dtype=np.float32)
    rng = np.random.default_rng(20)
    for _ in range(10):
        _, probs = predict(model, rng.integers(0, 256, size=5))
        assert abs(probs.sum() - 1.0) < 1e-6


def test_argmax_invariant_under_logit_shift():
    from emocnn.layers import softmax

    rng = np.random.default_rng(21)
    for _ in range(50):
        logits = rng.normal(size=(1, 5))
        assert np.argmax(softmax(logits)) == np.argmax(softmax(logits + 57.0))


def test_predict_batch_matches_predict(monkeypatch):
    model = randomized_tiny_model(22, dtype=np.float32)
    codes = np.random.default_rng(23).integers(0, 256, size=(6, 5))
    monkeypatch.setattr(network, "_PREDICT_CHUNK", 4)
    batched = predict_batch(model, codes)
    single = [int(predict(model, row)[0]) for row in codes]
    npt.assert_array_equal(batched, single)


def test_all_variants_build_and_group_plans_match():
    for variant, groups in CONV_GROUPS.items():
        model = build_model(NetworkConfig.for_variant(variant), Prng(24))
        assert len(model.convs) == sum(len(g) for g in groups)
        assert model.fcs[0].W.shape == (1024, 9216)
        assert model.fcs[-1].W.shape == (5, 1024)


def test_walk_without_tape_gives_the_same_logits(served_b):
    x = network.scale_codes(_codes(4, 31), np.float32)
    recorded, tape = network._run_forward(served_b, x, "test", None)
    bare, no_tape = network._run_forward(served_b, x, "test", None, record=False)
    assert no_tape == []
    # One record per named layer, in plan order: no separate reshape, ReLU or dropout steps.
    plan = [name for name, _, _ in served_b.config.layer_plan()]
    assert len(tape) == len(plan) and [layer[0] for layer, *_ in tape] == plan
    assert recorded.tobytes() == bare.tobytes()
    model = randomized_tiny_model(
        32, conv_groups=((3,), (4, 2)), aug_side=16, input_len=7, fc_sizes=(16, 5),
        dropout_keep_input=0.8, dropout_keep_hidden=0.7,
    )
    x = Prng(33).uniform(4 * 7).reshape(4, 7)
    recorded, _ = network._run_forward(model, x, "train", Prng(34))
    bare, _ = network._run_forward(model, x, "train", Prng(34), record=False)
    assert recorded.tobytes() == bare.tobytes()


def test_a_conv_frees_its_relu_output_before_its_own_backward(monkeypatch):
    relu_backward, conv2d_backward, rectified, alive = network.relu_backward, network.conv2d_backward, [], []

    def spy_relu(dy, x):
        rectified.append(weakref.ref(x))
        return relu_backward(dy, x)

    def spy_conv(*args):
        alive.append(rectified[-1]() is not None)
        return conv2d_backward(*args)

    monkeypatch.setattr(network, "relu_backward", spy_relu)
    monkeypatch.setattr(network, "conv2d_backward", spy_conv)
    model = randomized_tiny_model(
        35, conv_groups=((3,), (4, 2)), aug_side=16, input_len=7, fc_sizes=(16, 5), dropout_keep_hidden=0.7
    )
    x = Prng(36).uniform(4 * 7).reshape(4, 7)
    loss_and_grads(model, x, np.array([4, 0, 2, 1]), mode="train", rng=Prng(37))
    assert alive == [False, False, False]


def test_only_loss_and_grads_records_a_tape(monkeypatch):
    walk, records = network._run_forward, []

    def spy(*args, **kwargs):
        records.append(kwargs.get("record", True))
        return walk(*args, **kwargs)

    monkeypatch.setattr(network, "_run_forward", spy)
    model = randomized_tiny_model(38, dtype=np.float32)
    codes = np.random.default_rng(39).integers(0, 256, size=(3, 5))
    forward(model, network.scale_codes(codes, np.float32))
    predict(model, codes[0])
    predict_batch(model, codes)
    loss_and_grads(model, network.scale_codes(codes, np.float32), np.array([0, 1, 2]), rng=Prng(40))
    assert records == [False, False, False, True]


def test_loss_and_grads_frees_the_tape_before_the_l2_pass(monkeypatch):
    walk, add_l2, tapes, left_at_l2 = network._run_forward, network._add_l2_gradients, [], []

    def spy_walk(*args, **kwargs):
        logits, tape = walk(*args, **kwargs)
        tapes.append((len(tape), tape))
        return logits, tape

    def spy_l2(*args):
        left_at_l2.append(len(tapes[0][1]))
        return add_l2(*args)

    monkeypatch.setattr(network, "_run_forward", spy_walk)
    monkeypatch.setattr(network, "_add_l2_gradients", spy_l2)
    model = randomized_tiny_model(41, dtype=np.float32)
    codes = np.random.default_rng(42).integers(0, 256, size=(3, 5))
    loss_and_grads(model, network.scale_codes(codes, np.float32), np.array([0, 1, 2]), rng=Prng(43))
    (recorded, tape), = tapes
    assert recorded > 0 and tape == [] and left_at_l2 == [0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_l2_gradient_is_bit_identical_to_whole_tensor_add(dtype):
    rng = np.random.default_rng(44)
    l2 = 1.5e-4
    sizes = [1, FLAT_BLOCK - 1, FLAT_BLOCK + 1, 3 * FLAT_BLOCK + 7]
    weights = {f"w{n}": rng.normal(size=n).astype(dtype) for n in sizes}
    weights["matrix"] = rng.normal(size=(7, FLAT_BLOCK // 3)).astype(dtype)
    grads = {k: rng.normal(size=w.shape).astype(dtype) for k, w in weights.items()}
    want = {k: grads[k] + (2.0 * l2) * w for k, w in weights.items()}
    network._add_l2_gradients(grads, weights, l2)
    for k in weights:
        assert grads[k].dtype == dtype and grads[k].tobytes() == want[k].tobytes()


def test_predict_batch_labels_do_not_depend_on_the_chunk(served_b, monkeypatch):
    codes = _codes(70, 35)
    monkeypatch.setattr(network, "_PREDICT_CHUNK", 256)
    labels = predict_batch(served_b, codes)
    for chunk in (1, 3, 32):
        monkeypatch.setattr(network, "_PREDICT_CHUNK", chunk)
        npt.assert_array_equal(predict_batch(served_b, codes), labels)


def test_predict_batch_peak_memory_at_the_default_chunk(served_b):
    # 20.3 MB at 32 rows (numpy 2.4): the layer outputs and one 8 MiB im2col
    # block, no tape. The bound leaves 20% for other numpy versions.
    peak = traced_peak(predict_batch, served_b, _codes(64, 36))
    assert peak <= 24e6, f"peak {peak / 1e6:.1f} MB"


def test_build_model_holds_no_full_size_temporaries():
    # The parameters, plus one float32 copy of the largest tensor at most.
    config = NetworkConfig.for_variant("B")
    param_bytes = sum(p.nbytes for _, p in allocate_model(config).named_parameters())
    peak = traced_peak(build_model, config, Prng(37))
    assert peak <= 2.5 * param_bytes, f"peak {peak / param_bytes:.2f}x the parameter bytes"


def test_build_model_peak_is_about_its_parameters():
    # Each tensor is made once, in place: no zero-filled model to overwrite.
    config = NetworkConfig.for_variant("B")
    param_bytes = sum(p.nbytes for _, p in allocate_model(config).named_parameters())
    peak = traced_peak(build_model, config, Prng(37))
    assert peak <= 1.2 * param_bytes, f"peak {peak / param_bytes:.2f}x the parameter bytes"


@pytest.mark.parametrize(
    "make",
    [
        lambda: NetworkConfig(variant="B", conv_groups=CONV_GROUPS["D"]),
        lambda: NetworkConfig(variant="Z", conv_groups=CONV_GROUPS["B"]),
        lambda: dataclasses.replace(NetworkConfig.for_variant("A"), conv_groups=CONV_GROUPS["C"]),
    ],
)
def test_a_named_variant_is_its_conv_groups(make):
    with pytest.raises(ValueError, match="variant"):
        make()


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_named_variant_builds(variant):
    config = NetworkConfig.for_variant(variant.lower())
    assert config.variant == variant and config.conv_groups == CONV_GROUPS[variant]


def test_negative_init_std_is_rejected_when_the_config_is_built():
    with pytest.raises(ValueError, match="init_std"):
        NetworkConfig.for_variant("B", init_std=-0.01)
    build_model(NetworkConfig.for_variant("B", init_std=0.0), Prng(0))  # zero is a valid std


def _overflowing_model():
    # Finite weights, but far too large for float32 activations.
    model = build_model(tiny_config(input_len=144), Prng(0), dtype=np.float32)
    for _, p in model.named_parameters():
        p[...] = 1e30
    return model


@pytest.mark.parametrize(
    "call",
    [lambda m: predict_batch(m, _codes(40, 52)), lambda m: predict(m, _codes(1, 53)[0])],
    ids=["predict_batch", "predict"],
)
def test_non_finite_logits_raise_instead_of_labelling(call):
    model = _overflowing_model()
    with np.errstate(all="ignore"):
        x = network.scale_codes(_codes(2, 54), np.float32)
        assert not np.isfinite(forward(model, x)).all()  # forward stays unchecked
        with pytest.raises(NumericalFault, match="non-finite logits"):
            call(model)
