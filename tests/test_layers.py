import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from emocnn import layers
from emocnn.layers import (
    AffineParams,
    ConvParams,
    DropoutSpec,
    PoolSpec,
    affine_backward,
    affine_forward,
    conv2d_backward,
    conv2d_forward,
    dropout_backward,
    dropout_forward,
    maxpool_backward,
    maxpool_forward,
    relu,
    relu_backward,
    softmax,
    softmax_cross_entropy,
)
from emocnn.tensor import Prng

from support import (
    away_from_zero,
    conv2d_backward_naive,
    conv2d_naive,
    distinct_values,
    maxpool_backward_naive,
    maxpool_forward_naive,
    numeric_gradient,
    rel_error,
    traced_peak,
)


# ---------------------------------------------------------------- affine

def test_affine_identity():
    p = AffineParams(W=np.eye(3), b=np.zeros(3))
    x = np.random.default_rng(0).random((4, 3))
    npt.assert_allclose(affine_forward(x, p), x)


def test_affine_hand_case():
    p = AffineParams(W=np.array([[2.0]]), b=np.array([3.0]))
    npt.assert_array_equal(affine_forward(np.array([[1.0]]), p), np.array([[5.0]]))


def test_affine_shape_error():
    p = AffineParams(W=np.eye(3), b=np.zeros(3))
    with pytest.raises(ValueError):
        affine_forward(np.zeros((2, 4)), p)


def test_affine_backward_zero_gradient():
    p = AffineParams(W=np.eye(3), b=np.zeros(3))
    x = np.ones((2, 3))
    dx, dw, db = affine_backward(np.zeros((2, 3)), x, p)
    assert not dx.any() and not dw.any() and not db.any()


def test_affine_backward_identity_jacobian():
    p = AffineParams(W=np.eye(3), b=np.zeros(3))
    dy = np.random.default_rng(1).random((5, 3))
    dx, _, _ = affine_backward(dy, np.zeros((5, 3)), p)
    npt.assert_allclose(dx, dy)


def test_affine_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.random((4, 6)) - 0.5
    p = AffineParams(W=rng.random((3, 6)) - 0.5, b=rng.random(3) - 0.5)
    weight = rng.random((4, 3))  # fixed projection to a scalar objective
    dx, dw, db = affine_backward(weight, x, p)
    assert rel_error(dx, numeric_gradient(lambda: float((affine_forward(x, p) * weight).sum()), x)) < 1e-6
    assert rel_error(dw, numeric_gradient(lambda: float((affine_forward(x, p) * weight).sum()), p.W)) < 1e-6
    assert rel_error(db, numeric_gradient(lambda: float((affine_forward(x, p) * weight).sum()), p.b)) < 1e-6


# ---------------------------------------------------------------- conv

def _conv_params(rng, k, c):
    return ConvParams(filters=rng.random((k, 5, 5, c)) - 0.5, bias=rng.random(k) - 0.5)


def test_conv_all_ones_sums_window():
    x = np.ones((1, 5, 5, 1))
    p = ConvParams(filters=np.ones((1, 5, 5, 1)), bias=np.zeros(1))
    out = conv2d_forward(x, p)
    npt.assert_allclose(out, np.full((1, 1, 1, 1), 25.0))


def test_conv_delta_filter_crops_center():
    rng = np.random.default_rng(3)
    x = rng.random((2, 9, 9, 1))
    filters = np.zeros((1, 5, 5, 1))
    filters[0, 2, 2, 0] = 1.0
    out = conv2d_forward(x, ConvParams(filters=filters, bias=np.zeros(1)))
    npt.assert_allclose(out[:, :, :, 0], x[:, 2:7, 2:7, 0])


def test_conv_output_size():
    x = np.zeros((1, 32, 32, 3))
    p = ConvParams(filters=np.zeros((8, 5, 5, 3)), bias=np.zeros(8))
    assert conv2d_forward(x, p).shape == (1, 28, 28, 8)


def test_conv_rejects_small_input():
    p = ConvParams(filters=np.zeros((1, 5, 5, 1)), bias=np.zeros(1))
    with pytest.raises(ValueError):
        conv2d_forward(np.zeros((1, 4, 6, 1)), p)


def test_conv_rejects_non_5x5_filters():
    with pytest.raises(ValueError):
        ConvParams(filters=np.zeros((1, 3, 3, 1)), bias=np.zeros(1))


def test_conv_matches_naive_reference():
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.random((2, 8, 8, 2)) - 0.5
        p = _conv_params(rng, 3, 2)
        assert rel_error(conv2d_forward(x, p), conv2d_naive(x, p.filters, p.bias)) < 1e-13


def test_conv_backward_zero_gradient():
    rng = np.random.default_rng(5)
    x = rng.random((1, 6, 6, 2))
    p = _conv_params(rng, 3, 2)
    dx, df, db = conv2d_backward(np.zeros((1, 2, 2, 3)), x, p)
    assert not dx.any() and not df.any() and not db.any()


def test_conv_backward_bias_is_upstream_sum():
    rng = np.random.default_rng(6)
    x = rng.random((2, 7, 7, 2))
    p = _conv_params(rng, 3, 2)
    dy = rng.random((2, 3, 3, 3))
    _, _, db = conv2d_backward(dy, x, p)
    npt.assert_allclose(db, dy.sum(axis=(0, 1, 2)))


def test_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.random((1, 8, 8, 2)) - 0.5
    p = _conv_params(rng, 3, 2)
    weight = rng.random((1, 4, 4, 3))

    def objective():
        return float((conv2d_forward(x, p) * weight).sum())

    dx, df, db = conv2d_backward(weight, x, p)
    assert rel_error(dx, numeric_gradient(objective, x)) < 1e-5
    assert rel_error(df, numeric_gradient(objective, p.filters)) < 1e-5
    assert rel_error(db, numeric_gradient(objective, p.bias)) < 1e-5


CONV_ORACLE_INPUTS = {
    "transposed-view": lambda rng: (rng.random((2, 9, 6, 3)) - 0.5).transpose(0, 2, 1, 3),
    "strided-slice": lambda rng: (rng.random((2, 12, 14, 4)) - 0.5)[:, ::2, 1::2, ::2],
    "5x5": lambda rng: rng.random((2, 5, 5, 2)) - 0.5,
    "one-channel": lambda rng: rng.random((1, 7, 6, 1)) - 0.5,
}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("case", sorted(CONV_ORACLE_INPUTS))
def test_conv_matches_loop_oracles_on_views_and_edge_shapes(case, k):
    rng = np.random.default_rng(24)
    x = CONV_ORACLE_INPUTS[case](rng)
    p = _conv_params(rng, k, x.shape[3])
    out = conv2d_forward(x, p)
    assert rel_error(out, conv2d_naive(x, p.filters, p.bias)) < 1e-13
    dy = rng.random(out.shape) - 0.5
    for got, want in zip(conv2d_backward(dy, x, p), conv2d_backward_naive(dy, x, p.filters)):
        assert rel_error(got, want) < 1e-13


CONV_BLOCK_SAMPLES = 4
CONV_BLOCK_INPUTS = {
    "contiguous": lambda rng, b: rng.random((b, 7, 8, 2)) - 0.5,
    "transposed-view": lambda rng, b: (rng.random((b, 9, 6, 3)) - 0.5).transpose(0, 2, 1, 3),
    "strided-slice": lambda rng, b: (rng.random((b, 12, 14, 4)) - 0.5)[:, ::2, 1::2, ::2],
    "one-channel": lambda rng, b: rng.random((b, 7, 6, 1)) - 0.5,
}


@pytest.mark.parametrize(
    "batch", [1, CONV_BLOCK_SAMPLES - 1, CONV_BLOCK_SAMPLES, CONV_BLOCK_SAMPLES + 1, 2 * CONV_BLOCK_SAMPLES + 3]
)
@pytest.mark.parametrize("case", sorted(CONV_BLOCK_INPUTS))
def test_blocked_conv_matches_naive_reference(monkeypatch, case, batch):
    rng = np.random.default_rng(26)
    x = CONV_BLOCK_INPUTS[case](rng, batch)
    p = _conv_params(rng, 3, x.shape[3])
    _, h, w, c = x.shape
    # Exactly CONV_BLOCK_SAMPLES samples of im2col columns per block.
    monkeypatch.setattr(layers, "_BLOCK_BYTES", CONV_BLOCK_SAMPLES * (h - 4) * (w - 4) * 25 * c * x.itemsize)
    im2col, blocks = layers._im2col, []
    monkeypatch.setattr(layers, "_im2col", lambda xb, *a: blocks.append(len(xb)) or im2col(xb, *a))
    out = conv2d_forward(x, p)
    expected_blocks = [min(CONV_BLOCK_SAMPLES, batch - lo) for lo in range(0, batch, CONV_BLOCK_SAMPLES)]
    assert blocks == expected_blocks
    assert rel_error(out, conv2d_naive(x, p.filters, p.bias)) < 1e-13
    # The filter gradient unfolds the same blocks of whole samples.
    blocks.clear()
    dy = rng.random(out.shape) - 0.5
    grads = conv2d_backward(dy, x, p)
    assert blocks == expected_blocks
    for got, want in zip(grads, conv2d_backward_naive(dy, x, p.filters)):
        assert rel_error(got, want) < 1e-13


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(CONV_BLOCK_INPUTS)), batch=st.integers(1, 6), data=st.data())
def test_conv_matches_naive_reference_at_drawn_block_sizes(case, batch, data):
    rng = np.random.default_rng(29)
    x = CONV_BLOCK_INPUTS[case](rng, batch)
    p = _conv_params(rng, 3, x.shape[3])
    _, h, w, c = x.shape
    per_sample = (h - 4) * (w - 4) * 25 * c * x.itemsize  # one sample's im2col columns
    # From one sample per block up to the whole batch's columns in one.
    block_bytes = data.draw(st.integers(1, batch * per_sample), label="block_bytes")
    step = max(1, block_bytes // per_sample)
    expected_blocks = [min(step, batch - lo) for lo in range(0, batch, step)]
    im2col, blocks = layers._im2col, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers, "_BLOCK_BYTES", block_bytes)
        mp.setattr(layers, "_im2col", lambda xb, *a: blocks.append(len(xb)) or im2col(xb, *a))
        out = conv2d_forward(x, p)
        assert blocks == expected_blocks
        blocks.clear()
        dy = rng.random(out.shape) - 0.5
        grads = conv2d_backward(dy, x, p)
        assert blocks == expected_blocks
    assert rel_error(out, conv2d_naive(x, p.filters, p.bias)) < 1e-13
    for got, want in zip(grads, conv2d_backward_naive(dy, x, p.filters)):
        assert rel_error(got, want) < 1e-13


def test_conv_forward_peak_memory_is_output_plus_two_blocks():
    # Whole, this input's im2col columns would be 82 MB.
    rng = np.random.default_rng(27)
    x = rng.random((32, 24, 24, 64), dtype=np.float32)
    p = ConvParams(rng.random((8, 5, 5, 64), dtype=np.float32), np.zeros(8, dtype=np.float32))
    assert 32 * 20 * 20 * 25 * 64 * x.itemsize >= 64 << 20
    out_bytes = 32 * 20 * 20 * 8 * x.itemsize
    peak = traced_peak(conv2d_forward, x, p)
    assert peak < out_bytes + 2 * layers._BLOCK_BYTES, f"peak {peak / 2**20:.1f} MB"


def test_conv_backward_peak_memory_is_gradients_plus_one_tap_plus_two_blocks():
    # The input of the forward test above, whose whole im2col would be 82 MB.
    rng = np.random.default_rng(28)
    x = rng.random((32, 24, 24, 64), dtype=np.float32)
    p = ConvParams(rng.random((8, 5, 5, 64), dtype=np.float32), np.zeros(8, dtype=np.float32))
    dy = rng.random((32, 20, 20, 8), dtype=np.float32)
    tap_bytes = 32 * 20 * 20 * 64 * x.itemsize  # one tap's product dy @ filters[:, i, j, :]
    bound = x.nbytes + p.filters.nbytes + tap_bytes + 2 * layers._BLOCK_BYTES
    peak = traced_peak(conv2d_backward, dy, x, p)
    assert peak < bound, f"peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------- relu

def test_relu_values():
    npt.assert_array_equal(relu(np.array([3.0, -2.0, 0.0])), np.array([3.0, 0.0, 0.0]))


def test_relu_backward_gate():
    x = np.array([3.0, -2.0, 0.0])
    dy = np.array([1.0, 1.0, 1.0])
    npt.assert_array_equal(relu_backward(dy, x), np.array([1.0, 0.0, 0.0]))


def test_relu_backward_matches_finite_differences():
    x = away_from_zero((4, 7), seed=8)
    weight = np.random.default_rng(9).random((4, 7))
    dx = relu_backward(weight, x)
    assert rel_error(dx, numeric_gradient(lambda: float((relu(x) * weight).sum()), x)) < 1e-6


# ---------------------------------------------------------------- max pool

def test_maxpool_2x2_block():
    x = np.array([[1.0, 3.0], [2.0, 4.0]]).reshape(1, 2, 2, 1)
    out = maxpool_forward(x, PoolSpec(window=2, stride=2))
    npt.assert_array_equal(out, np.full((1, 1, 1, 1), 4.0))


def test_maxpool_constant_same_padding_identity():
    for window in (1, 2, 3, 5, 7):
        x = np.full((1, 6, 6, 2), 1.5)
        out = maxpool_forward(x, PoolSpec(window=window, stride=1, padding="same"))
        npt.assert_array_equal(out, x)


def test_maxpool_12_to_6():
    x = np.random.default_rng(10).random((2, 12, 12, 3))
    assert maxpool_forward(x, PoolSpec(window=2, stride=2)).shape == (2, 6, 6, 3)


def test_maxpool_same_padding_preserves_size():
    x = distinct_values((1, 9, 9, 2), seed=11)
    for window in range(1, 8):
        out = maxpool_forward(x, PoolSpec(window=window, stride=1, padding="same"))
        assert out.shape == x.shape


def test_maxpool_window_too_large():
    with pytest.raises(ValueError):
        maxpool_forward(np.zeros((1, 3, 3, 1)), PoolSpec(window=4, stride=1))


def test_maxpool_backward_routes_to_argmax():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    dy = np.full((1, 1, 1, 1), 5.0)
    dx = maxpool_backward(dy, x, PoolSpec(window=2, stride=2))
    npt.assert_array_equal(dx.reshape(2, 2), np.array([[0.0, 0.0], [0.0, 5.0]]))


def test_maxpool_backward_tie_breaks_first_row_major():
    x = np.full((1, 2, 2, 1), 7.0)
    dy = np.ones((1, 1, 1, 1))
    dx = maxpool_backward(dy, x, PoolSpec(window=2, stride=2))
    npt.assert_array_equal(dx.reshape(2, 2), np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_maxpool_backward_zero_upstream():
    x = distinct_values((1, 6, 6, 2), seed=12)
    dx = maxpool_backward(np.zeros((1, 6, 6, 2)), x, PoolSpec(window=5, stride=1, padding="same"))
    assert not dx.any()


def test_maxpool_backward_overlapping_windows_accumulate():
    # the center value wins all four overlapping 2x2 windows
    x = np.array([[1.0, 2.0, 3.0], [4.0, 9.0, 5.0], [6.0, 7.0, 8.0]]).reshape(1, 3, 3, 1)
    dy = np.array([[10.0, 20.0], [30.0, 40.0]]).reshape(1, 2, 2, 1)
    dx = maxpool_backward(dy, x, PoolSpec(window=2, stride=1))
    expected = np.zeros((3, 3))
    expected[1, 1] = 100.0
    npt.assert_array_equal(dx.reshape(3, 3), expected)


def test_maxpool_backward_matches_finite_differences():
    x = distinct_values((1, 6, 6, 2), seed=13)
    weight = np.random.default_rng(14).random((1, 6, 6, 2))
    spec = PoolSpec(window=5, stride=1, padding="same")
    dx = maxpool_backward(weight, x, spec)
    fd = numeric_gradient(lambda: float((maxpool_forward(x, spec) * weight).sum()), x)
    assert rel_error(dx, fd) < 1e-5


POOL_SPECS = [
    PoolSpec(5, 1, "same"),
    PoolSpec(3, 2, "same"),
    PoolSpec(2, 2, "none"),
    PoolSpec(2, 1, "none"),
]


@st.composite
def pool_cases(draw, max_batch=2):
    spec = draw(st.sampled_from(POOL_SPECS))
    h = draw(st.sampled_from((3, 5, 7, 9)))
    w = draw(st.sampled_from((3, 5, 7, 9)).filter(lambda v: v != h))
    shape = (draw(st.integers(1, max_batch)), h, w, draw(st.integers(1, 3)))
    # A few small integers, 0 among them, so windows tie often, as after ReLU;
    # -inf fills whole windows, where only a real cell may win, not padding.
    x = draw(hnp.arrays(np.float64, shape, elements=st.sampled_from((-np.inf, -1.0, 0.0, 1.0, 2.0))))
    out_shape = maxpool_forward(x, spec).shape
    dy = draw(hnp.arrays(np.float64, out_shape, elements=st.floats(-4.0, 4.0, width=64)))
    return spec, x, dy


@settings(max_examples=150, deadline=None)
@given(pool_cases())
def test_maxpool_backward_matches_loop_under_ties(case):
    spec, x, dy = case
    expected = maxpool_backward_naive(dy, x, spec.window, spec.stride, spec.padding)
    npt.assert_array_equal(maxpool_backward(dy, x, spec), expected)


@settings(max_examples=50, deadline=None)
@given(pool_cases())
def test_maxpool_backward_float32_sums_in_float64_and_rounds_once(case):
    spec, x, dy = case
    x, dy = x.astype(np.float32), dy.astype(np.float32)
    expected = maxpool_backward_naive(dy, x, spec.window, spec.stride, spec.padding).astype(np.float32)
    dx = maxpool_backward(dy, x, spec)
    assert dx.dtype == np.float32
    npt.assert_array_equal(dx, expected)


@settings(max_examples=150, deadline=None)
@given(pool_cases(max_batch=5), st.integers(1, 1 << 16), st.sampled_from((np.float64, np.float32)))
def test_blocked_maxpool_backward_matches_loop_across_block_edges(case, block_bytes, dtype):
    # 1 byte puts every sample in a block of its own; 2^16 holds the
    # largest drawn batch in one block.
    spec, x, dy = case
    x, dy = x.astype(dtype), dy.astype(dtype)
    expected = maxpool_backward_naive(dy, x, spec.window, spec.stride, spec.padding).astype(dtype)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(layers, "_BLOCK_BYTES", block_bytes)
        dx = maxpool_backward(dy, x, spec)
    assert dx.dtype == dtype
    npt.assert_array_equal(dx, expected)


def test_maxpool_backward_window_wider_than_11_matches_loop():
    # 144 offsets do not fit the int8 window index used for narrower windows
    spec = PoolSpec(12, 5, "same")
    rng = np.random.default_rng(25)
    x = rng.integers(0, 3, size=(1, 13, 14, 2)).astype(np.float64)
    dy = rng.random(maxpool_forward(x, spec).shape)
    npt.assert_array_equal(maxpool_backward(dy, x, spec), maxpool_backward_naive(dy, x, 12, 5, "same"))


def _tie_window(win, cells, value=3.0):
    """One win x win window of zeros with ``value`` at each (row, column) of
    ``cells``."""
    x = np.zeros((1, win, win, 1))
    for cell in cells:
        x[(0, *cell, 0)] = value
    return x


def _nan_row_above_tied_row():
    x = _tie_window(3, [(1, 0), (1, 1), (1, 2)])
    x[0, 0] = np.nan
    return x


# Windows (stride = window, so one each) that tell the two-stage winner
# search from a slip in its walks: each stage must walk downwards to keep its
# first match, and stage 2 must read the column stage 1 found in its own row.
FIRST_WINNER_CASES = {
    # Winner (0, 4): an upward row walk gives (3, 2), and the column found
    # in a neighbouring row gives (0, 0).
    "first-row-last-column": _tie_window(5, [(0, 4), (1, 0), (3, 2)]),
    # Winner (1, 0): NaN loses to any number; an upward column walk gives (1, 1).
    "nan-row-above-tied-row": _nan_row_above_tied_row(),
    # 144 offsets take the int32 path. Winner (3, 2): within the row, ahead
    # of (3, 5) and (3, 11), and across rows, ahead of (7, 0) and (11, 11).
    "12x12-tie-across-rows": _tie_window(12, [(3, 11), (3, 5), (3, 2), (7, 0), (11, 11)]),
}


@pytest.mark.parametrize("case", sorted(FIRST_WINNER_CASES))
def test_maxpool_backward_first_winner_hand_cases(case):
    x = FIRST_WINNER_CASES[case]
    win = x.shape[1]
    dy = np.full((1, 1, 1, 1), 1.5)
    dx = maxpool_backward(dy, x, PoolSpec(win, win))
    # The oracle picks the first cell of a window even when it is NaN; a
    # running maximum with a strict >, which the pool follows, never picks NaN.
    expected = maxpool_backward_naive(dy, np.where(np.isnan(x), -np.inf, x), win, win, "none")
    assert dx.tobytes() == expected.tobytes()
    assert np.count_nonzero(dx) == 1


@pytest.mark.parametrize("spec, windows", [(PoolSpec(5, 1, "same"), 25), (PoolSpec(3, 2, "same"), 9)])
def test_maxpool_backward_padding_never_wins_an_all_neg_inf_window(spec, windows):
    x = np.full((1, 5, 5, 1), -np.inf)
    dy = np.ones(maxpool_forward(x, spec).shape)
    dx = maxpool_backward(dy, x, spec)
    assert dx.sum() == windows
    npt.assert_array_equal(dx, maxpool_backward_naive(dy, x, spec.window, spec.stride, spec.padding))


@st.composite
def pool_forward_cases(draw):
    window, stride = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    padding = draw(st.sampled_from(("none", "same")))
    low = window if padding == "none" else 1
    shape = (draw(st.integers(1, 2)), draw(st.integers(low, 9)), draw(st.integers(low, 9)), draw(st.integers(1, 3)))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    # Few values, so windows tie; the infinities and NaN must pool as in a
    # running maximum.
    values = (-1.0, 0.0, 1.0, 2.0, np.inf, -np.inf, np.nan)
    return PoolSpec(window, stride, padding), draw(hnp.arrays(dtype, shape, elements=st.sampled_from(values)))


@settings(max_examples=300, deadline=None)
@given(pool_forward_cases())
def test_maxpool_forward_matches_running_maximum_bit_for_bit(case):
    spec, x = case
    out = maxpool_forward(x, spec)
    expected = maxpool_forward_naive(x, spec.window, spec.stride, spec.padding)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", POOL_SPECS)
def test_maxpool_backward_all_nan_windows_do_not_raise(spec):
    x = np.full((1, 5, 7, 2), np.nan)
    dy = np.ones(maxpool_forward(x, spec).shape)
    dx = maxpool_backward(dy, x, spec)
    assert dx.shape == x.shape and np.isfinite(dx).all()


# ---------------------------------------------------------------- dropout

def test_dropout_test_mode_is_identity():
    x = np.random.default_rng(15).random((3, 4))
    for keep in (0.1, 0.3, 1.0):
        y, _ = dropout_forward(x, DropoutSpec(keep), mode="test")
        npt.assert_array_equal(y, x)


def test_dropout_keep_one_is_identity_in_train():
    x = np.random.default_rng(16).random((3, 4))
    y, mask = dropout_forward(x, DropoutSpec(1.0), mode="train", rng=Prng(0))
    npt.assert_array_equal(y, x)
    npt.assert_array_equal(mask, np.ones_like(x))


def test_dropout_is_unbiased():
    x = np.ones(100_000)
    y, _ = dropout_forward(x, DropoutSpec(0.3), mode="train", rng=Prng(17))
    assert 0.97 < y.mean() < 1.03


def test_dropout_zeroes_match_mask():
    x = np.ones((100, 100))
    y, mask = dropout_forward(x, DropoutSpec(0.5), mode="train", rng=Prng(18))
    npt.assert_array_equal(y == 0.0, mask == 0.0)
    npt.assert_allclose(y[mask == 1.0], 2.0)


# Signed zeros, infinities, NaN, float32 and float64 subnormals, values near
# float32's overflow limit and ordinary values. A float64 subnormal is 0 in float32.
SPECIAL_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e-40, -1e-40, 1e-310, -1e-310, 3e38, -3e38, 1.0, -0.75, 2.5)


@settings(max_examples=300, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    picks=st.lists(st.tuples(*[st.integers(0, len(SPECIAL_VALUES) - 1)] * 2), min_size=1, max_size=32),
    keep=st.one_of(st.sampled_from([1.0, 0.5, 0.3]), st.floats(1e-7, 1.0)),
    seed=st.integers(0, 2**32 - 2),
)
# Both units kept, both cut by ReLU, and g / keep overflows: float32 +-3e38 / 0.5.
@example(dtype=np.float32, picks=[(9, 0), (10, 6)], keep=0.5, seed=7)
def test_dropout_backward_on_y_above_0_is_dropout_then_relu_backward(dtype, picks, keep, seed):
    # The replay's one step for a hidden fc: y is its ReLU output after
    # dropout, and y > 0 exactly where dropout kept a unit and ReLU passed it.
    values = np.array(SPECIAL_VALUES, dtype=dtype)
    g, pre = (values[list(column)] for column in zip(*picks))
    spec = DropoutSpec(keep)
    with np.errstate(all="ignore"):
        rect = np.maximum(pre, 0)
        y, mask = dropout_forward(rect, spec, "train", Prng(seed))
        fused = dropout_backward(g, y > 0, spec)
        composed = relu_backward(dropout_backward(g, mask, spec), rect)
        finite = np.isfinite(g / g.dtype.type(keep))
    assert fused.dtype == composed.dtype == dtype
    assert fused[finite].tobytes() == composed[finite].tobytes()
    # Where g / keep overflows at a unit ReLU cut, dropout then ReLU gives
    # inf * 0 = NaN; the fused form gives that unit's zero gradient.
    cut = ~finite & ~(y > 0) & np.isfinite(g)
    assert not fused[cut].any() and (np.signbit(fused[cut]) == np.signbit(g[cut])).all()


def test_dropout_requires_rng_in_train():
    with pytest.raises(ValueError):
        dropout_forward(np.ones(3), DropoutSpec(0.5), mode="train")


def test_dropout_rejects_bad_mode():
    with pytest.raises(ValueError):
        dropout_forward(np.ones(3), DropoutSpec(0.5), mode="eval")


def test_dropout_spec_bounds():
    with pytest.raises(ValueError):
        DropoutSpec(0.0)
    with pytest.raises(ValueError):
        DropoutSpec(1.5)


# ---------------------------------------------------------------- softmax CE

def test_softmax_uniform_loss_is_log5():
    logits = np.zeros((6, 5))
    loss, probs, _ = softmax_cross_entropy(logits, np.arange(6) % 5)
    assert abs(loss - np.log(5.0)) < 1e-9
    npt.assert_allclose(probs, 0.2)


def test_softmax_saturated_correct_class():
    logits = np.zeros((1, 5))
    logits[0, 2] = 50.0
    loss, _, _ = softmax_cross_entropy(logits, np.array([2]))
    assert loss < 1e-9


def test_softmax_rows_sum_to_one():
    logits = np.random.default_rng(19).normal(size=(10, 5)) * 30
    _, probs, _ = softmax_cross_entropy(logits, np.zeros(10, dtype=int))
    npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert probs.min() >= 0.0 and probs.max() <= 1.0


def test_softmax_shift_invariance():
    rng = np.random.default_rng(20)
    logits = rng.normal(size=(8, 5))
    _, probs, _ = softmax_cross_entropy(logits, np.zeros(8, dtype=int))
    _, probs_shifted, _ = softmax_cross_entropy(logits + 123.0, np.zeros(8, dtype=int))
    npt.assert_allclose(probs, probs_shifted, atol=1e-9)


def test_softmax_empty_batch_rejected():
    # The mean over no rows would be NaN, with a RuntimeWarning.
    with pytest.raises(ValueError, match="empty batch"):
        softmax_cross_entropy(np.zeros((0, 5)), np.zeros(0, dtype=int))


def test_softmax_label_out_of_range():
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((2, 5)), np.array([0, 5]))


def test_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    logits = rng.normal(size=(4, 5))
    labels = rng.integers(0, 5, size=4)
    _, _, dlogits = softmax_cross_entropy(logits, labels)
    fd = numeric_gradient(lambda: softmax_cross_entropy(logits, labels)[0], logits)
    assert rel_error(dlogits, fd) < 1e-6


def test_softmax_helper_matches_probs():
    logits = np.random.default_rng(22).normal(size=(3, 5))
    _, probs, _ = softmax_cross_entropy(logits, np.zeros(3, dtype=int))
    npt.assert_allclose(softmax(logits), probs, atol=1e-12)
