"""Layer forward/backward primitives.

Everything here is functional: a forward takes (input, params) and the
matching backward takes (upstream gradient, original input, params) and
returns exact analytic gradients. Arrays keep the caller's float dtype, so
the same code runs in float32 for training and float64 for gradient checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Prng

FILTER_SIZE = 5

# Working memory per block of samples: the im2col columns of conv2d_forward
# and of conv2d_backward's filter gradient, and maxpool_backward's float64
# sums, stay under it, whatever the batch.
_BLOCK_BYTES = 8 << 20


@dataclass
class AffineParams:
    """Weights [out_dim, in_dim] and bias [out_dim] of y = x W^T + b."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.W.ndim != 2 or self.b.ndim != 1 or self.b.shape[0] != self.W.shape[0]:
            raise ValueError(f"inconsistent affine shapes: W {self.W.shape}, b {self.b.shape}")


@dataclass
class ConvParams:
    """Filters [out_channels, 5, 5, in_channels] and per-channel bias."""

    filters: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.filters.ndim != 4 or self.filters.shape[1:3] != (FILTER_SIZE, FILTER_SIZE):
            raise ValueError(
                f"filters must be [out_channels, {FILTER_SIZE}, {FILTER_SIZE}, in_channels], "
                f"got {self.filters.shape}"
            )
        if self.bias.shape != (self.filters.shape[0],):
            raise ValueError(f"bias shape {self.bias.shape} does not match {self.filters.shape[0]} filters")


@dataclass(frozen=True)
class PoolSpec:
    window: int
    stride: int
    padding: str = "none"  # "none" | "same"

    def __post_init__(self):
        if self.window < 1 or self.stride < 1:
            raise ValueError(f"window and stride must be >= 1, got {self.window}, {self.stride}")
        if self.padding not in ("none", "same"):
            raise ValueError(f"padding must be 'none' or 'same', got {self.padding!r}")


@dataclass(frozen=True)
class DropoutSpec:
    keep_probability: float

    def __post_init__(self):
        # A keep that float32 rounds to 0 would make float32 dropout 0 / 0.
        if not (0.0 < self.keep_probability <= 1.0 and np.float32(self.keep_probability) > 0):
            raise ValueError(
                f"keep_probability must be in (0, 1] and positive as float32, got {self.keep_probability}"
            )


def affine_forward(x: np.ndarray, p: AffineParams) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != p.W.shape[1]:
        raise ValueError(f"affine input {x.shape} does not match W {p.W.shape}")
    return x @ p.W.T + p.b


def affine_backward(dy: np.ndarray, x: np.ndarray, p: AffineParams):
    """(dx, dW, db): ``affine_input_grad``, then ``affine_param_grads``."""
    return affine_input_grad(dy, x, p), *affine_param_grads(dy, x)


def affine_input_grad(dy: np.ndarray, x: np.ndarray, p: AffineParams) -> np.ndarray:
    if dy.shape != (x.shape[0], p.W.shape[0]):
        raise ValueError(f"affine gradient {dy.shape} does not match W {p.W.shape}, x {x.shape}")
    return dy @ p.W


def affine_param_grads(dy: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dW, db), from the upstream gradient and the layer's input."""
    return dy.T @ x, dy.sum(axis=0)


def _sample_blocks(batch: int, bytes_per_sample: int) -> list[slice]:
    """Consecutive blocks of whole samples covering ``batch``, each within
    ``_BLOCK_BYTES`` at ``bytes_per_sample`` (one sample if that alone
    exceeds it)."""
    step = max(1, _BLOCK_BYTES // max(bytes_per_sample, 1))
    return [slice(lo, lo + step) for lo in range(0, batch, step)]


def _im2col(x: np.ndarray, fh: int, fw: int) -> np.ndarray:
    """Unfold valid stride-1 patches of NHWC input into rows [B*oh*ow, fh*fw*C].

    In NHWC one patch row (fw pixels of C channels) is contiguous, so the
    patches are a strided view [B, oh, ow, fh, fw*C] of a contiguous input
    and the reshape is a single copy of fw*C-float blocks.
    """
    x = np.ascontiguousarray(x)
    batch, h, w, c = x.shape
    oh, ow = h - fh + 1, w - fw + 1
    sb, sh, sw, _ = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x, (batch, oh, ow, fh, fw * c), (sb, sh, sw, sh, x.itemsize), writeable=False
    )
    return patches.reshape(batch * oh * ow, fh * fw * c)


def conv2d_forward(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Valid cross-correlation, stride 1, NHWC in, NHWK out."""
    if x.ndim != 4:
        raise ValueError(f"conv input must be [B,H,W,C], got {x.shape}")
    k, fh, fw, cf = p.filters.shape
    batch, h, w, c = x.shape
    if c != cf:
        raise ValueError(f"conv input channels {c} do not match filters {p.filters.shape}")
    if h < fh or w < fw:
        raise ValueError(f"conv input {h}x{w} smaller than {fh}x{fw} filter")
    oh, ow = h - fh + 1, w - fw + 1
    out = np.empty((batch, oh, ow, k), dtype=np.result_type(x, p.filters))
    weights = p.filters.reshape(k, -1).T
    # One im2col and GEMM per block of whole samples, written straight into
    # the output, so no column block outgrows _BLOCK_BYTES; whole, conv3's
    # columns are 82 MB for variant B at batch 32. The blocks split only the
    # GEMM's rows, each of them one patch's dot products with the filters.
    for block in _sample_blocks(batch, oh * ow * fh * fw * c * x.itemsize):
        np.matmul(_im2col(x[block], fh, fw), weights, out=out[block].reshape(-1, k))
    out += p.bias
    return out


def conv2d_backward(dy: np.ndarray, x: np.ndarray, p: ConvParams):
    k, fh, fw, _ = p.filters.shape
    batch, h, w, c = x.shape
    oh, ow = h - fh + 1, w - fw + 1
    if dy.shape != (batch, oh, ow, k):
        raise ValueError(f"conv gradient shape {dy.shape}, expected {(batch, oh, ow, k)}")
    dy_mat = dy.reshape(-1, k)
    dbias = dy_mat.sum(axis=0)
    # dfilters is dy^T times the im2col columns, unfolded again over the
    # forward's blocks of whole samples and summed, so no column block
    # outgrows _BLOCK_BYTES.
    dfilters = np.zeros((k, fh * fw * c), dtype=np.result_type(dy, x))
    for block in _sample_blocks(batch, oh * ow * fh * fw * c * x.itemsize):
        dfilters += dy[block].reshape(-1, k).T @ _im2col(x[block], fh, fw)
    # dx takes one GEMM per filter tap (i, j), each added into its window of
    # dx, so no [B*oh*ow, fh*fw*C] patch gradient is built.
    dx = np.zeros(x.shape, dtype=np.result_type(dy, p.filters))
    for i in range(fh):
        for j in range(fw):
            dx[:, i : i + oh, j : j + ow, :] += (dy_mat @ p.filters[:, i, j, :]).reshape(batch, oh, ow, c)
    return dx, dfilters.reshape(p.filters.shape), dbias


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Subgradient at exactly 0 is 0.
    return dy * (x > 0)


def _pool_geometry(h: int, w: int, spec: PoolSpec):
    """Output size and per-side padding for one pooling application."""
    win, stride = spec.window, spec.stride
    if spec.padding == "none":
        if h < win or w < win:
            raise ValueError(f"pool window {win} larger than input {h}x{w}")
        return (h - win) // stride + 1, (w - win) // stride + 1, (0, 0, 0, 0)
    oh = -(-h // stride)
    ow = -(-w // stride)
    pad_h = max((oh - 1) * stride + win - h, 0)
    pad_w = max((ow - 1) * stride + win - w, 0)
    return oh, ow, (pad_h // 2, pad_w // 2, pad_h - pad_h // 2, pad_w - pad_w // 2)


def _pad(x: np.ndarray, top: int, left: int, bottom: int, right: int, fill: float) -> np.ndarray:
    """``x`` with ``fill`` cells around each sample's grid: -inf for the
    forward, which changes no maximum, so a real NaN still wins; NaN for the
    backward, which fmax skips and no maximum equals, so padding never wins."""
    if top == left == bottom == right == 0:
        return x
    return np.pad(
        x, ((0, 0), (top, bottom), (left, right), (0, 0)),
        mode="constant", constant_values=fill,
    )


def maxpool_forward(x: np.ndarray, spec: PoolSpec) -> np.ndarray:
    if x.ndim != 4:
        raise ValueError(f"pool input must be [B,H,W,C], got {x.shape}")
    _, h, w, _ = x.shape
    oh, ow, (top, left, bottom, right) = _pool_geometry(h, w, spec)
    return _window_max(_pad(x, top, left, bottom, right, -np.inf), spec, oh, ow, np.maximum)[1]


def _window_max(xp: np.ndarray, spec: PoolSpec, oh: int, ow: int, ufunc):
    """``(row_max, window_max)`` of the padded input ``xp``, as ``ufunc``
    takes the maximum. Separable: ``row_max`` [B, Hp, ow, C] holds the
    maxima along each padded row's windows, and the maxima down the columns
    of those are the windows' own, so 2 * win passes instead of win * win."""
    win, stride = spec.window, spec.stride
    row_max = _running_max([xp[:, :, j : j + stride * ow : stride, :] for j in range(win)], ufunc)
    return row_max, _running_max([row_max[:, i : i + stride * oh : stride] for i in range(win)], ufunc)


def _running_max(views: list[np.ndarray], ufunc) -> np.ndarray:
    """``ufunc`` (np.maximum or np.fmax) folded over equal-shape views in
    list order, into a new array."""
    out = ufunc(views[0], views[1]) if len(views) > 1 else views[0].copy()
    for v in views[2:]:
        ufunc(out, v, out=out)
    return out


def maxpool_backward(dy: np.ndarray, x: np.ndarray, spec: PoolSpec) -> np.ndarray:
    batch, h, w, c = x.shape
    oh, ow, (top, left, bottom, right) = _pool_geometry(h, w, spec)
    if dy.shape != (batch, oh, ow, c):
        raise ValueError(f"pool gradient shape {dy.shape}, expected {(batch, oh, ow, c)}")
    # A sample's windows route only to its own cells, so a bincount per
    # block of samples sums each cell in the same order as one over the
    # batch. The block bounds bincount's float64 sums over the padded grid
    # and its int64 targets and float64 weights, one per window.
    dx = np.empty(x.shape, dtype=x.dtype)
    per_sample = ((h + top + bottom) * (w + left + right) + 2 * oh * ow) * c * 8
    for block in _sample_blocks(batch, per_sample):
        xp = _pad(x[block], top, left, bottom, right, np.nan)
        dxp = _route_to_first_winner(dy[block], xp, spec, oh, ow)
        dx[block] = dxp[:, top : top + h, left : left + w, :]
    return dx


def _route_to_first_winner(dy: np.ndarray, xp: np.ndarray, spec: PoolSpec, oh: int, ow: int) -> np.ndarray:
    """The pool gradient on the NaN-padded ``xp``, summed in float64: each
    window's upstream gradient goes to its first (row-major) maximum, NaN
    skipped. A window of NaN only routes to its first cell, maybe padding."""
    batch, hp, wp, c = xp.shape
    win, stride = spec.window, spec.stride

    # The forward's np.maximum propagates NaN, so a NaN in any window wins
    # there; fmax here skips NaN, as the strict > of a running maximum does.
    row_max, best = _window_max(xp, spec, oh, ow, np.fmax)

    # First (row-major) winner, offset idx = i*win + j, in two stages. A
    # window row holds the window's maximum exactly when its row maximum
    # equals it, so the winner is the first such row i, at the first column
    # j where that row holds its row maximum: 2 * win - 1 compares, not
    # win * win. Stage 2 reads col only in rows whose maximum equals the
    # window's. Such a maximum is not NaN, so the row holds it in some
    # column, and where no column before the last matches, the last does.
    dtype = np.int8 if win * win <= 128 else np.int32
    col = np.full(row_max.shape, win - 1, dtype=dtype)
    _first_equal(((xp[:, :, j : j + stride * ow : stride, :], j) for j in reversed(range(win - 1))), row_max, col)
    # A window with no row maximum equal to its own (all NaN) keeps idx 0.
    idx = np.zeros(best.shape, dtype=dtype)
    rows = [slice(i, i + stride * oh, stride) for i in range(win)]
    _first_equal(((row_max[:, rows[i]], col[:, rows[i]] + i * win) for i in reversed(range(win))), best, idx)

    # Scatter onto the padded grid, where every routed cell is in range (a
    # NaN-only window's can be padding); bincount sums overlapping windows.
    i_win, j_win = np.divmod(np.arange(win * win), win)
    target = ((i_win * wp + j_win) * c)[idx]
    target += (
        (np.arange(batch).reshape(batch, 1, 1, 1) * hp + np.arange(oh).reshape(1, oh, 1, 1) * stride) * wp
        + np.arange(ow).reshape(1, 1, ow, 1) * stride
    ) * c
    target += np.arange(c)
    dxp = np.bincount(target.ravel(), weights=dy.ravel(), minlength=batch * hp * wp * c)
    return dxp.reshape(batch, hp, wp, c)


def _first_equal(pairs, target: np.ndarray, out: np.ndarray) -> None:
    """Set ``out``, position by position, to the label of the first (view,
    label) pair whose view equals ``target`` there; where none does, ``out``
    keeps its value. ``pairs`` comes last pair first, so a branch-free walk,
    out += (label - out) * eq, leaves the first match standing."""
    eq = np.empty(target.shape, dtype=bool)
    step = np.empty_like(out)
    for view, label in pairs:
        np.equal(view, target, out=eq)
        np.subtract(label, out, out=step)
        step *= eq.view(np.int8)
        out += step


def dropout_forward(x: np.ndarray, spec: DropoutSpec, mode: str, rng: Prng | None = None):
    """Inverted dropout: train-time masking with 1/keep rescale, test is identity."""
    if mode not in ("train", "test"):
        raise ValueError(f"mode must be 'train' or 'test', got {mode!r}")
    keep = spec.keep_probability
    if mode == "test" or keep == 1.0:
        return x, np.ones_like(x)
    if rng is None:
        raise ValueError("train-mode dropout needs a random generator")
    mask = rng.mask(x.shape, keep).astype(x.dtype)
    return x * mask / x.dtype.type(keep), mask


def dropout_backward(dy: np.ndarray, mask: np.ndarray, spec: DropoutSpec) -> np.ndarray:
    return dy * mask / dy.dtype.type(spec.keep_probability)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch.

    Returns (loss, probs, dlogits) where dlogits is the gradient of the mean
    loss with respect to the logits: (probs - onehot) / batch.
    """
    if logits.ndim != 2:
        raise ValueError(f"logits must be [B, classes], got {logits.shape}")
    labels = np.asarray(labels)
    batch, n_classes = logits.shape
    if batch == 0:
        raise ValueError("empty batch: the mean loss needs at least one row")
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {batch}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must be in 0..{n_classes - 1}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    probs = np.exp(log_probs)
    loss = -float(log_probs[np.arange(batch), labels].mean())
    dlogits = probs.copy()
    dlogits[np.arange(batch), labels] -= 1
    dlogits /= batch
    return loss, probs, dlogits
