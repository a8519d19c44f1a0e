"""Full model assembly: augmentation affine, conv/pool stack, FC head.

The input is a 144-byte dialogue encoding. An affine layer expands it to a
32x32x3 grid, five 5x5 convolutions (grouped per variant A-D) reduce it to
12x12x256 with size-preserving overlapping pools between groups, a final
2x2/stride-2 pool halves it to 6x6x256 = 9216, and three fully connected
layers with dropout produce the 5 class logits.

``NetworkConfig.layer_plan()`` names each layer once (``augmentation``,
``conv1``, ``pool1``, ..., ``fc1``, ...). Parameters, checkpoint tensors and
gradients are named ``<layer>.<field>`` after the ``AffineParams`` (``W``,
``b``) or ``ConvParams`` (``filters``, ``bias``) field, in plan order.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, asdict, fields
from functools import partial
from typing import Iterator, Optional

import numpy as np

from .labels import EmotionLabel, N_CLASSES
from .layers import (
    FILTER_SIZE,
    AffineParams,
    ConvParams,
    DropoutSpec,
    PoolSpec,
    affine_forward,
    affine_input_grad,
    affine_param_grads,
    conv2d_backward,
    conv2d_forward,
    dropout_backward,
    dropout_forward,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    softmax,
    softmax_cross_entropy,
    _pool_geometry,
)
from .tensor import DEFAULT_DTYPE, NumericalFault, Prng, _all_finite, flat_blocks, gaussian_init
from .text import SEQUENCE_LENGTH

# Conv channel widths per group; each group is followed by one max pool.
CONV_GROUPS = {
    "A": ((32, 32), (64,), (128,), (256,)),
    "B": ((32,), (64, 64), (128,), (256,)),
    "C": ((32,), (64,), (128, 128), (256,)),
    "D": ((32,), (64,), (128,), (256, 256)),
}
VARIANTS = tuple(CONV_GROUPS)

POOL_SAME = PoolSpec(window=5, stride=1, padding="same")
POOL_REDUCE = PoolSpec(window=2, stride=2, padding="none")
FLATTEN_WIDTH = 9216  # 6 * 6 * 256, the FC head's input width


def _is_a(value, kinds) -> bool:
    """isinstance, except that a bool is no int."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def compute_augmentation_size(s_output: int, n_layers: int, s_filter: int, stride: int) -> int:
    """Square side the augmentation layer must produce so that ``n_layers``
    valid convolutions leave ``s_output``."""
    return s_output + n_layers * (s_filter - stride)


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture description. A named variant (A-D) is its CONV_GROUPS
    entry, which ``for_variant`` fills in; with variant None, direct
    construction permits small custom stacks for testing. Every conv filter
    is 5x5 (``layers.FILTER_SIZE``)."""

    variant: Optional[str]
    conv_groups: tuple[tuple[int, ...], ...]
    input_len: int = SEQUENCE_LENGTH
    aug_side: int = 32
    aug_channels: int = 3
    fc_sizes: tuple[int, ...] = (1024, 1024, N_CLASSES)
    dropout_keep_input: float = 1.0
    dropout_keep_hidden: float = 0.3
    l2_strength: float = 1.5e-4
    init_mean: float = 0.0
    init_std: float = 0.01

    def __post_init__(self):
        """Every config that can be built is one allocate_model accepts, in
        the JSON types config_to_dict writes: sizes are ints, the real fields
        finite ints or floats, and the variant None or one of ``VARIANTS``
        with its conv groups. Bools are neither ints nor floats."""
        groups, fcs = self.conv_groups, self.fc_sizes
        if not (isinstance(groups, tuple) and all(isinstance(g, tuple) for g in groups) and isinstance(fcs, tuple)):
            raise ValueError(f"conv_groups must be a tuple of tuples and fc_sizes a tuple, got {groups!r}, {fcs!r}")
        if not (self.variant is None or self.variant in VARIANTS):
            raise ValueError(f"variant must be None or one of {', '.join(VARIANTS)}, got {self.variant!r}")
        if self.variant is not None and groups != CONV_GROUPS[self.variant]:
            raise ValueError(f"variant {self.variant} has conv groups {CONV_GROUPS[self.variant]}, got {groups}")
        sizes = (self.input_len, self.aug_side, self.aug_channels, *self.channel_plan, *fcs)
        if not (self.channel_plan and fcs) or not all(_is_a(s, int) and s >= 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive ints, with at least one conv and one fc layer: {sizes}")
        for name in ("dropout_keep_input", "dropout_keep_hidden", "l2_strength", "init_mean", "init_std"):
            value = getattr(self, name)
            if not (_is_a(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if fcs[-1] != N_CLASSES:
            raise ValueError(f"the last fc layer has {fcs[-1]} units, expected {N_CLASSES}")
        DropoutSpec(self.dropout_keep_input)  # raises unless keep is in (0, 1]
        DropoutSpec(self.dropout_keep_hidden)
        for name in ("l2_strength", "init_std"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        width = self.flatten_width()  # raises on dimension underflow
        # for_variant takes aug_side and input_len overrides
        if self.variant is not None and width != FLATTEN_WIDTH:
            raise ValueError(f"variant {self.variant}: conv output flattens to {width}, not {FLATTEN_WIDTH}")

    @classmethod
    def for_variant(cls, variant: str, **overrides) -> "NetworkConfig":
        variant = str(variant).upper()
        # __post_init__ rejects an unknown variant.
        return cls(variant=variant, conv_groups=CONV_GROUPS.get(variant, ()), **overrides)

    @property
    def channel_plan(self) -> tuple[int, ...]:
        return tuple(ch for group in self.conv_groups for ch in group)

    @property
    def n_weighted_layers(self) -> int:
        return 1 + len(self.channel_plan) + len(self.fc_sizes)

    def layer_plan(self) -> list[tuple[str, str, object]]:
        """Every layer after the input dropout, in forward order, as (name,
        kind, arg): the augmentation affine (arg: its output grid, side,
        side, channels), each conv with its ReLU (channels), a pool after
        each conv group (PoolSpec) and the fc head (units), where every fc
        but the last is followed by ReLU and dropout."""
        plan = [("augmentation", "augmentation", (self.aug_side, self.aug_side, self.aug_channels))]
        convs = itertools.count(1)
        for gi, group in enumerate(self.conv_groups, start=1):
            plan += [(f"conv{next(convs)}", "conv", channels) for channels in group]
            plan.append((f"pool{gi}", "pool", POOL_REDUCE if gi == len(self.conv_groups) else POOL_SAME))
        return plan + [(f"fc{i}", "fc", units) for i, units in enumerate(self.fc_sizes, start=1)]

    def _walk(self) -> Iterator[tuple[str, str, object, tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
        """(name, kind, arg, in_shape, out_shape, weight_shape) for every
        layer of the plan, each activation shape per sample. An affine
        layer's input is flat. A conv's weight is its filters, an affine's
        is (outputs, inputs), and a pool has none: (). Raises if any layer
        underflows."""
        shape = (self.input_len,)
        for name, kind, arg in self.layer_plan():
            if kind == "conv":
                if shape[0] < FILTER_SIZE:
                    raise ValueError(
                        f"{name}: conv input side {shape[0]} smaller than {FILTER_SIZE}x{FILTER_SIZE} filter"
                    )
                out = (shape[0] - FILTER_SIZE + 1,) * 2 + (arg,)
                weight = (arg, FILTER_SIZE, FILTER_SIZE, shape[-1])
            elif kind == "pool":
                out, weight = (*_pool_geometry(shape[0], shape[1], arg)[:2], shape[2]), ()
            else:
                shape, out = (math.prod(shape),), arg if kind == "augmentation" else (arg,)
                weight = (math.prod(out), shape[0])
            yield name, kind, arg, shape, out, weight
            shape = out

    def spatial_trace(self) -> list[int]:
        """Spatial side after the augmentation reshape and after every
        conv and pool, in order. Raises if any layer underflows."""
        return [out[0] for _, kind, _, _, out, _ in self._walk() if kind != "fc"]

    def flatten_width(self) -> int:
        return next(shape[0] for _, kind, _, shape, _, _ in self._walk() if kind == "fc")


@dataclass
class Model:
    """Parameter container for one built network."""

    config: NetworkConfig
    augmentation: AffineParams
    convs: list[ConvParams]
    fcs: list[AffineParams]

    def _layers(self) -> list[tuple[str, str, object, tuple[int, ...], object]]:
        """(name, kind, arg, in_shape, params) for every layer of the
        config's walk; params is None where the walk gives no weight shape."""
        params, walk = iter([self.augmentation, *self.convs, *self.fcs]), self.config._walk()
        return [(name, kind, arg, shape, next(params) if w else None) for name, kind, arg, shape, _, w in walk]

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) per parameter, in plan order, weights before bias."""
        return [pair for name, *_, p in self._layers() if p is not None for pair in _named(name, p)]

    def parameters(self) -> dict[str, np.ndarray]:
        return dict(self.named_parameters())

    def weight_names(self) -> list[str]:
        """Names of the L2-regularized tensors (weights/filters, not biases)."""
        return [f"{name}.{fields(p)[0].name}" for name, *_, p in self._layers() if p is not None]

    @property
    def dtype(self):
        return self.augmentation.W.dtype

    @property
    def n_parameters(self) -> int:
        return sum(p.size for _, p in self.named_parameters())


def _named(layer: str, params) -> list[tuple[str, np.ndarray]]:
    """("<layer>.<field>", array) per field of one layer's parameters."""
    return [(f"{layer}.{f.name}", getattr(params, f.name)) for f in fields(params)]


def _weighted_layers(config: NetworkConfig):
    """(name, parameter class, (weight shape, bias shape)) per weighted
    layer, in plan order, with the weight shape from ``_walk``. A bias has
    one value per output row or channel."""
    for name, kind, _, _, _, weight in config._walk():
        if weight:
            yield name, ConvParams if kind == "conv" else AffineParams, (weight, weight[:1])


def _parameter_shapes(config: NetworkConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) per parameter, in ``Model.named_parameters()`` order,
    with nothing allocated, so a checkpoint's directory is checked first."""
    weighted = _weighted_layers(config)
    return [(f"{name}.{f.name}", shape) for name, cls, shapes in weighted for f, shape in zip(fields(cls), shapes)]


def _make_model(config: NetworkConfig, make_weight, dtype) -> Model:
    """Model of weights ``make_weight(shape)`` and zero biases, each made once, in plan order."""
    aug, *params = [cls(make_weight(w), np.zeros(b, dtype=dtype)) for _, cls, (w, b) in _weighted_layers(config)]
    return Model(config, aug, params[: len(config.channel_plan)], params[len(config.channel_plan) :])


def allocate_model(config: NetworkConfig, dtype=DEFAULT_DTYPE) -> Model:
    """Model with zero-filled parameters (checkpoint loading, tests)."""
    return _make_model(config, partial(np.zeros, dtype=dtype), dtype)


def build_model(config: NetworkConfig, rng: Prng, dtype=DEFAULT_DTYPE) -> Model:
    """Gaussian-initialized model (weights N(mean, std), biases zero)."""
    return _make_model(config, lambda s: gaussian_init(s, config.init_mean, config.init_std, rng, dtype), dtype)


def _run_forward(model: Model, batch: np.ndarray, mode: str, rng: Prng | None, record: bool = True):
    """Logits, and a tape of one record per layer of ``model._layers()``.

    A record is (layer, x, shape, rectified, mask): the layer's entry, its
    input reshaped row-major to the walk's ``in_shape`` and the shape it
    arrived in, its in-place ReLU output, or None, and its dropout mask,
    None unless train-mode hidden dropout ran. Unless ``record``, the tape
    stays empty, so each activation is freed once the next layer has run.
    """
    cfg = model.config
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[1] != cfg.input_len:
        raise ValueError(f"batch must be [B, {cfg.input_len}], got {batch.shape}")
    tape = []
    drop_hidden = DropoutSpec(cfg.dropout_keep_hidden)
    # Forward dropout is the identity in test mode and at keep 1, so then
    # it records no mask.
    hidden_dropout = mode == "train" and cfg.dropout_keep_hidden < 1.0
    # No gradient flows to the input, so input dropout records nothing.
    h, _ = dropout_forward(batch, DropoutSpec(cfg.dropout_keep_input), mode, rng)
    layers = model._layers()
    for i, layer in enumerate(layers):
        _, kind, arg, in_shape, p = layer
        # The shape changes only at the augmentation's grid and fc1's flat input.
        shape, x = h.shape, h.reshape(len(h), *in_shape)
        rectified = mask = None
        if kind == "pool":
            h = maxpool_forward(x, arg)
        else:
            h = (conv2d_forward if kind == "conv" else affine_forward)(x, p)
            hidden_fc = kind == "fc" and i < len(layers) - 1
            if kind == "conv" or hidden_fc:
                # In place: h is a fresh layer output, and relu_backward's mask
                # (x > 0) is the same on the rectified values.
                rectified = np.maximum(h, 0, out=h)
            if hidden_fc:
                h, mask = dropout_forward(h, drop_hidden, mode, rng)
                mask = mask if hidden_dropout else None
        if record:
            tape.append((layer, x, shape, rectified, mask))
    return h, tape


def forward(model: Model, batch: np.ndarray, mode: str = "test", rng: Prng | None = None) -> np.ndarray:
    """Logits [B, 5] for a batch of inputs already scaled to [0, 1]. Records
    no backward tape."""
    logits, _ = _run_forward(model, batch, mode, rng, record=False)
    return logits


def loss_and_grads(
    model: Model,
    batch: np.ndarray,
    labels: np.ndarray,
    mode: str = "train",
    rng: Prng | None = None,
):
    """Softmax cross-entropy plus L2 penalty, with gradients for every
    parameter. The L2 term is l2 * sum(W^2) over weights and filters only,
    with l2 the config's ``l2_strength``; its gradient contribution is
    2 * l2 * W.

    The tape is replayed by popping its records: each layer, in reverse
    plan order, runs its dropout, ReLU and own backward, frees its ReLU
    output and mask before its own backward and its input after it; the
    tape is empty on return. A conv's parameter gradients are made at once,
    since its input and upstream gradient outweigh them; an affine layer's
    after the replay, from the upstream gradient and input it kept, so
    fc1's weight gradient (37.7 MB at batch 32) is never alive beside the
    conv layers' saved inputs. The keys of ``grads`` run in replay order,
    the reverse of the plan, weight before bias.
    """
    l2 = model.config.l2_strength
    drop_hidden = DropoutSpec(model.config.dropout_keep_hidden)
    logits, tape = _run_forward(model, batch, mode, rng)
    loss, _, g = softmax_cross_entropy(logits, np.asarray(labels))
    later = []  # (layer name, params, callable giving their gradients), in replay order
    while tape:
        (name, kind, arg, _, p), x, shape, rectified, mask = tape.pop()
        if mask is not None:
            g = dropout_backward(g, mask, drop_hidden)
        if rectified is not None:
            g = relu_backward(g, rectified)
        rectified = mask = None  # freed before the layer's own backward, not after it
        if kind == "pool":
            g = maxpool_backward(g, x, arg)
        elif kind == "conv":
            g, *param_grads = conv2d_backward(g, x, p)
            later.append((name, p, partial(tuple, param_grads)))
        else:
            later.append((name, p, partial(affine_param_grads, g, x)))
            g = affine_input_grad(g, x, p)
        g = g.reshape(shape)
    grads = {key: grad for name, p, param_grads in later for (key, _), grad in zip(_named(name, p), param_grads())}
    if l2 != 0.0:
        params = model.parameters()
        weights = {name: params[name] for name in model.weight_names()}
        for w in weights.values():
            loss += l2 * float(np.vdot(w, w))
        _add_l2_gradients(grads, weights, l2)
    return loss, grads


def _add_l2_gradients(grads: dict[str, np.ndarray], weights: dict[str, np.ndarray], l2: float) -> None:
    """``grads[name] += (2 * l2) * w`` for every weight, in place, over
    ``tensor.flat_blocks`` through its block-sized scratch. The gradients
    must be C-contiguous."""
    for name, w in weights.items():
        for gb, wb, scratch in flat_blocks((grads[name], w), w.dtype):
            gb += np.multiply(wb, 2.0 * l2, out=scratch)


def scale_codes(codes, dtype) -> np.ndarray:
    """Byte codes as network inputs in [0, 1]: divided by 255 in float64,
    then cast to ``dtype``."""
    return (np.asarray(codes, dtype=np.float64) / 255.0).astype(dtype)


def _finite_logits(model: Model, x: np.ndarray, rows: str) -> np.ndarray:
    """Test-mode logits of ``x``. Raises NumericalFault unless they are all
    finite, since argmax would read a NaN row as class 0."""
    logits = forward(model, x, mode="test")
    if not _all_finite(logits):
        raise NumericalFault(f"non-finite logits for {rows}")
    return logits


def predict(model: Model, seq) -> tuple[EmotionLabel, np.ndarray]:
    """Classify one 144-byte sequence. Ties resolve to the lowest index."""
    x = scale_codes(seq, model.dtype)
    if x.shape != (model.config.input_len,):
        raise ValueError(f"sequence must have shape ({model.config.input_len},), got {x.shape}")
    probs = softmax(_finite_logits(model, x.reshape(1, -1), "the sequence"))[0]
    return EmotionLabel(int(np.argmax(probs))), probs


_PREDICT_CHUNK = 32  # rows per forward in predict_batch


def predict_batch(model: Model, codes: np.ndarray) -> np.ndarray:
    """Predicted class indices for raw byte codes [N, 144], in chunks of
    ``_PREDICT_CHUNK`` rows. The layer outputs grow with the chunk; the conv
    im2col columns do not, since ``conv2d_forward`` builds them in blocks
    of at most 8 MB. The GEMMs' low bits, and so near-tied labels, can
    differ between chunk sizes. Raises NumericalFault if a chunk's logits
    are not all finite."""
    x = scale_codes(codes, model.dtype)
    out = np.empty(len(x), dtype=np.int64)
    for start in range(0, len(x), _PREDICT_CHUNK):
        rows = x[start : start + _PREDICT_CHUNK]
        logits = _finite_logits(model, rows, f"rows {start} to {start + len(rows) - 1}")
        out[start : start + _PREDICT_CHUNK] = logits.argmax(axis=1)
    return out


def config_to_dict(config: NetworkConfig) -> dict:
    """The config's JSON form; json.dumps writes its tuples as arrays."""
    return asdict(config)


def config_from_dict(d: dict) -> NetworkConfig:
    """Config from its JSON form. Raises ValueError or TypeError unless
    that is an object whose fields build a NetworkConfig."""
    d = {**d}  # a JSON object; a list of pairs is not one
    # Checkpoints from when the filter size was a config field record it.
    if d.pop("filter_size", FILTER_SIZE) != FILTER_SIZE:
        raise ValueError(f"conv filters are fixed at {FILTER_SIZE}x{FILTER_SIZE}")
    for name, expected, as_tuple in (
        ("conv_groups", "a list of lists of ints", lambda v: tuple(map(tuple, v))),
        ("fc_sizes", "a list of ints", tuple),
    ):
        try:
            d[name] = as_tuple(d[name])
        except (KeyError, TypeError):
            got = f"got {d[name]!r}" if name in d else "it is missing"
            raise ValueError(f"{name} must be {expected}; {got}") from None
    return NetworkConfig(**d)
