"""Mini-batch Adam training with hold-out validation."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import Model, loss_and_grads, predict_batch, scale_codes
from .tensor import NumericalFault, Prng, _all_finite, flat_blocks
from .text import DataError, split_dataset

# Offset so the shuffle/dropout stream never aliases the split stream,
# which is seeded with the bare seed.
_TRAIN_STREAM_OFFSET = 0x5EED

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 100
    batches_per_epoch: int = 32
    learning_rate: float = 5e-6
    seed: int = 0
    eval_fraction: float = 0.2

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batches_per_epoch < 1:
            raise ValueError(f"batches_per_epoch must be >= 1, got {self.batches_per_epoch}")
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ValueError(f"eval_fraction must be in (0, 1), got {self.eval_fraction}")


@dataclass
class AdamState:
    """First/second moment accumulators aligned with the parameter dict.
    The betas and epsilon are the module's ADAM_* constants."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    learning_rate: float
    t: int = 0
    epsilon = ADAM_EPSILON

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], learning_rate: float) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            learning_rate=learning_rate,
        )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState):
    """One in-place Adam update with bias correction.

    Validates every gradient before touching any parameter, so a non-finite
    gradient leaves the model untouched. The update is computed as
    (lr*sqrt(bc2)/bc1) * m / (sqrt(v) + eps*sqrt(bc2)), which equals the
    textbook lr * m_hat / (sqrt(v_hat) + eps) while touching each array once.
    It runs over ``tensor.flat_blocks``, so its temporaries are two
    block-sized scratch arrays however large a tensor is; each element sees
    the same operations as in a whole-tensor update, so the bits are the same.
    Parameters and moments must be C-contiguous.
    """
    if set(grads) != set(params):
        raise ValueError("gradient keys do not match parameter keys")
    for name, g in grads.items():
        arrays = (params[name], state.m[name], state.v[name])
        if any(a.shape != g.shape or not a.flags.c_contiguous for a in arrays):
            raise ValueError(f"{name}: gradient, parameter and moments need one shape, C-contiguous")
        if not _all_finite(g):
            raise NumericalFault(f"non-finite gradient in {name}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    alpha = state.learning_rate * np.sqrt(bc2) / bc1
    denom_eps = ADAM_EPSILON * np.sqrt(bc2)
    for name, g in grads.items():
        m, v = state.m[name], state.v[name]
        for gb, mb, vb, pb, term, update in flat_blocks((g, m, v, params[name]), g.dtype, v.dtype):
            mb *= ADAM_BETA1
            np.multiply(gb, 1.0 - ADAM_BETA1, out=term)
            mb += term
            vb *= ADAM_BETA2
            np.square(gb, out=term)
            term *= 1.0 - ADAM_BETA2
            vb += term
            np.sqrt(vb, out=update)
            update += denom_eps
            np.divide(mb, update, out=update)
            update *= alpha
            pb -= update
    return params, state


def make_batches(n_examples: int, batches_per_epoch: int, rng: Prng) -> list[np.ndarray]:
    """Shuffle 0..n-1 and split into near-equal index batches.

    Batch sizes differ by at most one; the larger batches come first. Every
    index appears in exactly one batch.
    """
    if batches_per_epoch > n_examples:
        raise ValueError(f"cannot make {batches_per_epoch} batches from {n_examples} examples")
    return np.array_split(rng.permutation(n_examples), batches_per_epoch)


@dataclass
class TrainLog:
    steps: list[tuple[int, float]] = field(default_factory=list)
    val_top1: list[tuple[int, float]] = field(default_factory=list)


def split_encoded(codes: np.ndarray, labels: np.ndarray, eval_fraction: float, seed: int):
    """(train_idx, eval_idx) over rows of an encoded dataset, matching the
    raw-dialogue split for the same seed."""
    train_idx, eval_idx = split_dataset(list(range(len(codes))), eval_fraction, seed)
    return np.asarray(train_idx, dtype=np.int64), np.asarray(eval_idx, dtype=np.int64)


def _validation_accuracy(model: Model, codes: np.ndarray, labels: np.ndarray) -> float:
    preds = predict_batch(model, codes)
    return float((preds == labels).mean())


def train(model: Model, dataset, config: TrainConfig):
    """Run epochs x batches_per_epoch Adam steps over the training split.

    ``dataset`` is (codes [N,144] byte values, labels [N]); inputs are scaled
    to [0,1] here. The L2 strength is the model config's. After every
    epoch the parameters are checked finite, and validation top-1 on the
    held-out split is logged; with no held-out rows, the epoch's last batch
    is classified instead, so a forward that overflows raises
    NumericalFault either way. Fully deterministic under config.seed.
    """
    codes, labels = dataset
    codes = np.asarray(codes)
    labels = np.asarray(labels, dtype=np.int64)
    if len(codes) != len(labels):
        raise ValueError(f"{len(codes)} examples but {len(labels)} labels")
    counts = np.bincount(labels, minlength=1)
    present = counts[counts > 0]
    if len(present) == 0 or present.min() < 2:
        raise DataError("every class present in the dataset needs at least 2 examples")

    train_idx, eval_idx = split_encoded(codes, labels, config.eval_fraction, config.seed)
    x = scale_codes(codes, model.dtype)
    y = labels

    params = model.parameters()
    state = AdamState.for_params(params, learning_rate=config.learning_rate)
    rng = Prng(config.seed + _TRAIN_STREAM_OFFSET)
    log = TrainLog()
    step = 0
    for epoch in range(1, config.epochs + 1):
        for batch in make_batches(len(train_idx), config.batches_per_epoch, rng):
            idx = train_idx[batch]
            step += 1
            loss, grads = loss_and_grads(model, x[idx], y[idx], mode="train", rng=rng)
            if not np.isfinite(loss):
                raise NumericalFault(f"non-finite loss at step {step}")
            adam_step(params, grads, state)
            del grads  # so the next step's gradients are the only set alive
            log.steps.append((step, float(loss)))
        for name, p in params.items():
            if not _all_finite(p):
                raise NumericalFault(f"non-finite parameter {name} after step {step}")
        if len(eval_idx):
            log.val_top1.append((epoch, _validation_accuracy(model, codes[eval_idx], y[eval_idx])))
        else:
            # Finite parameters can still overflow the forward; with no
            # held-out rows, the last batch's forward is what shows it.
            predict_batch(model, codes[idx])
    return model, log
