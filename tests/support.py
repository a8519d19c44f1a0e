"""Shared test oracles and synthetic data generators."""
from __future__ import annotations

import json
import math
import struct
import tracemalloc

import numpy as np

from emocnn import NetworkConfig, Prng, build_model, encode_dialogue
from emocnn.checkpoint import MAGIC
from emocnn.layers import (
    DropoutSpec,
    PoolSpec,
    affine_backward,
    affine_forward,
    conv2d_backward,
    conv2d_forward,
    dropout_backward,
    dropout_forward,
    maxpool_backward,
    relu,
    relu_backward,
    softmax_cross_entropy,
)
from emocnn.text import SEQUENCE_LENGTH, alphabet_ordinal, remap
from emocnn.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON


def rel_error(a, b) -> float:
    """Max absolute difference over the larger of the two max magnitudes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def numeric_gradient(f, x, h=1e-5):
    """Central finite differences of scalar f() with respect to x, in place.

    f must read the current contents of x; x is restored after probing.
    """
    x = np.asarray(x)
    grad = np.zeros(x.shape, dtype=np.float64)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = f()
        flat_x[i] = orig - h
        fm = f()
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * h)
    return grad


def distinct_values(shape, seed, low=-1.0, high=1.0):
    """float64 tensor of pairwise-distinct values with gaps >> FD step size.

    Built from a permutation so max pooling has no ties and no two values sit
    closer than (high-low)/size.
    """
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    levels = low + (high - low) * (rng.permutation(size) + 0.5) / size
    return levels.reshape(shape)


def away_from_zero(shape, seed, margin=0.05):
    """Random float64 values with |x| >= margin (safe for ReLU FD probes)."""
    rng = np.random.default_rng(seed)
    mag = margin + rng.random(shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def conv2d_naive(x, filters, bias):
    """Reference valid cross-correlation: explicit loops, no vectorization."""
    batch, h, w, c = x.shape
    k, fh, fw, _ = filters.shape
    oh, ow = h - fh + 1, w - fw + 1
    out = np.zeros((batch, oh, ow, k), dtype=np.float64)
    for b in range(batch):
        for i in range(oh):
            for j in range(ow):
                for f in range(k):
                    acc = 0.0
                    for di in range(fh):
                        for dj in range(fw):
                            for ch in range(c):
                                acc += x[b, i + di, j + dj, ch] * filters[f, di, dj, ch]
                    out[b, i, j, f] = acc + bias[f]
    return out


def conv2d_backward_naive(dy, x, filters):
    """Reference conv gradients (dx, dfilters, dbias): explicit loops."""
    batch, oh, ow, k = dy.shape
    _, fh, fw, c = filters.shape
    dx = np.zeros(x.shape, dtype=np.float64)
    dfilters = np.zeros(filters.shape, dtype=np.float64)
    dbias = np.zeros(k, dtype=np.float64)
    for b in range(batch):
        for i in range(oh):
            for j in range(ow):
                for f in range(k):
                    g = dy[b, i, j, f]
                    dbias[f] += g
                    for di in range(fh):
                        for dj in range(fw):
                            for ch in range(c):
                                dx[b, i + di, j + dj, ch] += g * filters[f, di, dj, ch]
                                dfilters[f, di, dj, ch] += g * x[b, i + di, j + dj, ch]
    return dx, dfilters, dbias


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated while ``fn(*args)`` runs,
    above what was allocated before the call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def adam_step_whole(params, grads, m, v, t, learning_rate):
    """Reference Adam step number ``t``, one whole-tensor operation at a
    time, in the order ``training.adam_step`` applies them to each block."""
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    alpha = learning_rate * np.sqrt(bc2) / bc1
    denom_eps = ADAM_EPSILON * np.sqrt(bc2)
    for name, g in grads.items():
        m[name] *= ADAM_BETA1
        m[name] += (1.0 - ADAM_BETA1) * g
        v[name] *= ADAM_BETA2
        v[name] += (1.0 - ADAM_BETA2) * np.square(g)
        update = np.sqrt(v[name])
        update += denom_eps
        np.divide(m[name], update, out=update)
        update *= alpha
        params[name] -= update


def normal_one_shot(rng, n):
    """Reference Box-Muller: all ceil(n/2) first uniforms, then all second
    ones, drawn in one call each; cosines first, then sines, cut to n."""
    half = (n + 1) // 2
    u1 = rng.uniform(half)
    u2 = rng.uniform(half)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = (2.0 * math.pi) * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]


def maxpool_forward_naive(x, window, stride, padding):
    """Reference max pool: a running maximum from -inf over the window's
    shifted strided views, in row-major offset order. "same" pads with
    -inf, the odd cell at the bottom and right."""
    batch, h, w, c = x.shape
    if padding == "same":
        oh, ow = -(-h // stride), -(-w // stride)
        pad_h, pad_w = max((oh - 1) * stride + window - h, 0), max((ow - 1) * stride + window - w, 0)
    else:
        oh, ow = (h - window) // stride + 1, (w - window) // stride + 1
        pad_h = pad_w = 0
    xp = np.full((batch, h + pad_h, w + pad_w, c), -np.inf, dtype=x.dtype)
    xp[:, pad_h // 2 : pad_h // 2 + h, pad_w // 2 : pad_w // 2 + w, :] = x
    out = np.full((batch, oh, ow, c), -np.inf, dtype=x.dtype)
    for i in range(window):
        for j in range(window):
            np.maximum(out, xp[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :], out=out)
    return out


def maxpool_backward_naive(dy, x, window, stride, padding):
    """Reference max-pool gradient: each window's upstream gradient goes to
    its row-major first maximum; padding cells never win. Cells sum in
    float64 in the row-major order of dy."""
    batch, h, w, c = x.shape
    _, oh, ow, _ = dy.shape
    top = left = 0
    if padding == "same":
        top = max((oh - 1) * stride + window - h, 0) // 2
        left = max((ow - 1) * stride + window - w, 0) // 2
    dx = np.zeros(x.shape, dtype=np.float64)
    for b in range(batch):
        for i in range(oh):
            for j in range(ow):
                for ch in range(c):
                    best = None
                    for di in range(window):
                        for dj in range(window):
                            r, q = i * stride + di - top, j * stride + dj - left
                            if 0 <= r < h and 0 <= q < w and (best is None or x[b, r, q, ch] > x[best + (ch,)]):
                                best = (b, r, q)
                    dx[best + (ch,)] += dy[b, i, j, ch]
    return dx


def composed_forward(model, x, mode="test", rng=None):
    """Reference logits: the public layer functions composed by hand in the
    model's order, apart from the network module's layer plan."""
    cfg = model.config
    n = len(x)
    h, _ = dropout_forward(x, DropoutSpec(cfg.dropout_keep_input), mode, rng)
    # Augmentation affine, read row-major as a (side, side, channels) grid.
    h = np.reshape(affine_forward(h, model.augmentation), (n, cfg.aug_side, cfg.aug_side, cfg.aug_channels), order="C")
    convs = iter(model.convs)
    for gi, group in enumerate(cfg.conv_groups):
        for _ in group:
            h = relu(conv2d_forward(h, next(convs)))
        last_group = gi == len(cfg.conv_groups) - 1
        h = maxpool_forward_naive(h, 2, 2, "none") if last_group else maxpool_forward_naive(h, 5, 1, "same")
    h = np.reshape(h, (n, -1), order="C")  # NHWC: channel fastest, then column, then row
    for fc in model.fcs[:-1]:
        h, _ = dropout_forward(relu(affine_forward(h, fc)), DropoutSpec(cfg.dropout_keep_hidden), mode, rng)
    return affine_forward(h, model.fcs[-1])


def composed_loss(model, x, labels, mode="test", rng=None):
    """Reference loss: mean cross-entropy of ``composed_forward`` plus the
    config's L2 strength times the squared norm of each weight tensor."""
    loss = softmax_cross_entropy(composed_forward(model, x, mode, rng), labels)[0]
    for w in (model.augmentation.W, *(c.filters for c in model.convs), *(fc.W for fc in model.fcs)):
        loss += model.config.l2_strength * float(np.vdot(w, w))
    return loss


def composed_grads(model, x, labels, mode="test", rng=None):
    """Reference (loss, grads): ``composed_forward`` keeping each layer's
    input, then a backward unrolled by hand from the layer functions. Each
    layer's gradients are computed whole (``affine_backward``,
    ``conv2d_backward``) when the walk reaches it, and enter ``grads`` in
    that order, fc3 first, weight before bias; the L2 term comes last."""
    cfg = model.config
    n = len(x)
    hidden = DropoutSpec(cfg.dropout_keep_hidden)
    x0, _ = dropout_forward(x, DropoutSpec(cfg.dropout_keep_input), mode, rng)
    h = np.reshape(affine_forward(x0, model.augmentation), (n, cfg.aug_side, cfg.aug_side, cfg.aug_channels))
    specs = [PoolSpec(5, 1, "same")] * (len(cfg.conv_groups) - 1) + [PoolSpec(2, 2, "none")]
    conv_in, conv_out, pool_in = [], [], []
    convs = iter(model.convs)
    for group, spec in zip(cfg.conv_groups, specs):
        for _ in group:
            conv_in.append(h)
            h = relu(conv2d_forward(h, next(convs)))
            conv_out.append(h)
        pool_in.append(h)
        h = maxpool_forward_naive(h, spec.window, spec.stride, spec.padding)
    pooled_shape = h.shape
    h = np.reshape(h, (n, -1), order="C")
    fc_in, fc_out, masks = [], [], []
    for fc in model.fcs[:-1]:
        fc_in.append(h)
        fc_out.append(relu(affine_forward(h, fc)))
        h, mask = dropout_forward(fc_out[-1], hidden, mode, rng)
        masks.append(mask)
    fc_in.append(h)
    loss, _, g = softmax_cross_entropy(affine_forward(h, model.fcs[-1]), labels)

    grads = {}
    for i in reversed(range(len(model.fcs))):
        if i < len(model.fcs) - 1:
            if mode == "train":  # test-mode dropout is the identity
                g = dropout_backward(g, masks[i], hidden)
            g = relu_backward(g, fc_out[i])
        g, grads[f"fc{i + 1}.W"], grads[f"fc{i + 1}.b"] = affine_backward(g, fc_in[i], model.fcs[i])
    g = np.reshape(g, pooled_shape)
    k = len(model.convs)
    for group, spec, p_in in reversed(list(zip(cfg.conv_groups, specs, pool_in))):
        g = maxpool_backward(g, p_in, spec)
        for _ in group:
            g = relu_backward(g, conv_out[k - 1])
            g, grads[f"conv{k}.filters"], grads[f"conv{k}.bias"] = conv2d_backward(
                g, conv_in[k - 1], model.convs[k - 1]
            )
            k -= 1
    g = np.reshape(g, (n, -1))
    _, grads["augmentation.W"], grads["augmentation.b"] = affine_backward(g, x0, model.augmentation)

    l2 = cfg.l2_strength
    weights = {"augmentation.W": model.augmentation.W}
    weights.update({f"conv{i}.filters": c.filters for i, c in enumerate(model.convs, start=1)})
    weights.update({f"fc{i}.W": fc.W for i, fc in enumerate(model.fcs, start=1)})
    for name, w in weights.items() if l2 != 0.0 else ():
        loss += l2 * float(np.vdot(w, w))
        grads[name] = grads[name] + (2.0 * l2) * w
    return loss, grads


def tiny_config(**overrides) -> NetworkConfig:
    """Smallest full-pipeline config: 5 -> 6x6x2 -> conv3 -> pool -> 3 -> 4 -> 5."""
    base = dict(
        variant=None,
        conv_groups=((3,),),
        input_len=5,
        aug_side=6,
        aug_channels=2,
        fc_sizes=(4, 5),
        l2_strength=1e-3,
    )
    base.update(overrides)
    return NetworkConfig(**base)


def randomized_tiny_model(seed, dtype=np.float64, **config_overrides):
    """Tiny model with O(1) parameters so pre-activations avoid ReLU kinks."""
    model = build_model(tiny_config(**config_overrides), Prng(seed), dtype=dtype)
    rng = Prng(seed + 1)
    for _, p in model.named_parameters():
        p[...] = (rng.uniform(p.size).reshape(p.shape) - 0.5).astype(dtype)
    return model


# Marker characters per class, chosen so their byte codes (40..200) are far
# apart after scaling; fillers encode to small codes (5..24) that never
# collide with a marker code.
MARKER_CHARS = tuple(chr(0x4E00 + o) for o in (40, 80, 120, 160, 200))
FILLER_CHARS = tuple(chr(0x4E00 + o) for o in range(5, 25))


def make_marker_texts(n, seed, n_classes=5):
    """Synthetic dialogues whose class is determined by a marker character.

    Each text is ~100 copies of its class marker at random positions among
    random filler, so the mapping is learnable and generalizes across draws.
    """
    rng = np.random.default_rng(seed)
    texts, labels = [], []
    for i in range(n):
        label = i % n_classes
        n_marker = int(rng.integers(95, 106))
        chars = [MARKER_CHARS[label]] * n_marker
        chars += [FILLER_CHARS[int(rng.integers(len(FILLER_CHARS)))] for _ in range(SEQUENCE_LENGTH - n_marker)]
        perm = rng.permutation(len(chars))
        texts.append("".join(chars[j] for j in perm))
        labels.append(label)
    return texts, labels


def make_marker_dataset(n, seed, n_classes=5):
    """Encoded (codes [n,144] uint8, labels [n] int64) marker dataset."""
    texts, labels = make_marker_texts(n, seed, n_classes)
    codes = np.stack([encode_dialogue(t) for t in texts])
    return codes, np.asarray(labels, dtype=np.int64)


def write_marker_tsv(path, n, seed, n_classes=5):
    from emocnn.labels import LABEL_NAMES

    texts, labels = make_marker_texts(n, seed, n_classes)
    with open(path, "w", encoding="utf-8") as fh:
        for text, label in zip(texts, labels):
            fh.write(f"{LABEL_NAMES[label]}\t{text}\n")
    return path


def rewrite_checkpoint_meta(path, edit, edit_data=None):
    """Apply edit(meta) to a saved checkpoint's JSON metadata, keeping its
    data, or replacing it by edit_data(meta, data) when that is given."""
    blob = path.read_bytes()
    header = struct.Struct("<4sHI")
    _, version, meta_len = header.unpack_from(blob)
    meta = json.loads(blob[header.size : header.size + meta_len].decode())
    edit(meta)
    data = blob[header.size + meta_len :]
    if edit_data is not None:
        data = edit_data(meta, data)
    new_meta = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(header.pack(MAGIC, version, len(new_meta)) + new_meta + data)


def write_deeply_nested_checkpoint(path, depth=200_000):
    """A checkpoint header whose metadata is ``depth`` nested JSON arrays,
    far deeper than the JSON decoder recurses."""
    meta = b"[" * depth + b"]" * depth
    path.write_bytes(struct.pack("<4sHI", MAGIC, 1, len(meta)) + meta)


def _shift_offsets_after_first(meta, by):
    for entry in meta["tensors"][1:]:
        entry["offset"] += by


def _insert_before_second(meta, data, n=4):
    cut = meta["tensors"][1]["offset"] - n
    return data[:cut] + bytes(n) + data[cut:]


# (metadata edit, data edit) pairs that break the rule that tensor offsets
# tile the data section exactly; each would load at a loader without it.
CHECKPOINT_LAYOUT_FAULTS = {
    "trailing-bytes": (lambda meta: None, lambda meta, data: data + bytes(8)),
    "overlap": (lambda meta: meta["tensors"][1].update(offset=meta["tensors"][0]["offset"]), None),
    "gap": (lambda meta: _shift_offsets_after_first(meta, 4), _insert_before_second),
}


# Edits of a saved tiny-config checkpoint's metadata that must not load.
CHECKPOINT_META_FAULTS = {
    "negative-fc-size": lambda meta: meta["config"].update(fc_sizes=[4, -5]),
    "filter-size-3": lambda meta: meta["config"].update(filter_size=3),
    "string-dropout-keep": lambda meta: meta["config"].update(dropout_keep_hidden="abc"),
    "string-aug-side": lambda meta: meta["config"].update(aug_side="6"),
    "duplicate-tensor": lambda meta: meta["tensors"].append(meta["tensors"][0]),
    # The directory is left alone, so only the shapes the config implies
    # disagree with it; allocating them would need tens of GB.
    "oversized-fc-size": lambda meta: meta["config"].update(fc_sizes=[1_000_000_000, 5]),
}


def remove_stop_words_naive(text, stops):
    """Reference stop-word removal: delete the leftmost match, taking the
    longest stop word at that position, then rescan from the start, until
    no stop word occurs."""
    while True:
        hits = [(i, -len(w)) for w in set(stops) for i in range(len(text)) if text.startswith(w, i)]
        if not hits:
            return text
        i, minus_len = min(hits)
        text = text[:i] + text[i - minus_len :]


def normalize_width_naive(text):
    """Reference width normalization: each half-width ASCII letter or digit
    moves up by the fixed offset to its full-width form."""
    return "".join(chr(ord(ch) + 0xFEE0) if ch.isascii() and ch.isalnum() else ch for ch in text)


def encode_dialogue_naive(text, stops=()):
    """Reference encoder, one character at a time: width normalization,
    ``remove_stop_words_naive``, then the alphabet ordinal and remap of
    each member, the first 144 of them, zero-padded."""
    codes = []
    for ch in remove_stop_words_naive(normalize_width_naive(text), stops):
        ordinal = alphabet_ordinal(ch)
        if ordinal is not None and len(codes) < SEQUENCE_LENGTH:
            codes.append(remap(ordinal))
    return np.array(codes + [0] * (SEQUENCE_LENGTH - len(codes)), dtype=np.uint8)
