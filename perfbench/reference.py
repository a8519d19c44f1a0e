"""Oracles written apart from ``emocnn``: a float64 forward pass, an encoder
and a stop-word remover.

All three follow the documented method (the project README), not the package's
code. ``selftest.py`` checks them against explicit loops and hand-worked
strings.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SEQUENCE_LENGTH = 144
FILTER = 5
# Inclusive code-point ranges, in ordinal order: ideographs, full-width
# A-Z, full-width a-z, full-width 0-9.
ALPHABET = ((0x4E00, 0x9FA5), (0xFF21, 0xFF3A), (0xFF41, 0xFF5A), (0xFF10, 0xFF19))
_HALF_WIDTH = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


def normalize(text: str) -> str:
    """Half-width ASCII letters and digits become their full-width forms."""
    return "".join(chr(ord(c) + 0xFEE0) if c in _HALF_WIDTH else c for c in text)


def ordinal(ch: str):
    cp = ord(ch)
    base = 0
    for lo, hi in ALPHABET:
        if lo <= cp <= hi:
            return base + cp - lo
        base += hi - lo + 1
    return None


def remove_stop_words(text: str, stops) -> str:
    """Delete stop words until none occurs: each time at the leftmost
    position where one matches, the longest that matches there. A deletion
    can join a new match, so every scan starts again from the left."""
    words = set(stops)
    lengths = sorted({len(w) for w in words}, reverse=True)
    i = 0
    while i < len(text):
        for n in lengths:
            if text[i : i + n] in words:
                text, i = text[:i] + text[i + n :], 0
                break
        else:
            i += 1
    return text


def encode(text: str) -> np.ndarray:
    """Codes of already stop-word-filtered text: normalize, keep alphabet
    characters, ordinal mod 256, first 144, zero-padded."""
    codes = [o % 256 for o in map(ordinal, normalize(text)) if o is not None][:SEQUENCE_LENGTH]
    return np.array(codes + [0] * (SEQUENCE_LENGTH - len(codes)), dtype=np.uint8)


def conv(x, filters, bias):
    """Valid stride-1 cross-correlation, NHWC input, filters [K,5,5,C]."""
    windows = sliding_window_view(x, (FILTER, FILTER), axis=(1, 2))  # [B,oh,ow,C,5,5]
    return np.tensordot(windows, filters, axes=([3, 4, 5], [3, 1, 2])) + bias


def pool_same(x, window=5):
    """Stride-1 max pool that keeps the size; borders padded with -inf."""
    lo = (window - 1) // 2
    hi = window - 1 - lo
    xp = np.pad(x, ((0, 0), (lo, hi), (lo, hi), (0, 0)), constant_values=-np.inf)
    return sliding_window_view(xp, (window, window), axis=(1, 2)).max(axis=(-2, -1))


def pool_reduce(x, window=2):
    """Non-overlapping max pool; a ragged border is dropped."""
    b, h, w, c = x.shape
    oh, ow = h // window, w // window
    x = x[:, : oh * window, : ow * window]
    return x.reshape(b, oh, window, ow, window, c).max(axis=(2, 4))


def forward(params: dict, conv_groups, aug_side: int, aug_channels: int, codes, chunk: int = 32):
    """Test-mode logits in float64 for byte codes [N,144].

    ``params`` maps the checkpoint tensor names (``augmentation.W``,
    ``conv{i}.filters``, ``fc{i}.W``, ...) to arrays. Each conv group is
    followed by a same-size 5x5 pool, except the last, which is followed by
    a 2x2 stride-2 pool.
    """
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    n_fc = sum(1 for k in p if k.startswith("fc") and k.endswith(".W"))
    codes = np.asarray(codes)
    out = []
    for start in range(0, len(codes), chunk):
        x = codes[start : start + chunk].astype(np.float64) / 255.0
        h = (x @ p["augmentation.W"].T + p["augmentation.b"]).reshape(-1, aug_side, aug_side, aug_channels)
        ci = 0
        for gi, group in enumerate(conv_groups):
            for _ in group:
                ci += 1
                h = np.maximum(conv(h, p[f"conv{ci}.filters"], p[f"conv{ci}.bias"]), 0.0)
            h = pool_reduce(h) if gi == len(conv_groups) - 1 else pool_same(h)
        h = h.reshape(len(h), -1)
        for i in range(1, n_fc + 1):
            h = h @ p[f"fc{i}.W"].T + p[f"fc{i}.b"]
            if i < n_fc:
                h = np.maximum(h, 0.0)
        out.append(h)
    return np.concatenate(out)


def softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def top_gap(logits):
    """Distance between the largest and second-largest logit of each row."""
    top2 = np.sort(logits, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0]
