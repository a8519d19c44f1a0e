"""Self-test of the benchmark's own oracles; runs in about a second.

Checks the reference conv and pools against explicit loops on tiny shapes,
and the reference encoder and stop-word remover against hand-worked
strings. Run it directly
(``python3 perfbench/selftest.py``); every benchmark run also calls
``run()`` before it sets up.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference as ref  # noqa: E402


def _conv_loops(x, filters, bias):
    b, h, w, c = x.shape
    k, fh, fw, _ = filters.shape
    out = np.zeros((b, h - fh + 1, w - fw + 1, k))
    for n in range(b):
        for i in range(h - fh + 1):
            for j in range(w - fw + 1):
                for f in range(k):
                    acc = bias[f]
                    for di in range(fh):
                        for dj in range(fw):
                            for ch in range(c):
                                acc += x[n, i + di, j + dj, ch] * filters[f, di, dj, ch]
                    out[n, i, j, f] = acc
    return out


def _pool_loops(x, window, stride, pad):
    b, h, w, c = x.shape
    oh = (h + 2 * pad - window) // stride + 1
    ow = (w + 2 * pad - window) // stride + 1
    out = np.full((b, oh, ow, c), -np.inf)
    for n in range(b):
        for i in range(oh):
            for j in range(ow):
                for ch in range(c):
                    for di in range(window):
                        for dj in range(window):
                            r, s = i * stride + di - pad, j * stride + dj - pad
                            if 0 <= r < h and 0 <= s < w:
                                out[n, i, j, ch] = max(out[n, i, j, ch], x[n, r, s, ch])
    return out


# (text, expected leading codes). Ordinals: U+4E00 is 0, U+9FA5 is 20901,
# full-width A is 20902 (code 166), a is 20928 (192), 0 is 20954 (218).
ENCODER_CASES = (
    ("", []),
    ("一丁", [0, 1]),
    ("龥", [20901 % 256]),
    ("A", [166]),
    ("Ab1。丁x!", [166, 193, 219, 1, 215]),
    ("Ａｂ１", [166, 193, 219]),
    ("😀é ,.", []),
    ("丁" * 150, [1] * 144),
)


# (text, stop words, text after removal).
STOP_CASES = (
    ("abcd", (), "abcd"),
    ("abcd", ("bc",), "ad"),
    ("aabb", ("ab",), ""),              # the first deletion joins a second match
    ("abcd", ("ab", "abc"), "d"),       # the longest word at a position
    ("xabcd", ("bcd", "ab"), "xcd"),    # the leftmost position before the longest word
    ("天天气气好", ("天气",), "好"),
)


class OracleError(AssertionError):
    pass


def _check(ok, what: str) -> None:
    if not ok:
        raise OracleError(f"oracle self-test failed: {what}")


def run() -> int:
    """Number of checks made; raises OracleError on the first failure."""
    rng = np.random.default_rng(0)
    checks = 0
    for shape, kshape in (((2, 7, 6, 3), (4, 5, 5, 3)), ((1, 5, 5, 1), (2, 5, 5, 1))):
        x, f, b = rng.standard_normal(shape), rng.standard_normal(kshape), rng.standard_normal(kshape[0])
        got, want = ref.conv(x, f, b), _conv_loops(x, f, b)
        _check(got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=1e-12), "reference conv")
        checks += 1
    for shape in ((2, 6, 6, 3), (1, 7, 5, 2)):
        # Rounded values give ties, which a max must survive.
        x = np.round(rng.standard_normal(shape), 1)
        _check(np.array_equal(ref.pool_same(x), _pool_loops(x, 5, 1, 2)), "reference same pool")
        _check(np.array_equal(ref.pool_reduce(x), _pool_loops(x, 2, 2, 0)), "reference reducing pool")
        checks += 2
    for text, lead in ENCODER_CASES:
        want = np.zeros(ref.SEQUENCE_LENGTH, dtype=np.uint8)
        want[: len(lead)] = lead
        _check(np.array_equal(ref.encode(text), want), f"reference encoder on {text!r}")
        checks += 1
    for text, stops, want in STOP_CASES:
        _check(ref.remove_stop_words(text, stops) == want, f"reference stop-word removal on {text!r}, {stops!r}")
        checks += 1
    _check(ref.normalize("Az9!") == "Ａｚ９!", "reference width normalization")
    logits = np.array([[1.0, 3.0, 2.5], [0.0, 0.0, 0.0]])
    _check(np.allclose(ref.top_gap(logits), [0.5, 0.0]), "top-two gap")
    _check(np.allclose(ref.softmax(logits).sum(axis=1), 1.0), "softmax rows sum to 1")
    return checks + 3


if __name__ == "__main__":
    print(f"selftest: {run()} checks passed")
