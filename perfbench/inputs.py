"""Seeded inputs for the benchmark workloads.

Every generator takes the run's seed and nothing else that varies, so the
same seed gives the same inputs. The program receives only what these
functions build; it never sees the seed.
"""
from __future__ import annotations

import numpy as np

from reference import SEQUENCE_LENGTH

# Marker dataset (train workload). The class is set by a marker character;
# fillers are drawn from other low ordinals. All ordinals are below 256, so
# the byte code equals the ordinal and no text encoding is needed.
MARKER_ORDINALS = (40, 80, 120, 160, 200)
FILLER_ORDINALS = tuple(range(5, 25))

# Dialogue corpus (serve and predict_cold). The paper's corpus is not
# public, so this mix is an assumption, calibrated against nothing: each
# class takes one path of the encoder, and the shares are guesses. The
# character pools are fixed; the seed picks the draws from them.
_POOL_RNG = np.random.default_rng(20171003)
COMMON_CHARS = tuple(chr(0x4E00 + int(o)) for o in _POOL_RNG.choice(20902, size=120, replace=False))
ASCII_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
FULL_WIDTH_CHARS = "".join(chr(ord(c) + 0xFEE0) for c in ASCII_CHARS)
PUNCTUATION = "，。！？、：；“”（） ,.!?;:'\"()-~ "
OUTSIDE_CHARS = "😀😂👍🎉éüßñ©®™€£¥§¶•…→←★☆♥αβγδ한글あいう"

# Character classes of a dialogue and their shares: common ideographs, any
# ideograph, half-width ASCII, full-width ASCII, punctuation and spaces,
# characters outside the alphabet. The second pool is drawn by code point.
_POOLS = (COMMON_CHARS, None, ASCII_CHARS, FULL_WIDTH_CHARS, PUNCTUATION, OUTSIDE_CHARS)
_CLASS_WEIGHTS = (0.70, 0.08, 0.08, 0.03, 0.08, 0.03)


def marker_dataset(n: int, seed: int):
    """(codes [n,144] uint8, labels [n] int64); about 100 marker codes per row."""
    rng = np.random.default_rng(seed)
    codes = np.empty((n, SEQUENCE_LENGTH), dtype=np.uint8)
    labels = np.arange(n, dtype=np.int64) % len(MARKER_ORDINALS)
    for i in range(n):
        n_marker = int(rng.integers(95, 106))
        row = np.asarray(FILLER_ORDINALS, dtype=np.uint8)[rng.integers(len(FILLER_ORDINALS), size=SEQUENCE_LENGTH)]
        row[:n_marker] = MARKER_ORDINALS[labels[i]]
        codes[i] = row[rng.permutation(SEQUENCE_LENGTH)]
    return codes, labels


def _mixed_text(rng, length: int) -> str:
    kinds = rng.choice(len(_CLASS_WEIGHTS), size=length, p=_CLASS_WEIGHTS)
    picks = rng.random(length)
    chars = []
    for kind, u in zip(kinds, picks):
        if kind == 1:
            chars.append(chr(0x4E00 + int(u * 20902)))
        else:
            pool = _POOLS[kind]
            chars.append(pool[int(u * len(pool))])
    return "".join(chars)


def dialogue_texts(n: int, seed: int, min_len: int = 8, max_len: int = 260) -> list[str]:
    """Mixed-script dialogues; every 32nd has no alphabet character at all.

    Lengths are uniform in [min_len, max_len], so the longer ones keep more
    than 144 alphabet characters and are truncated by the encoder.
    """
    rng = np.random.default_rng(seed)
    texts = []
    for i in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        if i % 32 == 31:
            pool = PUNCTUATION + OUTSIDE_CHARS
            texts.append("".join(pool[int(j)] for j in rng.integers(len(pool), size=length)))
        else:
            texts.append(_mixed_text(rng, length))
    return texts


def dialogue_labels(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed + 1).integers(0, 5, size=n)


def stop_words(n: int, seed: int) -> list[str]:
    """``n`` distinct two-character stop words.

    Most pair two common characters, so they occur often in the corpus; one
    in twenty pairs a full-width letter or digit with a common character,
    which matches only after half-width input is normalized.
    """
    rng = np.random.default_rng(seed + 2)
    words: dict[str, None] = {}
    while len(words) < n:
        a = COMMON_CHARS[int(rng.integers(len(COMMON_CHARS)))]
        if len(words) % 20 == 19:
            b = FULL_WIDTH_CHARS[int(rng.integers(len(FULL_WIDTH_CHARS)))]
        else:
            b = COMMON_CHARS[int(rng.integers(len(COMMON_CHARS)))]
        words.setdefault(a + b, None)
    return list(words)
