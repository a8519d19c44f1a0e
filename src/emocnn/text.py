"""Dialogue text to fixed-length byte sequences.

Pipeline: half-width to full-width normalization, stop-word removal,
restriction to a 20,964-character alphabet (Chinese ideographs plus
full-width Latin letters and digits), mod-256 re-sampling of the alphabet
ordinal, then truncate/zero-pad to 144 codes. Every step is a pure function.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .labels import EmotionLabel, parse_label
from .tensor import Prng

SEQUENCE_LENGTH = 144
BYTE_RANGE = 256

# Inclusive code-point ranges in ordinal order: Chinese ideographs,
# full-width A-Z, full-width a-z, full-width 0-9.
ALPHABET_RANGES = (
    (0x4E00, 0x9FA5),
    (0xFF21, 0xFF3A),
    (0xFF41, 0xFF5A),
    (0xFF10, 0xFF19),
)
ALPHABET_SIZE = sum(hi - lo + 1 for lo, hi in ALPHABET_RANGES)

# Half-width ASCII letters/digits and their full-width forms differ by a
# fixed code-point offset.
_WIDTH_OFFSET = 0xFEE0
_HALF_TO_FULL = {
    cp: cp + _WIDTH_OFFSET
    for block in (range(0x41, 0x5B), range(0x61, 0x7B), range(0x30, 0x3A))
    for cp in block
}


class DataError(Exception):
    """Malformed dataset or stop-word input."""


@dataclass(frozen=True)
class RawDialogue:
    text: str
    label: Optional[EmotionLabel] = None


def normalize_width(text: str) -> str:
    """Replace half-width ASCII letters/digits with their full-width forms."""
    return text.translate(_HALF_TO_FULL)


def _group_stops(stops: Sequence[str]):
    """Index stop words by first character, longest first per bucket."""
    by_first: dict[str, list[str]] = {}
    seen = set()
    max_len = 0
    for word in stops:
        if not word:
            raise ValueError("stop-word entries must be non-empty")
        if word in seen:
            continue
        seen.add(word)
        by_first.setdefault(word[0], []).append(word)
        max_len = max(max_len, len(word))
    for bucket in by_first.values():
        bucket.sort(key=len, reverse=True)
    return by_first, max_len


def _strip(text: str, by_first: dict[str, list[str]], max_len: int) -> str:
    """``remove_stop_words`` with its index built by ``_group_stops``."""
    if not by_first:
        return text
    i = 0
    while i < len(text):
        bucket = by_first.get(text[i])
        if bucket:
            for word in bucket:
                if text.startswith(word, i):
                    text = text[:i] + text[i + len(word):]
                    i = max(0, i - max_len + 1)
                    break
            else:
                i += 1
        else:
            i += 1
    return text


def remove_stop_words(text: str, stops: Sequence[str]) -> str:
    """Delete stop words until none occurs, keeping the survivors' order.

    Repeatedly removes the leftmost match, preferring the longest entry at
    that position. A deletion can join characters into a new match, so the
    scan backs up past the cut before continuing.
    """
    return _strip(text, *_group_stops(stops))


def load_stop_words(path) -> tuple[str, ...]:
    """Read one stop word per line; blank lines and '#' comments are ignored."""
    entries = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if not word or word.startswith("#"):
                continue
            if word in seen:
                continue
            seen.add(word)
            entries.append(word)
    return tuple(entries)


def alphabet_ordinal(ch: str) -> Optional[int]:
    """Zero-based position of ``ch`` in the concatenated alphabet ranges.

    Returns None for characters outside the alphabet.
    """
    cp = ord(ch)
    base = 0
    for lo, hi in ALPHABET_RANGES:
        if lo <= cp <= hi:
            return base + cp - lo
        base += hi - lo + 1
    return None


def remap(ordinal: int) -> int:
    """Re-sample an alphabet ordinal into a single byte code."""
    if not 0 <= ordinal < ALPHABET_SIZE:
        raise ValueError(f"ordinal {ordinal} outside 0..{ALPHABET_SIZE - 1}")
    return ordinal % BYTE_RANGE


def _encode(text: str, index) -> np.ndarray:
    """``encode_dialogue`` with the stop-word index built by ``_group_stops``."""
    text = _strip(normalize_width(text), *index)
    codes = []
    for ch in text:
        ordinal = alphabet_ordinal(ch)
        if ordinal is None:
            continue
        codes.append(remap(ordinal))
        if len(codes) == SEQUENCE_LENGTH:
            break
    out = np.zeros(SEQUENCE_LENGTH, dtype=np.uint8)
    out[: len(codes)] = codes
    return out


def encode_dialogue(text: str, stops: Sequence[str] = ()) -> np.ndarray:
    """Encode a dialogue as exactly 144 byte codes (uint8).

    Characters outside the alphabet are dropped; the first 144 surviving
    codes are kept and the tail is zero-padded.
    """
    return _encode(text, _group_stops(stops))


def load_dataset(path) -> list[RawDialogue]:
    """Parse a UTF-8 TSV of ``<label>\\t<text>`` records, one per line."""
    dialogues = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise DataError(
                    f"{path}: line {lineno}: expected '<label>\\t<text>', "
                    f"got {len(fields)} field(s)"
                )
            try:
                label = parse_label(fields[0])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
            dialogues.append(RawDialogue(text=fields[1], label=label))
    return dialogues


def split_dataset(data: Sequence, eval_fraction: float, seed: int):
    """Deterministic shuffle-and-split into (train, eval) lists.

    The split is exact: every item lands in exactly one side, and
    len(eval) == round(eval_fraction * len(data)).
    """
    if not 0.0 < eval_fraction < 1.0:
        raise ValueError(f"eval_fraction must be in (0, 1), got {eval_fraction}")
    if len(data) == 0:
        raise ValueError("cannot split an empty dataset")
    perm = Prng(seed).permutation(len(data))
    shuffled = [data[int(i)] for i in perm]
    n_eval = int(round(eval_fraction * len(data)))
    return shuffled[n_eval:], shuffled[:n_eval]


def encode_dataset(dialogues: Sequence[RawDialogue], stops: Sequence[str] = ()):
    """Encode labeled dialogues into (codes [N,144] uint8, labels [N] int64).

    Row i equals ``encode_dialogue(dialogues[i].text, stops)``; the
    stop-word index is built once for the whole call."""
    index = _group_stops(stops)
    codes = np.zeros((len(dialogues), SEQUENCE_LENGTH), dtype=np.uint8)
    labels = np.zeros(len(dialogues), dtype=np.int64)
    for i, d in enumerate(dialogues):
        if d.label is None:
            raise DataError(f"dialogue {i} has no label")
        codes[i] = _encode(d.text, index)
        labels[i] = int(d.label)
    return codes, labels
