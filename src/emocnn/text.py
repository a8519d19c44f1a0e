"""Dialogue text to fixed-length byte sequences.

Pipeline: half-width to full-width normalization, stop-word removal,
restriction to a 20,964-character alphabet (Chinese ideographs plus
full-width Latin letters and digits), mod-256 re-sampling of the alphabet
ordinal, then truncate/zero-pad to 144 codes. Every step is a pure function.
"""
from __future__ import annotations

from bisect import bisect_left
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
# fixed code-point offset; the shift of every ASCII code point.
_WIDTH_SHIFT = np.zeros(0x80, dtype=np.int64)
_WIDTH_SHIFT[0x30:0x3A] = _WIDTH_SHIFT[0x41:0x5B] = _WIDTH_SHIFT[0x61:0x7B] = 0xFEE0


class DataError(ValueError):
    """Malformed dataset or stop-word input, or a dataset too small for its
    use."""


@dataclass(frozen=True)
class RawDialogue:
    text: str
    label: Optional[EmotionLabel] = None


def _code_points(text: str) -> np.ndarray:
    """Code points of ``text``, lone surrogates included, as int64."""
    raw = text.encode("utf-32-le", "surrogatepass")
    return np.frombuffer(raw, dtype="<u4").astype(np.int64)


def _text(cp: np.ndarray) -> str:
    """The string of code points ``cp``; inverse of ``_code_points``."""
    return cp.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")


def _widen(cp: np.ndarray) -> np.ndarray:
    """``normalize_width`` on code points."""
    return cp + _WIDTH_SHIFT[np.minimum(cp, 0x7F)]


def normalize_width(text: str) -> str:
    """Replace half-width ASCII letters/digits with their full-width forms."""
    return _text(_widen(_code_points(text)))


def _group_stops(stops: Sequence[str]):
    """Index stop words by head: the first two characters of a longer word,
    or the whole of a one-character word.

    A head's bucket lists every stop word that can match where the head
    occurs, longest first: the longer words with that head, then the
    one-character word of its first character, if there is one."""
    words = sorted(dict.fromkeys(stops), key=len, reverse=True)
    if words and not words[-1]:
        raise ValueError("stop-word entries must be non-empty")
    by_head: dict[str, list[str]] = {}
    for word in words:
        by_head.setdefault(word[:2], []).append(word)
    for head, bucket in by_head.items():
        if len(head) == 2 and head[0] in by_head:
            bucket.append(head[0])
    return by_head, len(words[0]) if words else 0


# Pairs of characters are looked up in a table indexed by a multiplicative
# hash of their two code points; a collision adds only a false positive.
_PAIR_BITS = 18


def _pair_hash(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    return (first * 0x9E3779B1 + second) & ((1 << _PAIR_BITS) - 1)


def _candidates(cp: np.ndarray, starts: np.ndarray, by_head: dict[str, list[str]]) -> list[list[int]]:
    """The ascending positions where a stop word may start, per text.

    ``cp`` holds the code points of the texts joined, and text t spans
    ``starts[t]:starts[t + 1]``. Position p qualifies if its character is a
    one-character stop word, or if it and the next character may begin a
    longer one. Every match start qualifies; a false positive, such as a
    pair across two texts, costs ``_strip`` one check."""
    singles = _code_points("".join(head for head in by_head if len(head) == 1))
    firsts, seconds = _code_points("".join(head for head in by_head if len(head) == 2)).reshape(-1, 2).T
    pairs = np.zeros(1 << _PAIR_BITS, dtype=bool)
    pairs[_pair_hash(firsts, seconds)] = True
    hit = np.isin(cp, singles)
    hit[:-1] |= pairs[_pair_hash(cp[:-1], cp[1:])]
    positions = np.flatnonzero(hit)
    bounds = np.searchsorted(positions, starts).tolist()
    local = (positions - np.repeat(starts[:-1], np.diff(bounds))).tolist()
    return [local[a:b] for a, b in zip(bounds, bounds[1:])]


def _strip(text: str, by_head: dict[str, list[str]], max_len: int, candidates: list[int]) -> str:
    """``remove_stop_words`` with its index built by ``_group_stops`` and
    the match candidates of ``text`` found by ``_candidates``.

    Past the last cut the text is the input's tail, so the scan jumps from
    candidate to candidate (shifted by the characters deleted so far). A
    cut can join a new match only across it, so after one the scan rescans
    the ``max_len - 1`` positions before it one by one."""
    deleted = 0
    cut = 0
    k = 0
    i = 0
    while True:
        if i >= cut:
            k = bisect_left(candidates, i + deleted, k)
            if k == len(candidates):
                return text
            i = candidates[k] - deleted
        for word in by_head.get(text[i : i + 2]) or by_head.get(text[i], ()):
            if text.startswith(word, i):
                text = text[:i] + text[i + len(word):]
                deleted += len(word)
                cut = i
                i = max(0, i - max_len + 1)
                break
        else:
            i += 1


def remove_stop_words(text: str, stops: Sequence[str]) -> str:
    """Delete stop words until none occurs, keeping the survivors' order.

    Repeatedly removes the leftmost match, preferring the longest entry at
    that position. A deletion can join characters into a new match, so the
    scan backs up past the cut before continuing.
    """
    by_head, max_len = _group_stops(stops)
    if not by_head:
        return text
    candidates = _candidates(_code_points(text), np.array([0, len(text)]), by_head)
    return _strip(text, by_head, max_len, candidates[0])


def load_stop_words(path) -> tuple[str, ...]:
    """Read one stop word per line; blank lines and '#' comments are ignored."""
    with open(path, encoding="utf-8-sig") as fh:
        words = (line.strip() for line in fh)
        return tuple(dict.fromkeys(w for w in words if w and not w.startswith("#")))


# The alphabet ordinal of every code point of the Basic Multilingual Plane,
# which holds the whole alphabet, and -1 for every other character.
_ORDINALS = np.full(0x10000, -1, dtype=np.int16)
_ORDINALS[np.concatenate([np.arange(lo, hi + 1) for lo, hi in ALPHABET_RANGES])] = np.arange(ALPHABET_SIZE)


def alphabet_ordinal(ch: str) -> Optional[int]:
    """Zero-based position of ``ch`` in the concatenated alphabet ranges.

    Returns None for characters outside the alphabet.
    """
    cp = ord(ch)
    ordinal = int(_ORDINALS[cp]) if cp < len(_ORDINALS) else -1
    return ordinal if ordinal >= 0 else None


def remap(ordinal: int) -> int:
    """Re-sample an alphabet ordinal into a single byte code."""
    if not 0 <= ordinal < ALPHABET_SIZE:
        raise ValueError(f"ordinal {ordinal} outside 0..{ALPHABET_SIZE - 1}")
    return ordinal % BYTE_RANGE


# The byte code of every alphabet member, indexed by code point: ``remap``
# of its ordinal. fmod takes the sign of the ordinal, so every other
# character stays -1.
_CODE_TABLE = np.fmod(_ORDINALS, BYTE_RANGE)


# Dialogues encoded together. Their joined code points and temporaries
# take about 50 bytes a character, so a chunk of dialogues a few hundred
# characters long needs a few MB, whatever the size of the dataset.
_CHUNK = 1024


def _encode_texts(texts: Sequence[str], stops: Sequence[str]) -> np.ndarray:
    """``encode_dialogue`` of every text, stacked into [N,144] uint8, with
    one stop-word index for all of them."""
    by_head, max_len = _group_stops(stops)
    codes = np.zeros((len(texts), SEQUENCE_LENGTH), dtype=np.uint8)
    for a in range(0, len(texts), _CHUNK):
        _encode_chunk(texts[a : a + _CHUNK], by_head, max_len, codes[a : a + _CHUNK])
    return codes


def _encode_chunk(texts: Sequence[str], by_head: dict[str, list[str]], max_len: int, out: np.ndarray) -> None:
    """Write the codes of ``texts`` into the zeroed rows ``out``.

    The texts are joined and handled as one array of code points, except
    for stop-word removal: one candidate pass covers them all, then each
    text is stripped. A member's column is its rank among its own text's
    members."""
    starts = np.cumsum([0, *map(len, texts)])
    cp = _widen(_code_points("".join(texts)))
    if by_head:
        joined = _text(cp)
        bounds = starts.tolist()
        texts = [
            _strip(joined[a:b], by_head, max_len, c)
            for a, b, c in zip(bounds, bounds[1:], _candidates(cp, starts, by_head))
        ]
        starts = np.cumsum([0, *map(len, texts)])
        cp = _code_points("".join(texts))
    code = _CODE_TABLE[np.minimum(cp, 0xFFFF)]
    pos = np.flatnonzero(code >= 0)
    row = np.searchsorted(starts, pos, side="right") - 1
    col = np.arange(len(pos)) - np.searchsorted(pos, starts[:-1])[row]
    keep = col < SEQUENCE_LENGTH
    out[row[keep], col[keep]] = code[pos[keep]]


def encode_dialogue(text: str, stops: Sequence[str] = ()) -> np.ndarray:
    """Encode a dialogue as exactly 144 byte codes (uint8).

    Characters outside the alphabet are dropped; the first 144 surviving
    codes are kept and the tail is zero-padded.
    """
    return _encode_texts([text], stops)[0]


def load_dataset(path) -> list[RawDialogue]:
    """Parse a UTF-8 TSV of ``<label>\\t<text>`` records, one per line."""
    dialogues = []
    with open(path, encoding="utf-8-sig") as fh:
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
    stop-word index and the match candidates are built once for the whole
    call."""
    labels = np.zeros(len(dialogues), dtype=np.int64)
    for i, d in enumerate(dialogues):
        if d.label is None:
            raise DataError(f"dialogue {i} has no label")
        labels[i] = int(d.label)
    return _encode_texts([d.text for d in dialogues], stops), labels
