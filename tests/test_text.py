import random

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocnn import text as text_module
from emocnn.labels import EmotionLabel
from emocnn.text import (
    ALPHABET_RANGES,
    ALPHABET_SIZE,
    SEQUENCE_LENGTH,
    DataError,
    alphabet_ordinal,
    encode_dataset,
    encode_dialogue,
    load_dataset,
    load_stop_words,
    normalize_width,
    remap,
    remove_stop_words,
    split_dataset,
    RawDialogue,
)

from support import encode_dialogue_naive, remove_stop_words_naive, traced_peak


def test_normalize_width_letters_and_digits():
    assert normalize_width("A") == "Ａ"
    assert normalize_width("z") == "ｚ"
    assert normalize_width("9") == "９"
    assert normalize_width("Abc123") == "Ａｂｃ１２３"


def test_normalize_width_leaves_chinese_alone():
    text = "你好吗"
    assert normalize_width(text) == text


def test_normalize_width_leaves_punctuation_alone():
    assert normalize_width("!?,. ") == "!?,. "


def test_remove_stop_words_basic():
    assert remove_stop_words("ABCB", ("B",)) == "AC"


def test_remove_stop_words_empty_list_is_identity():
    assert remove_stop_words("ABCB", ()) == "ABCB"


def test_remove_stop_words_total_removal():
    assert remove_stop_words("stop", ("stop",)) == ""


def test_remove_stop_words_prefers_longest_at_position():
    assert remove_stop_words("abcx", ("ab", "abc")) == "x"


def test_remove_stop_words_falls_back_to_a_shorter_word():
    # the longer word shares its first two characters with the text but
    # fails on the third, so the one-character word matches there
    assert remove_stop_words("一丁!", ("一丁丂", "一")) == "丁!"


def test_remove_stop_words_handles_joins_after_deletion():
    # deleting "!" joins "a"+"a" into a new "aa" match
    assert remove_stop_words("a!a", ("!", "aa")) == ""


def test_remove_stop_words_single_char_idempotent():
    rng = random.Random(0)
    alphabet = "abcXY"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        once = remove_stop_words(text, ("a", "X"))
        assert remove_stop_words(once, ("a", "X")) == once


def test_remove_stop_words_rejects_empty_entry():
    with pytest.raises(ValueError):
        remove_stop_words("abc", ("",))


def test_alphabet_ordinal_boundaries():
    assert alphabet_ordinal("一") == 0
    assert alphabet_ordinal("龥") == 20901
    assert alphabet_ordinal("Ａ") == 20902
    assert alphabet_ordinal("Ｚ") == 20927
    assert alphabet_ordinal("ａ") == 20928
    assert alphabet_ordinal("９") == 20963


def test_alphabet_ordinal_non_members():
    assert alphabet_ordinal("A") is None
    assert alphabet_ordinal("!") is None
    assert alphabet_ordinal(" ") is None


def test_alphabet_size_matches_enumeration():
    # independent count: enumerate every code point in the ranges
    members = [cp for lo, hi in ALPHABET_RANGES for cp in range(lo, hi + 1)]
    assert len(members) == len(set(members)) == ALPHABET_SIZE == 20964


def test_alphabet_ordinals_are_a_bijection():
    ordinals = [alphabet_ordinal(chr(cp)) for lo, hi in ALPHABET_RANGES for cp in range(lo, hi + 1)]
    assert ordinals == list(range(ALPHABET_SIZE))


def test_remap_values():
    assert remap(0) == 0
    assert remap(256) == 0
    assert remap(20963) == 227


def test_remap_rejects_out_of_range():
    with pytest.raises(ValueError):
        remap(-1)
    with pytest.raises(ValueError):
        remap(ALPHABET_SIZE)


def test_remap_of_every_member_is_a_byte():
    for lo, hi in ALPHABET_RANGES:
        for cp in range(lo, hi + 1, 97):  # stride sample across all ranges
            assert 0 <= remap(alphabet_ordinal(chr(cp))) <= 255


def test_encode_empty_dialogue():
    npt.assert_array_equal(encode_dialogue(""), np.zeros(SEQUENCE_LENGTH, dtype=np.uint8))


def test_encode_single_character():
    seq = encode_dialogue("丁")  # ordinal 1 -> code 1
    assert seq[0] == 1 and not seq[1:].any()


def test_encode_half_width_input_is_normalized():
    # 'A' -> full-width U+FF21 -> ordinal 20902 -> 20902 % 256 = 166
    assert encode_dialogue("A")[0] == 166


def test_encode_truncates_to_first_144():
    text = "".join(chr(0x4E00 + i) for i in range(200))
    seq = encode_dialogue(text)
    expected = np.array([i % 256 for i in range(144)], dtype=np.uint8)
    npt.assert_array_equal(seq, expected)


def test_encode_drops_non_alphabet_characters():
    seq = encode_dialogue("丁!?丂")
    assert seq[0] == 1 and seq[1] == 2 and not seq[2:].any()


def test_encode_length_is_always_144():
    rng = random.Random(0)
    for _ in range(500):
        chars = []
        for _ in range(rng.randrange(0, 300)):
            cp = rng.randrange(0, 0x110000)
            if 0xD800 <= cp <= 0xDFFF:
                cp = 0x20
            chars.append(chr(cp))
        seq = encode_dialogue("".join(chars))
        assert seq.shape == (SEQUENCE_LENGTH,)
        assert seq.dtype == np.uint8


def test_encode_is_pure():
    text = "二狗Ａabc!"
    npt.assert_array_equal(encode_dialogue(text, ("狗",)), encode_dialogue(text, ("狗",)))


def test_load_dataset_roundtrip(tmp_path):
    p = tmp_path / "data.tsv"
    p.write_text("positive\t你好\nnegative\t槽糕\n\nneutral\tok\n", encoding="utf-8")
    rows = load_dataset(p)
    assert [r.label for r in rows] == [EmotionLabel.POSITIVE, EmotionLabel.NEGATIVE, EmotionLabel.NEUTRAL]
    assert rows[0].text == "你好"


def test_load_dataset_unknown_label_names_line(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("positive\tok\nangry\tnope\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        load_dataset(p)


def test_load_dataset_wrong_field_count(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("positive\ta\tb\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 1"):
        load_dataset(p)


def test_load_dataset_empty_file(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("", encoding="utf-8")
    assert load_dataset(p) == []


def test_load_stop_words(tmp_path):
    p = tmp_path / "stops.txt"
    p.write_text("# comment\n的\n\n了\n的\n", encoding="utf-8")
    assert load_stop_words(p) == ("的", "了")


def test_load_dataset_skips_a_leading_bom(tmp_path):
    p = tmp_path / "data.tsv"
    p.write_text("positive\t你好\nnegative\t槽糕\n", encoding="utf-8-sig")
    rows = load_dataset(p)
    assert [r.label for r in rows] == [EmotionLabel.POSITIVE, EmotionLabel.NEGATIVE]
    assert rows[0].text == "你好"


def test_load_stop_words_skips_a_leading_bom(tmp_path):
    p = tmp_path / "stops.txt"
    p.write_text("你\n的\n", encoding="utf-8-sig")
    assert load_stop_words(p) == ("你", "的")


def test_split_dataset_sizes():
    train, evalset = split_dataset(list(range(10)), 0.2, seed=0)
    assert len(train) == 8 and len(evalset) == 2


def test_split_dataset_deterministic():
    data = list(range(50))
    assert split_dataset(data, 0.3, 7) == split_dataset(data, 0.3, 7)


def test_split_dataset_is_exact_partition():
    data = list(range(101))
    train, evalset = split_dataset(data, 0.25, 3)
    assert sorted(train + evalset) == data


def test_split_dataset_fraction_bounds():
    with pytest.raises(ValueError):
        split_dataset([1, 2], 0.0, 0)
    with pytest.raises(ValueError):
        split_dataset([1, 2], 1.0, 0)


def test_split_dataset_empty():
    with pytest.raises(ValueError):
        split_dataset([], 0.5, 0)


def test_encode_dataset_shapes():
    rows = [RawDialogue("丁", EmotionLabel.POSITIVE), RawDialogue("丂", EmotionLabel.NEUTRAL)]
    codes, labels = encode_dataset(rows)
    assert codes.shape == (2, SEQUENCE_LENGTH)
    npt.assert_array_equal(labels, [0, 3])


def test_encode_dataset_requires_labels():
    with pytest.raises(DataError):
        encode_dataset([RawDialogue("丁", None)])


# Few characters, so deletions often join neighbours into new matches: three
# ideographs, a full-width letter, its half-width form (which normalization
# turns into it) and a character outside the alphabet.
_CHARS = "一丁丂ａa!"
_words = st.text(alphabet=_CHARS, min_size=1, max_size=3)


@st.composite
def _stop_lists(draw):
    """Stop lists with duplicates and with every prefix of some entries."""
    words = draw(st.lists(_words, min_size=1, max_size=5))
    prefixes = [w[:k] for w in words[: draw(st.integers(0, len(words)))] for k in range(1, len(w))]
    return draw(st.permutations(words + prefixes + words[:1]))


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=_CHARS, max_size=40), stops=_stop_lists())
def test_remove_stop_words_matches_naive_reference(text, stops):
    kept = remove_stop_words(text, stops)
    assert kept == remove_stop_words_naive(text, stops)
    assert not any(w in kept for w in stops)


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(st.text(alphabet=_CHARS, max_size=160), max_size=6), stops=_stop_lists())
def test_encode_dataset_rows_equal_encode_dialogue(texts, stops):
    codes, _ = encode_dataset([RawDialogue(t, EmotionLabel.NEUTRAL) for t in texts], stops)
    assert codes.shape == (len(texts), SEQUENCE_LENGTH)
    for row, t in zip(codes, texts):
        npt.assert_array_equal(row, encode_dialogue(t, stops))


def test_encode_dataset_builds_the_stop_index_once(monkeypatch):
    calls = []
    group = text_module._group_stops
    monkeypatch.setattr(text_module, "_group_stops", lambda stops: calls.append(stops) or group(stops))
    rows = [RawDialogue(t, EmotionLabel.POSITIVE) for t in ("丁丂", "丂丁丁", "一")]
    encode_dataset(rows, ("丁", "丂丁"))
    assert len(calls) == 1


# The join-heavy characters above, plus characters on each side of every
# bound the encoder tests: the alphabet ranges, the half-width letters and
# digits, the 7-bit and 16-bit limits, astral characters and lone surrogates
# (argv carries undecodable bytes as those).
_EDGE_CODE_POINTS = [
    *(b + d for lo, hi in ALPHABET_RANGES for b in (lo, hi) for d in (-1, 0, 1)),
    *(b + d for b in (0x30, 0x39, 0x41, 0x5A, 0x61, 0x7A) for d in (-1, 0, 1)),
    0x7F, 0x80, 0xFFFF, 0x10000, 0x1F600, 0x10FFFF, 0xD800, 0xDBFF, 0xDC00, 0xDCFF, 0xDFFF,
]
_ENCODER_CHARS = sorted(set(_CHARS) | {chr(cp) for cp in _EDGE_CODE_POINTS})
_encoder_texts = st.lists(st.sampled_from(_ENCODER_CHARS), max_size=160).map("".join)
_encoder_words = st.lists(st.sampled_from(_ENCODER_CHARS), min_size=1, max_size=3).map("".join)


@settings(max_examples=150, deadline=None)
@given(texts=st.lists(_encoder_texts, max_size=6), stops=st.lists(_encoder_words, max_size=5))
def test_encode_dataset_rows_equal_naive_encoder(texts, stops):
    codes, _ = encode_dataset([RawDialogue(t, EmotionLabel.NEUTRAL) for t in texts], stops)
    assert codes.shape == (len(texts), SEQUENCE_LENGTH) and codes.dtype == np.uint8
    for row, t in zip(codes, texts):
        npt.assert_array_equal(row, encode_dialogue_naive(t, stops))


def test_stop_word_does_not_match_across_rows():
    rows = [RawDialogue(t, EmotionLabel.NEUTRAL) for t in ("一丁", "丂一")]
    codes, _ = encode_dataset(rows, ("丁丂",))
    npt.assert_array_equal(codes[:, :3], [[0, 1, 0], [2, 0, 0]])


def test_encode_dataset_empty():
    codes, labels = encode_dataset([], ("丁",))
    assert codes.shape == (0, SEQUENCE_LENGTH) and codes.dtype == np.uint8
    assert labels.shape == (0,) and labels.dtype == np.int64


def test_encode_dataset_row_without_alphabet_characters():
    rows = [RawDialogue(t, EmotionLabel.NEUTRAL) for t in ("丁", "!? \U0001F600\udcff", "丂")]
    codes, _ = encode_dataset(rows, ("!",))
    assert not codes[1].any()
    assert codes[0, 0] == 1 and codes[2, 0] == 2


def test_encode_dataset_keeps_the_first_144_of_more_survivors():
    # 300 members, each followed by a non-member and a stop word
    text = "".join(chr(0x4E00 + i) + "!ａ" for i in range(300))
    rows = [RawDialogue(t, EmotionLabel.NEUTRAL) for t in (text, "丁")]
    codes, _ = encode_dataset(rows, ("ａ",))
    npt.assert_array_equal(codes[0], [i % 256 for i in range(SEQUENCE_LENGTH)])
    npt.assert_array_equal(codes[0], encode_dialogue_naive(text, ("ａ",)))
    assert codes[1, 0] == 1 and not codes[1, 1:].any()


def test_encode_dataset_spans_several_chunks():
    rng = random.Random(1)
    texts = ["".join(rng.choice(_CHARS) for _ in range(rng.randrange(0, 8))) for _ in range(2 * text_module._CHUNK + 3)]
    stops = ("丁丂", "a")
    codes, _ = encode_dataset([RawDialogue(t, EmotionLabel.NEUTRAL) for t in texts], stops)
    for row, t in zip(codes, texts):
        npt.assert_array_equal(row, encode_dialogue_naive(t, stops))


def test_encode_dataset_memory_does_not_grow_with_the_dataset():
    # The encoder's temporaries take tens of bytes a character; working a
    # chunk of dialogues at a time keeps them to one chunk's worth.
    rng = random.Random(2)
    pool = "".join(chr(0x4E00 + rng.randrange(20902)) for _ in range(3100))
    rows = [RawDialogue(pool[i % 3000 : i % 3000 + 100], EmotionLabel.NEUTRAL) for i in range(8 * text_module._CHUNK)]
    for stops in ((), ("丁丂",)):
        two_chunks = traced_peak(encode_dataset, rows[: 2 * text_module._CHUNK], stops)
        assert traced_peak(encode_dataset, rows, stops) < 1.5 * two_chunks


def test_encode_lone_surrogate_is_dropped():
    npt.assert_array_equal(encode_dialogue("\udcff丁"), [1] + [0] * (SEQUENCE_LENGTH - 1))
    npt.assert_array_equal(encode_dialogue("\udcff丁", ("\udcff",)), [1] + [0] * (SEQUENCE_LENGTH - 1))
    assert normalize_width("\udcffa") == "\udcffａ"
