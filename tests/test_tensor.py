import threading
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from emocnn import tensor
from emocnn.tensor import FLAT_BLOCK, Prng, gaussian_init

from support import normal_one_shot

# Normals per block of the weight draw: FLAT_BLOCK Box-Muller pairs.
BLOCK_NORMALS = 2 * FLAT_BLOCK


def test_gaussian_init_zero_std_is_constant():
    t = gaussian_init((3, 4), mean=0.25, std=0.0, rng=Prng(0))
    npt.assert_array_equal(t, np.full((3, 4), 0.25, dtype=np.float32))


def test_gaussian_init_negative_std_rejected():
    with pytest.raises(ValueError):
        gaussian_init((2,), mean=0.0, std=-1.0, rng=Prng(0))


def test_gaussian_init_deterministic_under_seed():
    a = gaussian_init((100,), 0.0, 0.01, Prng(42))
    b = gaussian_init((100,), 0.0, 0.01, Prng(42))
    npt.assert_array_equal(a, b)


def test_gaussian_init_sample_moments():
    # law-of-large-numbers check: 1e5 draws at std 0.01
    t = gaussian_init((100_000,), 0.0, 0.01, Prng(7), dtype=np.float64)
    assert abs(t.mean()) < 1e-3
    assert abs(t.std() - 0.01) < 0.001


def test_prng_same_seed_same_stream():
    npt.assert_array_equal(Prng(9).raw(64), Prng(9).raw(64))


def test_prng_distinct_seeds_differ_quickly():
    assert not np.array_equal(Prng(1).raw(16), Prng(2).raw(16))


def test_prng_uniform_range():
    u = Prng(3).uniform(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_prng_permutation_is_permutation():
    perm = Prng(4).permutation(257)
    npt.assert_array_equal(np.sort(perm), np.arange(257))


def test_prng_permutation_deterministic():
    npt.assert_array_equal(Prng(5).permutation(100), Prng(5).permutation(100))


def test_prng_normal_moments():
    z = Prng(6).normal(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_prng_mask_keep_fraction():
    mask = Prng(8).mask((100_000,), 0.3)
    assert abs(mask.mean() - 0.3) < 0.01


@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, BLOCK_NORMALS - 1, BLOCK_NORMALS, BLOCK_NORMALS + 1, 2 * BLOCK_NORMALS + 1]
)
def test_normal_blocks_equal_one_shot_box_muller(n):
    # Each stream has drawn already, so block draws are taken from an offset.
    blocked, one_shot = Prng(31), Prng(31)
    blocked.raw(5)
    one_shot.raw(5)
    expected = normal_one_shot(one_shot, n)
    got = blocked.normal(n)
    assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
    assert blocked._drawn == one_shot._drawn == 5 + 2 * ((n + 1) // 2)
    for dtype in (np.float32, np.float64):
        rng, ref = Prng(32), Prng(32)
        rng.raw(7)
        ref.raw(7)
        t = gaussian_init((n,), 0.3, 0.05, rng, dtype=dtype)
        assert t.dtype == dtype and t.tobytes() == (normal_one_shot(ref, n) * 0.05 + 0.3).astype(dtype).tobytes()
        assert rng._drawn == ref._drawn


@pytest.mark.parametrize("threads", [1, 2, 7])
@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, BLOCK_NORMALS - 1, BLOCK_NORMALS + 1, 2 * BLOCK_NORMALS + 1, 7 * BLOCK_NORMALS + 3]
)
def test_normal_fill_is_the_same_on_any_thread_count(monkeypatch, threads, n):
    # 7 * BLOCK_NORMALS + 3 normals make 8 blocks, so each of 7 threads has one.
    monkeypatch.setattr(tensor, "_fill_threads", lambda: threads)
    rng, ref = Prng(33), Prng(33)
    rng.raw(5)
    ref.raw(5)
    assert rng.normal(n).tobytes() == normal_one_shot(ref, n).tobytes()
    for dtype in (np.float32, np.float64):
        t = gaussian_init((n,), 0.3, 0.05, rng, dtype=dtype)
        assert t.tobytes() == (normal_one_shot(ref, n) * 0.05 + 0.3).astype(dtype).tobytes()
    assert rng.raw(3).tobytes() == ref.raw(3).tobytes()


def test_an_exception_in_a_fill_thread_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(tensor, "_fill_threads", lambda: 3)
    unit_float = tensor._unit_float

    def fail_off_the_calling_thread(draws):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("planted")
        return unit_float(draws)

    monkeypatch.setattr(tensor, "_unit_float", fail_off_the_calling_thread)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="planted"):
        gaussian_init((3 * BLOCK_NORMALS,), 0.0, 1.0, Prng(0))
    assert threading.active_count() == before


def test_fill_threads_keep_the_callers_numpy_error_state(monkeypatch):
    # The float32 cast overflows in every block. Under the caller's "ignore"
    # no thread warns; a thread on numpy's default state would.
    monkeypatch.setattr(tensor, "_fill_threads", lambda: 3)
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        t = gaussian_init((3 * BLOCK_NORMALS,), 0.0, 1e300, Prng(0))
    assert np.isinf(t).all()
