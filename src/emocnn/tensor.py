"""Dense tensors and deterministic random number generation.

All numeric values live in plain numpy arrays with row-major (C order)
layout. float32 is the training precision; gradient checks run in float64.
"""
from __future__ import annotations

import math
import os
import threading

import numpy as np

DEFAULT_DTYPE = np.float32

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1

# Most threads of one block fill. Each holds about 1.5 MB of block
# temporaries, so the fill's scratch stays a few MB whatever the machine.
_MAX_FILL_THREADS = 4

# Elements per block of every blocked elementwise pass (Adam and the L2
# gradient through flat_blocks, the weight draw's Box-Muller pairs): its
# temporaries stay cache-sized whatever the tensor's size.
FLAT_BLOCK = 1 << 15


def flat_blocks(arrays, *scratch_dtypes):
    """Matching blocks of at most ``FLAT_BLOCK`` elements of the flattened
    same-size ``arrays``, in order, each followed by a block-length slice of
    one scratch array per dtype of ``scratch_dtypes``. The scratch arrays
    are made once per call and shared by every block. An array written
    through its blocks must be C-contiguous, so that its flattening is a
    view."""
    flats = [a.reshape(-1) for a in arrays]
    scratch = [np.empty(min(FLAT_BLOCK, flats[0].size), dtype) for dtype in scratch_dtypes]
    for lo in range(0, flats[0].size, FLAT_BLOCK):
        blocks = [f[lo : lo + FLAT_BLOCK] for f in flats]
        yield (*blocks, *(s[: len(blocks[0])] for s in scratch))


class NumericalFault(Exception):
    """A loss, gradient, parameter or logit stopped being finite."""


def _all_finite(a: np.ndarray) -> bool:
    """Whether every value of ``a`` is finite. A finite sum of squares
    proves it; finite values can overflow that sum too, so only a
    non-finite sum takes the exact scan."""
    return bool(np.isfinite(np.vdot(a, a)) or np.isfinite(a).all())


def _fill_threads() -> int:
    """Threads for a block fill: the CPUs this process may run on (its
    affinity mask, where the platform has one), at most _MAX_FILL_THREADS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_FILL_THREADS)


def _run_in_threads(task, items) -> None:
    """``task(item)`` for every item of the sequence ``items``, on this
    thread and up to ``_fill_threads() - 1`` more; thread w of W takes
    items w, w + W, .... Every thread runs under the caller's numpy error
    state. The threads are joined before this returns, and then the first
    exception any of them raised is raised here. ``task`` must not depend
    on the order in which items run."""
    workers = max(1, min(_fill_threads(), len(items)))
    errstate = dict(np.geterr(), call=np.geterrcall())
    errors = []

    def work(share):
        try:
            with np.errstate(**errstate):
                for item in share:
                    task(item)
        except BaseException as exc:  # raised in the caller, below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(items[w::workers],)) for w in range(1, workers)]
    try:
        for t in threads:
            t.start()
        work(items[::workers])
    finally:
        for t in threads:
            if t.ident is not None:
                t.join()
    if errors:
        raise errors[0]


def _unit_float(draws: np.ndarray) -> np.ndarray:
    """Raw draws as float64 in [0, 1), from the top 53 bits of each."""
    return (draws >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


class Prng:
    """splitmix64 run in counter mode.

    Draw number i of a stream with seed s is splitmix64(s + (i+1)*GOLDEN),
    i.e. a pure integer function of (seed, draw index). Identical seeds give
    identical streams on every platform, blocks of any size can be produced
    vectorized, and the algorithm is frozen: changing it invalidates every
    recorded run.
    """

    algorithm = "splitmix64-counter"

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & _U64_MASK)
        self._drawn = 0

    def _draws(self, first: int, n: int) -> np.ndarray:
        """Raw draws number ``first`` to ``first + n - 1``, not advancing
        the stream."""
        idx = np.arange(first + 1, first + n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return _splitmix64(self._seed + idx * _GOLDEN)

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit draws as a uint64 array."""
        if n < 0:
            raise ValueError(f"draw count must be non-negative, got {n}")
        first = self._drawn
        self._drawn += n
        return self._draws(first, n)

    def uniform(self, n: int) -> np.ndarray:
        """``n`` float64 samples in [0, 1), using the top 53 bits per draw."""
        return _unit_float(self.raw(n))

    def _fill_normal(self, out: np.ndarray, std=None, mean=0.0) -> None:
        """Fill the flat array ``out`` with the next ``n = out.size``
        standard normals (Box-Muller), advancing the stream by
        2 * ceil(n / 2) draws. Pair k of the ceil(n / 2) pairs takes its two
        uniforms from draws k and ceil(n / 2) + k; its cosine is normal k
        and its sine normal ceil(n / 2) + k, dropped when that is n. With
        ``std`` given, normal z is stored as z * std + mean, computed in
        float64 and rounded once to ``out``'s dtype.

        Blocks of at most ``FLAT_BLOCK`` pairs run through
        ``_run_in_threads``. Each writes only its own slices of ``out``,
        with the same operations on each element, so the values do not
        depend on the number of threads."""
        n = out.size
        half = (n + 1) // 2
        first = self._drawn
        self._drawn += 2 * half

        def fill(k):
            pairs = min(FLAT_BLOCK, half - k)
            u1 = _unit_float(self._draws(first + k, pairs))
            u2 = _unit_float(self._draws(first + half + k, pairs))
            # 1 - u1 is in (0, 1], so the log is finite.
            radius = np.sqrt(-2.0 * np.log1p(-u1))
            angle = (2.0 * math.pi) * u2
            for start, trig in ((k, np.cos), (half + k, np.sin)):
                z = (radius * trig(angle))[: n - start]
                out[start : start + len(z)] = z if std is None else z * std + mean

        _run_in_threads(fill, range(0, half, FLAT_BLOCK))

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normal float64 samples via the Box-Muller transform."""
        out = np.empty(n)
        self._fill_normal(out)
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n). Modulo bias is accepted."""
        idx = np.arange(n, dtype=np.int64)
        if n < 2:
            return idx
        draws = self.raw(n - 1)
        for i in range(n - 1, 0, -1):
            j = int(draws[n - 1 - i] % np.uint64(i + 1))
            idx[i], idx[j] = idx[j], idx[i]
        return idx

    def mask(self, shape, keep_probability: float) -> np.ndarray:
        """Boolean array, element True with probability ``keep_probability``."""
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return (self.uniform(size) < keep_probability).reshape(shape)


def gaussian_init(shape, mean: float, std: float, rng: Prng, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """I.i.d. normal tensor, deterministic under the generator's seed."""
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    shape = tuple(int(d) for d in shape)
    size = int(np.prod(shape, dtype=np.int64)) if shape else 1
    out = np.empty(size, dtype=dtype)
    if std == 0:
        out.fill(float(mean))
    else:
        rng._fill_normal(out, std, mean)
    return out.reshape(shape)
