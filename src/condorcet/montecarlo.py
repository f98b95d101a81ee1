"""Monte Carlo estimation of Condorcet winner probability.

The sample space is split into fixed-size chunks; chunk i is generated by a
fresh PCG64 generator seeded with mix64(seed, n, k, i, STREAM_VERSION).
A chunk is sampled and judged one block of profiles at a time, each block
holding about ``_BLOCK_KEYS`` keys, so its working set stays in cache and
no chunk-sized tensor is ever built.  :func:`_sample_positions` is the
package's one profile sampler: it draws a block as a tensor of ranking
keys, never as Ranking objects.  Workers only decide which thread
evaluates a chunk, and the merge is an integer sum of winner counts, so
p_hat depends on (seed, version) alone and is identical for any worker
count.

The winner kernel, :func:`_count_winners_vectorized`, is a knockout
tournament run on a key tensor: ceil(log2 n) rounds of paired majority
contests leave one survivor per profile, and one verification pass checks
it against all n alternatives.  A Condorcet winner beats everyone, so it
survives any bracket, and the count equals that of any
candidate-elimination scan.  It only compares keys, so any keys whose
order is the voter's ranking will do.  Its oracle is the all-pairs check
:func:`condorcet.engine.find_condorcet_winner`.
"""

from __future__ import annotations

import math
import secrets
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import Culture
from .cultures import STREAM_VERSION, cyclic_culture, impartial_culture, mix64

CHUNK_SAMPLES = 1 << 14
# Keys per sampled block, 2 MiB of uint64 impartial keys: small enough for
# the block and the kernel's temporaries to stay in cache, large enough to
# amortise numpy's per-call cost.  Blocks of 2^16 to 2^21 keys were timed
# (2 vCPUs, 2 MiB L2 per core) at impartial n = 800, 200 and 50 and cyclic
# n = 10; 2^18 was the best or within about 10% of the best on each.
_BLOCK_KEYS = 1 << 18

_Z95 = 1.96


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate with its binomial error and 95% interval.

    ``std_error`` is the plug-in standard error sqrt(p_hat (1 - p_hat) / N),
    which is 0 when p_hat is 0 or 1.  The interval is therefore the Wilson
    score interval, not p_hat +/- 1.96 std_error: it keeps a width of order
    1/N at p_hat = 0 or 1 and lies inside [0, 1] by construction.
    """

    p_hat: float
    samples: int
    std_error: float
    ci_low: float
    ci_high: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError(f"p_hat {self.p_hat} outside [0, 1]")


def _position_dtype(n: int):
    return np.int16 if n <= 2 ** 15 - 1 else np.int32


def _sample_positions(
    culture: Culture, k: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Key tensors for ``size`` profiles: voter v of profile b prefers
    alternative a to alternative c exactly when out[b, v, a] < out[b, v, c].

    The cyclic and explicit cultures give ranks 0..n-1 (the position of a in
    the voter's ranking).  The impartial culture gives i.i.d. uniform uint64
    keys, drawn in one call: given distinct keys, the ranking they induce is
    exactly uniform on the n! orders.  A tie has probability at most
    C(n, 2) / 2^64 per voter, and it can only change the indicator of the
    profile it sits in, so |E[p_hat] - P| <= (2k - 1) C(n, 2) / 2^64, which
    is 5.2e-14 at n = 800, k = 2.
    """
    n = culture.n
    voters = 2 * k - 1
    if culture.kind == "impartial":
        return rng.bit_generator.random_raw((size, voters, n))
    dtype = _position_dtype(n)
    if culture.kind == "cyclic":
        starts = rng.integers(0, n, size=(size, voters), dtype=np.int32)
        alts = np.arange(n, dtype=np.int32)[None, None, :]
        return np.mod(alts - starts[:, :, None], n).astype(dtype)
    weights = np.array([float(w) for _, w in culture.entries])
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    table = np.array([r.positions for r, _ in culture.entries], dtype=dtype)
    idx = np.searchsorted(cum, rng.random((size, voters)), side="right")
    np.clip(idx, 0, len(culture.entries) - 1, out=idx)
    return table[idx]


def _count_winners_vectorized(pos: np.ndarray, k: int) -> int:
    """Number of profiles in the key tensor that have a Condorcet winner.

    Knockout rounds: in a round of width w, column i meets column w - 1 - i
    and the majority winner of each pair survives; with w odd the middle
    column meets itself, which is its bye.  A Condorcet winner beats every
    alternative, so it is the last survivor whenever it exists, and one
    verification pass against all n alternatives decides each profile.

    Every vote count is accumulated one voter at a time in the smallest
    unsigned type that holds 2k - 1, so the temporaries are a few (rows, n)
    arrays beside half the tensor; the caller bounds them by passing one
    block at a time.
    """
    rows, voters, n = pos.shape
    count_dtype = np.min_scalar_type(voters)
    survivors = pos
    while survivors.shape[2] > 1:
        width = survivors.shape[2]
        half = (width + 1) // 2
        left = survivors[:, :, :half]
        right = survivors[:, :, width - 1:width - half - 1:-1]
        votes = np.zeros((rows, half), dtype=count_dtype)
        for v in range(voters):
            votes += left[:, v] < right[:, v]
        # right + (left - right) * [left won], written into one buffer.  On
        # uint64 keys the subtraction wraps, but every step is exact modulo
        # 2^64, so the result is left or right exactly.
        survivors = np.subtract(left, right)
        survivors *= (votes >= k)[:, None, :]
        survivors += right
    champion = survivors[:, :, 0]
    votes = np.zeros((rows, n), dtype=count_dtype)
    for v in range(voters):
        votes += champion[:, v, None] < pos[:, v]
    # The champion never beats itself, so a winner beats the other n - 1.
    return int(np.count_nonzero(np.count_nonzero(votes >= k, axis=1) == n - 1))


def _chunk_layout(samples: int, chunk: int) -> List[Tuple[int, int]]:
    return [(i, min(chunk, samples - lo)) for i, lo in enumerate(range(0, samples, chunk))]


def estimate_condorcet_probability(
    culture: Culture,
    k: int,
    samples: int,
    seed: Optional[int] = None,
    workers: int = 1,
    chunk: int = CHUNK_SAMPLES,
) -> Estimate:
    """Estimate P(Condorcet winner exists) from i.i.d. sampled profiles.

    The indicator mean; deterministic for a fixed (seed, version)
    regardless of ``workers``.  It is unbiased for the cyclic and explicit
    cultures; for the impartial culture, whose sampler draws i.i.d. keys,
    |E[p_hat] - P| <= (2k - 1) C(n, 2) / 2^64 (see :func:`_sample_positions`).
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    if seed is None:
        seed = secrets.randbits(63)

    block_rows = max(1, _BLOCK_KEYS // ((2 * k - 1) * culture.n))

    def run_chunk(task: Tuple[int, int]) -> int:
        index, size = task
        rng = np.random.default_rng(mix64(seed, culture.n, k, index, STREAM_VERSION))
        return sum(
            _count_winners_vectorized(
                _sample_positions(culture, k, min(block_rows, size - lo), rng), k
            )
            for lo in range(0, size, block_rows)
        )

    tasks = _chunk_layout(samples, chunk)
    if workers <= 1 or len(tasks) == 1:
        wins = sum(run_chunk(t) for t in tasks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            wins = sum(pool.map(run_chunk, tasks))

    p_hat = wins / samples
    std_error = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    ci_low, ci_high = _wilson_interval(p_hat, samples)
    return Estimate(p_hat, samples, std_error, ci_low, ci_high, seed)


def _wilson_interval(p_hat: float, samples: int) -> Tuple[float, float]:
    """Wilson 95% score interval for a proportion p_hat out of N = ``samples``,
    with z = 1.96:

        (p_hat + z^2/2N -/+ z sqrt(p_hat (1 - p_hat)/N + z^2/4N^2)) / (1 + z^2/N).

    The exact bounds lie in [0, 1] and contain p_hat (they meet it only at
    p_hat = 0 or 1); the float bounds are held to that, so rounding cannot
    push them past either.
    """
    z2 = _Z95 * _Z95 / samples
    center = p_hat + 0.5 * z2
    spread = _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / samples + 0.25 * z2 / samples)
    scale = 1.0 + z2
    low = min(p_hat, max(0.0, (center - spread) / scale))
    high = max(p_hat, min(1.0, (center + spread) / scale))
    return low, high


_FAMILIES = {"impartial": impartial_culture, "cyclic": cyclic_culture}


def sweep(
    family: str,
    k: int,
    n_values: Sequence[int],
    samples: int,
    seed: Optional[int] = None,
    workers: int = 1,
) -> List[Tuple[int, Estimate]]:
    """One estimate per n for a named culture family.

    Each cell runs with its own seed mix64(master, n, k), recorded in the
    cell's Estimate, so any cell can be reproduced in isolation.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown culture family {family!r}")
    if seed is None:
        seed = secrets.randbits(63)
    build = _FAMILIES[family]
    results = []
    for n in n_values:
        cell_seed = mix64(seed, n, k)
        estimate = estimate_condorcet_probability(
            build(n), k, samples, seed=cell_seed, workers=workers
        )
        results.append((int(n), estimate))
    return results
