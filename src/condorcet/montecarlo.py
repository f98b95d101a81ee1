"""Monte Carlo estimation of Condorcet winner probability.

The sample space is split into fixed-size chunks; chunk i is generated by a
fresh PCG64 generator seeded with mix64(seed, n, k, i, STREAM_VERSION).
:func:`_sample_positions` is the package's one profile sampler: it draws a
whole chunk as a position tensor, never as Ranking objects.
Workers only decide which thread evaluates a chunk, and the merge is an
integer sum of winner counts, so p_hat depends on (seed, version) alone and
is identical for any worker count.

The winner kernel is the candidate-elimination scan, vectorized over a whole
chunk of profiles at once on position arrays: O(n) numpy passes for the
elimination, one tensor pass for verification.  Its oracle is the all-pairs
check of :func:`condorcet.engine.find_condorcet_winner` with ``naive=True``.
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
    """Position tensors for ``size`` profiles: out[b, v, a] is the rank voter
    v of profile b gives alternative a."""
    n = culture.n
    voters = 2 * k - 1
    dtype = _position_dtype(n)
    if culture.kind == "impartial":
        # A uniform permutation's inverse is uniform, so the generated
        # permutation can serve directly as the position array.  Shuffling
        # in place makes the same draws as a shuffled copy, without a second
        # chunk-sized buffer.
        flat = np.tile(np.arange(n, dtype=dtype), (size * voters, 1))
        rng.permuted(flat, axis=1, out=flat)
        return flat.reshape(size, voters, n)
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
    """Number of profiles in the chunk that have a Condorcet winner."""
    size, voters, n = pos.shape
    champion = np.zeros(size, dtype=np.int64)
    champion_pos = pos[:, :, 0].copy()
    for challenger in range(1, n):
        cand = pos[:, :, challenger]
        beats = (cand < champion_pos).sum(axis=1) >= k
        champion = np.where(beats, challenger, champion)
        champion_pos = np.where(beats[:, None], cand, champion_pos)
    champ_col = np.take_along_axis(pos, champion[:, None, None], axis=2)
    pairwise_wins = (champ_col < pos).sum(axis=1) >= k
    return int((pairwise_wins.sum(axis=1) == n - 1).sum())


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

    Unbiased indicator mean; deterministic for a fixed (seed, version)
    regardless of ``workers``.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    if seed is None:
        seed = secrets.randbits(63)

    def run_chunk(task: Tuple[int, int]) -> int:
        index, size = task
        rng = np.random.default_rng(mix64(seed, culture.n, k, index, STREAM_VERSION))
        pos = _sample_positions(culture, k, size, rng)
        return _count_winners_vectorized(pos, k)

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
