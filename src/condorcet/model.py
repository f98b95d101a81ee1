"""Core domain types: rankings, cultures, profiles, exact rational weights.

Everything here is immutable after construction and validated eagerly, so the
rest of the package can assume well-formed inputs.  Probabilities are stored
as exact ``fractions.Fraction`` values; floating point enters only in the
sampling and quadrature modules.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

# Default resource caps.  They are arguments with defaults, not constants
# baked into the algorithms, so callers can raise or lower them.
MAX_EXPLICIT_SUPPORT = 10 ** 6


class CapExceededError(RuntimeError):
    """A configured resource cap would be exceeded.

    ``cap_name`` identifies which cap, so callers (the CLI in particular)
    can report it without parsing the message.
    """

    def __init__(self, cap_name: str, needed, cap, message: Optional[str] = None) -> None:
        self.cap_name = cap_name
        self.needed = needed
        self.cap = cap
        super().__init__(message or f"cap '{cap_name}' exceeded: needed {needed}, cap {cap}")


class SupportTooLargeError(CapExceededError):
    """A culture's explicit support would exceed the support cap."""

    def __init__(self, needed, cap) -> None:
        super().__init__("max_support", needed, cap)


def parse_probability(text: str) -> Fraction:
    """Parse a probability string, either decimal ("0.25") or "num/den" ("1/6").

    Decimals are read exactly (over a power of ten), never through a float.
    """
    value = Fraction(str(text).strip())
    if value < 0:
        raise ValueError(f"negative weight {text!r}")
    if value > 1:
        raise ValueError(f"weight {text!r} exceeds 1")
    return value


def _exact_int(value, what: str) -> int:
    """``value`` as an int when it is one: an int or a numpy integer, not a
    bool, float or str, so no conversion can change what a file says."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Ranking:
    """A strict preference order: ``order[0]`` is the most preferred alternative.

    Alternatives are 0-based indices.  ``order`` must be a permutation of
    ``range(n)``.
    """

    order: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "order", tuple(_exact_int(a, "ranking entry") for a in self.order)
        )
        n = len(self.order)
        if n < 1:
            raise ValueError("ranking must cover at least one alternative")
        if sorted(self.order) != list(range(n)):
            raise ValueError(f"order {self.order} is not a permutation of 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def top(self) -> int:
        return self.order[0]

    @cached_property
    def positions(self) -> Tuple[int, ...]:
        """Inverse permutation: ``positions[a]`` is the rank of alternative ``a``
        (0 = most preferred).  Lets a preference test be two array reads."""
        pos = [0] * len(self.order)
        for rank, alt in enumerate(self.order):
            pos[alt] = rank
        return tuple(pos)


def rotation_ranking(n: int, start: int) -> Ranking:
    """The cyclic order (start, start+1, ..., n-1, 0, ..., start-1)."""
    return Ranking(tuple((start + i) % n for i in range(n)))


# The named kinds.  Each is symbolic, keeping no entries (``expand`` builds
# its support, ``support_positions`` the cyclic kind's position table), and
# is invariant under a relabelling that sends alternative 0 to any other: any
# permutation for "impartial", the uniform culture on all n! rankings, and
# the cyclic shift for "cyclic", the n rotations of (0, 1, ..., n-1) at
# weight 1/n each.
NAMED_KINDS = ("impartial", "cyclic")


@dataclass(frozen=True)
class Culture:
    """A probability distribution over rankings of ``n`` alternatives.

    ``kind`` is ``"explicit"``, a finite support given by ``entries``, or
    one of the named kinds (:data:`NAMED_KINDS`), which keep no entries.
    Entries are (ranking, weight) pairs with exact rational weights summing
    to exactly 1.
    """

    n: int
    kind: str
    entries: Optional[Tuple[Tuple[Ranking, Fraction], ...]] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("culture needs at least one alternative")
        if self.kind in NAMED_KINDS:
            if self.entries is not None:
                raise ValueError(f"{self.kind} culture keeps no explicit entries")
            return
        if self.kind != "explicit":
            raise ValueError(f"unknown culture kind {self.kind!r}")
        if not self.entries:
            raise ValueError("explicit culture requires entries")
        object.__setattr__(
            self,
            "entries",
            tuple((r, Fraction(w)) for r, w in self.entries),
        )
        seen = set()
        total = Fraction(0)
        for ranking, weight in self.entries:
            if ranking.n != self.n:
                raise ValueError(
                    f"ranking {ranking.order} has {ranking.n} alternatives, culture has {self.n}"
                )
            if ranking.order in seen:
                raise ValueError(f"duplicate ranking {ranking.order}")
            seen.add(ranking.order)
            if weight < 0:
                raise ValueError(f"negative weight {weight} for ranking {ranking.order}")
            total += weight
        if total != 1:
            raise ValueError(f"weights sum to {total} != 1")

    @property
    def support_size(self) -> int:
        if self.kind == "impartial":
            return math.factorial(self.n)
        if self.kind == "cyclic":
            return self.n
        return len(self.entries)

    def expand(self, max_support: int = MAX_EXPLICIT_SUPPORT) -> "Culture":
        """Materialize the support as an explicit culture, refused when it
        exceeds ``max_support``.

        Impartial cultures expand to all n! rankings in lexicographic order,
        cyclic ones to the n rotations with rotation s at index s.
        """
        size = self.support_size
        if size > max_support:
            raise SupportTooLargeError(size, max_support)
        if self.kind == "explicit":
            return self
        if self.kind == "cyclic":
            rankings = [rotation_ranking(self.n, s) for s in range(size)]
        else:
            rankings = [Ranking(p) for p in permutations(range(self.n))]
        w = Fraction(1, size)
        return Culture(self.n, "explicit", tuple((r, w) for r in rankings))

    def support_positions(self) -> np.ndarray:
        """The (S, n) position table of the support: row i holds the ranks
        0..n-1 of support ranking i of :meth:`expand`, in int16 when n fits
        it and int32 otherwise.  No cap applies; callers check theirs first.

        The cyclic table, whose row s ranks a at (a - s) mod n, is a
        read-only strided view of O(n) memory.  The impartial culture has no
        table: no engine reads its n! rows (exact runs a programme over
        rival histograms and Monte Carlo draws keys), so it is refused with
        ``ValueError``; ``expand().support_positions()`` builds it.
        """
        n = self.n
        dtype = np.int16 if n <= 2 ** 15 - 1 else np.int32
        if self.kind == "cyclic":
            base = (np.arange(1, 2 * n) % n).astype(dtype)
            return np.lib.stride_tricks.sliding_window_view(base, n)[::-1]
        if self.kind == "impartial":
            raise ValueError("the impartial culture has no support table; expand it first")
        return np.array([r.positions for r, _ in self.entries], dtype=dtype)

    def top_marginals(self) -> Tuple[Fraction, ...]:
        """x_j = P(ranking places alternative j first), exact, summing to 1.
        Uniform for the named kinds, by their symmetry."""
        if self.kind != "explicit":
            return (Fraction(1, self.n),) * self.n
        marginals = [Fraction(0)] * self.n
        for ranking, weight in self.entries:
            marginals[ranking.top] += weight
        return tuple(marginals)


def culture_from_entries(
    n: int, entries: Iterable[Tuple[Sequence[int], str]]
) -> Culture:
    """Build an explicit culture from (order, weight-string) pairs.

    Weight strings may be decimal ("0.25") or rational ("1/6"); both parse
    exactly.  Weights must sum to exactly 1.
    """
    built = tuple(
        (Ranking(order), parse_probability(weight))
        for order, weight in entries
    )
    return Culture(n, "explicit", built)


def culture_to_json_obj(culture: Culture) -> dict:
    """Serializable form: ``{"n": ..., "entries": [...]}`` for explicit
    cultures, plus a ``"kind"`` tag for the symbolic ones."""
    obj: dict = {"n": culture.n}
    if culture.kind != "explicit":
        obj["kind"] = culture.kind
    if culture.entries is not None:
        obj["entries"] = [
            {"ranking": list(r.order), "p": str(w)} for r, w in culture.entries
        ]
    return obj


def culture_from_json_obj(obj: dict) -> Culture:
    """Load a culture object: ``{"n": N, "entries": [...]}`` is explicit and
    ``{"n": N, "kind": K}`` is the named kind K.  A named kind may also list
    entries, as cyclic files once did; they must then be exactly its support
    at uniform weight."""
    if not isinstance(obj, dict) or "n" not in obj:
        raise ValueError("culture object must have an 'n' field")
    n = _exact_int(obj["n"], "culture 'n'")
    kind = obj.get("kind", "explicit")
    if kind != "explicit" and kind not in NAMED_KINDS:
        raise ValueError(f"unknown culture kind {kind!r}")
    raw = obj.get("entries")
    if raw is None:
        if kind == "explicit":
            raise ValueError("explicit culture object must have non-empty 'entries'")
        return Culture(n, kind)
    if not isinstance(raw, list):
        raise ValueError(f"culture 'entries' must be a list, got {raw!r}")
    entries = []
    for i, e in enumerate(raw):
        if not (isinstance(e, dict) and isinstance(e.get("ranking"), list) and "p" in e):
            raise ValueError(f"culture entry {i} needs a 'ranking' list and a 'p': {e!r}")
        try:
            entries.append((Ranking(e["ranking"]), parse_probability(e["p"])))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"culture entry {i} is invalid ({exc}): {e!r}") from exc
    if kind == "explicit":
        return Culture(n, "explicit", tuple(entries))
    named = Culture(n, kind)
    if len(entries) != named.support_size or set(entries) != set(named.expand().entries):
        raise ValueError(
            f"{kind} culture entries must be exactly its {named.support_size} "
            f"rankings, each of weight 1/{named.support_size}"
        )
    return named


def save_culture(culture: Culture, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(culture_to_json_obj(culture), fh, indent=2)
        fh.write("\n")


def load_culture(path: str) -> Culture:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid culture file {path}: {exc}") from exc
    return culture_from_json_obj(obj)


@dataclass(frozen=True)
class Profile:
    """The realized rankings of one election: 2k-1 voters over n alternatives."""

    voters: Tuple[Ranking, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "voters", tuple(self.voters))
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if len(self.voters) != 2 * self.k - 1:
            raise ValueError(
                f"profile has {len(self.voters)} voters, expected 2k-1 = {2 * self.k - 1}"
            )
        n = self.voters[0].n
        if any(v.n != n for v in self.voters):
            raise ValueError("all rankings in a profile must cover the same alternatives")

    @property
    def n(self) -> int:
        return self.voters[0].n

    @cached_property
    def positions(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-voter position arrays, computed once per profile."""
        return tuple(v.positions for v in self.voters)
