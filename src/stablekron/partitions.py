"""Integer partitions, compositions, and related predicates.

Partitions are plain tuples of weakly decreasing positive integers;
trailing zeros are stripped on construction and every indexing formula
reads absent parts as 0.
"""

from __future__ import annotations

from functools import lru_cache
from operator import le


class NotAPartition(ValueError):
    """Raised when a sequence fails to be a valid partition."""


class Undefined(ValueError):
    """Raised when minmax is requested for two partitions of length <= 1."""


def partition(parts) -> tuple[int, ...]:
    """`parts` as a composition with positive, weakly decreasing parts."""
    p = composition(parts)
    if 0 in p:
        raise NotAPartition(f"{parts!r} has a non-positive part")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise NotAPartition(f"{parts!r} is not weakly decreasing")
    return p


def composition(parts) -> tuple[int, ...]:
    """Normalize `parts` to a composition tuple (strip trailing zeros only)."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    if any(x < 0 for x in p):
        raise NotAPartition(f"{parts!r} has a negative part")
    return p


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse the textual syntax: `6,2` or `[6,2]`; empty is `0` or `[]`."""
    t = text.strip()
    if t.startswith("[") and t.endswith("]"):
        t = t[1:-1].strip()
    if t in ("", "0"):
        return ()
    try:
        parts = [int(x) for x in t.split(",")]
    except ValueError:
        raise NotAPartition(f"cannot parse partition from {text!r}")
    return partition(parts)


def format_partition(lam) -> str:
    return "0" if not lam else ",".join(str(x) for x in lam)


def part(lam, i: int) -> int:
    """The i-th part (1-indexed); 0 outside the stored range."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def size(lam) -> int:
    return sum(lam)


def partial_sum(lam, a: int) -> int:
    """Sum of the first a parts; 0 at a = 0, saturating at |lam|."""
    if a < 0:
        raise ValueError("index must be non-negative")
    return sum(lam[: min(a, len(lam))])


def contains(inner, outer) -> bool:
    """Row-wise containment inner ⊆ outer (no partition has a zero row)."""
    return len(inner) <= len(outer) and all(map(le, inner, outer))


def skew_diff_sizes(lam, nu) -> tuple[int, int]:
    """Sizes of lam minus (lam ∩ nu) and nu minus (lam ∩ nu)."""
    inter = sum(map(min, lam, nu))
    return (size(lam) - inter, size(nu) - inter)


def in_bounds(lam, nu, s: int) -> bool:
    """True iff max(skew_diff_sizes(lam, nu)) <= s <= |lam| + |nu|, the
    range of s outside which the stable coefficient is 0."""
    return max(skew_diff_sizes(lam, nu)) <= s <= size(lam) + size(nu)


def minmax(lam, nu) -> int:
    """min over rows i >= 2 of min(lam_{i-1}, nu_{i-1}) - max(lam_i, nu_i)."""
    top = max(len(lam), len(nu))
    if top < 2:
        raise Undefined("minmax needs a partition of length >= 2")
    return min(
        min(part(lam, i - 1), part(nu, i - 1)) - max(part(lam, i), part(nu, i))
        for i in range(2, top + 1)
    )


def is_copieri(lam, nu, s: int) -> bool:
    """The co-Pieri condition on the triple (lam, nu, s)."""
    if s < 0:
        raise ValueError("s must be non-negative")
    if s == 1:
        return True
    if s <= 0:
        return False
    if max(len(lam), len(nu)) < 2:
        return True
    a, b = skew_diff_sizes(lam, nu)
    return s <= max(a, b) + minmax(lam, nu)


def is_maximal_depth(lam, nu, s: int) -> bool:
    """True iff lam ⊆ nu and |nu| = |lam| + s."""
    return contains(lam, nu) and size(nu) == size(lam) + s


def radical_empty(lam, nu, s: int) -> bool:
    """True iff |nu| = |lam| + s, as at maximal depth.  A step changes
    the size by -1, 0 or +1, so then every step of a path from lam to nu
    in s steps is (0, j) with j >= 1, and no such path is in the Dvir
    radical."""
    return size(nu) == size(lam) + s


def regime(lam, nu, s: int):
    """How the counting rule treats the triple (lam, nu, s), tested in
    this order: "out of range" unless in_bounds (the coefficient is 0),
    then "maximal depth", then "co-Pieri"; None when neither rule
    covers it.  A triple of maximal depth may also be co-Pieri."""
    if not in_bounds(lam, nu, s):
        return "out of range"
    if is_maximal_depth(lam, nu, s):
        return "maximal depth"
    if is_copieri(lam, nu, s):
        return "co-Pieri"
    return None


PARTITIONS_CACHE_SIZE = 64


@lru_cache(maxsize=PARTITIONS_CACHE_SIZE)
def partitions_of(k: int, max_len=None) -> tuple[tuple[int, ...], ...]:
    """All partitions of k (optionally length-bounded), reverse
    lexicographic.  The tuple is shared: an LRU cache keeps the last
    PARTITIONS_CACHE_SIZE (k, max_len) enumerations."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out: list[tuple[int, ...]] = []

    def rec(rem, largest, prefix):
        if rem == 0:
            out.append(tuple(prefix))
            return
        if max_len is not None and len(prefix) >= max_len:
            return
        for p in range(min(rem, largest), 0, -1):
            prefix.append(p)
            rec(rem - p, p, prefix)
            prefix.pop()

    rec(k, k, [])
    del rec  # rec refers to itself through its closure
    return tuple(out)


def partitions_up_to(k: int) -> list[tuple[int, ...]]:
    """All partitions of 0, 1, ..., k, smaller sizes first."""
    out = []
    for m in range(k + 1):
        out.extend(partitions_of(m))
    return out
