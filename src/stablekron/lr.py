"""Classical Littlewood-Richardson and Kostka counts.

The Kostka count enumerates semistandard fillings of a shape directly.
The Littlewood-Richardson count walks the cells of the skew shape in
reverse reading order and places an entry only where the filling stays
semistandard and the word read so far stays a lattice word, so it
visits no filling that fails the lattice condition.  Its lattice test
works on raw prefix counts, as in the definition, and the module
depends only on `partitions`, so the maximal-depth cross-check of the
counting rule against these numbers shares no code with the rule's own
lattice scan.  Both counts are memoized in LRU caches bounded at
LR_CACHE_SIZE arguments each.  The recursive walks drop their
self-references on return, so no call leaves a reference cycle behind.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import composition, contains, part, partition, size


class ShapeMismatch(ValueError):
    """Incompatible shapes/sizes for a Littlewood-Richardson count."""


def _skew_ssyt(outer, inner, weight):
    """Yield all semistandard fillings of outer/inner with the given
    weight: rows weakly increase, columns strictly increase.  Each
    filling is a tuple of row tuples (skew cells only)."""
    outer = partition(outer)
    inner = partition(inner)
    if not contains(inner, outer):
        raise ShapeMismatch(f"{inner} not contained in {outer}")
    cells = [(i, j) for i in range(len(outer))
             for j in range(part(inner, i + 1), outer[i])]
    remaining = list(weight)
    if sum(remaining) != len(cells):
        return
    grid = {}

    def rec(pos):
        if pos == len(cells):
            rows = []
            for i in range(len(outer)):
                rows.append(tuple(grid[(i, j)]
                                  for j in range(part(inner, i + 1), outer[i])))
            yield tuple(rows)
            return
        i, j = cells[pos]
        left = grid.get((i, j - 1), 1)
        above = grid.get((i - 1, j), 0)
        for v in range(max(left, above + 1), len(remaining) + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            grid[(i, j)] = v
            yield from rec(pos + 1)
            del grid[(i, j)]
            remaining[v - 1] += 1

    try:
        yield from rec(0)
    finally:
        del rec  # rec refers to itself through its closure


def classical_lr(lam, nu, mu) -> int:
    """Littlewood-Richardson coefficient: semistandard fillings of
    nu/lam of weight mu whose reverse reading word is a lattice word."""
    lam = partition(lam)
    nu = partition(nu)
    mu = partition(mu)
    if not contains(lam, nu) or size(nu) != size(lam) + size(mu):
        raise ShapeMismatch(f"need {lam} inside {nu} with size gap {size(mu)}")
    return _classical_lr(lam, nu, mu)


LR_CACHE_SIZE = 4096


@lru_cache(maxsize=LR_CACHE_SIZE)
def _classical_lr(lam, nu, mu) -> int:
    """`classical_lr` on partition tuples already known to satisfy its
    checks: lam inside nu and |nu| = |lam| + |mu|.

    Walks the cells of nu/lam row by row from the top, each row right to
    left, and puts v in cell (i, j) (row i counted from 1) only if v is
    at most the entry to its right, greater than the entry above it,
    v <= i, fewer than mu_v v's are placed, and v = 1 or fewer v's than
    (v - 1)'s are placed.  The last two keep the word read so far a
    lattice word of content at most mu; each completed walk is one
    filling of content exactly mu, since the sizes agree."""
    cells = [(i, j) for i in range(len(nu))
             for j in range(nu[i] - 1, part(lam, i + 1) - 1, -1)]
    count = [0] * (len(mu) + 1)  # count[v] for v >= 1; count[0] is unused
    grid: dict[tuple[int, int], int] = {}

    def walk(pos):
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        # cells right of and above (i, j) come earlier in the walk, so a
        # skew cell there already holds its entry
        top = min(i + 1, len(mu))
        if j + 1 < nu[i]:
            top = min(top, grid[(i, j + 1)])
        low = grid[(i - 1, j)] + 1 if i and j >= part(lam, i) else 1
        leaves = 0
        for v in range(low, top + 1):
            placed = count[v]
            if placed < mu[v - 1] and (v == 1 or placed < count[v - 1]):
                count[v] = placed + 1
                grid[(i, j)] = v
                leaves += walk(pos + 1)
                count[v] = placed
        return leaves

    leaves = walk(0)
    del walk  # walk refers to itself through its closure
    return leaves


def ssyt_count(tau, mu) -> int:
    """Kostka number: semistandard fillings of tau with weight mu."""
    tau = partition(tau)
    mu = composition(mu)
    if size(tau) != size(mu):
        return 0
    return _ssyt_count(tau, mu)


@lru_cache(maxsize=LR_CACHE_SIZE)
def _ssyt_count(tau, mu) -> int:
    return sum(1 for _ in _skew_ssyt(tau, (), mu))
