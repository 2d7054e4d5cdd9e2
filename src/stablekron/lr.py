"""Classical Littlewood-Richardson and Kostka counts.

The Kostka count peels off the largest entries of a filling, which form
a horizontal strip, and recurses through its cache on the shape left
and the weight less its last part.  The Littlewood-Richardson count
walks the cells of the skew shape in reverse reading order and places
an entry only where the filling stays semistandard and the word read so
far stays a lattice word, so it visits no filling that fails the
lattice condition.  Its lattice test works on raw prefix counts, as in
the definition, its strip test is its own, and the module depends only
on `partitions`, so the cross-checks of the counting rule against these
numbers share no code with the rule's own lattice scan or horizontal
test.  Both counts are memoized in LRU caches bounded at LR_CACHE_SIZE
arguments each.  The LR walk drops its self-reference on return, so no
call leaves a reference cycle behind.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .partitions import composition, contains, part, partition, size


class ShapeMismatch(ValueError):
    """Incompatible shapes/sizes for a Littlewood-Richardson count."""


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
    """`ssyt_count` on a partition tau and a composition mu of equal
    size.  The entries len(mu) of a filling form a horizontal strip
    tau/sigma of mu[-1] cells, tau_(i+1) <= sigma_i <= tau_i, and the
    rest is a filling of sigma of weight mu[:-1]."""
    if not mu:
        return 1
    rest = size(tau) - mu[-1]
    rows = [range(part(tau, i + 2), tau[i] + 1) for i in range(len(tau))]
    return sum(_ssyt_count(tuple(x for x in sigma if x), mu[:-1])
               for sigma in product(*rows) if sum(sigma) == rest)
