"""Classical Littlewood-Richardson and Kostka counts.

The Kostka count peels off the largest entries of a filling, which form
a horizontal strip, and recurses through its cache on the shape left
and the weight less its last part.  One walk of a skew shape nu/lam
gives every LR coefficient c^nu_{lam mu} at once: it places entries in
reverse reading order only where the filling stays semistandard and
its word stays a lattice word, and counts each filling under its
content.  `classical_lr` reads one content off it, and the oracle reads
them all.  The lattice test works on raw prefix counts, the strip test
is the module's own, and the module depends only on `partitions`, so
the cross-checks of the counting rule share no code with the rule's
lattice scan or horizontal test.  Both caches are bounded at
LR_CACHE_SIZE arguments, and the walk drops its self-reference on
return, so no call leaves a reference cycle behind.
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
    return dict(_skew(lam, nu)).get(mu, 0)


LR_CACHE_SIZE = 4096


@lru_cache(maxsize=LR_CACHE_SIZE)
def _skew(lam, nu) -> tuple:
    """((mu, c^nu_{lam mu}), ...) over the contents mu with a nonzero
    coefficient, for partition tuples lam inside nu.

    Walks the cells of nu/lam row by row from the top, each row right to
    left, and puts v in cell (i, j) (row i counted from 1) only if v is
    at most the entry to its right, greater than the entry above it,
    v <= i, and v = 1 or fewer v's than (v - 1)'s are placed.  The last
    keeps the word read so far a lattice word, so each completed walk is
    one filling, counted under its content.  The result is a tuple, as
    the cache hands the same value to every caller."""
    cells = [(i, j) for i in range(len(nu))
             for j in range(nu[i] - 1, part(lam, i + 1) - 1, -1)]
    count = [0] * (len(nu) + 1)  # count[v] for v >= 1; count[0] is unused
    grid: dict[tuple[int, int], int] = {}
    out: dict[tuple[int, ...], int] = {}

    def walk(pos):
        if pos == len(cells):
            # a lattice word's counts do not increase with v
            mu = tuple(x for x in count[1:] if x)
            out[mu] = out.get(mu, 0) + 1
            return
        i, j = cells[pos]
        # cells right of and above (i, j) come earlier in the walk, so a
        # skew cell there already holds its entry
        top = grid[(i, j + 1)] if j + 1 < nu[i] else i + 1
        low = grid[(i - 1, j)] + 1 if i and j >= part(lam, i) else 1
        for v in range(low, top + 1):
            placed = count[v]
            if v == 1 or placed < count[v - 1]:
                count[v] = placed + 1
                grid[(i, j)] = v
                walk(pos + 1)
                count[v] = placed

    walk(0)
    del walk  # walk refers to itself through its closure
    return tuple(out.items())


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
