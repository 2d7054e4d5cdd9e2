"""Classical Littlewood-Richardson and Kostka counts.

Both count semistandard fillings of a (skew) shape by direct
enumeration; the Littlewood-Richardson count keeps the fillings whose
reverse reading word is a lattice word.  The lattice test here works on
raw prefix counts, as in the definition, and the module depends only on
`partitions`, so the maximal-depth cross-check of the counting rule
against these numbers shares no code with the rule's own lattice scan.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import composition, contains, part, partition, size


class ShapeMismatch(ValueError):
    """Incompatible shapes/sizes for a Littlewood-Richardson count."""


def is_lattice_word(word) -> bool:
    """True iff every prefix of the word has at least as many i's as
    (i+1)'s, for every i >= 1."""
    counts: dict[int, int] = {}
    for x in word:
        counts[x] = counts.get(x, 0) + 1
        if x > 1 and counts[x] > counts.get(x - 1, 0):
            return False
    return True


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

    yield from rec(0)


def _reverse_reading_word(filling):
    """Entries read right-to-left along successive rows, top to bottom."""
    word = []
    for row in filling:
        word.extend(reversed(row))
    return word


def classical_lr(lam, nu, mu) -> int:
    """Littlewood-Richardson coefficient: semistandard fillings of
    nu/lam of weight mu whose reverse reading word is a lattice word."""
    lam = partition(lam)
    nu = partition(nu)
    mu = partition(mu)
    if not contains(lam, nu) or size(nu) != size(lam) + size(mu):
        raise ShapeMismatch(f"need {lam} inside {nu} with size gap {size(mu)}")
    return _classical_lr(lam, nu, mu)


@lru_cache(maxsize=None)
def _classical_lr(lam, nu, mu) -> int:
    """`classical_lr` on partition tuples already known to satisfy its
    checks: lam inside nu and |nu| = |lam| + |mu|."""
    return sum(1 for f in _skew_ssyt(nu, lam, mu)
               if is_lattice_word(_reverse_reading_word(f)))


def ssyt_count(tau, mu) -> int:
    """Kostka number: semistandard fillings of tau with weight mu."""
    tau = partition(tau)
    mu = composition(mu)
    if size(tau) != size(mu):
        return 0
    return _ssyt_count(tau, mu)


@lru_cache(maxsize=None)
def _ssyt_count(tau, mu) -> int:
    return sum(1 for _ in _skew_ssyt(tau, (), mu))
