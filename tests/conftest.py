"""Shared brute-force reference implementations for the test suite.

Everything here is deliberately independent of the package internals:
alternative definitions used to cross-check the library code.
"""

from stablekron.partitions import part


def prefix_lattice(word) -> bool:
    """Lattice-permutation test by raw prefix counts: every prefix must
    contain at least as many i's as (i+1)'s, for every i."""
    counts = {}
    for x in word:
        if x < 1:
            return False
        counts[x] = counts.get(x, 0) + 1
        if x > 1 and counts[x] > counts.get(x - 1, 0):
            return False
    return True


def skew_cells(outer, inner):
    """The (row, col) cells of outer/inner, 0-indexed."""
    return [(i, j) for i in range(len(outer))
            for j in range(part(inner, i + 1), outer[i])]


def brute_skew_syt_count(outer, inner) -> int:
    """Standard fillings of a skew shape counted by direct enumeration:
    entries 1..m, increasing along rows and down columns."""
    cells = skew_cells(outer, inner)
    m = len(cells)
    count = 0

    cell_set = set(cells)

    def rec(pos, filled):
        nonlocal count
        if pos == m:
            count += 1
            return
        for cell in cells:
            if cell in filled:
                continue
            i, j = cell
            left_ok = (i, j - 1) in filled or (i, j - 1) not in cell_set
            up_ok = (i - 1, j) in filled or (i - 1, j) not in cell_set
            if left_ok and up_ok:
                rec(pos + 1, filled | {cell})

    rec(0, frozenset())
    return count
