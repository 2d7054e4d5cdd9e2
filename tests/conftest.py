"""Shared helpers and brute-force reference implementations for the
test suite.

Everything here but the memo helpers is deliberately independent of the
package internals: partition helpers that only the tests use, and
alternative definitions used to cross-check the library code.
"""

import importlib
import pkgutil

import stablekron
from stablekron.partitions import NotAPartition, contains, part, partition, size


def memos() -> set:
    """Every LRU-cached callable of the stablekron modules, found by its
    cache_info."""
    modules = [importlib.import_module(f"stablekron.{info.name}")
               for info in pkgutil.iter_modules(stablekron.__path__)]
    return {value for module in modules for value in vars(module).values()
            if callable(getattr(value, "cache_info", None))}


def clear_memos() -> None:
    """Empty every memo of the package, so the next call runs cold."""
    for memo in memos():
        memo.cache_clear()


def suffix_memo_key(args):
    """The suffix memo a call of the path walk's _suffixes is passed (its
    one dict argument) and the call's key in it (the arguments before
    the memo), read from the call's arguments alone."""
    tails = next(arg for arg in args if type(arg) is dict)
    return tails, args[:args.index(tails)]


def pad(lam, n: int) -> tuple[int, ...]:
    """Prepend a first row of n - |lam| boxes; must yield a partition."""
    first = n - size(lam)
    if lam and first < lam[0]:
        raise NotAPartition(f"cannot pad {lam} to size {n}")
    if first < 0:
        raise NotAPartition(f"cannot pad {lam} to size {n}")
    return (first,) + tuple(lam) if first > 0 else partition(lam)


def intersect(lam, nu) -> tuple[int, ...]:
    """Pointwise minimum."""
    return partition(min(part(lam, i), part(nu, i))
                     for i in range(1, min(len(lam), len(nu)) + 1))


def is_horizontal(outer, inner) -> bool:
    """True iff no column of the skew shape outer/inner has two boxes."""
    outer = partition(outer)
    inner = partition(inner)
    if not contains(inner, outer):
        raise NotAPartition(f"{inner} is not contained in {outer}")
    for i in range(2, len(outer) + 1):
        if part(outer, i) > part(inner, i) and part(outer, i) > part(inner, i - 1):
            return False
    return True


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
