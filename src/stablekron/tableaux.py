"""Semistandard classes of Kronecker tableaux and the counting rules.

A weight composition mu cuts a path of s steps into frames (steps
1..mu_1, then the next mu_2 steps, and so on).  Standard tableaux are
grouped into classes under swaps of adjacent steps inside a frame; a
class is semistandard when the skews between consecutive frame-boundary
shapes are horizontal, and counted when its reading word's frame row is
a lattice permutation.  The same module hosts the classical
Littlewood-Richardson and Kostka counts and the raising/lowering
machinery on words that decomposes semistandard counts into lattice
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .partitions import (
    composition, contains, intersect, is_copieri, is_horizontal,
    is_maximal_depth, part, partial_sum, partition, partitions_of, size,
    skew_diff_sizes,
)
from .branching import Tableau, enumerate_std0, step_key, swap_adjacent


class NotApplicable(Exception):
    """The triple is neither co-Pieri nor of maximal depth."""


class ShapeMismatch(ValueError):
    """Incompatible shapes/sizes for a Littlewood-Richardson count."""


@dataclass(frozen=True)
class SemistandardClass:
    """An equivalence class of standard tableaux under frame-local swaps."""

    weight: tuple[int, ...]
    members: tuple[Tableau, ...]

    @property
    def start(self):
        return self.members[0].start

    @property
    def end(self):
        return self.members[0].end

    def boundary_shapes(self):
        """The common shapes at the frame boundaries [mu]_0, [mu]_1, ..."""
        rep = self.members[0]
        bounds = [partial_sum(self.weight, c)
                  for c in range(len(self.weight) + 1)]
        return tuple(rep.shapes[b] for b in bounds)

    def __len__(self):
        return len(self.members)


def frame_of(mu, k: int) -> int:
    """The frame (1-indexed) containing step k under weight mu."""
    total = 0
    for c, m in enumerate(mu, start=1):
        total += m
        if k <= total:
            return c
    raise IndexError(f"step {k} beyond weight {mu}")


def mu_classes(lam, nu, mu) -> list[SemistandardClass]:
    """Partition the non-radical standard tableaux into classes connected
    by swaps at positions interior to the frames of mu."""
    mu = composition(mu)
    return _form_classes(enumerate_std0(lam, nu, size(mu)), mu)


def _form_classes(std0, mu) -> list[SemistandardClass]:
    """The weight-mu classes of the path list std0 (all of one length),
    in order of their first member."""
    s = size(mu)
    index = {t: i for i, t in enumerate(std0)}
    boundaries = {partial_sum(mu, c) for c in range(1, len(mu))}
    allowed = [k for k in range(1, s) if k not in boundaries]

    seen = set()
    classes = []
    for t in std0:
        if t in seen:
            continue
        comp = {t}
        queue = [t]
        while queue:
            cur = queue.pop()
            for k in allowed:
                other = swap_adjacent(cur, k)
                if other is not None and other in index and other not in comp:
                    comp.add(other)
                    queue.append(other)
        seen |= comp
        members = tuple(sorted(comp, key=index.__getitem__))
        classes.append(SemistandardClass(mu, members))
    return classes


def is_semistandard(cls: SemistandardClass) -> bool:
    """True iff every pair of consecutive frame-boundary shapes has both
    one-sided skews (relative to their intersection) horizontal."""
    shapes = cls.boundary_shapes()
    for prev, cur in zip(shapes, shapes[1:]):
        inter = intersect(prev, cur)
        if not is_horizontal(cur, inter) or not is_horizontal(prev, inter):
            return False
    return True


def reading_word(cls: SemistandardClass):
    """The 2 x s array (steps, frames): columns sorted by the step order,
    ties broken by frame descending.  Class-invariant."""
    rep = cls.members[0]
    cols = [(st, frame_of(cls.weight, k))
            for k, st in enumerate(rep.steps, start=1)]
    cols.sort(key=lambda col: (step_key(col[0]), -col[1]))
    return tuple(c[0] for c in cols), tuple(c[1] for c in cols)


def good_mask(word) -> list[bool]:
    """Left-to-right good/bad scan: all 1's are good; an i+1 is good iff
    the number of good i's so far exceeds the number of good (i+1)'s."""
    good_counts: dict[int, int] = {}
    mask = []
    for x in word:
        g = x == 1 or good_counts.get(x - 1, 0) > good_counts.get(x, 0)
        mask.append(g)
        if g:
            good_counts[x] = good_counts.get(x, 0) + 1
    return mask


def is_lattice(word) -> bool:
    """True iff every term of the word is good."""
    return all(good_mask(word))


def count_sstd(lam, nu, mu) -> int:
    """Number of semistandard classes of weight mu."""
    return sum(1 for c in mu_classes(lam, nu, mu) if is_semistandard(c))


def count_latticed(lam, nu, mu) -> int:
    """Number of semistandard classes whose frame row is a lattice word."""
    return _tally(mu_classes(lam, nu, partition(mu)))[1]


def class_counts(lam, nu, s: int) -> dict:
    """{mu: (count_sstd(lam, nu, mu), count_latticed(lam, nu, mu))} for
    every partition mu of s, from one enumeration of the non-radical
    paths of (lam, nu, s) shared by all the weights."""
    std0 = enumerate_std0(lam, nu, s)
    return {mu: _tally(_form_classes(std0, mu)) for mu in partitions_of(s)}


def _tally(classes) -> tuple[int, int]:
    """(semistandard classes, of which latticed) among classes."""
    sstd = latt = 0
    for c in classes:
        if is_semistandard(c):
            sstd += 1
            latt += is_lattice(reading_word(c)[1])
    return sstd, latt


def stable_kronecker(lam, nu, mu) -> int:
    """The stable Kronecker coefficient of (lam, nu, mu) by counting
    latticed semistandard classes; only valid for co-Pieri or
    maximal-depth triples."""
    lam = partition(lam)
    nu = partition(nu)
    mu = partition(mu)
    s = size(mu)
    if not (is_maximal_depth(lam, nu, s) or is_copieri(lam, nu, s)):
        raise NotApplicable(f"({lam}, {nu}, s={s}) is neither co-Pieri "
                            "nor of maximal depth")
    a, b = skew_diff_sizes(lam, nu)
    if not max(a, b) <= s <= size(lam) + size(nu):
        return 0
    return count_latticed(lam, nu, mu)


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
    return sum(1 for f in _skew_ssyt(nu, lam, mu)
               if is_lattice(_reverse_reading_word(f)))


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


# ---------------------------------------------------------------------------
# Pairs of partitions, the raising tree, and the word-level moves.


@dataclass
class PairNode:
    """A vertex of the raising tree: a pair (sharp, full) of equal-length
    row sequences with sharp row-wise <= full, or the dead vertex (None)."""

    sharp: tuple[int, ...] | None
    full: tuple[int, ...] | None
    op: tuple | None  # edge operator from the parent: ("a"|"r", row, count)
    children: list

    @property
    def dead(self) -> bool:
        return self.sharp is None

    @property
    def terminal(self) -> bool:
        return not self.dead and self.sharp == self.full


def _james_children(sharp, full):
    """The branching row c (> 1, minimal with sharp_c < full_c) and the
    two child labels, or None if the vertex is terminal."""
    length = len(full)
    c = next((i for i in range(2, length + 1)
              if sharp[i - 1] < full[i - 1]), None)
    if c is None:
        return None
    k = full[c - 1] - sharp[c - 1]
    # lowering child: move the deficit from row c of full up to row c-1
    lowered = list(full)
    lowered[c - 2] += k
    lowered[c - 1] -= k
    low_sharp = list(sharp)
    low_sharp[0] = lowered[0]
    # raising child: one more required good c
    raised = list(sharp)
    raised[c - 1] += 1
    ok = all(raised[i] >= raised[i + 1] for i in range(length - 1))
    return (c, k,
            (tuple(low_sharp), tuple(lowered)),
            (tuple(raised), tuple(full)) if ok else None)


def james_tree(mu) -> PairNode:
    """The full raising tree of mu, rooted at ((mu_1), mu)."""
    mu = partition(mu)
    length = max(len(mu), 1)
    full = tuple(part(mu, i) for i in range(1, length + 1))
    sharp = (full[0],) + (0,) * (length - 1)

    def build(sharp, full, op):
        node = PairNode(sharp, full, op, [])
        branch = _james_children(sharp, full)
        if branch is None:
            return node
        c, k, low, high = branch
        node.children.append(build(low[0], low[1], ("r", c, k)))
        if high is None:
            node.children.append(PairNode(None, None, ("a", c, 1), []))
        else:
            node.children.append(build(high[0], high[1], ("a", c, 1)))
        return node

    return build(sharp, full, None)


def james_terminals(mu):
    """Terminal vertices of the raising tree as (tau, ops) pairs, where
    ops is the root-to-leaf sequence of edge operators."""
    out = []

    def walk(node, ops):
        if node.dead:
            return
        if node.terminal:
            out.append((partition(node.full), tuple(ops)))
            return
        for child in node.children:
            walk(child, ops + [child.op])

    walk(james_tree(mu), [])
    return out


def r_map(word, c: int):
    """Change every bad c in the word into c - 1."""
    if c < 2:
        raise ValueError("c must be at least 2")
    mask = good_mask(word)
    return tuple(x - 1 if x == c and not g else x
                 for x, g in zip(word, mask))


def _good_counts(word):
    counts: dict[int, int] = {}
    for x, g in zip(word, good_mask(word)):
        if g:
            counts[x] = counts.get(x, 0) + 1
    return counts


def in_james_set(word, sharp) -> bool:
    """True iff the word has at least sharp_i good i's for every i."""
    counts = _good_counts(word)
    return all(counts.get(i, 0) >= sharp[i - 1] for i in range(1, len(sharp) + 1))


def r_map_inverse(word, c: int, sharp, k: int = 1):
    """The unique preimage of `word` under r_map(., c) raising k entries
    c-1 -> c, restricted to words with at least sharp_i good i's for all
    i but no good c beyond sharp_c."""
    if c < 2:
        raise ValueError("c must be at least 2")
    sharp_c = sharp[c - 1] if c <= len(sharp) else 0
    positions = [i for i, x in enumerate(word) if x == c - 1]
    found = []
    for combo in combinations(positions, k):
        cand = list(word)
        for i in combo:
            cand[i] = c
        cand = tuple(cand)
        if (in_james_set(cand, sharp)
                and _good_counts(cand).get(c, 0) == sharp_c
                and r_map(cand, c) == tuple(word)):
            found.append(cand)
    if len(found) != 1:
        raise ValueError(f"expected a unique preimage of {word} raising "
                         f"{k} entries to {c}, found {found}")
    return found[0]
