"""Exact arithmetic in the partition algebra on r strands.

A diagram is a set-partition of 2r points (southern row coded 1..r,
northern row r+1..2r, printed with a trailing apostrophe).  The product
stacks the left factor over the right, identifies the middle row, and
multiplies by n for every component left entirely in the middle.
An algebra element maps each pair (diagram d, power e) to the nonzero
integer coefficient of n^e·d, so every identity checked here holds for
all n simultaneously.

A diagram is the tuple of its labels: the block number of each point
1..2r in turn, blocks numbered from 0 in order of their least point, so
equal set-partitions are equal tuples and the rank r is half the length.
A product is one union-find over the block labels of its two factors.
On the right, a transposition s_k only transposes the labels of
southern points k and k+1 (Element.times_s).  The factors of the
branching coefficients are single diagrams in closed form: e_int cuts
strands into singletons, e_half merges strands into one block and
s_range is a cycle of strands.  A path of r steps from the empty
partition fixes its Murphy element: the rank r and every shape its
branching coefficients read.  Two LRU caches bounded at
MURPHY_CACHE_SIZE hold its level products, keyed by (shape, step,
level, rank), and its partial products, keyed by (step prefix, rank);
murphy_u returns a fresh copy of the cached element.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .branching import (
    Tableau, _apply, add_box, error_path, is_dvir, remove_box, swap_adjacent,
)
from .partitions import part, partial_sum, partition, size


class RankMismatch(ValueError):
    pass


class SwapUndefined(ValueError):
    pass


class NotDvir(ValueError):
    pass


# -- diagrams ----------------------------------------------------------------


def _first_seen(labels) -> list[int]:
    """Renumber labels 0, 1, ... in order of first appearance."""
    names = {}
    return [names.setdefault(c, len(names)) for c in labels]


class Diagram(tuple):
    """A set-partition of {1..r} (southern) and {r+1..2r} (northern):
    the tuple of each point's block label in canonical numbering.  A
    diagram compares and hashes equal to the plain tuple of its labels;
    Element.terms keys hold only diagrams, so none meets a plain tuple."""

    __slots__ = ()

    def __new__(cls, r: int, blocks):
        blocks = [tuple(b) for b in blocks]
        seen = sorted(c for b in blocks for c in b)
        if seen != list(range(1, 2 * r + 1)) or not all(blocks):
            raise ValueError(f"blocks {blocks!r} do not partition 2r={2*r} points")
        labels = [0] * (2 * r)
        for i, b in enumerate(blocks):
            for c in b:
                labels[c - 1] = i
        return tuple.__new__(cls, _first_seen(labels))

    @property
    def r(self) -> int:
        return len(self) >> 1

    @classmethod
    def identity(cls, r: int) -> "Diagram":
        return cls(r, [(k, r + k) for k in range(1, r + 1)])

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as sorted point tuples, ordered by least point."""
        out: list[list[int]] = [[] for _ in range(max(self, default=-1) + 1)]
        for pt, c in enumerate(self, start=1):
            out[c].append(pt)
        return tuple(map(tuple, out))

    def __str__(self):
        parts = []
        for b in self.blocks:
            pts = [str(c) if c <= self.r else f"{c - self.r}'" for c in b]
            parts.append("{" + ",".join(pts) + "}")
        return "".join(parts)

    def __repr__(self):
        return f"Diagram({self.r}, {self})"


def multiply(x: Diagram, y: Diagram) -> tuple[Diagram, int]:
    """Concatenate x over y; return the reduced diagram and the number
    of components removed from the middle row.

    A union-find over the block labels, y's first and x's after them,
    joins y's northern point m with x's southern point m; each label
    points at its component, and a merge repoints the members of one.
    The outer points, y's southern then x's northern, are renumbered by
    _first_seen, so the components they reach number the largest new
    label plus one.  Each merge leaves one component fewer, so the
    components that no outer point reaches, the loops, number the labels
    less the merges less the components the outer points reach."""
    if len(x) != len(y):
        raise RankMismatch(f"ranks {x.r} and {y.r} differ")
    r = len(x) >> 1
    shift = max(y, default=-1) + 1
    comp = list(range(shift + max(x, default=-1) + 1))
    members = [[c] for c in comp]
    merges = 0
    for m in range(r):
        a, b = comp[y[r + m]], comp[x[m] + shift]
        if a != b:
            for c in members[b]:
                comp[c] = a
            members[a] += members[b]
            merges += 1
    labels = _first_seen([comp[c] for c in y[:r]]
                         + [comp[c + shift] for c in x[r:]])
    loops = len(comp) - merges - (max(labels, default=-1) + 1)
    return tuple.__new__(Diagram, labels), loops


class Element:
    """A finite integer combination of the terms n^e·d, for diagrams d of
    one rank, stored as {(d, e): coefficient}.  Elements add, subtract,
    negate and multiply only with Elements of the same rank."""

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms=None):
        self.r = r
        self.terms = {de: c for de, c in (terms or {}).items() if c}

    @classmethod
    def from_diagram(cls, d: Diagram) -> "Element":
        return cls(d.r, {(d, 0): 1})

    @classmethod
    def one(cls, r: int) -> "Element":
        return cls.from_diagram(Diagram.identity(r))

    def _check(self, other):
        if self.r != other.r:
            raise RankMismatch(f"ranks {self.r} and {other.r} differ")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for de, c in other.terms.items():
            terms[de] = terms.get(de, 0) + c
        return Element(self.r, terms)

    def __neg__(self):
        return Element(self.r, {de: -c for de, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        terms: dict[tuple[Diagram, int], int] = {}
        for (d1, e1), c1 in self.terms.items():
            for (d2, e2), c2 in other.terms.items():
                prod, loops = multiply(d1, d2)
                key = prod, e1 + e2 + loops
                terms[key] = terms.get(key, 0) + c1 * c2
        return Element(self.r, terms)

    def times_s(self, k: int) -> "Element":
        """self * s_k.  On the right, s_k only swaps southern points k
        and k+1: each diagram's labels at those points trade places and
        are renumbered, the power of n and the coefficient stay, and no
        loop closes.  The map is a bijection, so no two terms meet."""
        if not 1 <= k <= self.r - 1:
            raise IndexError(f"s_{k} needs 1 <= k <= r-1={self.r - 1}")
        terms = {}
        for (d, e), c in self.terms.items():
            labels = list(d)
            labels[k - 1], labels[k] = labels[k], labels[k - 1]
            terms[tuple.__new__(Diagram, _first_seen(labels)), e] = c
        return Element(self.r, terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.r == other.r and self.terms == other.terms

    def __repr__(self):
        return f"Element({self.r}, {len(self.terms)} terms)"


# -- Murphy-basis building blocks -------------------------------------------

def _strands_outside(lo: int, hi: int, r: int) -> list:
    """The identity strands (j, r+j) outside lo..hi, a range of strands
    that must lie in 1..r."""
    if not 1 <= lo <= hi <= r:
        raise IndexError(f"strands {lo}..{hi} are not within 1..{r}")
    return [(j, r + j) for j in range(1, r + 1) if not lo <= j <= hi]


def e_int(k: int, l: int, r: int) -> Diagram:
    """p_(k-l+1) ... p_k: the identity strands, except that strands
    k-l+1..k are each cut into {j} and {r+j}."""
    if k == 0 or l == 0:
        return Diagram.identity(r)
    lo = k - l + 1
    if l < 0 or lo < 1:
        raise ValueError(f"e_{k}^({l}) is not defined")
    cut = [(c,) for j in range(lo, k + 1) for c in (j, r + j)]
    return Diagram(r, _strands_outside(lo, k, r) + cut)


def e_half(k: int, l: int, r: int) -> Diagram:
    """p_(k-l+3/2) ... p_(k+1/2): the identity strands, except that
    strands k-l+1..k+1 share one block with their northern points."""
    if k == 0 or l == 0:
        return Diagram.identity(r)
    lo = k - l + 1
    if l < 0 or lo < 1:
        raise ValueError(f"e_(k+1/2)^({l}) is not defined for k={k}")
    merged = [c for j in range(lo, k + 2) for c in (j, r + j)]
    return Diagram(r, _strands_outside(lo, k + 1, r) + [merged])


def s_range(l: int, k: int, r: int) -> Diagram:
    """The chain s_l s_(l+1) ... s_(k-1): the cycle taking southern point
    j to northern point j+1 for l <= j < k and k to l; when k < l, the
    inverse cycle s_(l-1) ... s_k.  It is the identity if l or k is 0."""
    if l == 0 or k == 0 or l == k:
        return Diagram.identity(r)
    step = 1 if l < k else -1
    cycle = [(j, r + j + step) for j in range(l, k, step)] + [(k, r + l)]
    lo, hi = sorted((l, k))
    return Diagram(r, _strands_outside(lo, hi, r) + cycle)


def _half_coeff(k: int, mid, shape, row: int, r: int) -> Element:
    """e_half · cycle: the branching coefficient at level k (0-based)
    that passes through mid, the shape at level k less one box, with the
    cycle from |shape| to the partial sum of shape through row.  It is
    the first up coefficient on (shape_k, a) and the second down one on
    (shape_(k+1), b)."""
    d, loops = multiply(e_half(k, k - size(mid), r),
                        s_range(size(shape), partial_sum(shape, row), r))
    return Element(r, {(d, loops): 1})


def _int_coeff(level: int, shape, row: int, r: int) -> Element:
    """e_int · Σ cycles · cycle: the branching coefficient on shape at
    level, the sum running over the cycles that end at the partial sum
    of shape through row.  It is the second up coefficient on
    (k+1, shape_(k+1), b) and the first down one on (k, shape_k, a)."""
    out = Element.from_diagram(e_int(level, level - size(shape), r))
    if row:
        top = partial_sum(shape, row)
        # distinct cycles, so each term of the sum has coefficient 1
        cycles = Element(r, {(s_range(top - i, top, r), 0): 1
                             for i in range(part(shape, row))})
        out = (out * cycles
               * Element.from_diagram(s_range(top, size(shape), r)))
    return out


MURPHY_CACHE_SIZE = 4096


def murphy_u(t: Tableau) -> Element:
    """The ascending Murphy element of a path from the empty partition,
    on one strand per step: the product of up coefficients, top level
    first.

    It is built bottom up, P_k = L_k * P_(k-1) with the level product
    L_k = up_second_k * up_first_k, which by associativity equals the
    top-down product.  L_k depends only on shape_k, step_k, k and the
    rank, and P_k only on the first k+1 steps, so paths share both
    through LRU caches bounded at MURPHY_CACHE_SIZE entries; each call
    returns a fresh copy of the cached element."""
    if t.start != ():
        raise ValueError("Murphy elements require paths from the empty partition")
    r = len(t.steps)
    return Element(r, _murphy_prefix(t.steps, r).terms)


@lru_cache(maxsize=MURPHY_CACHE_SIZE)
def _level(lam, step, k: int, r: int) -> Element:
    """up_second_k * up_first_k on r strands: the up coefficients of
    level k (0-based) of a path that takes `step` from the shape lam."""
    a, b = step
    mid = remove_box(lam, a)
    return (_int_coeff(k + 1, add_box(mid, b), b, r)
            * _half_coeff(k, mid, lam, a, r))


@lru_cache(maxsize=MURPHY_CACHE_SIZE)
def _murphy_prefix(steps, r: int) -> Element:
    """The product of the level products of a path from the empty
    partition taking `steps`, bottom level last, on r strands.  The
    steps are a valid path's, so the shape before its last step comes
    from stepping box moves through them, unchecked."""
    if not steps:
        return Element.one(r)
    k = len(steps) - 1
    return (_level(reduce(_apply, steps[:k], ()), steps[k], k, r)
            * _murphy_prefix(steps[:-1], r))


def verify_thm33(t: Tableau, k: int) -> bool:
    """Check (u_t) s_k = u_swap + u_err(t) - u_err(swap) exactly, with
    missing error paths contributing 0.  The swapped and error paths
    take as many steps as t, so all four elements have its rank."""
    swapped = swap_adjacent(t, k)
    if swapped is None:
        raise SwapUndefined(f"swap at k={k} undefined for {t}")
    lhs = murphy_u(t).times_s(k)
    rhs = murphy_u(swapped)
    err = error_path(t, k)
    if err is not None:
        rhs = rhs + murphy_u(err)
    err_swap = error_path(swapped, k)
    if err_swap is not None:
        rhs = rhs - murphy_u(err_swap)
    return lhs == rhs


def maximal_path(nu) -> Tableau:
    """The path from the empty partition filling nu row by row."""
    return Tableau((), [(0, row) for row, count
                        in enumerate(partition(nu), start=1)
                        for _ in range(count)])


def dvir_diagram_check(t: Tableau) -> bool:
    """For a radical path t of s steps from lam = t.start, expand the
    Murphy element of the maximal path to lam composed with t, on
    r = |lam| + s strands, and verify every diagram has at most s - 1
    blocks joining a southern point above r - s to a northern point or
    a southern point at most r - s."""
    if is_dvir(t) is None:
        raise NotDvir(f"{t} is not in the radical")
    s = len(t.steps)
    full = Tableau((), maximal_path(t.start).steps + t.steps)
    r = len(full.steps)
    u = murphy_u(full)
    for d in {d for d, _ in u.terms}:
        if len(set(d[r - s:r]) & set(d[:r - s] + d[r:])) > s - 1:
            return False
    return True
