"""The branching graph of the partition algebras.

A path alternates integral and half-integer levels: going down to a half
level removes a box (or nothing, index 0), coming back up adds a box (or
nothing).  An integral step is the pair (remove-row, add-row); a tableau
is a sequence of integral steps and the partitions it visits, its start
first.

No call leaves a reference cycle behind: what a call builds and does not
return is freed by reference counting as soon as it returns.  So
enumerate_std0, which builds many paths to keep few, holds off the
cyclic collector while it builds and filters them: a collection would
find nothing.  The collector is process-global; the call puts it back as
its caller had it, on or off.
"""

from __future__ import annotations

import gc
from functools import lru_cache

from .partitions import part, partition, size, skew_diff_sizes

Step = tuple[int, int]


class NotAPath(ValueError):
    """Raised when a step sequence leaves the set of partitions."""


def step_key(step: Step):
    """Sort key realizing the total order on integral steps:
    move-ups (by add-row, then remove-row descending), then dummies
    (row descending), then move-downs (remove-row descending, add-row
    ascending)."""
    i, j = step
    if i > j:
        return (0, j, -i)
    if i == j:
        return (1, -i)
    return (2, -i, j)


def step_str(step: Step) -> str:
    return f"-{step[0]}+{step[1]}"


def remove_box(shape, i: int):
    """shape - eps_i, or None if not a partition; i = 0 removes nothing."""
    shape = tuple(shape)
    if not 0 < i <= len(shape):
        return shape if i == 0 else None
    row = shape[i - 1] - 1
    if i < len(shape) and row < shape[i]:
        return None
    return shape[:i - 1] + (row,) + shape[i:] if row else shape[:-1]


def add_box(shape, j: int):
    """shape + eps_j, or None if not a partition; j = 0 adds nothing."""
    shape = tuple(shape)
    if j == len(shape) + 1:
        return shape + (1,)
    if not 0 < j <= len(shape):
        return shape if j == 0 else None
    row = shape[j - 1] + 1
    if j >= 2 and row > shape[j - 2]:
        return None
    return shape[:j - 1] + (row,) + shape[j:]


def _apply(shape, step: Step):
    """The shape after one integral step, or None if either half-step
    leaves the partitions."""
    half = remove_box(shape, step[0])
    return None if half is None else add_box(half, step[1])


class Tableau:
    """A path in the branching graph: its integral steps and the shapes
    it visits, the start shape first.

    Construction from a start and steps validates every intermediate
    shape (both the half-level shape after the removal and the integral
    shape after the addition).
    """

    __slots__ = ("steps", "shapes")

    def __init__(self, start, steps):
        self.steps = tuple((int(i), int(j)) for i, j in steps)
        shapes = [partition(start)]
        for st in self.steps:
            cur = _apply(shapes[-1], st)
            if cur is None:
                raise NotAPath(f"cannot step {step_str(st)} from {shapes[-1]}")
            shapes.append(cur)
        self.shapes = tuple(shapes)

    @classmethod
    def _trusted(cls, steps, shapes):
        """A tableau from steps and the shapes they visit, already
        validated; its start is shapes[0]."""
        t = cls.__new__(cls)
        t.steps = steps
        t.shapes = shapes
        return t

    @property
    def start(self):
        return self.shapes[0]

    @property
    def end(self):
        return self.shapes[-1]

    def serialize(self) -> str:
        return " ".join(step_str(st) for st in self.steps)

    def __eq__(self, other):
        return (isinstance(other, Tableau)
                and self.start == other.start and self.steps == other.steps)

    def __hash__(self):
        return hash((self.start, self.steps))

    def __repr__(self):
        return f"Tableau({self.start}, [{self.serialize()}])"


def _extend(out, steps, shapes, d, last, live, live_moves, ends):
    """Append to out every path through the prefix steps[:d], which
    visits shapes[:d + 1]; at depth last - 1 = s - 2, emit them in place,
    each as the prefix plus one final step read from ends."""
    shape = shapes[d]
    key = (shape, last + 1 - d)
    moves = live.get(key) or live.setdefault(key, live_moves(*key))
    if d < last - 1:
        for st, nxt in moves:
            steps[d], shapes[d + 1] = st, nxt
            _extend(out, steps, shapes, d + 1, last, live, live_moves, ends)
        return
    new = Tableau.__new__
    # at s = 1 the root stands in for the one move at depth s - 2
    for st, nxt in moves if d < last else [(None, shape)]:
        if d < last:
            steps[d], shapes[d + 1] = st, nxt
        prefix, shared = tuple(steps), tuple(shapes)
        tails = ends.get(nxt) or ends.setdefault(
            nxt, [(end,) for end, _ in live_moves(nxt, 1)])
        for tail in tails:
            t = new(Tableau)
            t.steps, t.shapes = prefix + tail, shared
            out.append(t)


def enumerate_std(lam, nu, s: int) -> list[Tableau]:
    """All standard tableaux (paths) from lam to nu in s integral steps,
    in lexicographic order of step sequences under the step order.

    Depth-first over live prefixes only.  A shape t is at distance
    max(a, b) from nu, where a = |t| - |t ∩ nu| and b = |nu| - |t ∩ nu|:
    a step removes at most one box and adds at most one, and pairing the
    removals of t / (t ∩ nu) with the additions of nu / (t ∩ nu) reaches
    nu in exactly that many steps, dummy steps using up any surplus.  So
    a step is taken exactly when its shape's distance is at most the
    steps left after it, and every prefix visited extends to a path.
    live_moves finds a and b once per shape and counts each move from
    them: taking the last box of row i lowers a when t_i > nu_i, else
    raises b; putting a box in row j lowers b when the row is then at most
    nu_j long, else raises a.  A removal whose half-level shape is further
    from nu than the steps left is skipped with its additions untried (an
    addition lowers the distance by at most 1); on a maximal-depth walk
    (|nu| = |lam| + s) every removal is.  The live moves in step order,
    per shape and steps left, are memoized in a dict local to the call
    that _extend reads and fills from live_moves; no list stored is empty.

    The walk is _extend, a module-level recursion of depth s - 1 over one
    prefix in lists overwritten in place; it gets the memos and live_moves
    as arguments, so no function refers to itself.  Every live move after
    s - 1 steps lands on nu, so the paths through one move at depth s - 2
    share one shapes tuple, whose first shape is their start lam.  Their
    final steps are stored once per shape one step from nu, as 1-tuples
    in a second dict local to the call, so each path is one
    concatenation of the prefix tuple and a stored final step.
    """
    if s < 0:
        raise ValueError("s must be non-negative")
    lam = partition(lam)
    nu = partition(nu)
    out: list[Tableau] = []
    live: dict[tuple, list] = {}
    rows = nu + (0,) * (len(lam) + s + 1)  # nu padded past any row reached

    def live_moves(shape, left):
        """The moves from shape, in step order, whose shape is at most
        left - 1 steps from nu."""
        a, b = skew_diff_sizes(shape, nu)
        cands = []
        for i in range(0, len(shape) + 1):
            outside = i and shape[i - 1] > rows[i - 1]
            ha, hb = a - outside, b + (i and not outside)
            if ha > left or hb > left:
                continue
            half = remove_box(shape, i)
            if half is None:
                continue
            ends = half + (0,)
            for j in range(0, len(half) + 2):
                inside = j and ends[j - 1] < rows[j - 1]
                if ha + (j and not inside) < left and hb - inside < left:
                    nxt = add_box(half, j)
                    if nxt is not None:
                        cands.append(((i, j), nxt))
        cands.sort(key=lambda c: step_key(c[0]))
        return cands

    if max(skew_diff_sizes(lam, nu)) > s:
        return out
    if s == 0:
        out.append(Tableau._trusted((), (lam,)))
        return out
    shapes = [lam] * s + [nu]
    _extend(out, [(0, 0)] * (s - 1), shapes, 0, s - 1, live, live_moves, {})
    return out


def is_dvir(t: Tableau):
    """Least witness i of Dvir-radical membership, or None.

    i = 0: the path contains a (−eps_0, +eps_0) step; i >= 1: the path
    removes more than start_i boxes from row i.
    """
    if (0, 0) in t.steps:
        return 0
    return dvir_removal_witness(t)


def dvir_removal_witness(t: Tableau):
    """Least row i >= 1 from which t removes more than start_i boxes,
    or None.  Paths without such a row (even those with a (0, 0) step)
    make up the larger set excluded only from the positive radicals."""
    removals: dict[int, int] = {}
    for i, _ in t.steps:
        if i > 0:
            removals[i] = removals.get(i, 0) + 1
    witnesses = [i for i, cnt in removals.items() if cnt > part(t.start, i)]
    return min(witnesses) if witnesses else None


RADICAL_SCREEN_CACHE_SIZE = 256


@lru_cache(maxsize=RADICAL_SCREEN_CACHE_SIZE)
def _radical_screen(rows: int, s: int) -> frozenset:
    """The steps any one of which puts a path of s steps from a start of
    `rows` rows in the Dvir radical: (0, 0), and every step removing a
    box from a row past the start's, whose capacity is 0.  A step adds
    at most one row, so before its last step such a path has fewer than
    rows + s rows, and each step adds to a row at most rows + s."""
    reach = rows + s
    return frozenset([(0, 0)] + [(i, j) for i in range(rows + 1, reach)
                                 for j in range(reach + 1)])


def enumerate_std0(lam, nu, s: int) -> list[Tableau]:
    """enumerate_std filtered to paths outside the Dvir radical, in the
    same order.

    The cyclic collector is held off while the paths are built and
    filtered, and put back as the caller had it, even on error.  The
    call builds no reference cycle, so a collection would find nothing,
    yet the two tracked objects of each path built -- on co-Pieri
    triples nearly all of them radical -- would set off one collection
    per few hundred paths.  The pause covers the filter too: the dropped
    paths are freed by reference counting when _outside_radical returns,
    and freed while the collector is off they never count towards a
    collection.  The collector is process-global, so the pause holds for
    every thread while the call runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _outside_radical(enumerate_std(lam, nu, s), lam, nu, s)
    finally:
        if enabled:
            gc.enable()


def _outside_radical(paths, lam, nu, s: int) -> list[Tableau]:
    """The paths from lam to nu in s steps outside the Dvir radical, in
    their order: is_dvir(t) is None, decided in two stages.

    First one set test per path, screen.isdisjoint(t.steps), drops every
    path with a (0, 0) step or a removal from a row past len(lam); the
    screen is built once per (len(lam), s).  A path that passes walks its
    steps down a copy of the row capacities -- the steps that remove
    nothing, never more than s, then the start's parts -- and is dropped
    at the first row that goes negative.  A step changes the size by -1,
    0 or +1, so at maximal depth, |nu| = |lam| + s, every step is (0, j)
    with j >= 1: the radical is empty and the paths are returned
    unfiltered.
    """
    if size(nu) == size(lam) + s:
        return paths
    lam = partition(lam)
    screen = _radical_screen(len(lam), s)
    # index 0 counts the steps that remove nothing
    caps = [s, *lam]
    out = []
    for t in paths:
        steps = t.steps
        if not screen.isdisjoint(steps):
            continue
        left = caps.copy()
        for i, _ in steps:
            left[i] -= 1
            if left[i] < 0:
                break
        else:
            out.append(t)
    return out


def swap_adjacent(t: Tableau, k: int):
    """Exchange integral steps k and k+1 (1-indexed); None if the
    exchanged sequence is not a valid path."""
    if not 1 <= k <= len(t.steps) - 1:
        raise IndexError(f"k={k} out of range for a path of length {len(t.steps)}")
    first, second = t.steps[k], t.steps[k - 1]
    mid = _apply(t.shapes[k - 1], first)
    # the two steps commute as box moves, so only shape k can change
    if mid is None or _apply(mid, second) is None:
        return None
    return Tableau._trusted(
        t.steps[:k - 1] + (first, second) + t.steps[k + 1:],
        t.shapes[:k] + (mid,) + t.shapes[k + 1:])


def error_path(t: Tableau, k: int):
    """The path replacing an add-then-remove round trip in row u > 0
    spanning levels k and k+1 by the same round trip in the fresh row
    L = len(t(k - 1/2)) + 1; None when the pattern is absent.  Both
    round trips return to t(k - 1/2), so the error path keeps every
    shape of t but shape k, which is t(k - 1/2) plus a box in row L."""
    if not 1 <= k <= len(t.steps):
        raise IndexError(f"k={k} out of range for a path of length {len(t.steps)}")
    if k == len(t.steps):
        return None
    i1, j1 = t.steps[k - 1]
    i2, j2 = t.steps[k]
    if j1 == 0 or j1 != i2:
        return None
    half = remove_box(t.shapes[k - 1], i1)
    new_row = len(half) + 1
    return Tableau._trusted(
        t.steps[:k - 1] + ((i1, new_row), (new_row, j2)) + t.steps[k + 1:],
        t.shapes[:k] + (half + (1,),) + t.shapes[k + 1:])
