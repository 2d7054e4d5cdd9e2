"""The branching graph of the partition algebras.

A path alternates integral and half-integer levels: going down to a half
level removes a box (or nothing, index 0), coming back up adds a box (or
nothing).  An integral step is the pair (remove-row, add-row); a tableau
is a sequence of integral steps and the partitions it visits, its start
first.

No call leaves a reference cycle behind: what a call builds and does not
return is freed by reference counting as soon as it returns, which is
why enumerate_std0 can hold off the cyclic collector.
"""

from __future__ import annotations

import gc
from itertools import accumulate, pairwise
from operator import le

from .partitions import (
    part, partition, radical_empty, size, skew_diff_sizes,
)

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


def _extend(out, steps, shapes, d, k, live, tails, walk):
    """Append to out every path through the prefix steps[:d], which
    visits shapes[:d + 1], for d < len(steps) = s - k: take each live
    move into depth d + 1 that passes the frame test there (see _Walk),
    and from depth s - k emit the paths in place, each as the prefix
    plus one suffix of k steps from tails."""
    key = (shapes[d], len(steps) + k - d)
    moves = live.get(key) or live.setdefault(key, walk.live_moves(*key))
    a = walk.ends.get(d + 1)
    if a is not None:
        first = shapes[a]
        moves = [move for move in moves if _horizontal_frame(first, move[1])]
    if d + 1 < len(steps):
        for st, nxt in moves:
            steps[d], shapes[d + 1] = st, nxt
            _extend(out, steps, shapes, d + 1, k, live, tails, walk)
        return
    new, a = Tableau.__new__, walk.opens.get(d + 1)
    for st, nxt in moves:
        steps[d], shapes[d + 1] = st, nxt
        prefix, head = tuple(steps), tuple(shapes)
        first = None if a is None else head[a]
        for after, suffixes in (tails.get((nxt, k, first))
                                or _suffixes(nxt, k, first, tails, walk)):
            shared = head + after
            for suffix in suffixes:
                t = new(Tableau)
                t.steps, t.shapes = prefix + suffix, shared
                out.append(t)


class _Walk:
    """What one walk of s steps reads besides its two memos: live_moves,
    and for a weight mu where its frames of two or more steps are tested.
    A frame (a, b) is tested on each move into depth b, which is taken
    only if _horizontal_frame(shape at depth a, shape after the move)
    holds: ends maps b to a, and opens maps each depth d with
    a <= d < b to a, the start of the frame open there.
    """

    __slots__ = ("live_moves", "s", "ends", "opens")

    def __init__(self, live_moves, s, weight):
        self.live_moves, self.s, self.ends, self.opens = live_moves, s, {}, {}
        for a, b in pairwise(accumulate(weight or (), initial=0)):
            if b - a > 1:
                self.ends[b] = a
                self.opens.update(dict.fromkeys(range(a, b), a))


def _suffixes(shape, k, first, tails, walk):
    """tails[shape, k, first], built and stored if absent: the last k
    steps of the paths from shape at depth s - k, in step order, as
    [(shapes after shape, [step suffixes])]; the suffixes of a group
    differ only in their last step, and k = 0 (when s = 1) leaves one
    empty suffix.  first is the shape at depth a of the tested frame
    (a, b) open at depth s - k, or None if there is none (so always
    without a weight); a move into depth b is taken only if it passes
    _horizontal_frame(first, shape after the move).  The memo tails is
    read as tails.get((shape, k, first)) or _suffixes(shape, k, first,
    tails, walk); a dead end is an empty list, which this finds and
    returns unbuilt."""
    groups = tails.get((shape, k, first))
    if groups is not None:
        return groups
    if k == 0:
        groups = [((), [()])]
    else:
        d = walk.s - k + 1  # the depth the moves go into
        moves = walk.live_moves(shape, k)
        if d in walk.ends:
            moves = [move for move in moves
                     if _horizontal_frame(first, move[1])]
        if k == 1:
            groups = [((moves[0][1],), [(st,) for st, _ in moves])] \
                if moves else []
        else:
            # the next key's first: the new shape where a tested frame
            # starts at depth d, first while one stays open, else None
            a = walk.opens.get(d)
            fresh, held = a == d, None if a is None else first
            groups = [((nxt,) + after, [(st,) + sfx for sfx in suffixes])
                      for st, nxt in moves
                      for after, suffixes in
                      tails.get((nxt, k - 1, nxt if fresh else held))
                      or _suffixes(nxt, k - 1, nxt if fresh else held,
                                   tails, walk)]
    tails[shape, k, first] = groups
    return groups


def _horizontal_frame(prev, cur) -> bool:
    """True iff the frame from boundary shape prev to boundary shape cur
    has both one-sided skews (relative to their intersection) horizontal:
    the test a semistandard class passes on each frame."""
    return (_horizontal_over_meet(cur, prev)
            and _horizontal_over_meet(prev, cur))


def _horizontal_over_meet(x, y) -> bool:
    """is_horizontal(x, intersect(x, y)) for partitions x and y, without
    re-validating them.  The skew is horizontal iff every row x_(i+1)
    is at most min(x_i, y_i), that is at most y_i, with the rows past
    the end of y read as 0; so x has at most one row more than y."""
    return len(x) <= len(y) + 1 and all(map(le, x[1:], y))


def enumerate_std(lam, nu, s: int, weight=None) -> list[Tableau]:
    """All standard tableaux (paths) from lam to nu in s integral steps,
    in lexicographic order of step sequences under the step order.

    weight, when given, is a composition mu of s; the walk then keeps
    only the paths whose every frame of mu (steps 1..mu_1, then the next
    mu_2 steps, and so on) of two or more steps has boundary shapes
    (prev, cur) with _horizontal_frame(prev, cur) true, in the same
    order: the semistandard paths of weight mu.

    Depth-first over live prefixes only.  A shape t is at distance
    max(a, b) from nu, where a = |t| - |t ∩ nu| and b = |nu| - |t ∩ nu|:
    a step removes at most one box and adds at most one, and pairing the
    removals of t / (t ∩ nu) with the additions of nu / (t ∩ nu) reaches
    nu in exactly that many steps, dummy steps using up any surplus.  So
    a step is taken exactly when its shape's distance is at most the
    steps left after it, and without a weight every prefix visited
    extends to a path; with one a prefix may lead only to paths whose
    frames fail.
    live_moves finds a and b once per shape and counts each move from
    them: taking the last box of row i lowers a when t_i > nu_i, else
    raises b; putting a box in row j lowers b when the row is then at most
    nu_j long, else raises a.  A removal whose half-level shape is further
    from nu than the steps left is skipped with its additions untried (an
    addition lowers the distance by at most 1); on a maximal-depth walk
    (|nu| = |lam| + s) every removal is.

    The walk is _extend, a module-level recursion over the first s - k
    steps, k = ceil(s / 2) (k = 0 when s = 1), that memoizes their live
    moves per shape and steps left and emits the paths as it takes each
    move into depth s - k, with no call per prefix there.  Their last k
    steps are built once per shape at depth s - k by _suffixes, grouped
    by all but their last step so that the paths of one prefix and group
    share one shapes tuple.  Both halves test a frame by one rule, on
    the moves into its last depth against its first shape (see _Walk),
    never once per path; the suffix memo also keys on that first shape
    while the frame is open.  Both memos are dicts local to the call,
    passed down as arguments with a _Walk that carries live_moves and
    where the frames are tested, so no nested function refers to itself.
    """
    if s < 0:
        raise ValueError("s must be non-negative")
    if weight is not None and size(weight) != s:
        raise ValueError("the weight must have size s")
    lam = partition(lam)
    nu = partition(nu)
    out: list[Tableau] = []
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
    m = s // 2 or 1  # the prefix; the suffix is k = s - m steps
    _extend(out, [(0, 0)] * m, [lam] * (m + 1), 0, s - m, {}, {},
            _Walk(live_moves, s, weight))
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


def enumerate_std0(lam, nu, s: int, weight=None) -> list[Tableau]:
    """enumerate_std(lam, nu, s, weight) filtered to paths outside the
    Dvir radical, in the same order.

    The cyclic collector is held off while the paths are built and
    filtered, and put back as the caller had it, even on error: a
    collection would find nothing, yet the two tracked objects of each
    path built, on co-Pieri triples nearly all radical, would set one
    off per few hundred paths.  The dropped paths are freed when
    _outside_radical returns, so they never count towards one either.
    The collector is process-global: the pause holds for every thread.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _outside_radical(enumerate_std(lam, nu, s, weight),
                                lam, nu, s)
    finally:
        if enabled:
            gc.enable()


def _outside_radical(paths, lam, nu, s: int) -> list[Tableau]:
    """The paths from lam to nu in s steps outside the Dvir radical, in
    their order: is_dvir(t) is None, decided in two stages.

    First one set test per path, screen.isdisjoint(t.steps), drops every
    path with a (0, 0) step or a removal from a row past len(lam), whose
    capacity is 0.  A step adds at most one row, so before its last step
    a path has fewer than len(lam) + s rows, and each step adds to a row
    at most len(lam) + s; the screen holds (0, 0) and every such removal.
    A path that passes walks its steps down a copy of the row capacities
    -- the steps that remove nothing, never more than s, then the
    start's parts -- and is dropped at the first row that goes negative.
    Where partitions.radical_empty holds (at maximal depth) the paths
    are returned unfiltered, as is an empty list.
    """
    if not paths or radical_empty(lam, nu, s):
        return paths
    lam = partition(lam)
    reach = len(lam) + s
    screen = frozenset([(0, 0)] + [(i, j) for i in range(len(lam) + 1, reach)
                                   for j in range(reach + 1)])
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
