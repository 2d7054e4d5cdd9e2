"""Semistandard classes of Kronecker tableaux and the counting rules.

A weight composition mu cuts a path of s steps into frames (steps
1..mu_1, then the next mu_2 steps, and so on).  Standard tableaux are
grouped into classes under swaps of adjacent steps inside a frame; a
class is semistandard when the skews between consecutive frame-boundary
shapes are horizontal, and counted when its reading word's frame row is
a lattice permutation.

Classes are formed frame by frame.  A swap inside a frame changes only
that frame's steps and interior shapes, and a swap keeps the multiset
of steps, which is all the radical filter looks at.  So over a path
list closed under frame-interior swaps (the non-radical paths, or their
semistandard ones) of one (lam, nu, s), a class is the product of the
swap components of its frame segments, and each distinct segment is
swapped through once per weight instead of every whole path.

Semistandardness reads only the frame-boundary shapes, which no such
swap changes, so it holds for all members of a class or for none.  The
counts therefore take the semistandard paths alone and count each
class at its first member, testing only its lattice flag; the listing
(mu_classes) still forms every class.  The frame test,
_horizontal_frame, lives in branching beside the path walk.  On
maximal-depth triples count_sstd and count_latticed walk with their
weight, so the walk drops each move into a frame's last depth that
fails the frame test; elsewhere, and in class_counts, which shares
one unweighted walk among all the weights of s, _semistandard_paths
filters the non-radical paths per weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, pairwise

from .partitions import (
    composition, partition, partitions_of, radical_empty, regime, size,
)
from .branching import (
    Tableau, _apply, _horizontal_frame, enumerate_std0, step_key,
    swap_adjacent,
)
# the benchmark's maximal-depth reference reads tableaux.classical_lr
from .lr import classical_lr  # noqa: F401


class NotApplicable(Exception):
    """The triple is neither co-Pieri nor of maximal depth."""


@dataclass(frozen=True)
class SemistandardClass:
    """An equivalence class of standard tableaux under frame-local swaps."""

    weight: tuple[int, ...]
    members: tuple[Tableau, ...]

    def __len__(self):
        return len(self.members)


def mu_classes(lam, nu, mu) -> list[SemistandardClass]:
    """Partition the non-radical standard tableaux into classes connected
    by swaps at positions interior to the frames of mu."""
    mu = composition(mu)
    return _form_classes(enumerate_std0(lam, nu, size(mu)), mu)


def _form_classes(std0, mu) -> list[SemistandardClass]:
    """The weight-mu classes of std0, members and classes in std0 order.

    std0 must be a path list closed under frame-interior swaps (the
    non-radical paths, or their semistandard ones) of one (lam, nu, s)
    with s = |mu|, so that every valid swap of a path in std0 is again
    in std0 and a class is a product of per-frame swap components.  A
    path's class is the tuple of its frames' _Labels.
    """
    frames = list(pairwise(accumulate(mu, initial=0)))
    labels = _Labels()
    groups: dict[tuple, list] = {}
    for t in std0:
        key = tuple([labels[t.shapes[a], t.steps[a:b]] for a, b in frames])
        groups.setdefault(key, []).append(t)
    return [SemistandardClass(mu, tuple(ms)) for ms in groups.values()]


class _Labels(dict):
    """{(start shape, steps): label}: a frame segment's label is the
    first ordering of its swap component looked up, over std0's order
    the least.  A miss swap-BFSes the segment and labels what it reaches."""

    def __missing__(self, key):
        start, steps = key
        seg = accumulate(steps, _apply, initial=start)  # the shapes visited
        for order in _swap_component(Tableau._trusted(steps, tuple(seg))):
            self[start, order] = steps
        return steps


def _swap_component(seg: Tableau) -> set[tuple]:
    """The step sequences reached from seg by valid swaps of adjacent
    steps, all from seg's start.  Each ordering the component reaches
    is validated and built once: a swap whose exchanged steps the
    component already holds is skipped before swap_adjacent is called."""
    comp = {seg.steps}
    queue = [seg]
    while queue:
        cur = queue.pop()
        steps = cur.steps
        for k in range(1, len(steps)):
            swapped = steps[:k - 1] + (steps[k], steps[k - 1]) + steps[k + 1:]
            if swapped in comp:
                continue
            other = swap_adjacent(cur, k)
            if other is not None:
                comp.add(swapped)
                queue.append(other)
    return comp


def is_semistandard(cls: SemistandardClass) -> bool:
    """True iff every pair of consecutive frame-boundary shapes passes
    _horizontal_frame."""
    return bool(_semistandard_paths(cls.members[:1], cls.weight))


def _semistandard_paths(paths, mu) -> list:
    """The paths whose every frame-boundary pair of weight mu passes
    _horizontal_frame, in order, as enumerate_std0(lam, nu, |mu|, mu)
    keeps them in its walk.  A path is dropped at its first failing
    frame, and each (previous, current) pair is tested once per call.
    The result is closed under frame-interior swaps whenever paths is,
    since a swap inside a frame keeps every boundary shape."""
    if not paths:
        return paths
    cuts = list(accumulate(mu))
    passes: dict = {}
    kept = []
    for t in paths:
        shapes = t.shapes
        prev = shapes[0]
        for c in cuts:
            cur = shapes[c]
            ok = passes.get((prev, cur))
            if ok is None:
                ok = passes[prev, cur] = _horizontal_frame(prev, cur)
            if not ok:
                break
            prev = cur
        else:
            kept.append(t)
    return kept


def reading_word(cls: SemistandardClass):
    """The 2 x s array (steps, frames) of cls's first member."""
    return _reading_word(cls.members[0].steps, cls.weight)


def _reading_word(steps, weight):
    """The 2 x s array (steps, frames), columns sorted by the step order,
    ties broken by frame descending; a zero part frames no step.  Each
    distinct step is ranked once, so the columns sort as plain tuples
    (rank, -frame, step)."""
    rank = {st: r for r, st in enumerate(sorted(set(steps), key=step_key))}
    frames = [-c for c, m in enumerate(weight, start=1) for _ in range(m)]
    cols = sorted(zip(map(rank.__getitem__, steps), frames, steps,
                      strict=True))
    return tuple([c[2] for c in cols]), tuple([-c[1] for c in cols])


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


def _latticed(steps, weight) -> bool:
    """True iff a class member with these steps has a lattice frame row:
    the one test of "counted" among semistandard classes."""
    return is_lattice(_reading_word(steps, weight)[1])


def class_flags(cls: SemistandardClass) -> tuple[bool, bool]:
    """(semistandard, counted) for the listing: a class is counted when
    it is semistandard and _latticed."""
    semi = is_semistandard(cls)
    return semi, semi and _latticed(cls.members[0].steps, cls.weight)


def count_sstd(lam, nu, mu) -> int:
    """Number of semistandard classes of weight mu."""
    mu = composition(mu)
    return _counts(_semistandard_std0(lam, nu, mu), mu)[0]


def count_latticed(lam, nu, mu) -> int:
    """Number of semistandard classes whose frame row is a lattice word."""
    mu = partition(mu)
    return _counts(_semistandard_std0(lam, nu, mu), mu)[1]


def _semistandard_std0(lam, nu, mu) -> list:
    """_semistandard_paths(enumerate_std0(lam, nu, |mu|), mu).  Where
    partitions.radical_empty holds (at maximal depth), enumerate_std0
    returns the walk unfiltered and the weight goes to the walk, which
    drops each move into a frame's last depth that fails the frame test.
    Elsewhere the radical filter keeps few paths (on co-Pieri triples
    about 1 in 70), so testing frames inside the walk costs more than
    filtering the kept paths after it."""
    s = size(mu)
    if radical_empty(lam, nu, s):
        return enumerate_std0(lam, nu, s, mu)
    return _semistandard_paths(enumerate_std0(lam, nu, s), mu)


def class_counts(lam, nu, s: int) -> dict:
    """{mu: (count_sstd(lam, nu, mu), count_latticed(lam, nu, mu))} for
    every partition mu of s, from one enumeration of the non-radical
    paths of (lam, nu, s) shared by all the weights: walking once per
    weight instead was slower over the small triples of the sweeps."""
    std0 = enumerate_std0(lam, nu, s)
    return {mu: _counts(_semistandard_paths(std0, mu), mu)
            for mu in partitions_of(s)}


def _counts(semi, mu) -> tuple[int, int]:
    """(semistandard classes, of which latticed) of weight mu among the
    paths semi, the semistandard ones of a non-radical path list in its
    order.  A class is the product of its frames' swap components, so
    it is counted at its one path whose frames are all _Labels labels
    (as a frame of under two steps is): its first member.  A path is
    dropped at its first other frame; a component is still first reached
    with its least ordering, so the labels are those _form_classes reads."""
    frames = [(a, b) for a, b in pairwise(accumulate(mu, initial=0))
              if b - a > 1]
    labels = _Labels()
    sstd = latt = 0
    for t in semi:
        shapes, steps = t.shapes, t.steps
        for a, b in frames:
            seg = steps[a:b]
            if labels[shapes[a], seg] != seg:
                break
        else:
            sstd += 1
            latt += _latticed(steps, mu)
    return sstd, latt


def stable_kronecker(lam, nu, mu) -> int:
    """The stable Kronecker coefficient of (lam, nu, mu), by the
    partitions.regime of (lam, nu, |mu|): 0 when "out of range", the
    number of latticed semistandard classes for "maximal depth" or
    "co-Pieri", and NotApplicable when neither rule covers the triple."""
    lam = partition(lam)
    nu = partition(nu)
    mu = partition(mu)
    s = size(mu)
    covered = regime(lam, nu, s)
    if covered == "out of range":
        return 0
    if covered is None:
        raise NotApplicable(f"({lam}, {nu}, s={s}) is neither co-Pieri "
                            "nor of maximal depth")
    return count_latticed(lam, nu, mu)

