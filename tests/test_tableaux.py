"""Tests for semistandard classes, reading words, the counting rules,
the classical coefficients, and the raising-tree machinery on words.

The raising tree proves the decomposition of semistandard counts into
latticed ones; no computation uses it, so it lives here with its tests.
"""

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import intersect, is_horizontal, prefix_lattice

from stablekron.branching import (
    Tableau, enumerate_std0, step_key, step_str, swap_adjacent,
)
from stablekron import lr
from stablekron.lr import ShapeMismatch, classical_lr, ssyt_count
from stablekron.oracle import stable_kronecker_oracle
from stablekron.partitions import (
    contains, in_bounds, is_copieri, is_maximal_depth, part, partial_sum,
    partition, partitions_of, partitions_up_to, size,
)
from stablekron import tableaux
from stablekron.tableaux import (
    NotApplicable, SemistandardClass, class_counts, class_flags,
    count_latticed, count_sstd, good_mask, is_lattice, is_semistandard,
    mu_classes, reading_word, stable_kronecker, _form_classes,
    _horizontal_over_meet, _semistandard_paths,
)


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
    """Change every bad c (c >= 2) in the word into c - 1."""
    mask = good_mask(word)
    return tuple(x - 1 if x == c and not g else x
                 for x, g in zip(word, mask))


def _good_counts(word):
    return Counter(x for x, g in zip(word, good_mask(word)) if g)


def in_james_set(word, sharp) -> bool:
    """True iff the word has at least sharp_i good i's for every i."""
    counts = _good_counts(word)
    return all(counts.get(i, 0) >= sharp[i - 1] for i in range(1, len(sharp) + 1))


def r_map_inverse(word, c: int, sharp, k: int = 1):
    """The unique preimage of `word` under r_map(., c) raising k entries
    c-1 -> c, restricted to words with at least sharp_i good i's for all
    i but no good c beyond sharp_c."""
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




def _compositions(s):
    """Every composition of s into positive parts, lexicographically."""
    if s == 0:
        return [()]
    return [(first,) + rest for first in range(1, s + 1)
            for rest in _compositions(s - first)]


def _reference_form_classes(std0, mu):
    """The weight-mu classes of std0 by swap-BFS over whole paths: the
    member tuples, each in std0 order, in order of their first member."""
    index = {t: i for i, t in enumerate(std0)}
    bounds = {partial_sum(mu, c) for c in range(1, len(mu))}
    allowed = [k for k in range(1, size(mu)) if k not in bounds]
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
        classes.append(tuple(sorted(comp, key=index.__getitem__)))
    return classes


def _boundary_shapes(cls):
    """The shapes of cls's first member at the frame boundaries
    [mu]_0, [mu]_1, ..., which every member shares."""
    shapes = cls.members[0].shapes
    return tuple(shapes[b] for b in accumulate(cls.weight, initial=0))


def _flag_totals(classes):
    """(semistandard classes, of which counted) among classes, from
    class_flags of each: the reference for the counts."""
    flags = [class_flags(c) for c in classes]
    return sum(f[0] for f in flags), sum(f[1] for f in flags)


class TestClasses:
    def test_three_classes_of_two(self):
        classes = mu_classes((4, 2), (5, 3, 1), (2, 1))
        assert len(classes) == 3
        assert all(len(c) == 2 for c in classes)

    def test_class_pairs_swap_in_first_frame(self):
        classes = mu_classes((4, 2), (5, 3, 1), (2, 1))
        rep = Tableau((4, 2), [(0, 2), (0, 3), (0, 1)])
        other = Tableau((4, 2), [(0, 3), (0, 2), (0, 1)])
        cls = next(c for c in classes if rep in c.members)
        assert set(cls.members) == {rep, other}

    def test_one_row_class_counts(self):
        assert len(mu_classes((7,), (6,), (6,))) == 3
        assert len(mu_classes((7,), (6,), (3, 2, 1))) == 27

    def test_boundary_shapes(self):
        cls = mu_classes((4, 2), (5, 3, 1), (2, 1))[0]
        bounds = _boundary_shapes(cls)
        assert bounds[0] == (4, 2)
        assert bounds[-1] == (5, 3, 1)
        assert len(bounds) == 3

    def test_frame_components_equal_whole_path_bfs(self):
        # equality gate for the per-frame class formation: the same
        # classes, members and order as the swap-BFS over whole paths
        pool = partitions_up_to(4)
        cases = 0
        for lam in pool:
            for nu in pool:
                for s in range(1, 5):
                    std0 = enumerate_std0(lam, nu, s)
                    if not std0:
                        continue
                    for mu in _compositions(s):
                        got = [c.members for c in _form_classes(std0, mu)]
                        assert got == _reference_form_classes(std0, mu), \
                            (lam, nu, mu)
                        cases += 1
        assert cases == 1777

    def test_counts_count_each_class_at_its_first_member(self, monkeypatch):
        # the counts test the lattice flag of one path per semistandard
        # class, and that path is the class's first member in the listing;
        # each weight also runs with an empty second frame
        counted = []

        def recorded_latticed(steps, weight):
            counted.append(steps)
            return latticed(steps, weight)

        latticed = tableaux._latticed
        monkeypatch.setattr(tableaux, "_latticed", recorded_latticed)
        pool = partitions_up_to(4)
        cases = 0
        for lam in pool:
            for nu in pool:
                for s in range(1, 5):
                    std0 = enumerate_std0(lam, nu, s)
                    if not std0:
                        continue
                    for mu in _compositions(s):
                        for weight in (mu, mu[:1] + (0,) + mu[1:]):
                            semi = _semistandard_paths(std0, weight)
                            del counted[:]
                            tableaux._counts(std0, weight)
                            firsts = [c.members[0].steps
                                      for c in _form_classes(semi, weight)]
                            assert counted == firsts, (lam, nu, weight)
                        cases += 1
        assert cases == 1777

    def test_swaps_validate_only_unseen_orderings(self, monkeypatch):
        # the swap-BFS calls swap_adjacent only on orderings its component
        # does not hold yet, so every valid swap reaches a new ordering:
        # the valid swaps are the orderings reached minus the seeds
        calls = []
        seeds = []
        reached = []

        def counted_swap(t, k):
            other = swap_adjacent(t, k)
            calls.append(None if other is None else (other.start, other.steps))
            return other

        def recorded_component(seg):
            comp = swap_component(seg)
            seeds.append((seg.start, seg.steps))
            reached.extend((seg.start, order) for order in comp)
            return comp

        swap_component = tableaux._swap_component
        monkeypatch.setattr(tableaux, "swap_adjacent", counted_swap)
        monkeypatch.setattr(tableaux, "_swap_component", recorded_component)
        # maximal depth: every path is outside the radical
        classes = mu_classes((3, 1), (6, 4, 2), (5, 3))
        valid = [c for c in calls if c is not None]
        assert len(classes) == 7
        assert len(set(reached)) == len(reached)
        assert len(valid) == len(reached) - len(seeds) > 0
        assert set(valid) == set(reached) - set(seeds)
        assert len(calls) > len(valid)

    def test_segments_start_at_their_first_shape(self, monkeypatch):
        # a frame segment is cut from a path's steps and shapes alone:
        # its start is the shape at the frame's cut, and it equals its
        # rebuild through the validating constructor
        segments = []

        def recorded_component(seg):
            segments.append(seg)
            return swap_component(seg)

        swap_component = tableaux._swap_component
        monkeypatch.setattr(tableaux, "_swap_component", recorded_component)
        std0 = enumerate_std0((3, 1), (6, 4, 2), 8)
        tableaux._form_classes(std0, (5, 3))
        starts = {t.shapes[0] for t in std0} | {t.shapes[5] for t in std0}
        assert len(segments) > 2
        for seg in segments:
            assert seg.start == seg.shapes[0] and seg.start in starts
            built = Tableau(seg.start, seg.steps)
            assert seg == built and seg.shapes == built.shapes

    def test_valid_swaps_stay_non_radical(self):
        # a swap keeps the multiset of steps, so the radical filter
        # cannot tell a path from its valid swaps
        pool = partitions_up_to(3)
        for lam in pool:
            for nu in pool:
                for s in range(5):
                    std0 = enumerate_std0(lam, nu, s)
                    members = set(std0)
                    for t in std0:
                        for k in range(1, s):
                            other = swap_adjacent(t, k)
                            assert other is None or other in members, (t, k)

    def test_members_share_boundaries_and_frame_multisets(self):
        pool = partitions_up_to(3)
        for lam in pool:
            for nu in pool:
                for s in range(1, 5):
                    std0 = enumerate_std0(lam, nu, s)
                    for mu in _compositions(s):
                        cuts = [partial_sum(mu, c) for c in range(len(mu) + 1)]
                        for cls in _form_classes(std0, mu):
                            signatures = {
                                (tuple(m.shapes[c] for c in cuts),
                                 tuple(tuple(sorted(m.steps[a:b]))
                                       for a, b in zip(cuts, cuts[1:])))
                                for m in cls.members}
                            assert len(signatures) == 1, cls
                            (bounds, _), = signatures
                            assert bounds == _boundary_shapes(cls)


class TestSemistandard:
    def test_intro_triple_classes(self):
        classes = mu_classes((2, 1), (3, 3, 2), (2, 2, 1))
        assert len(classes) == 6
        flags = [is_semistandard(c) for c in classes]
        assert flags.count(True) == 4
        assert count_sstd((2, 1), (3, 3, 2), (2, 2, 1)) == 4

    def test_vertical_pair_is_not_semistandard(self):
        # two boxes of one frame stacked in a column
        t = Tableau((), [(0, 1), (0, 2)])
        cls = SemistandardClass((2,), (t,))
        assert not is_semistandard(cls)
        t = Tableau((), [(0, 1), (0, 1)])
        cls = SemistandardClass((2,), (t,))
        assert is_semistandard(cls)

    def test_boundary_check_matches_is_horizontal(self):
        # the trusted boundary test against the validating one on every
        # ordered pair of partitions of size <= 9
        pool = partitions_up_to(9)
        pairs = [(x, y) for x in pool for y in pool]
        assert len(pairs) == 9409
        for x, y in pairs:
            want = is_horizontal(x, intersect(x, y))
            assert _horizontal_over_meet(x, y) == want, (x, y)


class TestReadingWords:
    def test_zero_part_weights_frame_by_cumulative_sums(self):
        # a zero part is an empty frame: it labels no step of the reading
        # word and repeats a boundary shape.  Step k lies in the first
        # frame whose cumulative sum reaches k.  (Trailing zeros are
        # stripped from the weight, so the last part is positive here.)
        weights = [mu for s in range(1, 5) for n in range(2, 5)
                   for mu in product(range(s + 1), repeat=n)
                   if sum(mu) == s and 0 in mu and mu[-1] > 0]
        assert len(weights) == 54
        pool = partitions_up_to(3)
        cases = 0
        for lam in pool:
            for nu in pool:
                for mu in weights:
                    cum = list(accumulate(mu))
                    frame = [bisect_left(cum, k) + 1
                             for k in range(1, cum[-1] + 1)]
                    for cls in mu_classes(lam, nu, mu):
                        assert cls.weight == mu
                        rep = cls.members[0]
                        cols = sorted(zip(rep.steps, frame), key=lambda col:
                                      (step_key(col[0]), -col[1]))
                        assert reading_word(cls)[1] \
                            == tuple(f for _, f in cols)
                        assert _boundary_shapes(cls) \
                            == tuple(rep.shapes[c] for c in (0, *cum))
                        cases += 1
        assert cases == 12675

    def test_intro_word(self):
        classes = mu_classes((2, 1), (3, 3, 2), (2, 2, 1))
        steps, frames = reading_word(classes[0])
        assert [step_str(st) for st in steps] \
            == ["-0+1", "-0+2", "-0+2", "-0+3", "-0+3"]
        assert frames == (1, 2, 1, 3, 2)

    def test_direct_member_large_maximal_depth(self):
        # the displayed semistandard-but-not-lattice tableau of the large
        # maximal-depth example (enumerating all classes there is too slow)
        t = Tableau((6, 4, 3), [(0, 1), (0, 1), (0, 4), (0, 4), (0, 4),
                                (0, 1), (0, 2), (0, 2), (0, 2), (0, 3),
                                (0, 2), (0, 3), (0, 3)])
        assert t.end == (9, 8, 6, 3)
        cls = SemistandardClass((5, 5, 3), (t,))
        assert is_semistandard(cls)
        _, frames = reading_word(cls)
        assert frames == (2, 1, 1, 3, 2, 2, 2, 3, 3, 2, 1, 1, 1)
        assert not is_lattice(frames)

    def test_class_invariance(self):
        for lam, nu, mu in [((4, 2), (5, 3, 1), (2, 1)),
                            ((7,), (6,), (3, 2, 1)),
                            ((2, 1), (3, 3, 2), (2, 2, 1))]:
            for cls in mu_classes(lam, nu, mu):
                expected = reading_word(cls)
                for member in cls.members:
                    single = SemistandardClass(cls.weight, (member,))
                    assert reading_word(single) == expected


class TestLattice:
    def test_good_mask(self):
        assert good_mask((1, 2, 2)) == [True, True, False]
        assert good_mask((2,)) == [False]
        assert good_mask((1, 2, 1, 3, 2)) == [True] * 5

    def test_against_prefix_counts(self):
        for length in range(8):
            for word in product((1, 2, 3, 4), repeat=length):
                assert is_lattice(word) == prefix_lattice(word)


class TestCounts:
    def test_padded_family_counts(self):
        assert count_sstd((8, 5, 3), (6, 5, 3, 2), (3,)) == 6
        assert count_sstd((8, 5, 3), (6, 5, 3, 2), (2, 1)) == 15
        assert count_latticed((8, 5, 3), (6, 5, 3, 2), (3,)) == 6
        assert count_latticed((8, 5, 3), (6, 5, 3, 2), (2, 1)) == 9
        assert count_latticed((8, 5, 3), (6, 5, 3, 2), (1, 1, 1)) == 3

    def test_one_row_counts(self):
        assert count_sstd((7,), (6,), (6,)) == 3
        assert count_sstd((7,), (6,), (3, 2, 1)) == 27
        assert count_latticed((7,), (6,), (3, 2, 1)) == 2
        assert count_latticed((7,), (6,), (4, 2)) == 4

    def test_single_row_weight_needs_no_lattice_filter(self):
        for lam in partitions_up_to(4):
            for nu in partitions_up_to(4):
                for s in range(1, 5):
                    if not is_copieri(lam, nu, s):
                        continue
                    assert count_latticed(lam, nu, (s,)) \
                        == count_sstd(lam, nu, (s,))

    def test_class_counts_match_per_weight_counts(self):
        pool = partitions_up_to(4)
        for lam in pool:
            for nu in pool:
                for s in range(0, 5):
                    if not (is_copieri(lam, nu, s)
                            or is_maximal_depth(lam, nu, s)):
                        continue
                    counts = class_counts(lam, nu, s)
                    assert tuple(counts) == partitions_of(s)
                    for mu in partitions_of(s):
                        assert counts[mu] == (count_sstd(lam, nu, mu),
                                              count_latticed(lam, nu, mu))

    def test_semistandard_prefilter_keeps_every_count(self, monkeypatch):
        # equality gate for counting the classes of the semistandard paths
        # only: the reference totals class_flags over every class of the
        # non-radical paths.
        # Each path list is enumerated once and shared by every call.
        paths = {}

        def shared_std0(lam, nu, s):
            if (lam, nu, s) not in paths:
                paths[lam, nu, s] = enumerate_std0(lam, nu, s)
            return paths[lam, nu, s]

        monkeypatch.setattr(tableaux, "enumerate_std0", shared_std0)
        pool = partitions_up_to(4)
        cases = weights = 0
        for lam in pool:
            for nu in pool:
                for s in range(6):
                    if not in_bounds(lam, nu, s):
                        continue
                    std0 = shared_std0(lam, nu, s)
                    want = {mu: _flag_totals(_form_classes(std0, mu))
                            for mu in partitions_of(s)}
                    assert class_counts(lam, nu, s) == want, (lam, nu, s)
                    cases += 1
                    if not (is_copieri(lam, nu, s)
                            or is_maximal_depth(lam, nu, s)):
                        continue
                    for mu in partitions_of(s):
                        assert count_sstd(lam, nu, mu) == want[mu][0]
                        assert count_latticed(lam, nu, mu) == want[mu][1]
                        # an empty frame repeats a boundary shape
                        weight = mu[:1] + (0,) + mu[1:]
                        assert count_sstd(lam, nu, weight) \
                            == _flag_totals(mu_classes(lam, nu, weight))[0], \
                            (lam, nu, weight)
                        weights += 1
        assert (cases, weights) == (530, 438)

    def test_kept_paths_are_the_semistandard_classes(self):
        # the prefilter keeps exactly the members of the semistandard
        # classes, so every valid frame-interior swap of a kept path is kept
        pool = partitions_up_to(3)
        kept_total = dropped = 0
        for lam in pool:
            for nu in pool:
                for s in range(1, 6):
                    std0 = enumerate_std0(lam, nu, s)
                    for mu in _compositions(s):
                        kept = _semistandard_paths(std0, mu)
                        members = {t for cls in _form_classes(std0, mu)
                                   if is_semistandard(cls)
                                   for t in cls.members}
                        assert kept == [t for t in std0 if t in members]
                        cuts = set(accumulate(mu))
                        for t in kept:
                            for k in range(1, s):
                                other = None if k in cuts \
                                    else swap_adjacent(t, k)
                                assert other is None or other in members, \
                                    (t, mu, k)
                        kept_total += len(kept)
                        dropped += len(std0) - len(kept)
        assert kept_total > 0 and dropped > 0

    def test_one_row_shapes_kill_deep_weights(self):
        for a in range(1, 6):
            for b in range(1, 6):
                for s in range(4, 7):
                    if not is_copieri((a,), (b,), s):
                        continue
                    for mu in partitions_of(s):
                        if len(mu) > 3:
                            assert count_latticed((a,), (b,), mu) == 0


class TestStableKronecker:
    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            stable_kronecker((3,), (2, 1), (2, 1))

    def test_out_of_bounds_gives_zero(self):
        # s = 1 is co-Pieri but below the skew-size bound
        assert stable_kronecker((1,), (5,), (1,)) == 0
        # s above |lam| + |nu|
        assert stable_kronecker((1,), (1,), (3,)) == 0

    def test_out_of_range_is_zero_in_any_regime(self):
        # outside the s-range the coefficient is 0 whether or not a rule
        # covers the triple; (2,), (1,), () is covered by neither
        assert not is_copieri((2,), (1,), 0)
        assert not is_maximal_depth((2,), (1,), 0)
        assert stable_kronecker((2,), (1,), ()) == 0
        pool = partitions_up_to(3)
        checked = 0
        for lam in pool:
            for nu in pool:
                for s in range(8):
                    if in_bounds(lam, nu, s):
                        continue
                    for mu in partitions_of(s):
                        assert stable_kronecker(lam, nu, mu) == 0 \
                            == stable_kronecker_oracle(lam, nu, mu).value
                        checked += 1
        assert checked > 1000

    def test_empty_triple(self):
        assert stable_kronecker((), (), ()) == 1

    def test_maximal_depth_equals_classical_lr(self):
        for nn in range(9):
            for nu in partitions_of(nn):
                for ln in range(nn + 1):
                    for lam in partitions_of(ln):
                        if not contains(lam, nu):
                            continue
                        s = nn - ln
                        if not is_maximal_depth(lam, nu, s):
                            continue
                        for mu in partitions_of(s):
                            assert stable_kronecker(lam, nu, mu) \
                                == classical_lr(lam, nu, mu)


# covered strata past the counting sweep's sizes, each cheap by the rule:
# co-Pieri one-row lam and nu up to 10 with |mu| <= 6 (a co-Pieri s of 7
# already takes up to 0.2 s a triple), and maximal-depth (lam, nu) with
# |nu| <= 10
COPIERI_STRATA = [((a,), (b,), s) for a in range(1, 11) for b in range(1, 11)
                  for s in range(7)
                  if is_copieri((a,), (b,), s) and in_bounds((a,), (b,), s)]
MAXIMAL_DEPTH_STRATA = [(lam, nu, n - k) for n in range(11)
                        for nu in partitions_of(n) for k in range(n + 1)
                        for lam in partitions_of(k) if contains(lam, nu)]


def _triples(strata):
    """A stratum (lam, nu, s) with one partition mu of s."""
    return st.sampled_from(strata).flatmap(
        lambda t: st.tuples(st.just(t[0]), st.just(t[1]),
                            st.sampled_from(partitions_of(t[2]))))


class TestAgainstOracle:
    def test_strata_counts(self):
        assert len(COPIERI_STRATA) == 348
        assert len(MAXIMAL_DEPTH_STRATA) == 2888

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_triples(COPIERI_STRATA))
    def test_copieri_rule_matches_oracle(self, triple):
        assert stable_kronecker(*triple) \
            == stable_kronecker_oracle(*triple).value

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_triples(MAXIMAL_DEPTH_STRATA))
    def test_maximal_depth_rule_matches_oracle(self, triple):
        assert stable_kronecker(*triple) \
            == stable_kronecker_oracle(*triple).value


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

    try:
        yield from rec(0)
    finally:
        del rec  # rec refers to itself through its closure


def _reference_lr(lam, nu, mu) -> int:
    """Reference LR coefficient: every semistandard filling of nu/lam of
    weight mu, kept when its reverse reading word (rows top to bottom,
    each right to left) passes the prefix-count lattice test."""
    return sum(1 for filling in _skew_ssyt(nu, lam, mu)
               if prefix_lattice([x for row in filling
                                  for x in reversed(row)]))


class TestClassicalCoefficients:
    def test_lr_matches_reference(self):
        # equality gate for the lattice-pruned walk: every LR triple
        # with |nu| <= 8, and the whole expansion of each of the 862
        # skew shapes nu/lam, so a spurious content key (not a
        # partition, or an entry above its row) fails too
        pairs = cases = 0
        for nn in range(9):
            for nu in partitions_of(nn):
                for ln in range(nn + 1):
                    for lam in partitions_of(ln):
                        if not contains(lam, nu):
                            continue
                        expected = {}
                        for mu in partitions_of(nn - ln):
                            ref = _reference_lr(lam, nu, mu)
                            assert classical_lr(lam, nu, mu) == ref, \
                                (lam, nu, mu)
                            if ref:
                                expected[mu] = ref
                            cases += 1
                        expansion = lr._skew(lam, nu)
                        assert isinstance(expansion, tuple)
                        assert dict(expansion) == expected, (lam, nu)
                        pairs += 1
        assert (pairs, cases) == (862, 4136)

    def test_large_lr_count(self):
        # 4,3,2,1 inside the staircase of 7: 12 of the walk's 1,868
        # lattice fillings, spread over 113 contents, have this one
        assert classical_lr((4, 3, 2, 1), (7, 6, 5, 4, 3, 2, 1),
                            (4, 4, 3, 3, 2, 1, 1)) == 12

    def test_lr_examples(self):
        assert classical_lr((4, 2), (5, 3, 1), (2, 1)) == 2
        assert classical_lr((3, 2), (3, 2), ()) == 1
        assert classical_lr((), (3, 1), (3, 1)) == 1

    def test_lr_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            classical_lr((4, 2), (3, 1), (2,))
        with pytest.raises(ShapeMismatch):
            classical_lr((1,), (3, 1), (1,))

    def test_lattice_filter_excludes_fillings(self):
        # the large skew shape has 104 semistandard fillings of this
        # weight but only 5 satisfy the lattice condition
        total = sum(1 for _ in _skew_ssyt((9, 8, 6, 3), (6, 4, 3),
                                          (5, 5, 3)))
        assert total == 104
        assert classical_lr((6, 4, 3), (9, 8, 6, 3), (5, 5, 3)) == 5

    def test_kostka_examples(self):
        assert ssyt_count((2, 1), (1, 1, 1)) == 2
        assert ssyt_count((2, 1), (2, 1)) == 1
        assert ssyt_count((1, 1), (2,)) == 0
        assert ssyt_count((3,), (3,)) == 1
        # no filling when the sizes differ
        assert ssyt_count((2,), (1,)) == 0

    def test_kostka_matches_reference(self):
        # equality gate for the strip recursion: the fillings of every
        # tau, mu of size at most 8, and of weights with zero parts
        pairs = [(tau, mu) for k in range(9) for tau in partitions_of(k)
                 for mu in partitions_of(k)]
        pairs += [(tau, mu) for mu in [(1, 0, 2), (0, 3), (2, 0, 2), (0, 0, 1)]
                  for tau in partitions_of(sum(mu))]
        for tau, mu in pairs:
            assert ssyt_count(tau, mu) \
                == sum(1 for _ in _skew_ssyt(tau, (), mu)), (tau, mu)


def chain_vertices(mu, ops):
    """The (sharp, full) pairs along a root-to-leaf path of the tree."""
    node = james_tree(mu)
    out = [(node.sharp, node.full)]
    for op in ops:
        node = next(ch for ch in node.children if ch.op == op)
        out.append((node.sharp, node.full))
    return out


def apply_inverse_chain(mu, ops, word):
    """Undo the root-to-leaf lowering operators on a word, leaf first."""
    w = tuple(word)
    for (sharp, _), op in reversed(list(zip(chain_vertices(mu, ops), ops))):
        kind, c, k = op
        if kind == "r":
            w = r_map_inverse(w, c, sharp, k)
    return w


class TestRaisingTree:
    def test_trivial_tree(self):
        assert james_terminals((4,)) == [((4,), ())]

    def test_terminals_of_321(self):
        terms = james_terminals((3, 2, 1))
        assert len(terms) == 8
        labels = [tau for tau, _ in terms]
        assert labels == [(6,), (5, 1), (5, 1), (4, 2), (4, 1, 1), (4, 2),
                          (3, 3), (3, 2, 1)]

    def test_terminal_multiplicity_is_kostka(self):
        for s in range(1, 6):
            for mu in partitions_of(s):
                terms = james_terminals(mu)
                for tau in partitions_of(s):
                    mult = sum(1 for label, _ in terms if label == tau)
                    assert mult == ssyt_count(tau, mu)

    def test_r_map_fixes_lattice_words(self):
        for c in (2, 3):
            assert r_map((1, 2, 1, 3, 2, 3), c) == (1, 2, 1, 3, 2, 3)

    def test_r_map_lowers_bad_entries(self):
        assert r_map((3, 1, 1, 1, 2, 2), 3) == (2, 1, 1, 1, 2, 2)
        assert r_map((2, 1, 1, 1, 3, 2), 3) == (2, 1, 1, 1, 2, 2)

    def test_inverse_chains_on_displayed_example(self):
        # the eight displayed word liftings for mu = (3,2,1), tau = (4,2)
        mu = (3, 2, 1)
        terms = [ops for tau, ops in james_terminals(mu) if tau == (4, 2)]
        assert terms == [
            (("a", 2, 1), ("r", 2, 1), ("r", 3, 1), ("a", 2, 1)),
            (("a", 2, 1), ("a", 2, 1), ("r", 3, 1), ("r", 2, 1)),
        ]
        latt_words = [(1, 1, 1, 1, 2, 2), (1, 1, 1, 2, 2, 1),
                      (1, 1, 2, 1, 1, 2), (1, 1, 2, 2, 1, 1)]
        first = [apply_inverse_chain(mu, terms[0], w) for w in latt_words]
        assert first == [(2, 1, 1, 1, 3, 2), (2, 1, 1, 3, 2, 1),
                         (2, 1, 3, 1, 1, 2), (2, 1, 3, 2, 1, 1)]
        second = [apply_inverse_chain(mu, terms[1], w) for w in latt_words]
        assert second == [(3, 1, 1, 1, 2, 2), (3, 1, 1, 2, 2, 1),
                         (3, 1, 2, 1, 1, 2), (1, 1, 3, 2, 2, 1)]

    def test_inverse_requires_unique_preimage(self):
        with pytest.raises(ValueError):
            r_map_inverse((2, 2), 2, (2,), 1)

