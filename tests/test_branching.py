"""Tests for branching-graph paths: enumeration order, the radical
filters, swaps, error paths, and the split-path bijection."""

import gc
import sys

import pytest

from conftest import brute_skew_syt_count, intersect, pad

from stablekron import branching
from stablekron.branching import (
    NotAPath, Tableau, add_box, dvir_removal_witness, enumerate_std,
    enumerate_std0, error_path, is_dvir, remove_box, step_key, swap_adjacent,
)
from stablekron.partitions import (
    contains, is_copieri, partition, partitions_of, partitions_up_to, size,
    skew_diff_sizes,
)
from stablekron.verify import bell_counts, bell_number


def _reference_enumerate_std(lam, nu, s):
    """The plain path DFS: try every move at every prefix, prune only
    prefixes that cannot reach nu in the steps left, and rebuild each
    path through the validating constructor.  Each shape's distance
    and moves are worked out once per call."""
    lam = partition(lam)
    nu = partition(nu)
    out = []

    def distance_and_moves(shape):
        inter = size(intersect(shape, nu))
        cands = []
        for i in range(0, len(shape) + 1):
            half = remove_box(shape, i)
            if half is None:
                continue
            for j in range(0, len(half) + 2):
                nxt = add_box(half, j)
                if nxt is not None:
                    cands.append(((i, j), nxt))
        cands.sort(key=lambda c: step_key(c[0]))
        return max(size(shape) - inter, size(nu) - inter), cands

    seen = {}

    def rec(shape, steps):
        remaining = s - len(steps)
        if remaining == 0:
            if shape == nu:
                out.append(Tableau(lam, steps))
            return
        if shape not in seen:
            seen[shape] = distance_and_moves(shape)
        dist, cands = seen[shape]
        if dist > remaining:
            return
        for st, nxt in cands:
            rec(nxt, steps + [st])

    rec(lam, [])
    return out


def _as_lists(paths):
    return [(t.start, t.steps, t.shapes) for t in paths]


class TestSteps:
    def test_step_order(self):
        # move-ups before dummies before move-downs
        assert step_key((2, 1)) < step_key((1, 1)) < step_key((1, 2))
        # dummies by row descending
        assert step_key((2, 2)) < step_key((1, 1)) < step_key((0, 0))
        # move-ups by target ascending, then source descending
        assert step_key((3, 1)) < step_key((2, 1)) < step_key((3, 2))
        # move-downs by source descending, then target ascending
        assert step_key((2, 3)) < step_key((1, 2)) < step_key((1, 3)) \
            < step_key((0, 1))


class TestBoxMoves:
    def test_remove_box(self):
        assert remove_box((3, 2), 0) == (3, 2)
        assert remove_box((3, 2), 1) == (2, 2)
        assert remove_box((3, 3), 1) is None
        assert remove_box((3, 1), 2) == (3,)
        assert remove_box((3,), 2) is None

    def test_add_box(self):
        assert add_box((3, 2), 0) == (3, 2)
        assert add_box((3, 2), 2) == (3, 3)
        assert add_box((3, 2), 3) == (3, 2, 1)
        assert add_box((3, 2), 4) is None
        assert add_box((3, 3), 2) is None

    def test_matches_list_arithmetic(self):
        # _reference_enumerate_std builds its moves with these helpers,
        # so they are checked here against rows changed in a list
        def reference(shape, row, delta):
            if row == 0:
                return tuple(shape)
            if not 1 <= row <= len(shape) + (delta > 0):
                return None
            rows = list(shape) + [0]
            rows[row - 1] += delta
            if any(x < y for x, y in zip(rows, rows[1:])):
                return None
            return tuple(x for x in rows if x)

        for shape in partitions_up_to(7):
            for row in range(-1, len(shape) + 3):
                for given in (shape, list(shape)):
                    assert remove_box(given, row) \
                        == reference(shape, row, -1), (shape, row)
                    assert add_box(given, row) \
                        == reference(shape, row, 1), (shape, row)

    def test_successors(self):
        # the rows the path DFS tries: 0..len for removals, 0..len+1 for
        # additions; row 0 leaves the shape as it is
        assert {remove_box((2, 1), i) for i in range(3)} - {None} \
            == {(2, 1), (1, 1), (2,)}
        assert {add_box((2, 1), j) for j in range(4)} - {None} \
            == {(2, 1), (3, 1), (2, 2), (2, 1, 1)}


class TestTableau:
    def test_shapes_computed(self):
        t = Tableau((2, 1), [(2, 2), (0, 2), (2, 0)])
        assert t.shapes == ((2, 1), (2, 1), (2, 2), (2, 1))
        assert t.end == (2, 1)

    def test_invalid_path_rejected(self):
        with pytest.raises(NotAPath):
            Tableau((2, 2), [(1, 0)])
        with pytest.raises(NotAPath):
            Tableau((1,), [(0, 3)])

    def test_serialize(self):
        t = Tableau((), [(0, 1), (1, 0)])
        assert t.serialize() == "-0+1 -1+0"

    def test_start_is_first_shape(self):
        # a path holds its steps and shapes only; the start is read off
        # the shapes, so it is canonical and cannot be set apart from them
        t = Tableau((3, 0), [])
        assert t.start == (3,) and t.shapes == ((3,),)
        with pytest.raises(AttributeError):
            t.start = (2,)
        assert Tableau.__slots__ == ("steps", "shapes")
        for lam, nu, s in [((2, 1), (2, 1), 3), ((), (1,), 3), ((3,), (2,), 3)]:
            for t in enumerate_std(lam, nu, s):
                assert t.start == t.shapes[0] == lam
                for k in range(1, s + 1):
                    for other in (swap_adjacent(t, k) if k < s else None,
                                  error_path(t, k)):
                        if other is not None:
                            assert other.start == other.shapes[0] == lam


class TestEnumeration:
    def test_two_step_loop(self):
        assert [t.serialize() for t in enumerate_std((), (), 2)] \
            == ["-0+0 -0+0", "-0+1 -1+0"]

    def test_displayed_skew_count(self):
        assert len(enumerate_std((4, 2), (5, 3, 1), 3)) == 6

    def test_zero_steps(self):
        out = enumerate_std((3, 1), (3, 1), 0)
        assert len(out) == 1 and out[0].steps == ()
        assert enumerate_std((3, 1), (3,), 0) == []

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            enumerate_std((3, 1), (3, 1), -1)

    def test_lexicographic_output(self):
        for lam, nu, s in [((2, 1), (2, 1), 2), ((3,), (2,), 3),
                           ((), (2, 1), 3)]:
            paths = enumerate_std(lam, nu, s)
            keys = [tuple(step_key(st) for st in t.steps) for t in paths]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_paths_revalidate(self):
        # recompute every intermediate shape independently, and through
        # the validating constructor; (4,) to (5,) in 5 steps is a
        # co-Pieri case whose last-step siblings share one shapes tuple
        for lam, nu, s in [((2, 1), (3, 1), 3), ((), (), 4), ((3,), (2,), 4),
                           ((2, 2), (3, 2, 1), 3), ((4,), (5,), 5)]:
            for t in enumerate_std(lam, nu, s):
                assert t.end == nu
                cur = t.start
                for (i, j), nxt in zip(t.steps, t.shapes[1:]):
                    half = remove_box(cur, i)
                    assert half is not None
                    cur = add_box(half, j)
                    assert cur == nxt
                    partition(cur)
                built = Tableau(t.start, t.steps)
                assert t == built
                assert t.shapes == built.shapes

    def test_maximal_depth_counts_are_skew_syt_counts(self):
        for nu in partitions_up_to(5):
            for lam in partitions_up_to(size(nu)):
                if not contains(lam, nu):
                    continue
                s = size(nu) - size(lam)
                got = len(enumerate_std(lam, nu, s))
                assert got == brute_skew_syt_count(nu, lam)

    def test_matches_reference_dfs(self):
        # s <= 6 where both sizes are at most 3, s <= 4 up to size 4
        pool = partitions_up_to(4)
        for lam in pool:
            for nu in pool:
                top = 6 if max(size(lam), size(nu)) <= 3 else 4
                for s in range(top + 1):
                    assert _as_lists(enumerate_std(lam, nu, s)) \
                        == _as_lists(_reference_enumerate_std(lam, nu, s)), \
                        (lam, nu, s)
        # the three largest enumerations of the rule-copieri benchmark,
        # and a maximal-depth walk, where every removal is dead
        for lam, nu, s in [((6,), (6,), 6), ((5,), (5,), 6), ((4,), (6,), 6),
                           ((2, 1), (6, 4, 3), 10)]:
            assert _as_lists(enumerate_std(lam, nu, s)) \
                == _as_lists(_reference_enumerate_std(lam, nu, s)), (lam, nu, s)

    def test_paths_emitted_from_depth_s_minus_2(self, monkeypatch):
        # each move at depth s - 2 is followed by its own moves to nu in
        # the same loop, so the recursion never goes deeper than s - 2; on
        # this co-Pieri triple most such prefixes have one last move, so
        # it makes fewer calls than it emits paths
        depths = []
        extend = branching._extend

        def counted(out, steps, shapes, d, *rest):
            depths.append(d)
            return extend(out, steps, shapes, d, *rest)

        monkeypatch.setattr(branching, "_extend", counted)
        paths = enumerate_std((6,), (6,), 6)
        assert len(paths) == 11242
        assert len(depths) < len(paths)
        assert max(depths) == 4
        del depths[:]
        assert len(enumerate_std((6,), (6,), 1)) == 2 and depths == [0]

    def test_shortest_paths(self):
        # s = 0: the one empty path when lam == nu, none otherwise
        assert _as_lists(enumerate_std((2, 1), (2, 1), 0)) \
            == [((2, 1), (), ((2, 1),))]
        assert _as_lists(enumerate_std((), (), 0)) == [((), (), ((),))]
        assert enumerate_std((2, 1), (2,), 0) == []
        # s = 1: one step each, in step order
        assert [t.steps for t in enumerate_std((1,), (1,), 1)] \
            == [((1, 1),), ((0, 0),)]
        assert [t.steps for t in enumerate_std((2,), (1, 1), 1)] == [((1, 2),)]
        assert enumerate_std((), (2,), 1) == []
        # s = 2: the first step is already the last but one
        assert _as_lists(enumerate_std((), (1,), 2)) == [
            ((), ((0, 0), (0, 1)), ((), (), (1,))),
            ((), ((0, 1), (1, 1)), ((), (1,), (1,))),
            ((), ((0, 1), (0, 0)), ((), (1,), (1,)))]

    def test_bell_counts(self):
        records = list(bell_counts(4))
        assert [rec["r"] for rec in records] == [1, 2, 3, 4]
        assert all(rec["ok"] for rec in records)
        # spot values from the r = 1, 2, 3, 4 cases
        assert [bell_number(m) for m in (2, 4, 6, 8)] == [2, 15, 203, 4140]


class TestRadicalFilters:
    def test_is_dvir_examples(self):
        # over-removal from row 2
        t = Tableau((2, 1), [(2, 2), (0, 2), (2, 0)])
        assert is_dvir(t) == 2
        # dummy step only
        assert is_dvir(Tableau((), [(0, 0), (0, 0)])) == 0
        # pure additions never in the radical
        assert is_dvir(Tableau((4, 2), [(0, 2), (0, 2), (0, 3)])) is None

    def test_least_witness(self):
        # removes twice from row 1 of (1,): witnesses {0, 1} -> least is 0
        t = Tableau((1,), [(1, 1), (0, 0), (1, 1)])
        assert is_dvir(t) == 0
        assert dvir_removal_witness(t) == 1

    def test_removal_witness_ignores_dummies(self):
        t = Tableau((2, 1), [(0, 0), (0, 1)])
        assert is_dvir(t) == 0
        assert dvir_removal_witness(t) is None

    def test_enumerate_std0_equals_is_dvir_filter(self, monkeypatch):
        # equality gate for the counting pass: the same paths, in the
        # same order, as is_dvir over the output of enumerate_std, which
        # enumerate_std0 still calls once with its own arguments
        calls = []

        def recorded(*args):
            calls.append((args, enumerate_std(*args)))
            return calls[-1][1]

        monkeypatch.setattr(branching, "enumerate_std", recorded)
        pool = partitions_up_to(4)
        for lam in pool:
            for nu in pool:
                for s in range(7):
                    got = enumerate_std0(lam, nu, s)
                    (args, paths), = calls
                    calls.clear()
                    assert args == (lam, nu, s)
                    expected = [t for t in paths if is_dvir(t) is None]
                    assert _as_lists(got) == _as_lists(expected), (lam, nu, s)

    def test_radical_screen_on_copieri_strata(self):
        # the benchmark's co-Pieri strata, both orientations: every path
        # with a (0, 0) step or a removal past row len(lam) is radical,
        # each such step is in the screen, and the screen and capacity
        # walk together keep exactly the paths is_dvir keeps, in order
        for a in range(1, 7):
            for b in range(1, 7):
                for s in (5, 6):
                    lam, nu = (a,), (b,)
                    screen = branching._radical_screen(len(lam), s)
                    paths = enumerate_std(lam, nu, s)
                    for t in paths:
                        over = [(i, j) for i, j in t.steps
                                if i > len(lam) or i == j == 0]
                        assert set(over) <= screen, (t, over)
                        if over:
                            assert is_dvir(t) is not None, t
                    expected = [t for t in paths if is_dvir(t) is None]
                    got = enumerate_std0(lam, nu, s)
                    assert _as_lists(got) == _as_lists(expected), (lam, nu, s)

    def test_enumerate_std0_at_maximal_depth(self):
        # |nu| = |lam| + s: every step adds a box, so the radical is empty
        # and enumerate_std0 returns all of enumerate_std, in order
        for nu in partitions_up_to(7):
            for lam in partitions_up_to(size(nu)):
                if not contains(lam, nu):
                    continue
                s = size(nu) - size(lam)
                got = enumerate_std0(lam, nu, s)
                expected = [t for t in enumerate_std(lam, nu, s)
                            if is_dvir(t) is None]
                assert _as_lists(got) == _as_lists(expected), (lam, nu)
                assert all(i == 0 and j >= 1
                           for t in got for i, j in t.steps), (lam, nu)

    def test_enumerate_std0(self):
        # s below the skew bound: no standard paths at all
        assert enumerate_std0((4, 2), (5, 3, 1), 1) == []
        for t in enumerate_std0((7,), (6,), 3):
            assert is_dvir(t) is None
        # maximal depth: the radical is empty, all paths survive
        assert len(enumerate_std0((4, 2), (5, 3, 1), 3)) == 6


class TestCollectorPause:
    """enumerate_std0 holds off the cyclic collector while it builds and
    filters its paths, and puts it back as its caller had it."""

    def _spy(self, monkeypatch):
        seen = []

        def spied(*args):
            seen.append(gc.isenabled())
            return enumerate_std(*args)

        monkeypatch.setattr(branching, "enumerate_std", spied)
        return seen

    def test_off_while_paths_are_built(self, monkeypatch):
        seen = self._spy(monkeypatch)
        assert gc.isenabled()
        assert enumerate_std0((4,), (5,), 5)
        assert seen == [False]
        assert gc.isenabled()

    def test_stays_off_when_caller_turned_it_off(self, monkeypatch):
        seen = self._spy(monkeypatch)
        gc.disable()
        try:
            enumerate_std0((4,), (5,), 5)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [False]

    def test_restored_on_error(self):
        with pytest.raises(ValueError):
            enumerate_std0((1,), (1,), -1)
        assert gc.isenabled()
        gc.disable()
        try:
            with pytest.raises(ValueError):
                enumerate_std0((1,), (1,), -1)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_at_most_one_collection(self):
        # 11,242 paths built, 141 kept: with the collector on throughout,
        # 47 collections start during the call.  With the pause none
        # starts while enumerate_std0 is on the stack, so the dropped
        # paths set off none either; at most the one that the
        # allocations pending when it ends set off starts after it
        inside = []

        def count(phase, info):
            if phase == "start":
                frame, codes = sys._getframe(), set()
                while frame is not None:
                    codes.add(frame.f_code)
                    frame = frame.f_back
                inside.append(enumerate_std0.__code__ in codes)

        gc.collect()
        gc.callbacks.append(count)
        try:
            assert len(enumerate_std0((6,), (6,), 6)) == 141
        finally:
            gc.callbacks.remove(count)
        assert inside in ([], [False]), inside


class TestSwaps:
    def test_index_errors(self):
        t = Tableau((), [(0, 1), (0, 1)])
        with pytest.raises(IndexError):
            swap_adjacent(t, 0)
        with pytest.raises(IndexError):
            swap_adjacent(t, 2)

    def test_swap_example(self):
        t = Tableau((), [(0, 1), (0, 2)])
        assert swap_adjacent(t, 1) is None  # (0,2) first is not a path
        t = Tableau((), [(0, 1), (0, 1)])
        assert swap_adjacent(t, 1) == t

    def test_swap_involution(self):
        for lam, nu, s in [((2, 1), (2, 1), 3), ((3,), (2,), 3),
                           ((2, 2), (3, 2, 1), 2)]:
            for t in enumerate_std(lam, nu, s):
                for k in range(1, s):
                    other = swap_adjacent(t, k)
                    if other is not None:
                        assert swap_adjacent(other, k) == t


    def test_swap_matches_validation(self):
        # the local check agrees with rebuilding the swapped sequence
        pool = partitions_up_to(3)
        for lam in pool:
            for nu in pool:
                for s in range(2, 5):
                    for t in enumerate_std(lam, nu, s):
                        for k in range(1, s):
                            steps = list(t.steps)
                            steps[k - 1], steps[k] = steps[k], steps[k - 1]
                            try:
                                built = Tableau(t.start, steps)
                            except NotAPath:
                                built = None
                            got = swap_adjacent(t, k)
                            if built is None:
                                assert got is None, (t, k)
                            else:
                                assert got == built, (t, k)
                                assert got.shapes == built.shapes, (t, k)


class TestErrorPaths:
    def test_defined_case(self):
        # add row 1 then remove row 1 over shape (3): reroute through (3,1)
        t = Tableau((3,), [(0, 1), (1, 0)])
        err = error_path(t, 1)
        assert err is not None
        assert err.steps == ((0, 2), (2, 0))
        assert err.shapes == ((3,), (3, 1), (3,))

    def test_undefined_cases(self):
        # move-down pair without the add/remove round trip
        t = Tableau((3, 1), [(1, 2), (0, 1)])
        assert error_path(t, 1) is None
        # dummy (0, 0) round trips are not rerouted
        t = Tableau((), [(0, 0), (0, 0)])
        assert error_path(t, 1) is None
        # last level has no successor step
        t = Tableau((), [(0, 1), (0, 1)])
        assert error_path(t, 2) is None
        with pytest.raises(IndexError):
            error_path(t, 3)

    def test_matches_validated_rebuild(self):
        # equality gate for building error paths from the shapes they
        # keep: each equals its rebuild through the validating
        # constructor, shapes included, and differs from t only at
        # steps k, k+1 and shape k
        found = 0
        for lam in partitions_up_to(2):
            for nu in partitions_up_to(4):
                for s in range(1, 5):
                    for t in enumerate_std(lam, nu, s):
                        for k in range(1, s + 1):
                            err = error_path(t, k)
                            if err is None:
                                continue
                            built = Tableau(err.start, err.steps)
                            assert err == built, (t, k)
                            assert err.shapes == built.shapes, (t, k)
                            assert err.steps[:k - 1] == t.steps[:k - 1]
                            assert err.steps[k + 1:] == t.steps[k + 1:]
                            assert err.shapes[:k] == t.shapes[:k]
                            assert err.shapes[k + 1:] == t.shapes[k + 1:]
                            found += 1
        assert found > 1000


def _swap_stays_out_of_radical(lam, nu, s):
    """Check the positive swap condition: for every non-radical path and
    every position, the swap exists and is again non-radical."""
    for t in enumerate_std0(lam, nu, s):
        for k in range(1, s):
            other = swap_adjacent(t, k)
            if other is None or is_dvir(other) is not None:
                return False, (t, k)
    return True, None


def _bounds_hold(lam, nu, s):
    a, b = skew_diff_sizes(lam, nu)
    return max(a, b) <= s <= size(lam) + size(nu)


class TestSwapCondition:
    def test_positive_direction(self):
        # co-Pieri triples: every swap of a non-radical path is defined
        # and stays non-radical
        pool = partitions_up_to(5)
        for lam in pool:
            for nu in pool:
                for s in range(2, 6):
                    if not is_copieri(lam, nu, s):
                        continue
                    ok, witness = _swap_stays_out_of_radical(lam, nu, s)
                    assert ok, (lam, nu, s, witness)

    def test_non_copieri_triples_can_fail_swaps(self):
        # over the small sweep of non-co-Pieri triples in the regime where
        # the swap criterion is meaningful, most (not all: the companion
        # multiplication-rule condition can be the failing one instead)
        # exhibit a failing swap; pin the measured counts
        pool = partitions_up_to(4)
        total = with_witness = 0
        for lam in pool:
            for nu in pool:
                for s in range(2, 6):
                    if is_copieri(lam, nu, s):
                        continue
                    if not enumerate_std0(lam, nu, s):
                        continue
                    if not _bounds_hold(lam, nu, s):
                        continue
                    total += 1
                    ok, _ = _swap_stays_out_of_radical(lam, nu, s)
                    if not ok:
                        with_witness += 1
        assert total == 362
        assert with_witness == 352

    def test_all_swaps_fine_on_some_non_copieri_triple(self):
        # the documented counterexample to a literal converse
        lam, nu, s = (3,), (2, 1), 3
        assert not is_copieri(lam, nu, s)
        assert enumerate_std0(lam, nu, s)
        assert _bounds_hold(lam, nu, s)
        ok, _ = _swap_stays_out_of_radical(lam, nu, s)
        assert ok


def _build_split_paths(lam, nu, s):
    """All composite paths obtained by gluing a pure-removal path from
    the padded lam down to a common subshape alpha with a pure-addition
    path from alpha up to the padded nu, rows shifted down by one."""
    n = size(lam) + size(nu) + 2 * s + 2
    lam_n, nu_n = pad(lam, n), pad(nu, n)
    inter = intersect(lam_n, nu_n)
    out = []
    for alpha in partitions_of(n - s):
        if not contains(alpha, inter):
            continue
        downs = enumerate_std(lam_n, alpha, s)
        ups = enumerate_std(alpha, nu_n, s)
        for down in downs:
            for up in ups:
                steps = [(down.steps[l][0] - 1, up.steps[l][1] - 1)
                         for l in range(s)]
                out.append(Tableau(lam, steps))
    return out


class TestSplitPathBijection:
    TRIPLES = [((3, 1), (3, 1), 2), ((7,), (6,), 3), ((4, 2), (4, 3, 1), 3),
               ((2, 2), (3, 2, 1), 2), ((6, 2), (7, 4), 4)]
    COUNTS = [14, 15, 33, 2, 52]

    @pytest.mark.parametrize("triple,count", list(zip(TRIPLES, COUNTS)))
    def test_bijection(self, triple, count):
        lam, nu, s = triple
        assert is_copieri(lam, nu, s)
        built = _build_split_paths(lam, nu, s)
        target = [t for t in enumerate_std(lam, nu, s)
                  if dvir_removal_witness(t) is None]
        assert len(built) == len(set(built)) == count
        assert set(built) == set(target)
