"""Tests for the partition primitives."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from conftest import intersect, is_horizontal, pad

from stablekron.partitions import (
    NotAPartition, Undefined, composition, contains, format_partition,
    in_bounds,
    is_copieri, is_maximal_depth, minmax, parse_partition, part,
    partial_sum, partition, partitions_of, partitions_up_to, size,
    skew_diff_sizes,
)

partitions_strategy = st.lists(
    st.integers(min_value=1, max_value=9), max_size=6
).map(lambda xs: tuple(sorted(xs, reverse=True)))


class TestBasics:
    def test_partition_normalizes(self):
        assert partition([3, 2, 0, 0]) == (3, 2)
        assert partition([]) == ()
        assert partition((5,)) == (5,)

    def test_partition_rejects_bad_input(self):
        with pytest.raises(NotAPartition):
            partition([2, 3])
        with pytest.raises(NotAPartition):
            partition([3, -1])

    def test_partition_matches_reference(self):
        # equality gate: partition built on composition equals a
        # standalone normalisation, the same tuple or NotAPartition in
        # exactly the same cases, on every tuple of length <= 4 over
        # -1..3 (only the message for a negative part differs)
        def reference(parts):
            p = tuple(int(x) for x in parts)
            while p and p[-1] == 0:
                p = p[:-1]
            if any(x <= 0 for x in p):
                raise NotAPartition(f"{parts!r} has a non-positive part")
            if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
                raise NotAPartition(f"{parts!r} is not weakly decreasing")
            return p

        def outcome(f, parts):
            try:
                return f(parts)
            except NotAPartition as exc:
                return "negative" if -1 in parts else str(exc)

        for k in range(5):
            for parts in product(range(-1, 4), repeat=k):
                assert outcome(partition, parts) == \
                    outcome(reference, parts), parts

    def test_part_indexing(self):
        assert part((4, 2), 1) == 4
        assert part((4, 2), 2) == 2
        assert part((4, 2), 3) == 0
        assert part((), 1) == 0

    def test_partial_sum(self):
        assert partial_sum((4, 2), 0) == 0
        assert partial_sum((4, 2), 1) == 4
        assert partial_sum((4, 2), 5) == 6
        with pytest.raises(ValueError):
            partial_sum((4, 2), -1)


class TestComposition:
    def test_strips_trailing_zeros_only(self):
        assert composition((2, 0, 1, 0)) == (2, 0, 1)
        assert composition((0, 0)) == ()

    def test_negative_part_rejected(self):
        with pytest.raises(NotAPartition):
            composition((2, -1))


class TestParsing:
    def test_parse_forms(self):
        assert parse_partition("6,2") == (6, 2)
        assert parse_partition("[6,2]") == (6, 2)
        assert parse_partition("0") == ()
        assert parse_partition("[]") == ()

    def test_parse_rejects_garbage(self):
        with pytest.raises(NotAPartition):
            parse_partition("a,b")
        with pytest.raises(NotAPartition):
            parse_partition("2,3")

    @given(partitions_strategy)
    def test_format_roundtrip(self, lam):
        assert parse_partition(format_partition(lam)) == lam

    @given(st.one_of(st.text(), st.text(alphabet="0123456789,[] -_+")))
    def test_any_text_parses_or_raises(self, text):
        try:
            lam = parse_partition(text)
        except NotAPartition:
            return
        assert partition(lam) == lam
        assert parse_partition(format_partition(lam)) == lam


class TestPad:
    def test_examples(self):
        assert pad((2, 1), 7) == (4, 2, 1)
        assert pad((), 5) == (5,)
        assert pad((3,), 6) == (3, 3)
        assert pad((), 0) == ()

    def test_pad_too_small(self):
        with pytest.raises(NotAPartition):
            pad((3, 3), 8)
        with pytest.raises(NotAPartition):
            pad((3,), 3)

    @given(partitions_strategy, st.integers(min_value=0, max_value=20))
    def test_pad_roundtrip(self, lam, extra):
        n = size(lam) + part(lam, 1) + extra
        padded = pad(lam, n)
        assert size(padded) == n
        # dropping the added first row recovers lam
        if n > size(lam):
            assert padded[1:] == lam
        else:
            assert padded == lam


class TestSkewHelpers:
    def test_intersect_and_sizes(self):
        assert intersect((4, 2), (3, 3)) == (3, 2)
        assert skew_diff_sizes((4, 2), (3, 3)) == (1, 1)
        assert skew_diff_sizes((2, 1), (2, 1)) == (0, 0)

    @given(partitions_strategy, partitions_strategy)
    def test_skew_sizes_and_bounds_by_intersection(self, lam, nu):
        inter = size(intersect(lam, nu))
        a, b = size(lam) - inter, size(nu) - inter
        assert skew_diff_sizes(lam, nu) == (a, b)
        for s in range(size(lam) + size(nu) + 2):
            assert in_bounds(lam, nu, s) == (max(a, b) <= s
                                             <= size(lam) + size(nu))

    def test_contains(self):
        assert contains((2, 1), (3, 1))
        assert not contains((2, 2), (3, 1))
        assert contains((), (5,))

    def test_contains_matches_rowwise_definition(self):
        # every pair of partitions of size <= 6, of equal and of unequal
        # lengths, against the row-by-row comparison with absent rows 0
        pool = partitions_up_to(6)
        lengths = set()
        for inner in pool:
            for outer in pool:
                want = all(part(inner, i) <= part(outer, i)
                           for i in range(1, len(inner) + 1))
                assert contains(inner, outer) == want, (inner, outer)
                lengths.add((len(inner) > len(outer), want))
        assert lengths == {(False, False), (False, True), (True, False)}

    def test_is_horizontal(self):
        assert is_horizontal((5, 2), (3, 2))
        assert is_horizontal((3, 2), (2,))
        assert not is_horizontal((2, 2), (1,))
        assert is_horizontal((3, 2), (3,))
        with pytest.raises(NotAPartition):
            is_horizontal((2,), (3,))

    @given(partitions_strategy, partitions_strategy)
    def test_is_horizontal_matches_column_brute_force(self, inner, outer):
        merged = tuple(max(part(outer, i), part(inner, i))
                       for i in range(1, max(len(outer), len(inner)) + 1))
        cols = {}
        for i in range(1, len(merged) + 1):
            for j in range(part(inner, i) + 1, part(merged, i) + 1):
                cols[j] = cols.get(j, 0) + 1
        expected = all(c <= 1 for c in cols.values())
        assert is_horizontal(merged, inner) == expected


class TestTripleClassification:
    def test_minmax(self):
        assert minmax((6, 2), (7, 4)) == 2
        assert minmax((2, 1), (2, 1)) == 1
        with pytest.raises(Undefined):
            minmax((4,), (5,))

    def test_is_copieri(self):
        # one-row shapes are co-Pieri for every s >= 1
        assert is_copieri((7,), (6,), 6)
        assert is_copieri((6, 2), (7, 4), 4)
        assert not is_copieri((6, 2), (7, 4), 6)
        assert is_copieri((3, 3), (4, 1), 1)
        assert not is_copieri((2, 1), (3, 3, 2), 5)
        # s = 0 is handled by the maximal-depth regime instead
        assert not is_copieri((2, 1), (2, 1), 0)
        with pytest.raises(ValueError):
            is_copieri((2, 1), (2, 1), -1)

    def test_is_maximal_depth(self):
        assert is_maximal_depth((4, 2), (5, 3, 1), 3)
        assert is_maximal_depth((2, 1), (2, 1), 0)
        assert not is_maximal_depth((4, 2), (5, 3, 1), 2)
        assert not is_maximal_depth((3, 3), (4, 1), 1)


class TestEnumeration:
    def test_counts(self):
        assert partitions_of(0) == ((),)
        assert len(partitions_of(4)) == 5
        assert len(partitions_of(10)) == 42
        assert len(partitions_of(20)) == 627

    def test_reverse_lex_order(self):
        out = partitions_of(4)
        assert out == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            partitions_of(-1)

    def test_max_len(self):
        assert partitions_of(4, max_len=2) == ((4,), (3, 1), (2, 2))

    def test_returns_the_shared_tuple(self):
        # the enumeration is the cache itself; being a tuple, no caller
        # can change it
        out = partitions_of(4)
        assert type(out) is tuple
        assert partitions_of(4) is out
        assert not hasattr(out, "append")
        with pytest.raises(TypeError):
            out[0] = (0,)
        assert out == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))

    def test_partitions_up_to(self):
        pool = partitions_up_to(3)
        assert pool == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
