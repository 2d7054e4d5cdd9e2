"""Tests for semistandard classes, reading words, the counting rules,
the classical coefficients, and the raising-tree machinery on words."""

from itertools import product

import pytest

from conftest import prefix_lattice

from stablekron.branching import Tableau, step_str
from stablekron.partitions import (
    contains, is_copieri, is_maximal_depth, partition, partitions_of,
    partitions_up_to, size,
)
from stablekron.tableaux import (
    NotApplicable, SemistandardClass, ShapeMismatch, class_counts,
    classical_lr, count_latticed, count_sstd, good_mask, is_lattice, is_semistandard,
    james_terminals, james_tree, mu_classes, r_map, r_map_inverse,
    reading_word, ssyt_count, stable_kronecker, _skew_ssyt,
)


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
        bounds = cls.boundary_shapes()
        assert bounds[0] == (4, 2)
        assert bounds[-1] == (5, 3, 1)
        assert len(bounds) == 3


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


class TestReadingWords:
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
                    assert list(counts) == partitions_of(s)
                    for mu in partitions_of(s):
                        assert counts[mu] == (count_sstd(lam, nu, mu),
                                              count_latticed(lam, nu, mu))

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


class TestClassicalCoefficients:
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


class TestDecomposition:
    def test_small_sweep(self):
        pool = partitions_up_to(4)
        for lam in pool:
            for nu in pool:
                for s in range(1, 5):
                    if not is_copieri(lam, nu, s):
                        continue
                    taus = partitions_of(s)
                    latt = {tau: count_latticed(lam, nu, tau)
                            for tau in taus}
                    for mu in taus:
                        assert count_sstd(lam, nu, mu) == sum(
                            ssyt_count(tau, mu) * latt[tau] for tau in taus)
