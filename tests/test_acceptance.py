"""The acceptance suite: one test per top-level criterion.

Each test is exact (tolerance zero) and sized to run on one core in
seconds to a few minutes.
"""

from itertools import product
from math import factorial

from conftest import bell_number, prefix_lattice

from stablekron.branching import (
    Tableau, add_box, enumerate_std, is_dvir, remove_box, swap_adjacent,
)
from stablekron.diagalg import dvir_diagram_check, verify_thm33
from stablekron.oracle import class_size, kronecker, mn_character, stable_kronecker_oracle
from stablekron.partitions import (
    contains, intersect, is_copieri, is_maximal_depth, partition,
    partitions_of, partitions_up_to, size, skew_diff_sizes,
)
from stablekron.tableaux import (
    SemistandardClass, classical_lr, count_latticed, count_sstd,
    is_lattice, mu_classes, reading_word, ssyt_count, stable_kronecker,
)


def test_criterion_1_golden_values():
    assert stable_kronecker((2, 1), (3, 3, 2), (2, 2, 1)) == 1
    assert stable_kronecker((4,), (5,), (2, 2, 1)) == 1
    assert stable_kronecker((6, 1), (4, 3), (3,)) == 3
    assert stable_kronecker((6, 1), (4, 3), (2, 1)) == 4
    assert stable_kronecker((6, 1), (4, 3), (1, 1, 1)) == 1
    assert stable_kronecker((6, 2), (7, 4), (4,)) == 4
    assert stable_kronecker((6, 2), (7, 4), (3, 1)) == 7
    assert stable_kronecker((6, 2), (7, 4), (2, 2)) == 3
    assert stable_kronecker((6, 2), (7, 4), (2, 1, 1)) == 3
    assert stable_kronecker((6, 2), (7, 4), (1, 1, 1, 1)) == 0
    assert stable_kronecker((6, 2), (7, 4), (2, 2, 1)) == 11
    assert stable_kronecker((5, 3, 3), (7, 5, 1, 1), (2, 2, 1)) == 11
    assert stable_kronecker((9, 6, 3), (9, 6, 3), (2, 1)) == 60
    # counts for the near-padded family (second shape printed in its
    # padded form in the source; the unpadded reading is used here)
    assert count_sstd((8, 5, 3), (6, 5, 3, 2), (3,)) == 6
    assert count_sstd((8, 5, 3), (6, 5, 3, 2), (2, 1)) == 15
    # one-row family counts
    assert count_sstd((7,), (6,), (6,)) == 3
    assert count_sstd((7,), (6,), (3, 2, 1)) == 27
    assert count_latticed((7,), (6,), (3, 2, 1)) == 2
    assert count_latticed((7,), (6,), (4, 2)) == 4
    # standard-path count and a classical coefficient
    assert len(enumerate_std((4, 2), (5, 3, 1), 3)) == 6
    assert classical_lr((4, 2), (5, 3, 1), (2, 1)) == 2


def test_criterion_2_oracle_equivalence():
    pool = partitions_up_to(5)
    checked = 0
    for lam in pool:
        for nu in pool:
            for s in range(0, 6):
                applicable = (is_copieri(lam, nu, s)
                              or is_maximal_depth(lam, nu, s))
                if not applicable:
                    continue
                a, b = skew_diff_sizes(lam, nu)
                if not max(a, b) <= s <= size(lam) + size(nu):
                    continue
                for mu in partitions_of(s):
                    got = count_latticed(lam, nu, mu)
                    want = stable_kronecker_oracle(lam, nu, mu).value
                    assert got == want, (lam, nu, mu, got, want)
                    checked += 1
    assert checked > 500


def test_criterion_3_stability_onset():
    for n in range(7, 11):
        assert kronecker((n - 3, 2, 1), (n - 3, 2, 1), (n - 1, 1)) == 2
    # the padded family reaching its stable values 3 and 4: the third
    # shapes are the paddings of (2,1) (the printed source swaps in the
    # padding of (3), whose values 2 and 3 are pinned below)
    assert kronecker((6, 6, 1), (6, 4, 3), (10, 2, 1)) == 3
    assert kronecker((7, 6, 1), (7, 4, 3), (11, 2, 1)) == 4
    assert stable_kronecker_oracle((6, 1), (4, 3), (2, 1)).value == 4
    assert kronecker((6, 6, 1), (6, 4, 3), (10, 3)) == 2
    for n in range(14, 17):
        assert kronecker((n - 7, 6, 1), (n - 7, 4, 3), (n - 3, 3)) == 3
    assert stable_kronecker_oracle((6, 1), (4, 3), (3,)).value == 3


def test_criterion_4_maximal_depth_coincidence():
    for nn in range(8):
        for nu in partitions_of(nn):
            for ln in range(nn + 1):
                for lam in partitions_of(ln):
                    if not contains(lam, nu):
                        continue
                    s = nn - ln
                    assert is_maximal_depth(lam, nu, s)
                    for mu in partitions_of(s):
                        got = stable_kronecker(lam, nu, mu)
                        assert got == classical_lr(lam, nu, mu)
                        assert got == stable_kronecker_oracle(
                            lam, nu, mu).value


def test_criterion_5_swap_identity():
    for r in (2, 3, 4, 5):
        checked = 0
        for nu in partitions_up_to(r):
            for t in enumerate_std((), nu, r):
                for k in range(1, r):
                    if swap_adjacent(t, k) is None:
                        continue
                    assert verify_thm33(t, k, r), (t, k)
                    checked += 1
        assert checked > 0


def test_criterion_6_cellularity_count():
    expected = {1: 2, 2: 15, 3: 203}
    for r, want in expected.items():
        total = sum(len(enumerate_std((), nu, r)) ** 2
                    for nu in partitions_up_to(r))
        assert total == want == bell_number(2 * r)


def test_criterion_7_dvir_diagram_criterion():
    # the displayed instance
    displayed = Tableau((2, 1), [(2, 2), (0, 2), (2, 0)])
    assert dvir_diagram_check((2, 1), (2, 1), 3, displayed)
    # exhaustive sweep over radical paths
    checked = 0
    for lam in partitions_up_to(3):
        for s in range(1, 4):
            for nu in partitions_up_to(size(lam) + s):
                for t in enumerate_std(lam, nu, s):
                    if is_dvir(t) is None:
                        continue
                    assert dvir_diagram_check(lam, nu, s, t), (lam, nu, s, t)
                    checked += 1
    assert checked > 1000


def test_criterion_8_decomposition_identity():
    pool = partitions_up_to(5)
    for lam in pool:
        for nu in pool:
            for s in range(1, 6):
                if not is_copieri(lam, nu, s):
                    continue
                taus = partitions_of(s)
                latt = {tau: count_latticed(lam, nu, tau) for tau in taus}
                for mu in taus:
                    lhs = count_sstd(lam, nu, mu)
                    rhs = sum(ssyt_count(tau, mu) * latt[tau]
                              for tau in taus)
                    assert lhs == rhs, (lam, nu, mu, lhs, rhs)


def test_criterion_9_property_suites():
    # swap involution
    for lam, nu, s in [((2, 1), (2, 1), 3), ((7,), (6,), 3),
                       ((2, 2), (3, 2, 1), 2)]:
        for t in enumerate_std(lam, nu, s):
            for k in range(1, s):
                other = swap_adjacent(t, k)
                if other is not None:
                    assert swap_adjacent(other, k) == t
    # path revalidation
    for t in enumerate_std((2, 1), (3, 1), 3):
        cur = t.start
        for (i, j), nxt in zip(t.steps, t.shapes[1:]):
            half = remove_box(cur, i)
            assert half is not None
            cur = add_box(half, j)
            assert cur == nxt
            partition(cur)
    # reading-word class invariance
    for lam, nu, mu in [((4, 2), (5, 3, 1), (2, 1)),
                        ((7,), (6,), (3, 2, 1))]:
        for cls in mu_classes(lam, nu, mu):
            expected = reading_word(cls)
            for member in cls.members:
                single = SemistandardClass(cls.weight, (member,))
                assert reading_word(single) == expected
    # lattice scanner vs independent prefix-count implementation
    for length in range(8):
        for word in product((1, 2, 3), repeat=length):
            assert is_lattice(word) == prefix_lattice(word)
    # character orthogonality for n <= 8
    for n in range(1, 9):
        rhos = partitions_of(n)
        chars = {lam: {rho: mn_character(lam, rho) for rho in rhos}
                 for lam in rhos}
        for lam in rhos:
            for mu in rhos:
                inner = sum(class_size(rho, n)
                            * chars[lam][rho] * chars[mu][rho]
                            for rho in rhos)
                assert inner == (factorial(n) if lam == mu else 0)
