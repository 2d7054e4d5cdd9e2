"""The acceptance suite: one test per top-level criterion.

Each test is exact (tolerance zero) and sized to run on one core in
seconds to a few minutes.
"""

from itertools import product
from math import factorial

import pytest

from conftest import prefix_lattice

from stablekron.branching import (
    Tableau, add_box, enumerate_std, is_dvir, remove_box, swap_adjacent,
)
from stablekron.diagalg import dvir_diagram_check
from stablekron.lr import classical_lr
from stablekron.oracle import (
    kronecker, mn_character, stable_kronecker_oracle, z_order,
)
from stablekron.partitions import (
    contains, is_maximal_depth, partition, partitions_of, partitions_up_to,
    size,
)
from stablekron.tableaux import (
    SemistandardClass, count_latticed, count_sstd, is_lattice, mu_classes,
    reading_word, stable_kronecker,
)
from stablekron.verify import bell_counts, counting_sweep, swap_identity


@pytest.fixture(scope="module")
def counting_records():
    """The counting sweep over lam, nu of size <= 5 and s <= 5, shared by
    criteria 2 and 8."""
    return list(counting_sweep(max_size=5, max_s=5))


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


def test_criterion_2_oracle_equivalence(counting_records):
    # every covered (lam, nu, mu) with |lam|, |nu|, |mu| <= 5 and |mu|
    # within the skew-size bounds: latticed class count against the oracle
    checks = [rec for rec in counting_records
              if rec["check"] == "oracle_equivalence"]
    assert [rec for rec in checks if not rec["ok"]] == []
    assert len(checks) > 500


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
    # classical_lr has its own lattice test, independent of the rule's
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
    records = list(swap_identity(5))
    assert [rec["r"] for rec in records] == [2, 3, 4, 5]
    assert [rec["cases"] for rec in records] == [4, 39, 317, 2613]
    for rec in records:
        assert rec["ok"], rec


def test_criterion_6_cellularity_count():
    expected = {1: 2, 2: 15, 3: 203}
    records = list(bell_counts(3))
    assert [rec["r"] for rec in records] == list(expected)
    for rec in records:
        assert rec["got"] == expected[rec["r"]] == rec["want"]
        assert rec["ok"]


def test_criterion_7_dvir_diagram_criterion():
    # the displayed instance
    displayed = Tableau((2, 1), [(2, 2), (0, 2), (2, 0)])
    assert dvir_diagram_check(displayed)
    # exhaustive sweep over radical paths
    checked = 0
    for lam in partitions_up_to(3):
        for s in range(1, 4):
            for nu in partitions_up_to(size(lam) + s):
                for t in enumerate_std(lam, nu, s):
                    if is_dvir(t) is None:
                        continue
                    assert dvir_diagram_check(t), t
                    checked += 1
    assert checked > 1000


def test_criterion_8_decomposition_identity(counting_records):
    # every co-Pieri (lam, nu, s) with |lam|, |nu| <= 5 and 1 <= s <= 5:
    # semistandard count of mu = sum over tau of K(tau, mu) * latticed(tau)
    checks = [rec for rec in counting_records
              if rec["check"] == "decomposition"]
    assert [rec for rec in checks if not rec["ok"]] == []
    assert len(checks) > 500


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
                inner = sum(factorial(n) // z_order(rho)
                            * chars[lam][rho] * chars[mu][rho]
                            for rho in rhos)
                assert inner == (factorial(n) if lam == mu else 0)
