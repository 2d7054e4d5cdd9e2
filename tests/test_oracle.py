"""Tests for the character-theoretic oracle.

The references here evaluate padded coefficients: `_scan_oracle` scans
n for two equal consecutive values, `_padded_oracle` evaluates once at
the Briand-Orellana-Rosas stabilization bound and checks the value at
the next n, and `dvir_step` is the one-step recursion for a padded
coefficient through skew terms and horizontal-strip additions.
`_reference_expand` is the oracle's earlier LR expansion, which tries
every candidate eta and eps and takes each coefficient from
`classical_lr`.
"""

import random
from functools import lru_cache
from math import factorial

import pytest

from conftest import clear_memos, is_horizontal, pad

from stablekron import oracle
from stablekron.lr import classical_lr
from stablekron.oracle import (
    BudgetExceeded, SizeMismatch, StableResult, kronecker, mn_character,
    stable_kronecker_oracle, z_order, _kronecker,
)
from stablekron.partitions import (
    NotAPartition, contains, part, partition, partitions_of,
    partitions_up_to, size,
)


@pytest.fixture
def cold_memos():
    """Empty every memo, the oracle's character, Kronecker and stable
    memos among them."""
    clear_memos()


def class_size(rho, n: int) -> int:
    if size(rho) != n:
        raise SizeMismatch(f"{rho} is not a cycle type of degree {n}")
    return factorial(n) // z_order(rho)


def hook_dimension(lam):
    """Dimension of the irreducible by the hook-length formula."""
    n = size(lam)
    prod = 1
    for i in range(1, len(lam) + 1):
        for j in range(1, lam[i - 1] + 1):
            arm = lam[i - 1] - j
            leg = sum(1 for k in range(i + 1, len(lam) + 1)
                      if part(lam, k) >= j)
            prod *= arm + leg + 1
    return factorial(n) // prod


def _scan_oracle(lam, nu, mu, n_cap=None) -> StableResult:
    """Reference stable coefficient by scanning n: the first value
    repeated at two consecutive n at or past the triangle threshold
    |lam| + |nu| + |mu|, with the first of those n as onset."""
    lam, nu, mu = partition(lam), partition(nu), partition(mu)
    threshold = size(lam) + size(nu) + size(mu)
    n0 = max(size(p) + part(p, 1) for p in (lam, nu, mu))
    cap = n_cap if n_cap is not None else n0 + threshold + 8
    prev = None
    for n in range(n0, cap + 1):
        val = kronecker(pad(lam, n), pad(nu, n), pad(mu, n))
        if prev is not None and val == prev and n - 1 >= threshold:
            return StableResult(val, n - 1)
        prev = val
    raise BudgetExceeded(f"no stabilization with n up to {cap}")


class StabilityError(ArithmeticError):
    """The padded coefficient differs at the stabilization bound N and
    at N + 1, so the bound or the evaluation is wrong."""


def _padded_oracle(lam, nu, mu) -> StableResult:
    """Reference stable coefficient: the padded coefficient at the
    stabilization bound N = max(n0, min over the three roles of
    |beta| + |gamma| + alpha_1) (Briand-Orellana-Rosas 2011), with n0 the
    least n at which all three paddings are partitions.  It is also
    computed at N + 1; a difference raises StabilityError.  The onset is
    max(n0, |lam| + |nu| + |mu|)."""
    lam, nu, mu = partition(lam), partition(nu), partition(mu)
    sizes = (size(lam), size(nu), size(mu))
    total = sum(sizes)
    n0 = max(size(p) + part(p, 1) for p in (lam, nu, mu))
    bound = max(n0, min(total - s + part(p, 1)
                        for p, s in zip((lam, nu, mu), sizes)))
    value, check = (kronecker(pad(lam, n), pad(nu, n), pad(mu, n))
                    for n in (bound, bound + 1))
    if value != check:
        raise StabilityError(f"padded values of ({lam}, {nu}, {mu}) differ "
                             f"at n={bound} ({value}) and n={bound + 1} "
                             f"({check})")
    return StableResult(value, max(n0, total))


def p_set(n: int, mu):
    """All partitions of n obtained from mu by adding a horizontal strip
    (n - |mu| boxes, no two in one column): beta with
    beta_1 >= mu_1 >= beta_2 >= mu_2 >= ..."""
    mu = partition(mu)
    if n < size(mu):
        raise ValueError(f"n={n} below |mu|={size(mu)}")
    out = []

    def rec(i, chosen):
        if i > len(mu) + 1:
            first = n - sum(chosen)
            if first >= max(part(mu, 1), chosen[0] if chosen else 0):
                out.append(partition([first] + chosen))
            return
        for b in range(part(mu, i - 1), part(mu, i) - 1, -1):
            rec(i + 1, chosen + [b])

    rec(2, [])
    return out


@lru_cache(maxsize=None)
def _straight_terms(alpha, shape) -> dict:
    """{tau: c^shape_{alpha tau}} over partitions tau of |shape| - |alpha|,
    nonzero entries only, one `classical_lr` call per tau."""
    terms = {tau: classical_lr(alpha, shape, tau)
             for tau in partitions_of(size(shape) - size(alpha))}
    return {tau: c for tau, c in terms.items() if c}


def dvir_step(lam_n, nu_n, mu_n) -> int:
    """One step of the recursion for the padded coefficient: skew terms
    over common subshapes of size n - s minus the horizontal-strip
    correction terms, where s is the size below the first row of mu_n."""
    lam_n = partition(lam_n)
    nu_n = partition(nu_n)
    mu_n = partition(mu_n)
    n = size(lam_n)
    if size(nu_n) != n or size(mu_n) != n:
        raise SizeMismatch("arguments must have equal sizes")
    mu = partition(mu_n[1:])
    s = size(mu)
    inter = tuple(min(part(lam_n, i), part(nu_n, i))
                  for i in range(1, max(len(lam_n), len(nu_n)) + 1))
    inter = partition(x for x in inter if x)

    total = 0
    for alpha in partitions_of(n - s):
        if not contains(alpha, inter):
            continue
        # expand both skews into straight shapes of size s; alpha lies in
        # both shapes and |alpha| + s = n, so the LR checks always pass
        for tau, c1 in _straight_terms(alpha, lam_n).items():
            for sig, c2 in _straight_terms(alpha, nu_n).items():
                g = _kronecker(tau, sig, mu)
                if g:
                    total += c1 * c2 * g
    for beta in p_set(n, mu):
        if beta != mu_n:
            total -= _kronecker(lam_n, nu_n, beta)
    return total


def _reference_expand(shape, k: int, d: int, e: int) -> dict:
    """{(alpha, delta, eps): c^shape_{alpha delta eps}}, nonzero entries
    only, summed over every partition eta of d + e inside shape and
    every partition eps of e, one `classical_lr` call per candidate."""
    rows = len(shape)
    out: dict = {}
    for alpha in partitions_of(k, rows):
        if not contains(alpha, shape):
            continue
        for eta in partitions_of(d + e, rows):
            if not contains(eta, shape):
                continue
            outer = classical_lr(alpha, shape, eta)
            if not outer:
                continue
            for delta in partitions_of(d, rows):
                if not contains(delta, eta):
                    continue
                for eps in partitions_of(e, rows):
                    inner = classical_lr(delta, eta, eps)
                    if inner:
                        key = (alpha, delta, eps)
                        out[key] = out.get(key, 0) + outer * inner
    return out


@lru_cache(maxsize=None)
def _reference_mn(lam, rho) -> int:
    """Reference character by the tuple recursion on first-column hook
    lengths (beta-lists), for partition tuples lam and rho."""
    if not rho:
        return 1
    strip = rho[0]
    rest = rho[1:]
    length = len(lam)
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        new = b - strip
        if new < 0 or new in beta_set:
            continue
        sign = -1 if sum(1 for x in beta if new < x < b) % 2 else 1
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(new)
        new_beta.sort(reverse=True)
        new_lam = tuple(x - (len(new_beta) - 1 - i)
                        for i, x in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
        total += sign * _reference_mn(new_lam, rest)
    return total


class TestClassData:
    def test_z_order(self):
        assert z_order((1, 1, 1)) == 6
        assert z_order((2, 1)) == 2
        assert z_order((3,)) == 3
        assert z_order(()) == 1

    def test_class_size(self):
        assert class_size((1, 1, 1), 3) == 1
        assert class_size((2, 1), 3) == 3
        assert class_size((3,), 3) == 2
        with pytest.raises(SizeMismatch):
            class_size((2, 1), 4)

    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 9):
            assert sum(class_size(rho, n) for rho in partitions_of(n)) \
                == factorial(n)


class TestCharacters:
    def test_trivial_and_sign(self):
        for n in range(1, 8):
            for rho in partitions_of(n):
                assert mn_character((n,), rho) == 1
                assert mn_character((1,) * n, rho) \
                    == (-1) ** (n - len(rho))

    def test_dimensions_match_hook_lengths(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                assert mn_character(lam, (1,) * n) == hook_dimension(lam)

    def test_spot_value(self):
        assert mn_character((2, 1), (1, 1, 1)) == 2
        assert mn_character((2, 1), (3,)) == -1
        assert mn_character((2, 2), (2, 2)) == 2

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            mn_character((2, 1), (2, 2))

    def test_rejects_negative_cycle_lengths(self):
        with pytest.raises(NotAPartition):
            mn_character((2,), (3, -1))
        # zeros are still dropped
        assert mn_character((3, 1), (0, 1, 0, 2, 1)) \
            == mn_character((3, 1), (2, 1, 1)) == 1

    def test_matches_reference_recursion(self, cold_memos):
        for n in range(0, 11):
            for lam in partitions_of(n):
                for rho in partitions_of(n):
                    assert mn_character(lam, rho) \
                        == _reference_mn(lam, rho), (lam, rho)

    def test_beads(self):
        assert oracle._beads(()) == 0
        assert oracle._beads((3, 2)) == 0b10100
        assert oracle._beads((1, 1, 1)) == 0b1110

    def test_memo_keys_have_no_empty_rows(self, monkeypatch, cold_memos):
        # strips that empty whole rows of the padded shapes must not
        # leave beads at the bottom of the abacus: one key per partition
        masks = set()
        memoized = oracle._mn

        def spy(mask, rho):
            masks.add(mask)
            return memoized(mask, rho)

        monkeypatch.setattr(oracle, "_mn", spy)
        kronecker(pad((3, 2), 9), pad((3, 2), 9), pad((2, 1), 9))
        assert masks
        assert all(mask == 0 or not mask & 1 for mask in masks)

    def test_row_orthogonality(self):
        for n in range(1, 9):
            chars = {lam: {rho: mn_character(lam, rho)
                           for rho in partitions_of(n)}
                     for lam in partitions_of(n)}
            for lam, row1 in chars.items():
                for mu, row2 in chars.items():
                    inner = sum(class_size(rho, n) * row1[rho] * row2[rho]
                                for rho in partitions_of(n))
                    assert inner == (factorial(n) if lam == mu else 0)

    def test_memo_can_be_cleared(self):
        assert mn_character((3, 1), (2, 1, 1)) == 1
        oracle._mn.cache_clear()
        assert mn_character((3, 1), (2, 1, 1)) == 1

    def test_overfilled_memo_keeps_values(self, monkeypatch):
        # a bound far below one character table evicts entries in the
        # middle of the recursion; the values must not change
        small = lru_cache(maxsize=16)(oracle._mn.__wrapped__)
        monkeypatch.setattr(oracle, "_mn", small)
        for lam in partitions_of(9):
            for rho in partitions_of(9):
                assert mn_character(lam, rho) == _reference_mn(lam, rho)
        info = small.cache_info()
        assert info.currsize == info.maxsize == 16
        assert info.misses > 16


class TestKronecker:
    def test_trivial_cases(self):
        for lam in partitions_of(4):
            assert kronecker(lam, lam, (4,)) == 1
            for mu in partitions_of(4):
                assert kronecker((4,), lam, mu) == (1 if lam == mu else 0)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            kronecker((2, 1), (2, 1), (2, 2))

    def test_symmetry(self):
        rng = random.Random(7)
        for n in range(3, 11):
            pool = partitions_of(n)
            for _ in range(4):
                lam, nu, mu = (rng.choice(pool) for _ in range(3))
                base = kronecker(lam, nu, mu)
                assert kronecker(nu, lam, mu) == base
                assert kronecker(mu, nu, lam) == base
                assert kronecker(lam, mu, nu) == base

    def test_padded_family(self):
        # padded values below, at, and past the stabilization point
        assert kronecker((6, 6, 1), (6, 4, 3), (10, 2, 1)) == 3
        assert kronecker((7, 6, 1), (7, 4, 3), (11, 2, 1)) == 4
        assert kronecker((8, 6, 1), (8, 4, 3), (12, 2, 1)) == 4
        assert kronecker((6, 6, 1), (6, 4, 3), (10, 3)) == 2
        assert kronecker((7, 6, 1), (7, 4, 3), (11, 3)) == 3


class TestStableOracle:
    def test_values_and_onset(self):
        result = stable_kronecker_oracle((6, 1), (4, 3), (2, 1))
        assert result == StableResult(4, 17)
        assert stable_kronecker_oracle((6, 1), (4, 3), (3,)).value == 3
        assert stable_kronecker_oracle((2, 1), (3, 3, 2), (2, 2, 1)).value == 1
        assert stable_kronecker_oracle((), (), ()).value == 1

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            stable_kronecker_oracle((3, 2), (4, 1), (2, 2, 1), n_cap=9)

    def test_budget_boundary(self, cold_memos):
        triple = ((3, 2), (4, 1), (2, 2, 1))
        onset = 15
        with pytest.raises(BudgetExceeded):
            stable_kronecker_oracle(*triple, n_cap=onset)
        with pytest.raises(BudgetExceeded):
            _scan_oracle(*triple, n_cap=onset)
        result = stable_kronecker_oracle(*triple, n_cap=onset + 1)
        assert result == _scan_oracle(*triple, n_cap=onset + 1)
        assert result.onset == onset

    def test_budget_ignores_the_memo(self, cold_memos):
        # a capped call raises the same way cold and after an uncapped
        # call on the same triple has filled the memo
        triple = ((3, 2), (4, 1), (2, 2, 1))
        with pytest.raises(BudgetExceeded) as cold:
            stable_kronecker_oracle(*triple, n_cap=9)
        assert stable_kronecker_oracle(*triple) == StableResult(29, 15)
        with pytest.raises(BudgetExceeded) as warm:
            stable_kronecker_oracle(*triple, n_cap=9)
        assert str(warm.value) == str(cold.value)

    def test_matches_scan(self):
        pool = partitions_up_to(4)
        for lam in pool:
            for nu in pool:
                for mu in pool:
                    assert stable_kronecker_oracle(lam, nu, mu) \
                        == _scan_oracle(lam, nu, mu), (lam, nu, mu)

    def test_matches_padded_reference(self):
        pool = partitions_up_to(5)
        for lam in pool:
            for nu in pool:
                for mu in pool:
                    assert stable_kronecker_oracle(lam, nu, mu) \
                        == _padded_oracle(lam, nu, mu), (lam, nu, mu)

    def test_expand_matches_reference(self):
        # equality gate for the expansion by skew walks: every shape of
        # size at most 8 and every split k + d + e of its size
        cases = 0
        for shape in partitions_up_to(8):
            n = size(shape)
            for k in range(n + 1):
                for d in range(n - k + 1):
                    args = (shape, k, d, n - k - d)
                    assert oracle._expand(*args) == _reference_expand(*args), \
                        args
                    cases += 1
        assert cases == 2106

    def test_only_small_kronecker_coefficients(self, monkeypatch,
                                               cold_memos):
        # Littlewood's formula needs g only at sizes k <= 3 = |(2, 1)|,
        # where the padded evaluation went up to n = 31
        sizes = []

        def spy(lam, nu, mu):
            sizes.append(size(lam))
            return _kronecker(lam, nu, mu)

        monkeypatch.setattr(oracle, "_kronecker", spy)
        result = stable_kronecker_oracle((9, 6, 3), (9, 6, 3), (2, 1))
        assert result == StableResult(60, 39)
        assert sizes and max(sizes) <= 3


class TestHorizontalStripSet:
    def test_example(self):
        assert p_set(6, (2, 1)) == [(3, 2, 1), (4, 2), (4, 1, 1), (5, 1)]
        assert p_set(4, ()) == [(4,)]
        assert p_set(2, (2,)) == [(2,)]

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            p_set(2, (2, 1))

    def test_against_brute_force(self):
        for n in range(0, 9):
            for m in range(0, n + 1):
                for mu in partitions_of(m):
                    brute = [beta for beta in partitions_of(n)
                             if contains(mu, beta)
                             and is_horizontal(beta, mu)]
                    assert sorted(p_set(n, mu)) == sorted(brute)


class TestOneStepRecursion:
    def test_spot_value(self):
        lam, nu, mu_n = (4, 2), (3, 2, 1), (3, 2, 1)
        assert dvir_step(lam, nu, mu_n) == kronecker(lam, nu, mu_n)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            dvir_step((2, 1), (2, 1), (2, 2))

    def test_agreement_sweep(self):
        for n in range(1, 11):
            pool = partitions_of(n)
            shallow = [mu for mu in pool if size(mu) - mu[0] <= 4]
            for lam in pool:
                for nu in pool:
                    for mu_n in shallow:
                        assert dvir_step(lam, nu, mu_n) \
                            == kronecker(lam, nu, mu_n), (lam, nu, mu_n)
