"""Character-theoretic ground truth for Kronecker coefficients.

Irreducible symmetric-group characters are evaluated by the
Murnaghan-Nakayama border-strip recursion on beta-sets stored as bit
masks (the abacus): removing a border strip of length r moves one bead
from bit b to an empty bit b - r, with the sign given by the parity of
the beads in between (counted with int.bit_count, so Python >= 3.10).
Beads of empty rows are dropped, so each partition has one mask.
Kronecker coefficients are evaluated by the class-weighted triple product,
and the stable coefficient by one evaluation at a stabilization bound.
By Briand-Orellana-Rosas (2011), g(lam[n], nu[n], mu[n]) is constant
for n >= |beta| + |gamma| + alpha_1, for any assignment of lam, nu, mu
to the roles alpha, beta, gamma; Brion (1993) showed the sequence is
weakly increasing in n.  A one-step recursion expressing the padded
coefficient through skew terms and horizontal-strip additions provides
an independent identity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .partitions import (
    contains, pad, part, partition, partitions_of, size,
)
from .lr import _classical_lr


class SizeMismatch(ValueError):
    pass


class NonIntegral(ArithmeticError):
    pass


class BudgetExceeded(RuntimeError):
    pass


class StabilityError(ArithmeticError):
    """The padded coefficient differs at the stabilization bound N and
    at N + 1, so the bound or the evaluation is wrong."""


def z_order(rho) -> int:
    """Order of the centralizer of a permutation of cycle type rho."""
    z = 1
    mult: dict[int, int] = {}
    for p in rho:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        z *= p ** m * factorial(m)
    return z


def class_size(rho, n: int) -> int:
    if size(rho) != n:
        raise SizeMismatch(f"{rho} is not a cycle type of degree {n}")
    return factorial(n) // z_order(rho)


_char_memo: dict[tuple, int] = {}


def _beads(lam) -> int:
    """The beta-set of lam as a bit mask: bit lam_i + len(lam) - i for
    each row i (1-indexed).  No row is empty, so bit 0 is clear."""
    length = len(lam)
    mask = 0
    for i, x in enumerate(lam):
        mask |= 1 << (x + length - 1 - i)
    return mask


def mn_character(lam, rho) -> int:
    """The irreducible character value at cycle type rho, by repeatedly
    stripping a border strip of the largest remaining cycle length."""
    lam = partition(lam)
    rho = partition(sorted((int(x) for x in rho), reverse=True))
    if size(lam) != size(rho):
        raise SizeMismatch(f"|{lam}| != |{rho}|")
    return _mn(_beads(lam), rho)


def _mn(mask, rho) -> int:
    """The character at rho of the partition with bead mask `mask`.  A
    border strip of length r moves one bead from bit b down to an empty
    bit b - r; its sign is the parity of the beads strictly between."""
    if not rho:
        return 1
    key = (mask, rho)
    cached = _char_memo.get(key)
    if cached is not None:
        return cached
    r = rho[0]
    rest = rho[1:]
    movable = mask & ~(mask << r) & ~((1 << r) - 1)
    total = 0
    while movable:
        low = movable & -movable
        movable ^= low
        below = low >> r
        new = mask ^ low ^ below
        # drop the beads of empty rows, so each partition has one key
        new >>= (new ^ (new + 1)).bit_length() - 1
        term = _mn(new, rest)
        if (mask & (low - below)).bit_count() & 1:
            total -= term
        else:
            total += term
    _char_memo[key] = total
    return total


_kron_memo: dict[tuple, int] = {}


def kronecker(lam, nu, mu) -> int:
    """The Kronecker coefficient of three partitions of equal size n."""
    lam = partition(lam)
    nu = partition(nu)
    mu = partition(mu)
    n = size(lam)
    if size(nu) != n or size(mu) != n:
        raise SizeMismatch(f"sizes of {lam}, {nu}, {mu} differ")
    return _kronecker(lam, nu, mu)


def _kronecker(lam, nu, mu) -> int:
    """`kronecker` on partition tuples already known to share a size."""
    key = tuple(sorted((lam, nu, mu)))
    cached = _kron_memo.get(key)
    if cached is not None:
        return cached
    n = size(lam)
    a_mask, b_mask, c_mask = _beads(lam), _beads(nu), _beads(mu)
    n_fact = factorial(n)
    total = 0
    for rho in partitions_of(n):
        a = _mn(a_mask, rho)
        if a == 0:
            continue
        b = _mn(b_mask, rho)
        if b == 0:
            continue
        c = _mn(c_mask, rho)
        if c == 0:
            continue
        total += n_fact // z_order(rho) * a * b * c
    value, rem = divmod(total, n_fact)
    if rem:
        raise NonIntegral(f"non-integral Kronecker sum for {lam}, {nu}, {mu}")
    _kron_memo[key] = value
    return value


@dataclass(frozen=True)
class StableResult:
    value: int
    onset: int


_stable_memo: dict[tuple, StableResult] = {}


def stable_kronecker_oracle(lam, nu, mu, n_cap=None) -> StableResult:
    """The stable Kronecker coefficient and its reported onset.

    With n0 the least n at which all three paddings are partitions, the
    value is the padded coefficient at the stabilization bound
    N = max(n0, min over the three roles of |beta| + |gamma| + alpha_1)
    (Briand-Orellana-Rosas 2011).  As a self-check it is also computed at
    N + 1; a difference raises StabilityError.  The onset is
    max(n0, |lam| + |nu| + |mu|), the first n at or past the triangle
    threshold where two consecutive padded values agree; it is at least
    N, so it needs no evaluation.  With n_cap below onset + 1 the call
    raises BudgetExceeded, so no evaluation goes above n_cap."""
    lam = partition(lam)
    nu = partition(nu)
    mu = partition(mu)
    sizes = (size(lam), size(nu), size(mu))
    total = sum(sizes)
    n0 = max(size(p) + part(p, 1) for p in (lam, nu, mu))
    onset = max(n0, total)
    if n_cap is not None and n_cap < onset + 1:
        raise BudgetExceeded(f"no stabilization for ({lam}, {nu}, {mu}) "
                             f"with n up to {n_cap}")
    key = tuple(sorted((lam, nu, mu)))
    cached = _stable_memo.get(key)
    if cached is not None:
        return cached
    bound = max(n0, min(total - s + part(p, 1)
                        for p, s in zip((lam, nu, mu), sizes)))
    value, check = (kronecker(pad(lam, n), pad(nu, n), pad(mu, n))
                    for n in (bound, bound + 1))
    if value != check:
        raise StabilityError(f"padded values of ({lam}, {nu}, {mu}) differ "
                             f"at n={bound} ({value}) and n={bound + 1} "
                             f"({check})")
    result = StableResult(value, onset)
    _stable_memo[key] = result
    return result


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
    small = partitions_of(s)
    for alpha in partitions_of(n - s):
        if not contains(alpha, inter):
            continue
        # expand both skews into straight shapes of size s; alpha lies in
        # both shapes and |alpha| + s = n, so the LR checks always pass
        lam_terms = {tau: _classical_lr(alpha, lam_n, tau) for tau in small}
        nu_terms = {sig: _classical_lr(alpha, nu_n, sig) for sig in small}
        for tau, c1 in lam_terms.items():
            if c1 == 0:
                continue
            for sig, c2 in nu_terms.items():
                if c2 == 0:
                    continue
                g = _kronecker(tau, sig, mu)
                if g:
                    total += c1 * c2 * g
    for beta in p_set(n, mu):
        if beta != mu_n:
            total -= _kronecker(lam_n, nu_n, beta)
    return total
