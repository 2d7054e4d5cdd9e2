"""Character-theoretic ground truth for Kronecker coefficients.

Irreducible symmetric-group characters are evaluated by the
Murnaghan-Nakayama border-strip recursion on beta-sets stored as bit
masks (the abacus): removing a border strip of length r moves one bead
from bit b to an empty bit b - r, with the sign given by the parity of
the beads in between (counted with int.bit_count, so Python >= 3.10).
Beads of empty rows are dropped, so each partition has one mask.
Kronecker coefficients are evaluated by the class-weighted triple
product.  The stable coefficient is evaluated by Littlewood's (1958)
formula, which needs Kronecker coefficients only of partitions of
k <= min(|lam|, |nu|, |mu|), and the skew expansions of `lr`:

    gbar(lam, mu, nu) = sum over k, and alpha, beta, gamma of k, of
        g(alpha, beta, gamma) * sum over delta, eps, zeta of
        c^lam_{alpha delta eps} c^mu_{beta delta zeta} c^nu_{gamma eps zeta}

with c^lam_{alpha delta eps} = sum over eta of c^lam_{alpha eta}
c^eta_{delta eps}, read off one expansion of lam/alpha into every eta
and one of eta/delta into every eps.  Characters, Kronecker and stable
coefficients are memoized in LRU caches bounded at CHAR_CACHE_SIZE,
KRON_CACHE_SIZE and STABLE_CACHE_SIZE arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .partitions import contains, part, partition, partitions_of, size
from .lr import _skew


class SizeMismatch(ValueError):
    pass


class NonIntegral(ArithmeticError):
    pass


class BudgetExceeded(RuntimeError):
    pass


def z_order(rho) -> int:
    """Order of the centralizer of a permutation of cycle type rho."""
    z = 1
    mult: dict[int, int] = {}
    for p in rho:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        z *= p ** m * factorial(m)
    return z


CHAR_CACHE_SIZE = 1 << 16
KRON_CACHE_SIZE = 1 << 14
STABLE_CACHE_SIZE = 1024


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


@lru_cache(maxsize=CHAR_CACHE_SIZE)
def _mn(mask, rho) -> int:
    """The character at rho of the partition with bead mask `mask`.  A
    border strip of length r moves one bead from bit b down to an empty
    bit b - r; its sign is the parity of the beads strictly between."""
    if not rho:
        return 1
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
    return total


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
    return _class_sum(*sorted((lam, nu, mu)))


@lru_cache(maxsize=KRON_CACHE_SIZE)
def _class_sum(lam, nu, mu) -> int:
    """The Kronecker coefficient of a sorted triple, by the class sum
    of the product of the three characters."""
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
    return value


@dataclass(frozen=True)
class StableResult:
    value: int
    onset: int


def stable_kronecker_oracle(lam, nu, mu, n_cap=None) -> StableResult:
    """The stable Kronecker coefficient and its reported onset.

    The value comes from Littlewood's formula (see the module
    docstring).  With n0 the least n at which all three paddings are
    partitions, the onset is max(n0, |lam| + |nu| + |mu|): the first n
    at or past the triangle threshold where two consecutive padded
    values agree.  The padded values are constant from the
    Briand-Orellana-Rosas (2011) bound on, and that bound is at most
    the onset, so the onset needs no evaluation.  With n_cap below
    onset + 1 the call raises BudgetExceeded.  n_cap does not bound the
    work done: no padded coefficient is evaluated, and the cost grows
    with the sizes of the three partitions instead."""
    lam = partition(lam)
    nu = partition(nu)
    mu = partition(mu)
    n0 = max(size(p) + part(p, 1) for p in (lam, nu, mu))
    onset = max(n0, size(lam) + size(nu) + size(mu))
    if n_cap is not None and n_cap < onset + 1:
        raise BudgetExceeded(f"no stabilization for ({lam}, {nu}, {mu}) "
                             f"with n up to {n_cap}")
    return StableResult(_littlewood(*sorted((lam, nu, mu))), onset)


@lru_cache(maxsize=STABLE_CACHE_SIZE)
def _littlewood(lam, mu, nu) -> int:
    """The stable Kronecker coefficient of a sorted triple by
    Littlewood's formula.  k fixes the sizes of delta, eps and zeta:
    2|delta| = |lam| + |mu| - |nu| - k, 2|eps| = |lam| + |nu| - |mu| - k
    and 2|zeta| = |mu| + |nu| - |lam| - k, so a k for which one of them
    is negative or odd adds nothing.  For each k the three expansions
    are joined on their shared delta, eps and zeta, and each (alpha,
    beta, gamma) takes one Kronecker coefficient for its summed weight."""
    a, b, c = size(lam), size(mu), size(nu)
    total = 0
    for k in range(min(a, b, c) + 1):
        twice = (a + b - c - k, a + c - b - k, b + c - a - k)
        if min(twice) < 0 or twice[0] & 1:  # all three share a parity
            continue
        d, e, z = (x // 2 for x in twice)
        by_delta: dict = {}
        for (beta, delta, zeta), coeff in _expand(mu, k, d, z).items():
            by_delta.setdefault(delta, []).append((beta, zeta, coeff))
        by_eps_zeta: dict = {}
        for (gamma, eps, zeta), coeff in _expand(nu, k, e, z).items():
            by_eps_zeta.setdefault((eps, zeta), []).append((gamma, coeff))
        weights: dict = {}
        for (alpha, delta, eps), c_lam in _expand(lam, k, d, e).items():
            for beta, zeta, c_mu in by_delta.get(delta, ()):
                for gamma, c_nu in by_eps_zeta.get((eps, zeta), ()):
                    key = (alpha, beta, gamma)
                    weights[key] = weights.get(key, 0) + c_lam * c_mu * c_nu
        total += sum(w * _kronecker(*key) for key, w in weights.items())
    return total


def _expand(shape, k: int, d: int, e: int) -> dict:
    """{(alpha, delta, eps): c^shape_{alpha delta eps}} over partitions
    alpha of k, delta of d and eps of e, nonzero entries only, with
    c^shape_{alpha delta eps} = sum over eta of c^shape_{alpha eta}
    c^eta_{delta eps}; |shape| = k + d + e.  One walk of shape/alpha
    gives every eta with its coefficient, and one walk of eta/delta
    every eps."""
    rows = len(shape)
    out: dict = {}
    for alpha in partitions_of(k, rows):
        if not contains(alpha, shape):
            continue
        for eta, outer in _skew(alpha, shape):
            for delta in partitions_of(d, rows):
                if not contains(delta, eta):
                    continue
                for eps, inner in _skew(delta, eta):
                    key = (alpha, delta, eps)
                    out[key] = out.get(key, 0) + outer * inner
    return out
