"""Seeded inputs and their references for the four benchmark workloads.

Every generator takes a `random.Random` built from the run's seed and
returns the same triples, in the same order, for the same seed.  Each
keeps the amount of work nearly the same whatever the seed, so that
run-to-run differences come from the program and not from the draw:

- `rule-copieri` takes one triple from every (lambda, nu, s) stratum of
  one-row lambda and nu, the shorter first, in a fixed order, and draws
  only mu from the seed: the paths enumerated are fixed, and so is peak
  memory, which depends on the order of the strata and on their
  orientation (paths from (a) to (b) share other prefixes than paths
  from (b) to (a)).
- `rule-maxdepth` uses, for each s, the same (lambda, nu) pairs -- those
  whose path count (standard fillings of nu/lambda, counted here
  independently of the package) times s lies nearest a target -- and
  draws only mu from the seed, so the paths enumerated are fixed too.
- `oracle-scan` takes every pinned triple, by total size |lambda|+|nu|+|mu|,
  smallest first, then the fixed large triple; the seed orders the
  triples of each size and chooses which of lambda and nu comes first.

The references are computed in the benchmark's parent process, never in
the measured child.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from stablekron import oracle, partitions, tableaux

ORACLE_VALUES = Path(__file__).with_name("oracle_values.json")
# Pinned triples per total size.  Small sizes get more, so that the
# median call falls among many calls of similar cost.
ORACLE_PINNED = {total: 8 if total <= 16 else 2 for total in range(12, 23)}
LARGE_TRIPLE = ((9, 6, 3), (9, 6, 3), (2, 1))

MAXDEPTH_S = range(7, 11)
MAXDEPTH_MAX_ROWS = 4
MAXDEPTH_MAX_NU = 14
MAXDEPTH_PATH_STEPS = 4000   # target paths * s of each pair
MAXDEPTH_PAIRS = 5           # pairs per s

VERIFY_ARGS = ["verify", "--max-size", "4", "--max-s", "4", "--thm33-r", "4",
               "--emit", "json"]
VERIFY_CHECKS = 944


def in_bounds(lam, nu, s: int) -> bool:
    """s lies in [max(a, b), |lam| + |nu|], where a and b are the sizes
    of lam and nu outside their intersection."""
    a, b = partitions.skew_diff_sizes(lam, nu)
    return max(a, b) <= s <= sum(lam) + sum(nu)


def rule_copieri(rng) -> list:
    """Co-Pieri, not maximal-depth triples with one-row lambda and nu of
    sizes 1..6 and |mu| in {5, 6}: one per unordered stratum {a, b} x s,
    in increasing a, b and s, lambda the shorter where both orientations
    qualify, and mu drawn from the seed."""
    triples = []
    for a in range(1, 7):
        for b in range(a, 7):
            for s in (5, 6):
                sides = [(lam, nu) for lam, nu in {((a,), (b,)), ((b,), (a,))}
                         if partitions.is_copieri(lam, nu, s)
                         and not partitions.is_maximal_depth(lam, nu, s)
                         and in_bounds(lam, nu, s)]
                if not sides:
                    continue
                lam, nu = min(sides)
                triples.append((lam, nu, rng.choice(partitions.partitions_of(s))))
    return triples


@lru_cache(maxsize=None)
def skew_tableaux(lam, nu) -> int:
    """Number of standard fillings of nu/lam: the paths from lam to nu of
    a maximal-depth triple, each step adding one box."""
    if lam == nu:
        return 1
    total = 0
    for row in range(len(nu)):
        smaller = list(nu)
        smaller[row] -= 1
        if row + 1 < len(nu) and smaller[row] < nu[row + 1]:
            continue
        if smaller[row] < partitions.part(lam, row + 1):
            continue
        total += skew_tableaux(lam, partitions.partition(smaller))
    return total


@lru_cache(maxsize=None)
def maxdepth_pairs(s: int) -> tuple:
    """The MAXDEPTH_PAIRS maximal-depth pairs (lam, nu) with |nu/lam| = s
    and nu of at most four rows whose path steps (paths * s) lie nearest
    MAXDEPTH_PATH_STEPS; ties go to the earlier pair in sorted order."""
    pairs = []
    for size in range(s, MAXDEPTH_MAX_NU + 1):
        for nu in partitions.partitions_of(size, max_len=MAXDEPTH_MAX_ROWS):
            for lam in partitions.partitions_of(size - s):
                if (partitions.is_maximal_depth(lam, nu, s)
                        and in_bounds(lam, nu, s)):
                    pairs.append((lam, nu))
    pairs.sort(key=lambda p: (abs(skew_tableaux(*p) * s - MAXDEPTH_PATH_STEPS), p))
    return tuple(pairs[:MAXDEPTH_PAIRS])


def rule_maxdepth(rng) -> list:
    """For each s in 7..10 and each of its fixed pairs (lam, nu), a mu of
    size s inside nu with at most four rows, drawn from the seed.  The
    pairs fix the paths enumerated; the seed moves the classes formed."""
    triples = []
    for s in MAXDEPTH_S:
        for lam, nu in maxdepth_pairs(s):
            mus = [mu for mu in partitions.partitions_of(s, max_len=MAXDEPTH_MAX_ROWS)
                   if partitions.contains(mu, nu)]
            triples.append((lam, nu, rng.choice(mus)))
    rng.shuffle(triples)
    return triples


def pinned_oracle_values() -> dict:
    """Pinned stable coefficients, keyed by the sorted triple: the
    coefficient is symmetric in its three partitions."""
    rows = json.loads(ORACLE_VALUES.read_text())
    return {tuple(sorted(tuple(p) for p in row[:3])): row[3] for row in rows}


def oracle_only(lam, nu, mu) -> bool:
    """Triples only the character oracle covers, with s = |mu| in bounds
    (outside them the coefficient is 0 without computation)."""
    s = sum(mu)
    return in_bounds(lam, nu, s) and not (partitions.is_copieri(lam, nu, s)
                                          or partitions.is_maximal_depth(lam, nu, s))


def oracle_scan(rng) -> list:
    """The pinned triples of total size 12..22 in increasing size, each
    with lambda and nu in a seeded order the rule does not cover, then
    the fixed large triple."""
    rows = json.loads(ORACLE_VALUES.read_text())
    by_total: dict[int, list] = {t: [] for t in ORACLE_PINNED}
    for row in rows:
        lam, nu, mu = (tuple(p) for p in row[:3])
        total = sum(lam) + sum(nu) + sum(mu)
        if total not in by_total:
            continue
        sides = [t for t in ((lam, nu, mu), (nu, lam, mu)) if oracle_only(*t)]
        if not sides:
            raise ValueError(f"pinned triple {row[:3]} is covered by the rule")
        by_total[total].append(rng.choice(sides))
    triples = []
    for total in ORACLE_PINNED:
        rng.shuffle(by_total[total])
        triples += by_total[total]
    return triples + [LARGE_TRIPLE]


GENERATORS = {
    "rule-copieri": rule_copieri,
    "rule-maxdepth": rule_maxdepth,
    "oracle-scan": oracle_scan,
}


def references(workload: str, triples) -> list:
    """The value each call must return."""
    if workload == "rule-copieri":
        return [oracle.stable_kronecker_oracle(*t).value for t in triples]
    if workload == "rule-maxdepth":
        return [tableaux.classical_lr(*t) for t in triples]
    if workload == "oracle-scan":
        pinned = pinned_oracle_values()
        return [pinned[tuple(sorted(t))] for t in triples]
    raise ValueError(f"no references for {workload}")
