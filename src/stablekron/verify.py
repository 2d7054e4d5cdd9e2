"""The verification sweeps, as generators of check records.

Each record is a dict with a "check" name, the data it was computed
from and "ok": bool.  `stablekron verify` prints them and the
acceptance suite asserts on them, so each sweep is defined once.  A
spent oracle budget (n_cap) raises oracle.BudgetExceeded out of the
generator.  Every call goes through its module attribute, so a wrapper
installed on that attribute sees it.
"""

from __future__ import annotations

from . import branching, diagalg, lr, oracle, partitions, tableaux


def bell_number(m: int) -> int:
    """The Bell number B(m), by the Bell triangle."""
    row = [1]
    for _ in range(m):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[0]


def bell_counts(max_r: int):
    """For r = 1..max_r, the sum over nu of the squared number of paths
    from the empty partition to nu in r steps, against B(2r), the
    dimension of the partition algebra on r strands."""
    for r in range(1, max_r + 1):
        total = sum(len(branching.enumerate_std((), nu, r)) ** 2
                    for nu in partitions.partitions_up_to(r))
        want = bell_number(2 * r)
        yield {"check": "bell", "r": r, "got": total, "want": want,
               "ok": total == want}


def swap_identity(max_r: int):
    """For r = 2..max_r, the swap identity on Murphy elements at every
    valid adjacent swap of every path from the empty partition in r
    steps: one record per rank with the number of cases."""
    for r in range(2, max_r + 1):
        ok = True
        count = 0
        for nu in partitions.partitions_up_to(r):
            for t in branching.enumerate_std((), nu, r):
                for k in range(1, r):
                    if branching.swap_adjacent(t, k) is None:
                        continue
                    count += 1
                    if not diagalg.verify_thm33(t, k):
                        ok = False
        yield {"check": "thm33", "r": r, "cases": count, "ok": ok}


def counting_sweep(max_size: int, max_s: int, n_cap=None):
    """For lam, nu of size at most max_size and 0 <= s <= max_s, from one
    tableaux.class_counts per (lam, nu, s):

    - "oracle_equivalence": for covered triples (co-Pieri or maximal
      depth) with s <= max_size and s within the skew-size bounds, the
      latticed class count of each mu |- s against the character oracle;
    - "decomposition": for co-Pieri triples with s >= 1, the semistandard
      class count of each mu against sum over tau |- s of the Kostka
      number K(tau, mu) times the latticed class count of tau.
    """
    parts = partitions.partitions_up_to(max_size)
    kostka: dict[int, dict] = {}  # s -> {mu: [(tau, K(tau, mu)), ...]}
    for lam in parts:
        for nu in parts:
            for s in range(max_s + 1):
                copieri = partitions.is_copieri(lam, nu, s)
                equivalence = (
                    s <= max_size
                    and (copieri or partitions.is_maximal_depth(lam, nu, s))
                    and partitions.in_bounds(lam, nu, s))
                decomposition = copieri and s >= 1
                if not (equivalence or decomposition):
                    continue
                counts = tableaux.class_counts(lam, nu, s)
                if decomposition and s not in kostka:
                    kostka[s] = {mu: [(tau, lr.ssyt_count(tau, mu))
                                      for tau in counts] for mu in counts}
                for mu, (sstd, latt) in counts.items():
                    triple = {"lambda": list(lam), "nu": list(nu),
                              "mu": list(mu)}
                    if equivalence:
                        want = oracle.stable_kronecker_oracle(
                            lam, nu, mu, n_cap=n_cap).value
                        yield {"check": "oracle_equivalence", **triple,
                               "got": latt, "want": want, "ok": latt == want}
                    if decomposition:
                        rhs = sum(k * counts[tau][1]
                                  for tau, k in kostka[s][mu])
                        yield {"check": "decomposition", **triple,
                               "got": sstd, "want": rhs, "ok": sstd == rhs}
