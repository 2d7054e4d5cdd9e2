"""Regenerate oracle_values.json, the pinned references of `oracle-scan`.

For each total size |lambda|+|nu|+|mu| in 12..22 it draws, from a fixed
seed, as many triples as ORACLE_PINNED gives that `oracle_only` accepts
(neither rule covers them and |mu| is in bounds), each partition of size
2..9, and pins the value the character oracle gives; the large triple
((9,6,3),(9,6,3),(2,1)) is pinned as well.

    PYTHONPATH=src python3 perfbench/pin_oracle.py
"""

import json
import random

from stablekron import oracle, partitions

from workloads import LARGE_TRIPLE, ORACLE_PINNED, ORACLE_VALUES, oracle_only

PIN_SEED = 20171012
SIZES = range(2, 10)


def candidates(rng, total: int, count: int) -> list:
    chosen = set()
    while len(chosen) < count:
        a, b = rng.choice(SIZES), rng.choice(SIZES)
        c = total - a - b
        if c not in SIZES:
            continue
        triple = tuple(rng.choice(partitions.partitions_of(k)) for k in (a, b, c))
        if oracle_only(*triple):
            chosen.add(triple)
    return sorted(chosen)


def main():
    rng = random.Random(PIN_SEED)
    triples = [t for total, count in ORACLE_PINNED.items()
               for t in candidates(rng, total, count)]
    triples.append(LARGE_TRIPLE)
    rows = [[list(p) for p in t] + [oracle.stable_kronecker_oracle(*t).value]
            for t in triples]
    ORACLE_VALUES.write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")


if __name__ == "__main__":
    main()
