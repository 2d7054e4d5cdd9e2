"""Every library call frees what it builds by reference counting: with
the cyclic collector off, a call from cold memos leaves nothing for it
to collect.  A recursive closure that refers to itself would keep its
call's paths, memos and work lists alive until the next collection.
Every memo is bounded, so what it keeps stays bounded too.

This is what lets enumerate_std0 hold off the collector while it builds
and filters its paths, so it is checked where that pause saves most:
the largest co-Pieri stratum of the benchmark, 11,242 paths."""

import gc

import pytest

from conftest import clear_memos, memos
from stablekron import branching, cli, diagalg, lr, oracle, partitions, tableaux
from stablekron.branching import Tableau, enumerate_std, enumerate_std0

CALLS = {
    # 1,485 paths, 30 of them outside the radical
    "enumerate_std": lambda: enumerate_std((2,), (5,), 6),
    "enumerate_std0": lambda: enumerate_std0((2,), (5,), 6),
    "class_counts": lambda: tableaux.class_counts((2, 1), (3, 1), 4),
    "copieri": lambda: tableaux.stable_kronecker((4,), (5,), (3, 2)),
    # 11,242 paths, 141 of them outside the radical
    "copieri_largest":
        lambda: tableaux.stable_kronecker((6,), (6,), (3, 3)),
    "maximal_depth":
        lambda: tableaux.stable_kronecker((3, 1), (6, 4, 2), (5, 3)),
    "oracle": lambda: oracle.stable_kronecker_oracle((3, 2), (3, 2), (2, 1)),
    "classical_lr": lambda: lr.classical_lr((2, 1), (4, 3, 2), (3, 2, 1)),
    "ssyt_count": lambda: lr.ssyt_count((3, 2), (2, 2, 1)),
    "partitions_of": lambda: partitions.partitions_of(7),
    "dvir_diagram_check": lambda: diagalg.dvir_diagram_check(
        Tableau((2, 1), [(2, 2), (0, 2), (2, 0)])),
    "tableaux_listing": lambda: cli.main(
        ["tableaux", "4", "5", "3,2", "--emit", "json"],
        standalone_mode=False),
    "verify": lambda: cli.main(
        ["verify", "--max-size", "3", "--max-s", "3", "--thm33-r", "3",
         "--emit", "json"], standalone_mode=False),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_call_leaves_no_cycles(name):
    clear_memos()
    gc.collect()
    gc.disable()
    try:
        CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_every_memo_is_bounded():
    # found in every module of the package, not only those imported here
    found = memos()
    assert {branching._radical_screen, diagalg._level, diagalg._murphy_prefix,
            lr._skew} <= found
    for memo in found:
        assert memo.cache_info().maxsize is not None, memo.__qualname__
