"""Command-line interface: coefficients, tableau listings, triple
classification, oracle cross-checks, and verification sweeps.

Exit codes: 2 for unparsable input or a negative bound (every
--n-cap, and verify's --max-size, --max-s and --thm33-r), 3 when the
tableau rule does not apply to a triple inside its s-range (outside it
`coeff` prints 0) and no oracle fallback was requested, 4 when the
oracle needs an n above --n-cap (`coeff` and `verify`; `oracle` reports
the cap and exits 0), 1 for verification failures.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from functools import partial

import click

from . import branching, lr, oracle, partitions, tableaux, verify
from .partitions import NotAPartition


def _parse(ctx, param, text: str):
    try:
        return partitions.parse_partition(text)
    except NotAPartition as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


@contextmanager
def _oracle_budget():
    """Exit 4 with the error when the oracle needs an n above --n-cap."""
    try:
        yield
    except oracle.BudgetExceeded as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(4)


def _triple_record(lam, nu, mu) -> dict:
    """The triple and the counting regimes that cover it."""
    s = partitions.size(mu)
    return {"lambda": list(lam), "nu": list(nu), "mu": list(mu),
            "copieri": partitions.is_copieri(lam, nu, s),
            "maximal_depth": partitions.is_maximal_depth(lam, nu, s)}


def _emit(record: dict, fmt: str, text_lines):
    """Render one result record in the requested format."""
    if fmt == "json":
        click.echo(json.dumps(record, sort_keys=True))
    elif fmt == "tsv":
        keys = sorted(record)
        click.echo("\t".join(keys))
        click.echo("\t".join(_tsv_cell(record[k]) for k in keys))
    else:
        for line in text_lines:
            click.echo(line)


def _tsv_cell(value) -> str:
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True)
    return str(value)


emit_option = click.option(
    "--emit", type=click.Choice(["text", "json", "tsv"]), default="text",
    show_default=True, help="Output format.")


@click.group()
def main():
    """Stable Kronecker coefficients via Kronecker tableaux."""


def triple_command(name: str):
    """Declare the command `name` on the partitions LAM, NU, MU, each
    parsed by _parse as click reads it, with --emit before its own
    options."""
    def decorate(f):
        f = emit_option(f)
        for arg in ("mu", "nu", "lam"):
            f = click.argument(arg, callback=_parse)(f)
        return main.command(name)(f)
    return decorate


@triple_command("coeff")
@click.option("--fallback-oracle", is_flag=True,
              help="Route non-co-Pieri, non-maximal-depth triples to the "
                   "character oracle.")
@click.option("--n-cap", type=click.IntRange(min=0), default=None,
              help="Cap on n for the oracle fallback.")
@click.option("--verbose", is_flag=True)
def cmd_coeff(lam, nu, mu, emit, fallback_oracle, n_cap, verbose):
    """Compute the stable Kronecker coefficient of LAM, NU, MU."""
    record = _triple_record(lam, nu, mu)
    try:
        value = tableaux.stable_kronecker(lam, nu, mu)
        source = "tableaux"
    except tableaux.NotApplicable:
        if not fallback_oracle:
            click.echo("error: triple is neither co-Pieri nor of maximal "
                       "depth; pass --fallback-oracle to use the character "
                       "oracle", err=True)
            sys.exit(3)
        with _oracle_budget():
            value = oracle.stable_kronecker_oracle(lam, nu, mu,
                                                   n_cap=n_cap).value
        source = "oracle"
    record.update({"value": str(value), "source": source})
    lines = [str(value)]
    if verbose:
        lines = [f"value: {value}", f"source: {source}",
                 f"copieri: {record['copieri']}",
                 f"maximal_depth: {record['maximal_depth']}"]
    _emit(record, emit, lines)


@triple_command("tableaux")
@click.option("--verbose", is_flag=True, help="Interleave shapes in text output.")
def cmd_tableaux(lam, nu, mu, emit, verbose):
    """List the weight-MU classes of standard tableaux from LAM to NU."""
    classes = tableaux.mu_classes(lam, nu, mu)
    entries = []
    sstd = latt = 0
    for cls in classes:
        steps, frames = tableaux.reading_word(cls)
        semi, lattice = tableaux.class_flags(cls)
        sstd += semi
        latt += lattice
        entries.append({
            "word_steps": [branching.step_str(st) for st in steps],
            "word_frames": list(frames),
            "semistandard": semi,
            "lattice": lattice,
            "size": len(cls),
        })
    record = _triple_record(lam, nu, mu)
    record.update({"sstd": str(sstd), "latt": str(latt), "classes": entries})
    lines = [f"classes: {len(classes)}  semistandard: {sstd}  lattice: {latt}"]
    for cls, entry in zip(classes, entries):
        lines.append(" ".join(entry["word_steps"]) + " / "
                     + ",".join(str(f) for f in entry["word_frames"])
                     + f"  semistandard={entry['semistandard']}"
                     + f" lattice={entry['lattice']} size={entry['size']}")
        if verbose:
            rep = cls.members[0]
            lines.append("  rep: " + rep.serialize() + "  shapes: "
                         + " ".join(partitions.format_partition(sh)
                                    for sh in rep.shapes))
    _emit(record, emit, lines)


@triple_command("classify")
def cmd_classify(lam, nu, mu, emit):
    """Report which counting regimes cover the triple LAM, NU, MU."""
    a, b = partitions.skew_diff_sizes(lam, nu)
    record = _triple_record(lam, nu, mu)
    record.update({
        "bounds_ok": partitions.in_bounds(lam, nu, partitions.size(mu)),
        "skew_sizes": [a, b],
    })
    lines = [f"copieri: {record['copieri']}",
             f"maximal_depth: {record['maximal_depth']}",
             f"bounds_ok: {record['bounds_ok']}",
             f"skew_sizes: {a},{b}"]
    _emit(record, emit, lines)


@triple_command("oracle")
@click.option("--n-cap", type=click.IntRange(min=0), default=None,
              help="Largest n the stabilization check may reach; past "
                   "it, the triple is reported as capped.")
@click.option("--report-onset", is_flag=True)
def cmd_oracle(lam, nu, mu, emit, n_cap, report_onset):
    """Compute the stable coefficient by the character oracle."""
    try:
        result = oracle.stable_kronecker_oracle(lam, nu, mu, n_cap=n_cap)
        record = {"value": str(result.value), "onset_n": result.onset,
                  "capped": False}
        lines = [str(result.value)]
        if report_onset:
            lines.append(f"onset_n: {result.onset}")
    except oracle.BudgetExceeded:
        record = {"value": None, "onset_n": None, "capped": True}
        lines = ["capped: no stabilization within the n cap"]
    _emit(record, emit, lines)


@triple_command("lr")
def cmd_lr(lam, nu, mu, emit):
    """Littlewood-Richardson coefficient for NU/LAM of weight MU."""
    try:
        value = lr.classical_lr(lam, nu, mu)
    except lr.ShapeMismatch as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _emit({"lambda": list(lam), "nu": list(nu), "mu": list(mu),
           "value": str(value)}, emit, [str(value)])


@main.command("verify")
@emit_option
@click.option("--max-size", type=click.IntRange(min=0), default=4,
              show_default=True, help="Bound on |lambda|, |nu| in the sweeps.")
@click.option("--max-s", type=click.IntRange(min=0), default=4,
              show_default=True, help="Bound on |mu| in the counting sweep.")
@click.option("--thm33-r", type=click.IntRange(min=0), default=2,
              show_default=True,
              help="Verify the swap identity exhaustively up to this rank.")
@click.option("--n-cap", type=click.IntRange(min=0), default=None,
              help="Largest n the stabilization check may reach in the "
                   "counting sweep; past it, verify exits 4.")
def cmd_verify(emit, max_size, max_s, thm33_r, n_cap):
    """Run the verification sweeps; exit 1 on any failure.  The Bell
    counts always cover ranks 1 to 3."""
    with _oracle_budget():
        records = [*verify.bell_counts(3),
                   *verify.swap_identity(thm33_r),
                   *verify.counting_sweep(max_size, max_s, n_cap)]
    key = partial(json.dumps, sort_keys=True)  # sorted only where printed
    failures = sorted((rec for rec in records if not rec["ok"]), key=key)
    if emit == "tsv":
        click.echo("check\tok\tdetail")
        for rec in sorted(records, key=key):
            detail = {k: v for k, v in rec.items() if k not in ("check", "ok")}
            click.echo(f"{rec['check']}\t{rec['ok']}\t"
                       + json.dumps(detail, sort_keys=True))
    else:
        _emit({"checks": len(records), "failures": failures}, emit,
              [f"checks: {len(records)}  failures: {len(failures)}"]
              + ["FAIL " + json.dumps(rec, sort_keys=True)
                 for rec in failures])
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
