"""End-to-end tests of the command-line interface."""

import json

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from stablekron import diagalg, lr, verify
from stablekron.cli import main
from stablekron.partitions import partitions_of


def run(*args):
    return CliRunner().invoke(main, list(args))


def run_ok(*args):
    result = run(*args)
    assert result.exit_code == 0, result.output + str(result.exception)
    return result


VERIFY_TSV = """\
check\tok\tdetail
thm33\tTrue\t{"cases": 39, "r": 3}
thm33\tTrue\t{"cases": 4, "r": 2}
bell\tTrue\t{"got": 15, "r": 2, "want": 15}
bell\tTrue\t{"got": 2, "r": 1, "want": 2}
bell\tTrue\t{"got": 203, "r": 3, "want": 203}
oracle_equivalence\tTrue\t{"got": 1, "lambda": [], "mu": [], "nu": [], "want": 1}
"""

VERBOSE_LISTING = """\
classes: 7  semistandard: 3  lattice: 2
-0+1 -0+1 -0+1 -0+2 -0+2 -0+2 -0+3 -0+3 / 1,1,1,2,1,1,2,2  semistandard=True lattice=True size=30
  rep: -0+1 -0+1 -0+1 -0+2 -0+2 -0+2 -0+3 -0+3  shapes: 3,1 4,1 5,1 6,1 6,2 6,3 6,4 6,4,1 6,4,2
-0+1 -0+1 -0+1 -0+2 -0+2 -0+2 -0+3 -0+3 / 1,1,1,2,2,1,2,1  semistandard=True lattice=True size=60
  rep: -0+1 -0+1 -0+1 -0+2 -0+3 -0+2 -0+2 -0+3  shapes: 3,1 4,1 5,1 6,1 6,2 6,2,1 6,3,1 6,4,1 6,4,2
-0+1 -0+1 -0+1 -0+2 -0+2 -0+2 -0+3 -0+3 / 2,1,1,1,1,1,2,2  semistandard=False lattice=False size=27
  rep: -0+1 -0+1 -0+2 -0+2 -0+2 -0+1 -0+3 -0+3  shapes: 3,1 4,1 5,1 5,2 5,3 5,4 6,4 6,4,1 6,4,2
-0+1 -0+1 -0+1 -0+2 -0+2 -0+2 -0+3 -0+3 / 2,1,1,2,1,1,2,1  semistandard=True lattice=False size=180
  rep: -0+1 -0+1 -0+2 -0+2 -0+3 -0+1 -0+2 -0+3  shapes: 3,1 4,1 5,1 5,2 5,3 5,3,1 6,3,1 6,4,1 6,4,2
-0+1 -0+1 -0+1 -0+2 -0+2 -0+2 -0+3 -0+3 / 2,1,1,2,2,1,1,1  semistandard=False lattice=False size=60
  rep: -0+1 -0+1 -0+2 -0+3 -0+3 -0+1 -0+2 -0+2  shapes: 3,1 4,1 5,1 5,2 5,2,1 5,2,2 6,2,2 6,3,2 6,4,2
-0+1 -0+1 -0+1 -0+2 -0+2 -0+2 -0+3 -0+3 / 2,2,1,1,1,1,2,1  semistandard=False lattice=False size=45
  rep: -0+1 -0+2 -0+2 -0+2 -0+3 -0+1 -0+1 -0+3  shapes: 3,1 4,1 4,2 4,3 4,4 4,4,1 5,4,1 6,4,1 6,4,2
-0+1 -0+1 -0+1 -0+2 -0+2 -0+2 -0+3 -0+3 / 2,2,1,2,1,1,1,1  semistandard=False lattice=False size=75
  rep: -0+1 -0+2 -0+2 -0+3 -0+3 -0+1 -0+1 -0+2  shapes: 3,1 4,1 4,2 4,3 4,3,1 4,3,2 5,3,2 6,3,2 6,4,2
"""


class TestCoeff:
    def test_golden_values(self):
        assert run_ok("coeff", "6,2", "7,4", "2,2,1").output.strip() == "11"
        assert run_ok("coeff", "6,1", "4,3", "1,1,1").output.strip() == "1"
        assert run_ok("coeff", "0", "0", "0").output.strip() == "1"

    def test_json_record(self):
        result = run_ok("coeff", "6,2", "7,4", "2,2,1", "--emit", "json")
        record = json.loads(result.output)
        assert record["value"] == "11"
        assert record["source"] == "tableaux"
        assert record["copieri"] is True

    def test_parse_error_exit_2(self):
        assert run("coeff", "2,3", "4", "4").exit_code == 2
        assert run("coeff", "a", "4", "4").exit_code == 2

    def test_not_applicable_exit_3(self):
        assert run("coeff", "3", "2,1", "2,1").exit_code == 3

    def test_out_of_range_uncovered_triple_is_0(self):
        # neither co-Pieri nor of maximal depth, but s = 0 is below the
        # skew-size bound 1, so the coefficient is known without a rule
        assert run_ok("coeff", "2", "1", "0").output == "0\n"

    def test_fallback_oracle(self):
        result = run_ok("coeff", "3", "2,1", "2,1", "--fallback-oracle",
                        "--emit", "json")
        record = json.loads(result.output)
        assert record["source"] == "oracle"
        assert record["value"] == "5"

    def test_spent_oracle_budget_exit_4(self):
        result = run("coeff", "3", "2,1", "2,1", "--fallback-oracle",
                     "--n-cap", "5")
        assert result.exit_code == 4
        assert result.output.startswith("error: no stabilization")

    def test_verbose_text(self):
        out = run_ok("coeff", "6,1", "4,3", "2,1", "--verbose").output
        assert "value: 4" in out
        assert "source: tableaux" in out


class TestTableaux:
    def test_json_schema(self):
        result = run_ok("tableaux", "4,2", "5,3,1", "2,1", "--emit", "json")
        record = json.loads(result.output)
        assert record["lambda"] == [4, 2]
        assert record["nu"] == [5, 3, 1]
        assert record["mu"] == [2, 1]
        assert record["maximal_depth"] is True
        assert record["sstd"] == "3" and record["latt"] == "2"
        classes = record["classes"]
        assert len(classes) == 3
        for entry in classes:
            assert set(entry) == {"word_steps", "word_frames",
                                  "semistandard", "lattice", "size"}
            assert entry["size"] == 2
        assert sum(e["lattice"] for e in classes) == 2

    def test_class_flags_sum_to_header_counts(self):
        for args in (("4,2", "5,3,1", "2,1"), ("3,1", "6,4,2", "5,3"),
                     ("4", "5", "3,2")):
            record = json.loads(
                run_ok("tableaux", *args, "--emit", "json").output)
            classes = record["classes"]
            assert str(sum(e["semistandard"] for e in classes)) \
                == record["sstd"]
            assert str(sum(e["lattice"] for e in classes)) == record["latt"]
            assert all(e["semistandard"] for e in classes if e["lattice"])

    def test_empty_below_skew_bound(self):
        result = run_ok("tableaux", "4,2", "5,3,1", "1", "--emit", "json")
        assert json.loads(result.output)["classes"] == []

    def test_one_row_listing(self):
        result = run_ok("tableaux", "7", "6", "6", "--emit", "json")
        assert len(json.loads(result.output)["classes"]) == 3

    def test_verbose_listing(self):
        # each class line is followed by its representative's steps and
        # the shapes it passes through
        result = run_ok("tableaux", "3,1", "6,4,2", "5,3", "--verbose")
        assert result.output == VERBOSE_LISTING


class TestClassify:
    def test_tsv(self):
        result = run_ok("classify", "6,2", "7,4", "2,2", "--emit", "tsv")
        header, row = result.output.strip().split("\n")
        record = dict(zip(header.split("\t"), row.split("\t")))
        assert record["copieri"] == "True"
        assert record["maximal_depth"] == "False"
        assert record["skew_sizes"] == "[0, 3]"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.text(),
                              st.text(alphabet="0123456789,[] -", max_size=12)),
                    max_size=4))
    def test_fuzzed_arguments_exit_0_or_2(self, args):
        result = run("classify", *args)
        assert result.exit_code in (0, 2), (args, result.output,
                                            result.exception)


class TestOracle:
    def test_value_and_onset(self):
        result = run_ok("oracle", "6,1", "4,3", "2,1", "--emit", "json")
        record = json.loads(result.output)
        assert record == {"value": "4", "onset_n": 17, "capped": False}

    def test_capped(self):
        result = run_ok("oracle", "3,2", "4,1", "2,2,1", "--n-cap", "9",
                        "--emit", "json")
        assert json.loads(result.output)["capped"] is True

    def test_negative_n_cap_exit_2(self):
        # a negative cap would cap every oracle call; 0 is still a cap
        for args in (("coeff", "3", "2,1", "2,1", "--fallback-oracle"),
                     ("oracle", "1", "0", "1")):
            assert run(*args, "--n-cap", "-1").exit_code == 2, args
        result = run_ok("oracle", "1", "0", "1", "--n-cap", "0")
        assert result.output.startswith("capped")

    def test_n_cap_help(self):
        # what the cap bounds, and what each command does past it
        for command, past in (("oracle", "the triple is reported as capped."),
                              ("verify", "verify exits 4.")):
            text = " ".join(run_ok(command, "--help").output.split())
            assert "Largest n the stabilization check may reach" in text, \
                command
            assert "past it, " + past in text, command

    def test_report_onset_text(self):
        out = run_ok("oracle", "6,1", "4,3", "2,1", "--report-onset").output
        assert out.splitlines() == ["4", "onset_n: 17"]


class TestLr:
    def test_value(self):
        assert run_ok("lr", "4,2", "5,3,1", "2,1").output.strip() == "2"

    def test_shape_mismatch_exit_2(self):
        assert run("lr", "4,2", "3,1", "2").exit_code == 2


class TestVerify:
    def test_small_bounds_pass(self):
        result = run_ok("verify", "--max-size", "2", "--max-s", "2",
                        "--emit", "json")
        record = json.loads(result.output)
        assert record["failures"] == []
        assert record["checks"] > 0

    def test_spent_oracle_budget_exit_4(self):
        result = run("verify", "--max-size", "2", "--max-s", "2",
                     "--n-cap", "3")
        assert result.exit_code == 4
        assert result.output.startswith("error: no stabilization")

    def test_vacuous_bounds_pass(self):
        assert run("verify", "--max-size", "0", "--max-s", "0").exit_code == 0

    def test_negative_bounds_exit_2(self):
        # a negative bound would sweep nothing and pass vacuously
        for option in ("--max-size", "--max-s", "--thm33-r", "--n-cap"):
            result = run("verify", option, "-1")
            assert result.exit_code == 2, option
            assert "checks:" not in result.output

    def test_bell_records_ignore_max_s(self):
        # the Bell counts cover ranks 1..3 whatever --max-s is, so a
        # larger bound never means fewer checks
        for max_s, checks in enumerate([4, 5, 7, 10, 15]):
            rows = run_ok("verify", "--max-size", "0", "--max-s", str(max_s),
                          "--thm33-r", "0", "--emit", "tsv"
                          ).output.splitlines()[1:]
            assert len(rows) == checks, max_s
            bell = [json.loads(row.split("\t")[2])["r"]
                    for row in rows if row.startswith("bell\t")]
            assert sorted(bell) == [1, 2, 3], max_s

    def test_kostka_numbers_once_per_pair(self, monkeypatch):
        # the decomposition checks read one Kostka table per s, so each
        # pair (tau, mu) of partitions of s is counted once per sweep
        pairs = []
        ssyt_count = lr.ssyt_count

        def counted(tau, mu):
            pairs.append((tau, mu))
            return ssyt_count(tau, mu)

        monkeypatch.setattr(lr, "ssyt_count", counted)
        records = list(verify.counting_sweep(4, 4))
        assert len(records) == 938
        assert all(rec["ok"] for rec in records)
        assert sorted(pairs) == sorted(
            (tau, mu) for s in range(1, 5)
            for tau in partitions_of(s) for mu in partitions_of(s))

    def test_tsv_rows(self):
        result = run_ok("verify", "--max-size", "0", "--max-s", "0",
                        "--thm33-r", "3", "--emit", "tsv")
        assert result.output == VERIFY_TSV

    def test_failed_check_exit_1(self, monkeypatch):
        # a swap identity that never holds fails both thm33 records,
        # whatever the output format
        monkeypatch.setattr(diagalg, "verify_thm33", lambda t, k: False)
        args = ("verify", "--max-size", "0", "--max-s", "0", "--thm33-r", "3")
        failures = [{"cases": 39, "check": "thm33", "ok": False, "r": 3},
                    {"cases": 4, "check": "thm33", "ok": False, "r": 2}]
        result = run(*args)
        assert result.exit_code == 1
        assert result.output == "checks: 6  failures: 2\n" + "".join(
            "FAIL " + json.dumps(rec, sort_keys=True) + "\n"
            for rec in failures)
        result = run(*args, "--emit", "json")
        assert result.exit_code == 1
        assert json.loads(result.output) == {"checks": 6,
                                             "failures": failures}

    def test_printed_records_in_json_key_order(self, monkeypatch):
        # the TSV rows, and the JSON failures among them, come sorted by
        # each record's JSON text with sorted keys
        monkeypatch.setattr(diagalg, "verify_thm33", lambda t, k: False)
        args = ("verify", "--max-size", "1", "--max-s", "2", "--thm33-r", "3")
        rows = run(*args, "--emit", "tsv").output.splitlines()[1:]
        records = []
        for row in rows:
            check, ok, detail = row.split("\t")
            records.append({"check": check, "ok": ok == "True",
                            **json.loads(detail)})
        keys = [json.dumps(rec, sort_keys=True) for rec in records]
        assert len(records) > 6 and keys == sorted(keys)
        result = run(*args, "--emit", "json")
        assert result.exit_code == 1
        assert json.loads(result.output)["failures"] \
            == [rec for rec in records if not rec["ok"]]


class TestDeterminism:
    def test_byte_stable_output(self):
        for args in [("coeff", "6,2", "7,4", "2,2,1", "--emit", "json"),
                     ("tableaux", "7", "6", "3,2,1", "--emit", "json"),
                     ("classify", "2,1", "3,3,2", "2,2,1", "--emit", "tsv")]:
            assert run_ok(*args).output == run_ok(*args).output
