import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from wittcount import cli
from wittcount.checks import ALL_CHECK_GROUPS
from wittcount.cli import EXIT_FAIL, EXIT_INFEASIBLE, EXIT_PASS, EXIT_USAGE, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plain(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "2", "--alpha", "4", "--n", "1")
    assert code == EXIT_PASS
    assert "count/v_n" in out and "3" in out


def test_count_with_oracle_match(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "2", "--alpha", "3", "--n", "2",
                           "--oracle", "--format", "jsonl")
    assert code == EXIT_PASS
    records = [json.loads(line) for line in out.strip().splitlines()]
    cyc = next(r for r in records if r["check_id"] == "count/oracle-cyclic")
    assert cyc["formula"] == 1 and cyc["oracle"] == 1 and cyc["status"] == "pass"


def test_count_oracle_cap_infeasible(capsys):
    code, _, err = run_cli(capsys, "count", "--p", "2", "--alpha", "6", "--n", "1",
                           "--oracle", "--cap", "10")
    assert code == EXIT_INFEASIBLE
    assert "cap" in err.lower() or "exceed" in err.lower()


def test_count_below_threshold(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "2", "--alpha", "2", "--n", "2",
                           "--oracle", "--format", "jsonl")
    assert code == EXIT_PASS
    records = [json.loads(line) for line in out.strip().splitlines()]
    vn = next(r for r in records if r["check_id"] == "count/v_n")
    assert vn["formula"] == 0


def test_normalize_frozen_example(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--beta", "(1/T^2)")
    assert code == EXIT_PASS
    record = json.loads(out)
    assert record["normalized"] == "(1/T)"
    assert record["certificate"] == "(1/T)"
    assert record["conductors"]["T"]["conductor_exponent"] == 2
    assert record["infinity"]["label"] == "decomposed"
    assert record["single_ramified"]["verdict"] is True


def test_normalize_zero_vector(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--beta", "(0)")
    assert code == EXIT_PASS
    record = json.loads(out)
    assert record["normalized"] == "(0)"
    assert record["conductors"] == "unramified at every finite prime"


def test_normalize_two_components(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--beta", "(1/T, 1/T^2)")
    assert code == EXIT_PASS
    record = json.loads(out)
    assert record["normalized"] == "(1/T, 1/T)"
    assert record["conductors"]["T"]["M_n"] == 2
    assert record["conductors"]["T"]["conductor_exponent"] == 3


def test_normalize_parse_failure(capsys):
    code, _, err = run_cli(capsys, "normalize", "--beta", "1/T^2")
    assert code == EXIT_USAGE and "parse" in err


def test_normalize_length_bound(capsys):
    code, _, err = run_cli(capsys, "normalize", "--beta", "(0, 0, 0, 0, 0)")
    assert code == EXIT_USAGE and "bound" in err


def test_witt_eval(capsys):
    code, out, _ = run_cli(capsys, "witt-eval", "--op", "int-mul", "--m", "3",
                           "--x", "(1/T, 0)")
    assert code == EXIT_PASS and out.strip() == "(1/T, 1/T^2)"
    code, out, _ = run_cli(capsys, "witt-eval", "--op", "add",
                           "--x", "(1, 0)", "--y", "(1, 0)")
    assert code == EXIT_PASS and out.strip() == "(0, 1)"
    code, _, err = run_cli(capsys, "witt-eval", "--op", "add", "--x", "(1, 0)")
    assert code == EXIT_USAGE


def test_carlitz_command(capsys):
    code, out, _ = run_cli(capsys, "carlitz", "--poly", "T^2", "--eval-at", "1")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["coeffs"] == [[0, "T^2"], [1, "T^2+T"], [2, "1"]]
    assert payload["value"] == "T+1"
    assert payload["u_degree"] == 4
    code, out, _ = run_cli(capsys, "carlitz", "--poly", "T^10", "--eval-at", "T^2+1")
    assert code == EXIT_PASS and "value" in json.loads(out)


def test_carlitz_evaluation_is_bounded_by_its_output_size(capsys):
    # (deg x + 1) * q^(deg M) coefficients: 5 * 2^16 is under the default cap
    code, out, _ = run_cli(capsys, "carlitz", "--poly", "T^16+T^3+1", "--eval-at", "T^4+T+1")
    assert code == EXIT_PASS
    assert json.loads(out)["value"].startswith("T^262144+")  # the leading term comes first
    code, out, _ = run_cli(capsys, "carlitz", "--poly", "T^20", "--eval-at", "1")  # at the cap
    assert code == EXIT_PASS and json.loads(out)["value"] == "T+1"  # C_T fixes T+1 over F_2
    x = "+".join(f"T^{2**20 - k}" for k in range(1, 2001))  # parsed in one pass over its terms
    code, out, _ = run_cli(capsys, "carlitz", "--poly", "1", "--eval-at", x)
    assert code == EXIT_PASS and json.loads(out)["value"] == x


def test_carlitz_command_is_capped_by_u_degree(capsys):
    code, out, err = run_cli(capsys, "carlitz", "--poly", "T^23")
    assert (code, out, err) == (EXIT_INFEASIBLE, "", "error: u-degree q^23 exceeds cap 1048576\n")
    code, out, _ = run_cli(capsys, "carlitz", "--p", "3", "--poly", "T^3", "--cap", "26")
    assert (code, out) == (EXIT_INFEASIBLE, "")
    code, out, _ = run_cli(capsys, "carlitz", "--poly", "T^20")  # q^20 is the default cap
    assert code == EXIT_PASS and json.loads(out)["u_degree"] == 2**20


def test_infinity_command(capsys):
    code, out, _ = run_cli(capsys, "infinity", "--beta", "(0, 1)")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert (payload["e"], payload["f"], payload["g"]) == (1, 2, 2)


def test_verify_subset_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--only", "criterion-6",
                           "--format", "jsonl")
    assert code == EXIT_PASS
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["status"] == "pass" for r in records)
    assert {"check_id", "params", "formula", "oracle", "status", "millis"} == set(records[0])


def test_verify_jsonl_byte_deterministic(capsys):
    args = ("verify-all", "--only", "criterion-2", "--only", "criterion-6",
            "--seed", "7", "--format", "jsonl")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2
    for line in out1.strip().splitlines():
        assert json.loads(line)["millis"] == 0  # timing excluded by default


def test_verify_cap_skips_oracles(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--only", "criterion-1",
                           "--cap", "10", "--format", "jsonl")
    assert code == EXIT_PASS  # skipped records are not failures
    records = [json.loads(line) for line in out.strip().splitlines()]
    skipped = [r for r in records if r["status"] == "skipped"]
    assert skipped and not any(r["status"] == "fail" for r in records)
    # rings above the cap are skipped, never silently dropped
    assert any(r["check_id"].startswith("c01-cyclic/q4/d2") for r in skipped)


def test_verify_records_sorted(capsys):
    _, out, _ = run_cli(capsys, "verify-all", "--only", "criterion-1",
                        "--cap", "64", "--format", "jsonl")
    ids = [json.loads(line)["check_id"] for line in out.strip().splitlines()]
    assert ids == sorted(ids)


@pytest.mark.parametrize("prefixes", [("nonexistent",), ("criterion-6", "criterion-66")])
def test_verify_only_that_names_no_group_is_usage_error(capsys, prefixes):
    # a typo in --only must not pass as an empty, successful run
    argv = [arg for prefix in prefixes for arg in ("--only", prefix)]
    code, out, err = run_cli(capsys, "verify-all", *argv)
    assert code == EXIT_USAGE and not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert all(name in err for name, _ in ALL_CHECK_GROUPS)


def test_env_mirror(capsys, monkeypatch):
    monkeypatch.setenv("WITTCOUNT_ALPHA", "4")
    monkeypatch.setenv("WITTCOUNT_FORMAT", "jsonl")
    code, out, _ = run_cli(capsys, "count", "--p", "2", "--n", "1")
    assert code == EXIT_PASS
    records = [json.loads(line) for line in out.strip().splitlines()]
    vn = next(r for r in records if r["check_id"] == "count/v_n")
    assert vn["params"]["alpha"] == 4 and vn["formula"] == 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--format", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify-all", "--p", "3"],
    ["count", "--seed", "1"],
    ["normalize", "--beta", "(1/T)", "--format", "table"],
    ["witt-eval", "--op", "neg", "--x", "(1/T)", "--alpha", "4"],
    ["carlitz", "--poly", "T", "--saturation-rounds", "9"],
    ["infinity", "--beta", "(1/T)", "--timing"],
    # saturation has no budget but --cap
    pytest.param(["verify-all", "--saturation-rounds", "8"], id="verify-all-saturation-rounds"),
    pytest.param(["count", "--saturation-rounds", "8"], id="count-saturation-rounds"),
], ids=lambda argv: argv[0])
def test_flag_the_subcommand_does_not_read_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_readme_flag_table_matches_the_parser(monkeypatch):
    shared, add_flags = set(), cli._add_flags

    def recording(parser, names):  # the shared flags, as build_parser hands them out
        shared.update(names.split())
        add_flags(parser, names)

    monkeypatch.setattr(cli, "_add_flags", recording)
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    text = README.read_text()
    rows = dict(re.findall(r"^\| `([\w-]+)` \| `(.*)` \|$", text, re.M))
    assert rows.keys() == subparsers.choices.keys()
    for name, sub in subparsers.choices.items():
        options = {opt for action in sub._actions for opt in action.option_strings}
        assert set(re.findall(r"--[\w-]+", rows[name])) == options - {"-h", "--help"}, name
    mirrored = re.search(r"The shared flags `([^`]*)` are mirrored", text).group(1).split()
    assert sorted(mirrored) == sorted("--" + name for name in shared)


def test_bad_env_value_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WITTCOUNT_CAP", "abc")
    code, _, err = run_cli(capsys, "count")
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "WITTCOUNT_CAP" in err


@pytest.mark.parametrize("key, value", [("WITTCOUNT_FORMAT", "bogus"),
                                        ("WITTCOUNT_TIMING", "maybe")])
def test_env_value_outside_choices_is_usage_error(capsys, monkeypatch, key, value):
    monkeypatch.setenv(key, value)
    code, out, err = run_cli(capsys, "verify-all")
    assert code == EXIT_USAGE and not out
    assert err.startswith(f"error: {key}={value!r}")


def test_env_boolean_spellings(capsys, monkeypatch):
    monkeypatch.setenv("WITTCOUNT_FORMAT", "jsonl")
    for value in ("OFF", "0", "no", "yes", "True"):
        monkeypatch.setenv("WITTCOUNT_TIMING", value)
        code, out, _ = run_cli(capsys, "verify-all", "--only", "supporting")
        assert code == EXIT_PASS and out.startswith("{")


def test_env_is_read_only_for_the_flags_the_subcommand_takes(capsys, monkeypatch):
    # count takes no --seed, so a bad WITTCOUNT_SEED is not its usage error
    monkeypatch.setenv("WITTCOUNT_SEED", "x")
    assert run_cli(capsys, "count", "--p", "2", "--alpha", "3")[0] == EXIT_PASS
    assert run_cli(capsys, "verify-all", "--only", "supporting") == \
        (EXIT_USAGE, "", "error: WITTCOUNT_SEED='x' is not an integer\n")


def test_count_oracle_large_characteristic(capsys):
    # p = 131: the unit enumeration used to overflow a one-byte digit packing;
    # n = 2 keeps the class oracle (empty at alpha = 2) to one quick call
    code, out, _ = run_cli(capsys, "count", "--p", "131", "--alpha", "2", "--prime", "T+1",
                           "--n", "2", "--oracle", "--format", "jsonl")
    assert code == EXIT_PASS
    records = {r["check_id"]: r for r in map(json.loads, out.strip().splitlines())}
    assert records["count/oracle-cyclic"]["status"] == "pass"
    assert records["count/oracle-classes"]["status"] == "pass"


def test_class_oracle_fault_is_a_failure_not_a_skip(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("oracle invariant broken")

    monkeypatch.setattr("wittcount.checks.oracle_asw_classes_detail", broken)
    code, out, _ = run_cli(capsys, "verify-all", "--only", "criterion-3", "--format", "jsonl")
    assert code == EXIT_FAIL
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records and all(r["status"] == "fail" for r in records)


def test_conductor_divisibility_fault_is_a_record(capsys, monkeypatch):
    monkeypatch.setattr("wittcount.checks.phi", lambda n: 1)  # odd, so not divisible by p-1 = 2
    code, out, _ = run_cli(capsys, "verify-all", "--only", "criterion-9", "--format", "jsonl")
    assert code == EXIT_FAIL
    records = {r["check_id"]: r for r in map(json.loads, out.strip().splitlines())}
    assert records["c09-exact-conductor/q3"]["status"] == "fail"


def test_count_class_oracle_work_is_capped(capsys):
    # 130 candidates x 130 multipliers x 131 corrections exceed the default cap
    code, _, err = run_cli(capsys, "count", "--p", "131", "--alpha", "2", "--prime", "T+1",
                           "--oracle")
    assert code == EXIT_INFEASIBLE and "cap" in err


def test_sweep_exception_is_a_failure(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("injected")

    monkeypatch.setattr("wittcount.checks.lemma42_ceil", broken)
    code, out, _ = run_cli(capsys, "verify-all", "--only", "criterion-6", "--format", "jsonl")
    assert code == EXIT_FAIL
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 3 and all(r["status"] == "fail" for r in records)
    # the floor half of every (alpha, s) instance still passes
    assert all(r["oracle"] == r["formula"] // 2 for r in records)
    _, out, _ = run_cli(capsys, "verify-all", "--only", "criterion-6")
    assert "!! fail:alpha=-1000,s=1 ValueError: injected" in out


def test_cyclic_oracle_fault_is_a_failure(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("unit count disagrees with Phi")

    monkeypatch.setattr("wittcount.checks.oracle_cyclic_subgroups", broken)
    code, out, _ = run_cli(capsys, "verify-all", "--only", "criterion-1", "--format", "jsonl")
    assert code == EXIT_FAIL
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 105 and all(r["status"] == "fail" for r in records)


def test_failing_sweep_names_at_most_five_cases(capsys, monkeypatch):
    monkeypatch.setattr("wittcount.checks.lemma42_floor", lambda alpha, s, p: alpha > 0)
    code, out, _ = run_cli(capsys, "verify-all", "--only", "criterion-6")
    assert code == EXIT_FAIL
    lines = out.splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("c06-lemma42/")]
    assert len(starts) == 3
    for i, j in zip(starts, starts[1:] + [len(lines)]):
        named = [line.strip() for line in lines[i + 1:j]]
        assert named == [f"!! fail:alpha=-1000,s={s}" for s in range(1, 6)]


def test_failing_carlitz_pair_is_named(capsys, monkeypatch):
    # a sweep formats the labels of the failures it names, and only those
    def gcd_check(m, n):
        if m == n and str(m) == "T":
            raise ValueError("injected")
        return m != n

    monkeypatch.setattr("wittcount.checks.carlitz_compose_check", lambda m, n: True)
    monkeypatch.setattr("wittcount.checks.carlitz_gcd_check", gcd_check)
    code, out, _ = run_cli(capsys, "verify-all", "--only", "criterion-11")
    assert code == EXIT_FAIL
    lines = [line.strip() for line in out.splitlines()]
    start = next(i for i, line in enumerate(lines) if line.startswith("c11-gcd/q2"))
    assert lines[start].split()[1:4] == ["120", "105", "fail"]  # 15 diagonal pairs fail
    assert lines[start + 1:start + 6] == [
        "!! fail:1;1", "!! fail:T;T ValueError: injected", "!! fail:T+1;T+1",
        "!! fail:T^2;T^2", "!! fail:T^2+1;T^2+1"]
    assert lines[start + 6].startswith("c11-gcd/q3")  # at most five are named


def test_verify_only_prints_its_groups_lines_of_the_full_run(capsys, verify_all):
    # two --only prefixes print their groups' records byte for byte as the
    # session's full run does, whose every byte test_acceptance pins
    selected = ("criterion-6", "supporting")
    code, out, _ = run_cli(capsys, "verify-all", "--only", selected[0], "--only", selected[1],
                           "--format", "jsonl")
    ids = {rec.check_id for name, group in ALL_CHECK_GROUPS if name in selected
           for rec in verify_all.records[group]}
    assert code == EXIT_PASS and len(ids) == 5
    assert out.splitlines() == [line for line in verify_all.out.splitlines()
                                if json.loads(line)["check_id"] in ids]


def test_sweep_cases_over_cap_are_a_skip(capsys):
    # criterion 10 builds its trichotomy cases from a numerator enumeration
    # that exceeds --cap 10; the other selected records are still printed
    code, out, _ = run_cli(capsys, "verify-all", "--cap", "10", "--only", "criterion-9",
                           "--only", "criterion-10", "--format", "jsonl")
    assert code == EXIT_PASS
    records = {r["check_id"]: r for r in map(json.loads, out.strip().splitlines())}
    assert len(records) == 7
    assert records["c10-trichotomy"]["status"] == "skipped"
    assert records["c10-efg-product"]["status"] == "pass"
    assert records["c09-exact-conductor/q2"]["status"] == "skipped"


def test_sweep_cases_fault_is_a_failure(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("injected")

    monkeypatch.setattr("wittcount.checks._lifted_candidates", broken)
    code, out, _ = run_cli(capsys, "verify-all", "--only", "criterion-10", "--format", "jsonl")
    assert code == EXIT_FAIL
    records = {r["check_id"]: r for r in map(json.loads, out.strip().splitlines())}
    assert records["c10-trichotomy"]["status"] == "fail"
    assert records["c10-efg-product"]["status"] == "pass"
    _, out, _ = run_cli(capsys, "verify-all", "--only", "criterion-10")
    assert "!! error:ValueError: injected" in out


@pytest.mark.parametrize("error", [ValueError, TypeError])
def test_group_fault_fails_one_record_and_the_run_goes_on(capsys, monkeypatch, error):
    # criterion 2 builds its CountParams outside any record, where a fault
    # used to exit 2 with no records (ValueError) or escape main (TypeError)
    def broken(*args):
        raise error("injected")

    monkeypatch.setattr("wittcount.checks.CountParams", broken)
    argv = ("verify-all", "--only", "criterion-2-oracle", "--only", "criterion-6")
    code, out, err = run_cli(capsys, *argv, "--format", "jsonl")
    assert (code, err) == (EXIT_FAIL, "")
    records = {r["check_id"]: r for r in map(json.loads, out.strip().splitlines())}
    assert records.pop("criterion-2-oracle") == {
        "check_id": "criterion-2-oracle", "params": {}, "formula": None, "oracle": None,
        "status": "fail", "millis": 0}
    assert len(records) == 3 and all(r["status"] == "pass" for r in records.values())
    _, out, _ = run_cli(capsys, *argv)
    assert f"!! error:{error.__name__}: injected" in out


def test_failed_self_check_is_one_error_line(capsys, monkeypatch):
    # an AssertionError of the library used to escape main as a traceback
    def broken(*args):
        raise AssertionError("injected")

    monkeypatch.setattr("wittcount.cli.v_n", broken)
    assert run_cli(capsys, "count", "--p", "2", "--alpha", "4") == \
        (EXIT_FAIL, "", "error: internal check failed: injected\n")


def _readme_examples():
    """The ``wittcount`` command lines of the README's CLI example block."""
    block = re.search(r"```sh\n(# full verification grid.*?)```", README.read_text(), re.S)
    return [shlex.split(line)[1:] for line in block.group(1).splitlines()
            if line.startswith("wittcount ")]


# the verify_all fixture already runs verify-all
@pytest.mark.parametrize("argv", [argv for argv in _readme_examples() if argv[0] != "verify-all"],
                         ids=" ".join)
def test_readme_examples_run(capsys, argv):
    assert run_cli(capsys, *argv)[0] == EXIT_PASS


def test_sweep_failures_before_the_cap_are_a_failure(capsys, monkeypatch):
    # --cap 8 stops the trichotomy cases at q = 2, lam = 5, after 15 have run;
    # a failure among them is not hidden by the skip of the rest
    monkeypatch.setattr("wittcount.checks._infinity_label_is", lambda beta, expected: False)
    argv = ("verify-all", "--only", "criterion-10", "--cap", "8")
    code, out, _ = run_cli(capsys, *argv, "--format", "jsonl")
    assert code == EXIT_FAIL
    records = {r["check_id"]: r for r in map(json.loads, out.strip().splitlines())}
    assert records["c10-trichotomy"]["status"] == "fail"
    assert (records["c10-trichotomy"]["formula"], records["c10-trichotomy"]["oracle"]) == (15, 0)
    _, out, _ = run_cli(capsys, *argv)
    assert "!! fail:q2/lam1:" in out
    assert "!! cap:numerator enumeration of size 32 exceeds cap 8" in out


@pytest.mark.parametrize("argv,err", [
    (("witt-eval", "--op", "add", "--x", "1/T", "--y", "(1)"),
     "error: Witt vector text must be parenthesised\n"),
    (("witt-eval", "--op", "add", "--x", "(1, 0)", "--y", "(1)"),
     "error: Witt vectors of different shape\n"),
    (("carlitz", "--poly", "T^^2"), "error: bad polynomial term 'T^^2'\n"),
    (("infinity", "--beta", "(1/T"), "error: Witt vector text must be parenthesised\n"),
    (("normalize", "--beta", "(0, 0, 0, 0, 0)"), "error: Witt length 5 exceeds bound 4\n"),
    (("normalize", "--beta", "(1/0)"), "error: cannot parse Witt vector: zero denominator in '1/0'\n"),
    (("witt-eval", "--op", "neg", "--x", "(1/0)"), "error: zero denominator in '1/0'\n"),
    (("count", "--p", "2", "--d", "2", "--alpha", "2", "--n", "1", "--prime", "T^2+1", "--oracle"),
     "error: override prime T^2+1 is not irreducible\n"),
    (("count", "--p", "2", "--d", "2", "--alpha", "2", "--n", "1", "--prime", "T^2", "--oracle"),
     "error: override prime T^2 is not irreducible\n"),
    (("normalize", "--beta", "(1/(T^2+1))", "--prime", "T^2+1"),
     "error: override prime T^2+1 is not irreducible\n"),
    (("normalize", "--beta", "(1/T)", "--prime", "T^2"),
     "error: override prime T^2 is not irreducible\n"),
    (("normalize", "--beta", "(1/T)", "--prime", "0"), "error: override prime 0 is not irreducible\n"),
    (("normalize", "--p", "3", "--beta", "(1/T)", "--prime", "2"),
     "error: override prime 2 is not irreducible\n"),
    (("normalize", "--beta", "(1/T)", "--prime", "2"), "error: coefficient 2 out of range for GF(2)\n"),
    (("count", "--p", "2", "--d", "2", "--alpha", "2", "--n", "1", "--prime", "T^2+1"),
     "error: override prime T^2+1 is not irreducible\n"),  # checked without --oracle too
    (("count", "--p", "2", "--d", "2", "--alpha", "2", "--prime", "T^2+T^2+T"),
     "error: override prime has degree 1, expected 2\n"),
    (("carlitz", "--poly", "0", "--eval-at", "T"), "error: the Carlitz polynomial of zero is not defined\n"),
    (("normalize", "--beta", "(T"),
     "error: cannot parse Witt vector: Witt vector text must be parenthesised\n"),
    (("normalize", "--beta", "(1/(T+1)))"),
     "error: cannot parse Witt vector: bad polynomial term '1)'\n"),
    (("normalize", "--beta", "(1/(T+1)"),
     "error: cannot parse Witt vector: bad polynomial term '(T'\n"),
    (("normalize", "--beta", "(1//T)"),
     "error: cannot parse Witt vector: more than one top-level '/' in '1//T'\n"),
    (("normalize", "--beta", "(1/T/T)"),
     "error: cannot parse Witt vector: more than one top-level '/' in '1/T/T'\n"),
    (("normalize", "--beta", "(((T)))"),
     "error: cannot parse Witt vector: bad polynomial term '(T)'\n"),
    (("normalize", "--beta", "((T)+(1))"),
     "error: cannot parse Witt vector: bad polynomial term 'T)'\n"),
    (("normalize", "--beta", "()"), "error: cannot parse Witt vector: empty polynomial text\n"),
    (("normalize", "--beta", "(,)"), "error: cannot parse Witt vector: empty polynomial text\n"),
    # count parameters are checked before any oracle runs
    (("count", "--p", "4", "--oracle"), "error: characteristic 4 is not prime\n"),
    (("count", "--alpha", "0", "--oracle"), "error: alpha, n, d, s must all be positive\n"),
    # no enumeration fits in a cap below 1
    (("verify-all", "--only", "criterion-3", "--cap", "-1"),
     "error: --cap -1 is below 1, the least that can work\n"),
    (("count", "--cap", "0"), "error: --cap 0 is below 1, the least that can work\n"),
])
def test_bad_input_is_one_usage_error_line(capsys, argv, err):
    assert run_cli(capsys, *argv) == (EXIT_USAGE, "", err)


# cap 1 is accepted though it makes the oracle infeasible
@pytest.mark.parametrize("key, value, least, code", [
    ("WITTCOUNT_CAP", "-1", 1, EXIT_INFEASIBLE),
])
def test_env_budget_below_the_least_is_usage_error(capsys, monkeypatch, key, value, least, code):
    monkeypatch.setenv(key, value)
    argv = ("count", "--p", "2", "--alpha", "4", "--oracle", "--format", "jsonl")
    assert run_cli(capsys, *argv) == \
        (EXIT_USAGE, "", f"error: {key}={value!r} is below {least}, the least that can work\n")
    monkeypatch.setenv(key, str(least))
    assert run_cli(capsys, *argv)[0] == code


def test_normalize_reads_a_unit_multiple_prime_as_monic(capsys):
    # 2*T and T are the same prime of F_3[T], so the records agree
    args = ("normalize", "--p", "3", "--beta", "(1/T)", "--prime")
    code, out, _ = run_cli(capsys, *args, "2*T")
    assert code == EXIT_PASS
    assert json.loads(out)["single_ramified"] == {"prime": "T", "verdict": True}
    assert run_cli(capsys, *args, "T") == (EXIT_PASS, out, "")


@pytest.mark.parametrize("argv", [
    ("count", "--p", "2", "--d", "1", "--alpha", "100000", "--n", "1"),
    ("count", "--p", "2", "--alpha", "2", "--n", "100000"),
    ("witt-eval", "--p", "5", "--op", "add", "--x", "(1, 0, 0, 0)", "--y", "(1, 0, 0, 0)"),
    ("witt-eval", "--p", "1009", "--op", "neg", "--x", "(1, 0)"),
    ("carlitz", "--poly", "T^20", "--eval-at", "T"),  # 2 * 2^20 coefficients; u-degree admits T^20
    ("normalize", "--beta", "(1/T^33)"),
    ("normalize", "--beta", "(1/T^100000000)"),
    ("normalize", "--p", "3", "--beta", "(1/T^26, T^ 27)"),
    ("infinity", "--beta", "(0, 0, T^17)"),
    ("witt-eval", "--op", "add", "--x", "(1/T, 0)", "--y", "(1/(T^23+1), 0)"),
    ("normalize", "--beta", "(1/T^2)", "--cap", "15"),
    ("normalize", "--p", "1000000007", "--beta", "(1)"),  # F_q is scanned for a coset
    ("infinity", "--p", "1000000007", "--beta", "(1)"),
    # at length 1 the p-th power of T^-8 still has degree p*8
    ("witt-eval", "--p", "1048573", "--op", "wp", "--x", "(1/T^8)"),
])
def test_oversized_input_is_one_infeasible_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_INFEASIBLE, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err


@pytest.mark.parametrize("argv", [
    ("normalize", "--beta", "(1/T^32)"),  # (p^0 * 32)^2 * 32^2 * log2(2) is the default cap
    ("normalize", "--p", "3", "--beta", "(1/T^26)"),
    ("infinity", "--beta", "(0, 0, T^16)"),
    ("witt-eval", "--op", "add", "--x", "(1/T, 0)", "--y", "(1/(T^22+1), 0)"),
    ("normalize", "--beta", "(1/T^2)", "--cap", "16"),
    ("witt-eval", "--op", "wp", "--x", "(1/T^22)"),  # (2 * 22)^2 * 22^2 * log2(2) <= 2^20
])
def test_witt_work_at_the_cap_runs(capsys, argv):
    assert run_cli(capsys, *argv)[0] == EXIT_PASS


@pytest.mark.parametrize("argv,code", [
    # p is at most 2^40, so its primality test makes at most 2^20 trial divisions
    (("count", "--p", "1000000000000000003", "--alpha", "1"), EXIT_USAGE),
    (("count", "--p", "1099511627689", "--alpha", "1"), EXIT_PASS),  # a prime below 2^40
    # irreducibility of a degree-41 prime by the sieve, not by 2^20 trial divisors
    (("count", "--p", "2", "--d", "41", "--alpha", "1", "--prime", "T^41+T^3+1"), EXIT_PASS),
    # every T^4 + c is reducible at p = 3 mod 4, so the modulus search passes
    # ~p candidates; it stops at the cap instead of testing them all
    (("count", "--p", "1000003", "--s", "4", "--alpha", "1"), EXIT_INFEASIBLE),
    # witt-eval scans no F_q, so q > --cap is no bound on it
    (("witt-eval", "--p", "1000000007", "--op", "add", "--x", "(T)", "--y", "(1)"), EXIT_PASS),
])
def test_large_parameters_take_polynomial_time(capsys, argv, code):
    assert run_cli(capsys, *argv)[0] == code


def test_witt_work_is_bounded_before_parsing(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("parsed an input over the cap")

    monkeypatch.setattr("wittcount.cli.parse_witt", unreachable)
    for argv in (("normalize", "--beta", "(T^100000000)"), ("infinity", "--beta", "(1/T^40)"),
                 ("witt-eval", "--op", "neg", "--x", "(0, T^100000000)")):
        assert run_cli(capsys, *argv)[:2] == (EXIT_INFEASIBLE, "")


@pytest.mark.parametrize("argv,code", [
    (("carlitz", "--p", "2", "--poly", "T^1000000"), EXIT_INFEASIBLE),
    (("carlitz", "--p", "2", "--poly", "T^100000000"), EXIT_INFEASIBLE),
    (("carlitz", "--poly", "T^3", "--eval-at", "T^100000000"), EXIT_INFEASIBLE),
    (("count", "--p", "2", "--d", "1", "--alpha", "2", "--prime", "T^2+1"), EXIT_USAGE),
    (("count", "--p", "2", "--d", "1", "--alpha", "2", "--prime", "T^100000000"), EXIT_USAGE),
    (("count", "--p", "2", "--d", "2", "--alpha", "2", "--prime", "T+1", "--oracle"), EXIT_USAGE),
    (("normalize", "--beta", "(1/T)", "--prime", "T^100000000"), EXIT_INFEASIBLE),
])
def test_polynomial_text_is_bounded_before_parsing(capsys, monkeypatch, argv, code):
    def unreachable(*args):
        raise AssertionError("parsed a polynomial over its bound")

    for name in ("wittcount.cli.parse_poly", "wittcount.rationals.parse_poly"):
        monkeypatch.setattr(name, unreachable)
    code_out, out, err = run_cli(capsys, *argv)
    assert (code_out, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
