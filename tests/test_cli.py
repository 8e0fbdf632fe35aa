import argparse
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from multifrag import (
    asymptotics,
    cli,
    errors,
    fragmentation_spec,
    simulate,
    spectral,
)
from multifrag.cli import _write_rows, main, parse_spec_file, spec_to_document
from multifrag.errors import (
    MaximumAtBracketEdge,
    MultifragError,
    NoConvergence,
    ParseError,
    SpecValidationError,
)

SPEC_B_DOC = {
    "types": 2,
    "erosion": [0, 0],
    "conservative": True,
    "dislocation": {
        "1": [{"rate": 1.0, "fragments": [["1/2", 2], ["1/2", 2]]}],
        "2": [{"rate": 1.0, "fragments": [[0.5, 1], [0.5, 1]]}],
    },
}


SPEC_C_DOC = {
    "types": 2,
    "dislocation": {
        "1": [{"rate": 1.0, "fragments": [[0.6, 1], [0.4, 2]]}],
        "2": [{"rate": 1.0, "fragments": [[0.5, 2], [0.3, 1], [0.2, 1]]}],
    },
}


DEMO_MODEL = str(Path(__file__).resolve().parents[1] / "demos"
                 / "two_type_model.json")


def _one_type_doc(rate=1.0, child_type=1):
    return {"types": 1, "dislocation": {"1": [
        {"rate": rate, "fragments": [[0.5, child_type], [0.5, 1]]}]}}


@pytest.fixture()
def spec_b_file(tmp_path):
    path = tmp_path / "spec_b.json"
    path.write_text(json.dumps(SPEC_B_DOC))
    return str(path)


# --- spec files -------------------------------------------------------------

def test_parse_round_trip(spec_b_file, spec_b, tmp_path):
    spec = parse_spec_file(spec_b_file)
    assert spec == spec_b
    # document -> file -> spec is the identity on canonical forms
    doc = spec_to_document(spec)
    again = tmp_path / "again.json"
    again.write_text(json.dumps(doc))
    assert parse_spec_file(str(again)) == spec


def test_parse_fraction_strings(tmp_path):
    path = tmp_path / "frac.json"
    path.write_text(json.dumps({
        "types": 1,
        "dislocation": {"1": [{"rate": "3/2",
                               "fragments": [["1/3", 1], ["2/3", 1]]}]},
    }))
    spec = parse_spec_file(str(path))
    assert spec.conservative
    assert spec.total_rate(1) == pytest.approx(1.5)


def test_parse_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"types": 1}))
    with pytest.raises(ParseError):
        parse_spec_file(str(path))


@pytest.mark.parametrize("doc", [
    {**_one_type_doc(), "types": True},
    _one_type_doc(child_type=1.7),
    _one_type_doc(child_type="x"),
    _one_type_doc(rate=True),
    {"types": 1, "dislocation": {"1": 5}},
    {"types": 1, "dislocation": {"1": [{"rate": 1.0, "fragments": 5}]}},
], ids=["bool-types", "fractional-type", "string-type", "bool-rate",
        "atoms-not-a-list", "fragments-not-a-list"])
def test_parse_rejects_loose_values(tmp_path, doc, capsys):
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--spec", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_parse_invalid_fragments(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "types": 1,
        "dislocation": {"1": [{"rate": 1.0, "fragments": [[0.5, 0]]}]},
    }))
    with pytest.raises(SpecValidationError):
        parse_spec_file(str(path))


# --- exit codes -----------------------------------------------------------------

def test_exit_code_parse_error(tmp_path, capsys):
    path = tmp_path / "nothere.json"
    assert main(["validate", "--spec", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"


def test_exit_code_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "types": 1,
        "conservative": True,
        "dislocation": {"1": [{"rate": 1.0, "fragments": [[0.5, 1]]}]},
    }))
    assert main(["validate", "--spec", str(path)]) == 3
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "SpecValidationError"
    assert any(v["code"] == "NonConservativeAtom" for v in err["violations"])


def test_validate_lists_atom_errors_with_the_checks_after_them(tmp_path,
                                                               capsys):
    # the bad mass fails its atom; the erosion and the negative rate are
    # found by validate_spec on the atoms that built
    path, out = tmp_path / "bad.json", tmp_path / "v.json"
    path.write_text(json.dumps({
        "types": 2, "erosion": [-1, 0],
        "dislocation": {
            "1": [{"rate": 1.0, "fragments": [["-1/2", 1], ["1/2", 2]]}],
            "2": [{"rate": -1.0, "fragments": [["1/2", 1]]}]}}))
    assert main(["validate", "--spec", str(path), "--out", str(out)]) == 3
    codes = ["NegativeMass", "NegativeErosion", "NonpositiveWeight"]
    doc = json.loads(out.read_text())
    assert not doc["valid"]
    assert [v["code"] for v in doc["violations"]] == codes
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["violations"] == doc["violations"]


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--no-such-option"],
     "unrecognized arguments: --no-such-option"),
    (["simulate", "--replicas", "x"],
     "argument --replicas: invalid int value: 'x'"),
    (["limits", "--format", "csv"], "unrecognized arguments: --format csv"),
], ids=["unknown-option", "bad-int", "limits-format"])
def test_usage_errors_write_one_json_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv[:1] + ["--spec", DEMO_MODEL, "--seed", "1"] + argv[1:])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": "ParseError",
                                        "message": message}


def test_exit_code_missing_seed(spec_b_file, capsys, monkeypatch):
    monkeypatch.delenv("MULTIFRAG_SEED", raising=False)
    assert main(["tagged", "--spec", spec_b_file, "--t", "1"]) == 2


def test_seed_env_fallback(spec_b_file, tmp_path, monkeypatch):
    out = tmp_path / "t.csv"
    monkeypatch.setenv("MULTIFRAG_SEED", "7")
    assert main(["tagged", "--spec", spec_b_file, "--t", "0.5",
                 "--replicas", "3", "--out", str(out)]) == 0
    assert out.read_text().startswith("replica,time,J,S")


def test_exit_code_resource_cap(spec_b_file, capsys):
    code = main(["simulate", "--spec", spec_b_file, "--seed", "1",
                 "--replicas", "1", "--t", "30", "--mass-floor", "0",
                 "--max-fragments", "50"])
    assert code == 5


def test_simulate_without_a_floor_stops_at_the_fragment_cap(tmp_path,
                                                            capsys):
    # the waves grow until the next one would pass the default
    # --max-fragments, counted over the whole run; none is written
    out = tmp_path / "s.csv"
    assert main(["simulate", "--spec", DEMO_MODEL, "--seed", "1", "--t", "60",
                 "--mass-floor", "0", "--out", str(out)]) == 5
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ResourceCapExceeded"
    assert err["message"].startswith("more than 2000000 fragments grown")
    assert not out.exists()


def test_partition_above_the_label_cap_exits_at_once(spec_b_file, tmp_path,
                                                      capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("sampled a partition above the cap")

    monkeypatch.setattr(simulate, "sample_paintbox", no_work)
    out = tmp_path / "p.csv"
    n = errors.MAX_RUN_BYTES  # every label takes more than a byte
    assert main(["partition", "--spec", spec_b_file, "--seed", "1",
                 "--n", str(n), "--out", str(out)]) == 5
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "ResourceCapExceeded"
    assert captured.out == "" and not out.exists()


def _demo_with_erosion(tmp_path, erosion):
    """The demo model with the given erosion rates, written to a file."""
    doc = json.loads(Path(DEMO_MODEL).read_text())
    doc.update(erosion=erosion, conservative=False)
    path = tmp_path / "eroding.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_writes_eroded_masses(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--spec", _demo_with_erosion(tmp_path, [0.5, 0.5]),
                 "--seed", "1", "--replicas", "4", "--times", "1,2",
                 "--out", str(out)]) == 0
    totals = {}
    for line in out.read_text().splitlines()[1:]:
        replica, t, _, mass = line.split(",")[:4]
        key = replica, float(t)
        totals[key] = totals.get(key, 0.0) + float(mass)
    assert len(totals) == 8
    for (_, t), total in totals.items():
        assert abs(total - math.exp(-0.5 * t)) <= 1e-12


@pytest.mark.parametrize("command, erosion, error", [
    ("simulate", [0.5, 0.1], "DistinctErosionCoefficients"),
    ("partition", [0.5, 0.5], "PartitionWithErosion"),
    ("partition", [0.0, 0.1], "PartitionWithErosion")])
def test_erosion_the_engines_cannot_simulate_exits_3(
        tmp_path, command, erosion, error, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("sampled a partition before the erosion check")

    monkeypatch.setattr(simulate, "sample_paintbox", no_work)
    out = tmp_path / "out.csv"
    assert main([command, "--spec", _demo_with_erosion(tmp_path, erosion),
                 "--seed", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == error
    assert captured.out == "" and not out.exists()


def test_exit_code_numeric_error(tmp_path, capsys):
    # reducible chain: spectral analysis must fail with a numeric error
    path = tmp_path / "red.json"
    path.write_text(json.dumps({
        "types": 2,
        "dislocation": {
            "1": [{"rate": 1.0, "fragments": [[0.6, 1], [0.4, 2]]}],
            "2": [{"rate": 1.0, "fragments": [[0.5, 2], [0.5, 2]]}],
        },
    }))
    assert main(["spectral", "--spec", str(path), "--theta", "1"]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotIrreducible"


def test_exit_code_non_conservative_before_reducible(tmp_path, capsys):
    # dusty and reducible: the validation error (exit 3) comes first
    path = tmp_path / "dusty.json"
    path.write_text(json.dumps({
        "types": 2,
        "dislocation": {
            "1": [{"rate": 1.0, "fragments": [[0.5, 1], [0.3, 2]]}],
            "2": [{"rate": 1.0, "fragments": [[0.5, 2], [0.4, 2]]}],
        },
    }))
    assert main(["spectral", "--spec", str(path), "--theta", "1"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotConservative"


def _error_classes(base=MultifragError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


# the documented exit code of each error class; any class not named gives 4
EXIT_CODES = {
    "ParseError": 2, "InvalidArgument": 2,
    "SpecValidationError": 3, "NotConservative": 3,
    "DistinctErosionCoefficients": 3, "GroundSizeTooSmall": 3,
    "PartitionWithErosion": 3, "ResourceCapExceeded": 5,
}


@pytest.mark.parametrize("cls", [MultifragError, *_error_classes()],
                         ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_code(cls, spec_b_file, capsys,
                                              monkeypatch):
    exc = (cls([("Code", "message")]) if cls is SpecValidationError
           else cls("message"))

    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_validate", failing)
    expected = EXIT_CODES.get(cls.__name__, 4)
    assert main(["validate", "--spec", spec_b_file]) == expected
    assert json.loads(capsys.readouterr().err)["error"] == cls.__name__
    assert cls.exit_code == expected
    assert cls.exit_code in {2, 3, 4, 5}


@pytest.mark.parametrize("command", ["spectral", "martingale"])
@pytest.mark.parametrize("theta", ["-1", "-1.5", "0.5,-2"])
def test_theta_out_of_domain_is_a_numeric_error_before_any_simulation(
        spec_b_file, command, theta, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("simulated before theta was checked")

    monkeypatch.setattr(simulate, "mass_ensemble", no_work)
    seed = ["--seed", "1"] if command == "martingale" else []
    assert main([command, "--spec", spec_b_file, "--theta=" + theta]
                + seed) == 4
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "ThetaOutOfDomain"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["simulate", "martingale"])
@pytest.mark.parametrize("floor", ["nan", "-1", "inf"])
def test_mass_floor_must_be_finite_and_nonnegative(spec_b_file, command,
                                                   floor, capsys):
    assert main([command, "--spec", spec_b_file, "--seed", "1",
                 "--mass-floor=" + floor]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"


@pytest.mark.parametrize("argv", [
    ["spectral", "--theta", "0.3,x"],
    ["simulate", "--seed", "1", "--times", "1,x"],
    ["ldcount", "--seed", "1", "--t-grid", "8,,9"],
    ["tagged", "--seed", "-1"],
    ["tagged", "--seed", str(2 ** 64)],
    ["tagged", "--seed", "1", "--initial-type", "5"],
    ["tagged", "--seed", "1", "--initial-type", "0"],
    ["tagged", "--seed", "1", "--t", "nan"],
    ["tagged", "--seed", "1", "--t", "inf"],
    ["simulate", "--seed", "1", "--t", "nan"],
    ["martingale", "--seed", "1", "--t", "inf"],
    ["partition", "--seed", "1", "--t", "nan"],
    ["simulate", "--seed", "1", "--times", ""],
    ["martingale", "--seed", "1", "--times", ""],
    ["partition", "--seed", "1", "--times", ""],
    ["simulate", "--seed", "1", "--max-fragments", "-3"],
    ["martingale", "--seed", "1", "--max-fragments", "0"],
    ["ldcount", "--seed", "1", "--max-fragments", "0"],
], ids=["theta-list", "times-list", "t-grid-list", "negative-seed",
        "wide-seed", "initial-type-above-k", "initial-type-zero",
        "tagged-nan-t", "tagged-inf-t", "simulate-nan-t", "martingale-inf-t",
        "partition-nan-t", "simulate-empty-times", "martingale-empty-times",
        "partition-empty-times", "simulate-negative-cap",
        "martingale-zero-cap", "ldcount-zero-cap"])
def test_bad_arguments_are_parse_errors(spec_b_file, argv, capsys):
    assert main(argv[:1] + ["--spec", spec_b_file] + argv[1:]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


@pytest.mark.parametrize("option", [["--replica-chunk", "0"],
                                    ["--t-grid=-1,8"]],
                         ids=["zero-chunk", "negative-time"])
def test_bad_ensemble_arguments_are_usage_errors(tmp_path, option, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(SPEC_C_DOC))
    argv = ["ldcount", "--spec", str(path), "--seed", "1", "--replicas", "5"]
    assert main(argv + option) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"


@pytest.mark.parametrize("command", ["simulate", "partition", "martingale"])
@pytest.mark.parametrize("times", ["-1,2", "2,nan", "nan,2", "2,inf"])
def test_times_outside_the_run_are_usage_errors(spec_b_file, command, times,
                                                 capsys):
    assert main([command, "--spec", spec_b_file, "--seed", "1",
                 "--times=" + times]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"


@pytest.mark.parametrize("option", [
    "--f-width=nan", "--f-width=inf", "--f-width=0", "--f-width=-1",
    "--f-width=1e300", "--f-center=nan", "--f-center=inf"])
def test_limits_test_function_arguments_are_usage_errors(spec_b_file, option,
                                                         capsys):
    assert main(["limits", "--spec", spec_b_file, "--seed", "1",
                 "--replicas", "5", option]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"


@pytest.mark.parametrize("window", [
    ["--a", "3", "--b", "2"], ["--a=-1"], ["--a", "0"], ["--a", "nan"],
    ["--b", "nan"], ["--b", "inf"]],
    ids=["a-above-b", "negative-a", "zero-a", "nan-a", "nan-b", "inf-b"])
def test_ldcount_window_is_checked_before_any_work(tmp_path, window, capsys,
                                                   monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the window was checked")

    monkeypatch.setattr(spectral, "theta_bar", no_work)
    monkeypatch.setattr(simulate, "mass_ensemble", no_work)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(SPEC_C_DOC))
    assert main(["ldcount", "--spec", str(path), "--seed", "1",
                 "--replicas", "5"] + window) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["message"].startswith("--a/--b")


@pytest.mark.parametrize("grid", ["0,2", "2,0", "-0.0,4", "2,nan", "inf,2"])
def test_ldcount_times_are_checked_before_any_work(tmp_path, grid, capsys,
                                                   monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the times were checked")

    monkeypatch.setattr(spectral, "theta_bar", no_work)
    monkeypatch.setattr(simulate, "mass_ensemble", no_work)
    path, out = tmp_path / "c.json", tmp_path / "ld.csv"
    path.write_text(json.dumps(SPEC_C_DOC))
    assert main(["ldcount", "--spec", str(path), "--seed", "1", "--replicas",
                 "5", "--out", str(out), "--t-grid=" + grid]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "InvalidArgument"
    assert err["message"].startswith("--t-grid")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["tagged", "--t", "1e9", "--replicas", "1"],
    ["tagged", "--t", "1e5", "--replicas", "100"],
    ["limits", "--t", "1e12"],
    ["report", "--t", "1e12"]], ids=["tagged", "tagged-kept", "limits",
                                     "report"])
def test_tagged_runs_above_the_jump_cap_exit_at_once(spec_b_file, tmp_path,
                                                     argv, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("drew a jump above the cap")

    monkeypatch.setattr(simulate, "replica_stream", no_work)
    monkeypatch.setattr(cli, "replica_stream", no_work)
    out = tmp_path / "out"
    assert main(argv[:1] + ["--spec", spec_b_file, "--seed", "1", "--out",
                            str(out)] + argv[1:]) == 5
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "ResourceCapExceeded"
    assert captured.out == "" and not out.exists()


BIG = str(2 ** 40)


@pytest.mark.filterwarnings("ignore::multifrag.errors.LatticeJumpSizes")
@pytest.mark.parametrize("argv, code, error, draws", [
    (["martingale", "--theta", "0.5", "--t", "1e300", "--mass-floor", "1e-3"],
     4, "NoConvergence", True),
    (["martingale", "--theta", "0.5", "--times", "1e300",
      "--mass-floor", "1e-3"], 4, "NoConvergence", True),
    (["ldcount", "--replicas", str(2 ** 64)], 5, "ResourceCapExceeded", False),
    (["ldcount", "--replicas", str(10 ** 12), "--max-fragments",
      str(10 ** 13)], 5, "ResourceCapExceeded", False),
    (["limits", "--replicas", BIG, "--t", "1e-9"], 5, "ResourceCapExceeded",
     False),
    (["report", "--replicas", BIG, "--t", "1e-9"], 5, "ResourceCapExceeded",
     False),
    (["tagged", "--replicas", BIG, "--t", "1e-9"], 5, "ResourceCapExceeded",
     False),
    (["simulate", "--replicas", str(2 ** 64)], 5, "ResourceCapExceeded",
     False),
    (["martingale", "--replicas", str(2 ** 64)], 5, "ResourceCapExceeded",
     False),
    (["partition", "--replicas", str(2 ** 64)], 5, "ResourceCapExceeded",
     False),
    (["tagged", "--replicas", str(10 ** 400)], 5, "ResourceCapExceeded",
     False),
    (["limits", "--replicas", str(10 ** 400)], 5, "ResourceCapExceeded",
     False),
    (["ldcount", "--replicas", "4", "--t-grid", "1e300"], 5,
     "ResourceCapExceeded", True)],
    ids=["martingale-t", "martingale-times", "ldcount-replicas",
         "ldcount-counts", "limits-outputs", "report-outputs", "tagged-rows",
         "simulate-cells", "martingale-rows", "partition-labels",
         "tagged-past-floats", "limits-past-floats", "ldcount-wave"])
def test_arguments_past_the_float_range_fail_cleanly(spec_b_file, tmp_path,
                                                     argv, code, error, draws,
                                                     capsys, monkeypatch):
    # e^(t phi) overflows a float; the other runs pass the byte budget,
    # before any draw except for the last: its floor a e^(-t phi') underflows
    # to 0, so its waves grow until one passes the budget
    def no_work(*args, **kwargs):
        raise AssertionError("drew before the run was admitted")

    if draws:  # a small budget, so the waves stay small
        monkeypatch.setattr(errors, "MAX_RUN_BYTES", 2 ** 24)
    else:
        monkeypatch.setattr(simulate, "replica_stream", no_work)
        monkeypatch.setattr(cli, "replica_stream", no_work)
    out = tmp_path / "out.csv"
    assert main(argv[:1] + ["--spec", spec_b_file, "--seed", "1",
                            "--replicas", "2", "--out", str(out)]
                + argv[1:]) == code
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == error
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("types", [10 ** 5, 10 ** 12])
@pytest.mark.parametrize("command", ["validate", "simulate", "partition",
                                     "tagged", "spectral", "martingale",
                                     "limits", "ldcount", "report"])
def test_a_spec_past_the_budget_exits_at_once(tmp_path, command, types,
                                              capsys):
    # k x k cells of 10 bytes: 100 GB at k = 10^5
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"types": types, "dislocation": {}}))
    seed = [] if command in ("validate", "spectral") else ["--seed", "1"]
    assert main([command, "--spec", str(path)] + seed) == 5
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == "ResourceCapExceeded"
    assert captured.out == ""


@pytest.mark.parametrize("model, argv, code, error", [
    ("dusty", ["--t", "1e12"], 3, "NotConservative"),
    ("dusty", ["--t", "nan"], 2, "ParseError"),
    ("spec_c", ["--t", "1e12", "--initial-type", "3"], 2, "ParseError"),
    ("spec_c", ["--t", "1e12", "--replicas", "0"], 2, "ParseError")],
    ids=["dusty", "dusty-nan", "bad-type", "no-replicas"])
def test_tagged_checks_its_arguments_before_the_jump_cap(tmp_path, model, argv,
                                                         code, error, capsys,
                                                         monkeypatch):
    # the errors and their order are those of simulate_tagged's own checks
    dusty = {"types": 2, "dislocation": {
        "1": [{"rate": 1.0, "fragments": [[0.5, 1], [0.3, 2]]}],
        "2": [{"rate": 1.0, "fragments": [[0.5, 2], [0.4, 2]]}]}}
    path, out = tmp_path / "m.json", tmp_path / "out"
    path.write_text(json.dumps(dusty if model == "dusty" else SPEC_C_DOC))
    # room for the spec's four cells, at 10 bytes each, but not for one row
    monkeypatch.setattr(errors, "MAX_RUN_BYTES", 319)
    assert main(["tagged", "--spec", str(path), "--seed", "1", "--out",
                 str(out)] + argv) == code
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert not out.exists()


def test_small_jump_cap_refuses_the_benchmark_limits_shape(tmp_path, capsys,
                                                           monkeypatch):
    # 50,000 replicas to t = 50 at rate 1 expect 2.5 M jumps
    path, out = tmp_path / "c.json", tmp_path / "l.json"
    path.write_text(json.dumps(SPEC_C_DOC))
    argv = ["limits", "--spec", str(path), "--seed", "1", "--replicas",
            "50000", "--t", "50", "--out", str(out)]
    assert 50_000 * 50 * 1.0 <= simulate.MAX_TAGGED_JUMPS
    monkeypatch.setattr(simulate, "MAX_TAGGED_JUMPS", 2_000_000)
    assert main(argv) == 5
    assert json.loads(capsys.readouterr().err)["error"] == "ResourceCapExceeded"
    assert not out.exists()


def test_kept_jump_cap_leaves_the_ensemble_commands_alone(tmp_path, capsys,
                                                          monkeypatch):
    # limits draws 2.5 M jumps here and keeps 0.8 MB of outputs; tagged
    # would keep each jump, 816 MB of rows
    path, out = tmp_path / "c.json", tmp_path / "l.json"
    path.write_text(json.dumps(SPEC_C_DOC))
    monkeypatch.setattr(errors, "MAX_RUN_BYTES", 10 ** 8)
    argv = ["--spec", str(path), "--seed", "1", "--replicas", "50000", "--t",
            "50", "--out", str(out)]
    assert main(["limits"] + argv) == 0
    assert json.loads(out.read_text())["replicas"] == 50_000
    out.unlink()
    assert main(["tagged"] + argv) == 5
    assert json.loads(capsys.readouterr().err)["error"] == "ResourceCapExceeded"
    assert not out.exists()


@pytest.mark.parametrize("grid", [
    "0:1:nan", "0:1:inf", "0:1:0", "0:nan:1", "0:inf:1", "nan:1:0.5",
    "-inf:1:0.5", "1:0:0.5", "0:1e8:1e-6", "0:1:1e-5"])
def test_theta_grid_is_checked_before_any_work(spec_b_file, grid, capsys,
                                               monkeypatch):
    # the last two grids have more than MAX_GRID_POINTS = 100000 points
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the grid was checked")

    monkeypatch.setattr(spectral, "perron_eigen", no_work)
    assert main(["spectral", "--spec", spec_b_file,
                 "--theta-grid=" + grid]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["message"].startswith("--theta-grid")


@pytest.mark.parametrize("command", ["limits", "report", "ldcount"])
def test_standard_errors_need_two_replicas(tmp_path, command, capsys):
    path, out = tmp_path / "c.json", tmp_path / "out"
    path.write_text(json.dumps(SPEC_C_DOC))
    argv = [command, "--spec", str(path), "--seed", "1", "--out", str(out),
            "--t-grid" if command == "ldcount" else "--t", "4", "--replicas"]
    assert main(argv + ["1"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ParseError", "message": "--replicas must be at least 2"}
    assert not out.exists()
    assert main(argv + ["2"]) == 0
    # the output is strict JSON or CSV: no NaN anywhere
    assert "nan" not in out.read_text().lower()


def test_singular_group_inverse_is_a_numeric_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(SPEC_C_DOC))
    assert main(["spectral", "--spec", str(path), "--theta", "150"]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoConvergence"
    assert "Singular matrix" in err["message"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_derivatives_are_a_numeric_error(tmp_path, fmt, capsys):
    # phi'' is nan at theta = 350.75 on the demo model; no warning is printed
    out = tmp_path / f"s.{fmt}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectral", "--spec", DEMO_MODEL, "--theta", "350.75",
                     "--format", fmt, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "NoConvergence"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["limits", "report"])
@pytest.mark.parametrize("model, code, error", [
    ({"1": [[[0.6, 1], [0.4, 2]]], "2": [[[0.5, 2], [0.5, 2]]]},
     4, "NotIrreducible"),
    ({"1": [[[0.5, 1], [0.3, 2]]], "2": [[[0.5, 2], [0.4, 2]]]},
     3, "NotConservative")], ids=["reducible", "dusty"])
def test_stationary_law_needs_an_irreducible_conservative_model(
        tmp_path, command, model, code, error, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"types": 2, "dislocation": {
        i: [{"rate": 1.0, "fragments": frags} for frags in atoms]
        for i, atoms in model.items()}}))
    assert main([command, "--spec", str(path), "--seed", "1",
                 "--replicas", "5"]) == code
    assert json.loads(capsys.readouterr().err)["error"] == error


# --- outputs ------------------------------------------------------------------------

def test_write_rows_prints_numpy_scalars_as_plain_floats(tmp_path):
    out = tmp_path / "rows.csv"
    args = argparse.Namespace(out=str(out), format="csv")
    _write_rows(args, ["x", "n"], [[np.float64(0.1)], [3]])
    assert out.read_text() == "x,n\n0.1,3\n"


def test_write_rows_prints_each_float_cell_as_its_repr(tmp_path):
    # cells are formatted once per distinct value: the signed zeros, the
    # non-finite values and a repeated value must each keep their own text
    out = tmp_path / "rows.csv"
    args = argparse.Namespace(out=str(out), format="csv")
    x = [0.0, -0.0, 0.1, math.inf, -math.inf, math.nan, 0.1, -0.0, 1e-300]
    _write_rows(args, ["x", "n"], [np.array(x), list(range(-4, 5))])
    assert out.read_text().splitlines() == ["x,n"] + [
        f"{v!r},{n}" for v, n in zip(x, range(-4, 5))]


@pytest.mark.parametrize("column", [
    [1, 2.5], [2.5, 1], [True, False], np.array([1, 2], dtype=np.int32),
    np.array([True]), ["a", 1]],
    ids=["int-then-float", "float-then-int", "bools", "int32-array",
         "bool-array", "str-then-int"])
def test_write_rows_rejects_columns_it_cannot_print(tmp_path, column):
    args = argparse.Namespace(out=str(tmp_path / "rows.csv"), format="csv")
    with pytest.raises(TypeError, match="cannot write a column"):
        _write_rows(args, ["x"], [column])


def test_validate_report(spec_b_file, tmp_path):
    out = tmp_path / "v.json"
    assert main(["validate", "--spec", spec_b_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["valid"] and doc["types"] == 2 and doc["conservative"]


def test_byte_identical_reruns(spec_b_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--spec", spec_b_file, "--seed", "42",
            "--replicas", "5", "--t", "2", "--times", "1,2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(
        b"replica,time,fragment_id,mass,type,frozen_flag")


def test_replica_streams_do_not_depend_on_replica_count(spec_b_file, tmp_path):
    # replica r draws from the stream keyed (seed, r): its rows are the same
    # whether 3 or 8 replicas run
    small, large = tmp_path / "small.csv", tmp_path / "large.csv"
    base = ["tagged", "--spec", spec_b_file, "--seed", "6", "--t", "2"]
    assert main(base + ["--replicas", "3", "--out", str(small)]) == 0
    assert main(base + ["--replicas", "8", "--out", str(large)]) == 0
    small_lines = small.read_text().strip().splitlines()
    large_lines = large.read_text().strip().splitlines()
    assert large_lines[:len(small_lines)] == small_lines


@pytest.mark.parametrize("command", [["simulate"],
                                     ["martingale", "--theta", "0.5"],
                                     ["partition", "--n", "8"]],
                         ids=["simulate", "martingale", "partition"])
def test_snapshot_rows_do_not_depend_on_replica_count(command, spec_b_file,
                                                      tmp_path):
    tables = []
    for replicas in (3, 5):
        out = tmp_path / f"{replicas}.csv"
        assert main(command + ["--spec", spec_b_file, "--seed", "6",
                               "--times", "1,2", "--replicas", str(replicas),
                               "--out", str(out)]) == 0
        tables.append(out.read_text().splitlines())
    assert tables[1][:len(tables[0])] == tables[0]
    assert {line.split(",")[0] for line in tables[1][1:]} == set("01234")


def test_simulate_writes_no_rows_for_a_replica_left_with_dust(tmp_path):
    # each split leaves only dust: a replica whose root split by t = 1 has
    # no rows then, and the replicas after it keep their ids
    spec = fragmentation_spec(1, {1: [(1.0, [])]})
    path, out = tmp_path / "dust.json", tmp_path / "s.csv"
    path.write_text(json.dumps(spec_to_document(spec)))
    argv = ["simulate", "--spec", str(path), "--seed", "3", "--replicas", "8"]
    assert main(argv + ["--times", "0,1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    at = {t: [int(r) for r, time, *_ in rows if float(time) == t]
          for t in (0.0, 1.0)}
    alive = []
    simulate.mass_ensemble(spec, [1.0], 8, 3,
                           lambda ti, rep, *_: alive.extend(rep.tolist()),
                           replica_chunk=1)
    assert at[0.0] == list(range(8))
    assert at[1.0] == alive and alive and alive != list(range(len(alive)))
    # by t = 50 every root has split
    assert main(argv + ["--times", "50", "--format", "json",
                        "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == []


def test_simulate_repeats_a_duplicate_time_and_starts_at_the_root(spec_b_file,
                                                                  tmp_path):
    def rows(times):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--spec", spec_b_file, "--seed", "8",
                     "--replicas", "2", "--times", times,
                     "--out", str(out)]) == 0
        return out.read_text().splitlines()[1:]

    once = rows("1.5")
    assert len(once) > 2
    assert rows("1.5,1.5") == [line for r in "01" for _ in range(2)
                               for line in once if line.startswith(r + ",")]
    assert rows("0") == ["0,0.0,0,1.0,1,0", "1,0.0,0,1.0,1,0"]


def test_different_seeds_differ(spec_b_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["tagged", "--spec", spec_b_file, "--replicas", "10", "--t", "2"]
    assert main(base + ["--seed", "1", "--out", str(a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_spectral_grid_output(spec_b_file, tmp_path):
    out = tmp_path / "s.json"
    assert main(["spectral", "--spec", spec_b_file, "--theta-grid", "0:2:0.5",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["grid"]) == 5
    row0 = doc["grid"][0]
    assert abs(row0["phi"]) < 1e-10
    assert row0["u"] == pytest.approx([0.5, 0.5])
    # same phi as SPEC-A, so the known critical exponent
    assert doc["theta_bar"] == pytest.approx(1.42134, abs=1e-3)
    assert doc["phi_prime_at_theta_bar"] == pytest.approx(0.25880, abs=1e-4)


@pytest.mark.parametrize("error", [MaximumAtBracketEdge, NoConvergence])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectral_keeps_its_grid_when_theta_bar_fails(spec_b_file, tmp_path,
                                                      fmt, error, capsys,
                                                      monkeypatch):
    argv = ["spectral", "--spec", spec_b_file, "--theta-grid", "0:2:0.5",
            "--format", fmt, "--out"]
    good, bad = tmp_path / f"good.{fmt}", tmp_path / f"bad.{fmt}"
    assert main(argv + [str(good)]) == 0
    good_report = capsys.readouterr().out

    def failing(spec, bracket=(0.0, 50.0)):
        raise error("no critical exponent")

    monkeypatch.setattr(spectral, "theta_bar", failing)
    assert main(argv + [str(bad)]) == 4
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": error.__name__,
                                        "message": "no critical exponent"}
    failed = {"theta_bar": None, "phi_prime_at_theta_bar": None,
              "theta_bar_error": error.__name__}
    if fmt == "json":
        doc, good_doc = json.loads(bad.read_text()), json.loads(good.read_text())
        assert doc == {"grid": good_doc["grid"], **failed}
        assert captured.out == good_report == ""
    else:
        assert bad.read_bytes() == good.read_bytes()
        assert json.loads(captured.out) == failed
        assert set(json.loads(good_report)) == {"theta_bar",
                                                "phi_prime_at_theta_bar"}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectral_writes_nothing_when_a_grid_point_fails(spec_b_file, tmp_path,
                                                         fmt, capsys,
                                                         monkeypatch):
    perron_eigen = spectral.perron_eigen

    def failing_at_one(spec, theta, **kwargs):
        if theta == 1.0:
            raise NoConvergence("singular at theta = 1")
        return perron_eigen(spec, theta, **kwargs)

    monkeypatch.setattr(spectral, "perron_eigen", failing_at_one)
    out = tmp_path / f"s.{fmt}"
    assert main(["spectral", "--spec", spec_b_file, "--theta", "0.5,1",
                 "--format", fmt, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "NoConvergence"
    assert captured.out == "" and not out.exists()


def _subparsers():
    parser = cli.build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


@pytest.mark.parametrize("command", list(_subparsers()))
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: multifrag {command}")


@pytest.mark.parametrize("first, second, options", [
    ("simulate", "martingale", {"--t", "--times", "--mass-floor",
                                "--max-fragments"}),
    ("spectral", "martingale", {"--theta", "--theta-grid"}),
])
def test_shared_options_are_declared_alike(first, second, options):
    def declared(command):
        return {action.option_strings[0]:
                (action.dest, action.type, action.default, action.help)
                for action in _subparsers()[command]._actions
                if set(action.option_strings) & options}

    assert set(declared(first)) == options
    assert declared(first) == declared(second)


# a small run of each command that takes --format
FORMAT_RUNS = {
    "simulate": ["--seed", "1", "--replicas", "1", "--t", "1"],
    "partition": ["--seed", "1", "--replicas", "1", "--n", "5"],
    "tagged": ["--seed", "1", "--replicas", "2"],
    "spectral": ["--theta", "0.5"],
    "martingale": ["--seed", "1", "--replicas", "1", "--theta", "0.5"],
    "ldcount": ["--seed", "1", "--replicas", "2", "--t-grid", "2"],
}


def test_format_is_declared_only_where_it_is_used():
    assert {command for command, p in _subparsers().items()
            if any("--format" in a.option_strings for a in p._actions)
            } == set(FORMAT_RUNS)


@pytest.mark.parametrize("command", list(FORMAT_RUNS))
def test_each_format_writes_its_own_bytes(command, tmp_path):
    written = []
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        assert main([command, "--spec", DEMO_MODEL, "--format", fmt,
                     "--out", str(out)] + FORMAT_RUNS[command]) == 0
        written.append(out.read_bytes())
    assert written[0] != written[1]


@pytest.mark.parametrize("command", ["validate", "limits", "report"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_json_only_commands_refuse_format(command, fmt):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--spec", DEMO_MODEL, "--seed", "1", "--format", fmt])
    assert exit_.value.code == 2


def test_spectral_rate_scaling(tmp_path):
    # rates times 200 scale Phi by 200 and leave theta_bar where it was
    scaled = json.loads(json.dumps(SPEC_C_DOC))
    for atoms in scaled["dislocation"].values():
        for atom in atoms:
            atom["rate"] *= 200.0
    tbs = []
    for name, doc in (("c", SPEC_C_DOC), ("c200", scaled)):
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out.json"
        path.write_text(json.dumps(doc))
        assert main(["spectral", "--spec", str(path), "--theta", "1",
                     "--format", "json", "--out", str(out)]) == 0
        tbs.append(json.loads(out.read_text())["theta_bar"])
    assert tbs[1] == pytest.approx(tbs[0], abs=1e-9)


def test_partition_output(spec_b_file, tmp_path):
    out = tmp_path / "p.csv"
    assert main(["partition", "--spec", spec_b_file, "--seed", "3", "--n", "8",
                 "--t", "1", "--replicas", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "replica,time,block,elements,type"
    assert len(lines) > 2


def test_tagged_mean_growth(spec_b_file, tmp_path):
    # mean S_t after t = 1 sits at ln 2 (one expected jump of size ln 2)
    out = tmp_path / "t.csv"
    reps = 10_000
    assert main(["tagged", "--spec", spec_b_file, "--seed", "42", "--t", "1",
                 "--replicas", str(reps), "--out", str(out)]) == 0
    finals = {}
    for line in out.read_text().strip().splitlines()[1:]:
        rep, t, j, s = line.split(",")
        finals[int(rep)] = float(s)
    vals = np.array([finals[r] for r in range(reps)])
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - math.log(2.0)) < 3 * se


def test_martingale_table(spec_b_file, tmp_path):
    out = tmp_path / "m.csv"
    assert main(["martingale", "--spec", spec_b_file, "--seed", "5",
                 "--theta", "0", "--t", "1", "--replicas", "20",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "replica,theta,t,M"
    # at theta = 0 the martingale is the conserved total mass
    for line in lines[1:]:
        assert float(line.split(",")[-1]) == pytest.approx(1.0, abs=1e-9)


def test_limits_report(spec_b_file, tmp_path):
    out = tmp_path / "l.json"
    assert main(["limits", "--spec", spec_b_file, "--seed", "11",
                 "--replicas", "4000", "--t", "40", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["stationary"] == pytest.approx([0.5, 0.5])
    assert doc["phi_d1_at_0"] == pytest.approx(math.log(2.0), abs=1e-6)
    for j in (0, 1):
        assert abs(doc["type_marginal"][j] - 0.5) < \
            4 * doc["type_marginal_se"][j] + 1e-9
    assert abs(doc["clt_mean"] - doc["clt_oracle"]) < 4 * doc["clt_se"] + 0.02
    assert doc["lln_location"] == pytest.approx(math.log(2.0), abs=0.05)


def test_ldcount_table(tmp_path):
    # non-lattice model so no lattice warning fires
    path = tmp_path / "c.json"
    path.write_text(json.dumps(SPEC_C_DOC))
    out = tmp_path / "ld.csv"
    assert main(["ldcount", "--spec", str(path), "--seed", "9",
                 "--replicas", "50", "--t-grid", "4,6", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,theta,type,mean_count,se,predicted_shape"
    assert len(lines) == 1 + 2 * 2


def test_ldcount_counts_every_window_visit_with_many_small_chunks(
        tmp_path, monkeypatch):
    # replica ids far above the chunk size index the counts exactly
    visits, run = [], simulate.mass_ensemble

    def recording(spec, times, n_replicas, seed, visit, **kwargs):
        def both(*arrays):
            visits.append([a.copy() for a in arrays[1:]] + [arrays[0]])
            visit(*arrays)
        return run(spec, times, n_replicas, seed, both, **kwargs)

    monkeypatch.setattr(simulate, "mass_ensemble", recording)
    path, out = tmp_path / "c.json", tmp_path / "ld.csv"
    path.write_text(json.dumps(SPEC_C_DOC))
    replicas, times = 1500, [2.0, 3.0]
    assert main(["ldcount", "--spec", str(path), "--seed", "4", "--replicas",
                 str(replicas), "--t-grid", "3,2", "--replica-chunk", "7",
                 "--out", str(out)]) == 0
    sd = spectral.perron_eigen(parse_spec_file(str(path)), float(
        out.read_text().splitlines()[1].split(",")[1]), with_derivatives=True)
    counts = np.zeros((2, replicas, 2))
    for rep, mass, typ, frozen, ti in visits:
        lo, hi = asymptotics.ld_window(times[ti], 0.5, 2.0, sd)
        for j in (1, 2):
            np.add.at(counts[ti, :, j - 1],
                      rep[(mass >= lo) & (mass <= hi) & (typ == j)], 1.0)
    assert counts.sum() > 0 and max(v[0].max() for v in visits) > 1400
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for (t, _, j, mean, se, _), (ti, jj) in zip(rows, np.ndindex(2, 2)):
        assert (float(t), int(j)) == (times[ti], jj + 1)
        column = counts[ti, :, jj]
        assert float(mean) == float(column.mean())
        assert float(se) == float(column.std(ddof=1) / math.sqrt(replicas))


def test_report_summary(spec_b_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["report", "--spec", spec_b_file, "--seed", "2",
                 "--replicas", "500", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "irreducible" not in doc
    assert abs(doc["phi_at_0"]) < 1e-10
    assert doc["theta_bar"] == pytest.approx(1.42134, abs=1e-3)
    assert doc["spec"] == spec_to_document(parse_spec_file(spec_b_file))