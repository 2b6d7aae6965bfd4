"""CLI contract: listing, verification runs, exit codes, report files."""

import json

import numpy as np
import pytest

from oscflag import catalog, cli
from oscflag.catalog import CatalogEntry, Expectation
from oscflag.cli import main
from oscflag.errors import (GammaBandError, LRankError, NumericalRankError,
                            UsageError)
from oscflag.ruled_extension import SplittingSpec
from oscflag.verify import RunConfig, run_verification


def test_list_shows_entries(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # each entry's parameters and defaults, as its maker declares them
    for line in ("curve-parallel(n=3, N=8, seed=11)",
                 "curve-product(factors=4, seed=23)", "flat(seed=0)",
                 "holomorphic-curve(m=2)", "product-torus()",
                 "section4-ruled(m=2)", "sphere(n=2)"):
        assert f"  {line}" in lines


def test_list_verbose_shows_expectations(capsys):
    assert main(["list", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "first_normal_rank" in out
    assert "splitting exercise" in out


def test_verify_sphere_exit_zero(capsys):
    assert main(["verify", "sphere", "--samples", "4", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "findings: 0" in out


def test_verify_curve_parallel_n2_big_n5_exit_zero(capsys):
    # at N = n + 3 the mixed-pair splitting cannot reach k = 2, so the
    # entry does not declare it and the remaining exercises pass
    assert main(["verify", "curve-parallel", "--param", "n=2", "--param",
                 "N=5", "--samples", "3"]) == 0


def test_verify_unknown_entry_exit_two(capsys):
    assert main(["verify", "does-not-exist"]) == 2


def test_bad_param_syntax_exit_two():
    assert main(["verify", "sphere", "--param", "n:3"]) == 2


def test_uncastable_param_exit_two(capsys):
    for value in ("n=abc", "n=2.5"):
        assert main(["verify", "sphere", "--param", value]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err


def test_unknown_param_exit_two(capsys):
    # the section4 thickening radius is a constant of the construction
    for entry, param in (("sphere", "bogus=1"),
                         ("section4-ruled", "t_radius=0.25")):
        assert main(["verify", entry, "--param", param]) == 2
        err = capsys.readouterr().err
        assert param.split("=")[0] in err and "Traceback" not in err


@pytest.mark.parametrize("entry,param", [
    ("sphere", "n=0"), ("sphere", "n=-2"),
    ("flat", "seed=-1"), ("curve-parallel", "seed=-1"),
    ("curve-product", "seed=-1"),
    ("section4-ruled", "t_radius=0"), ("section4-ruled", "t_radius=-0.1"),
    ("section4-ruled", "t_radius=inf")])
def test_out_of_range_param_exit_two(entry, param, capsys):
    # the registry casts these values, and the entry rejects them by name
    # before any point is sampled; the section4 radius is a constant, so no
    # t_radius value is in range and the registry rejects it as unknown
    assert main(["verify", entry, "--param", param, "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert param.split("=")[0] in err and "Traceback" not in err


@pytest.mark.parametrize("n", [2, 3])
def test_curve_parallel_without_complement_exit_two(n, capsys):
    # N = n + 1 leaves no complement of the first normal space (s = 0), so
    # the entry rejects it by name before any point is sampled
    args = ["verify", "curve-parallel", "--param", f"n={n}",
            "--param", f"N={n + 1}", "--samples", "2"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"N={n + 1}" in err and "Traceback" not in err


@pytest.mark.parametrize("n,big_n", [(2, 8), (3, 9), (4, 10)])
def test_curve_parallel_flag_short_of_ambient_exit_two(n, big_n, capsys):
    # the curve's derivatives span at most six directions, so the flag
    # stops at n + 5 and cannot fill a larger R^N: rejected by name
    args = ["verify", "curve-parallel", "--param", f"n={n}",
            "--param", f"N={big_n}", "--samples", "2"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"N={big_n}" in err and "Traceback" not in err


@pytest.mark.parametrize("target", ["missing-dir/report.json", "."])
def test_unwritable_report_path_exit_two(target, tmp_path, capsys,
                                         monkeypatch):
    # a report path in a missing directory, or a directory itself, is a
    # usage error named by its path, not a traceback with exit 1, and it
    # is found before the run
    def no_run(config):
        raise AssertionError("verification ran before the path was checked")

    monkeypatch.setattr(cli, "run_verification", no_run)
    path = str(tmp_path / target)
    assert main(["verify", "sphere", "--samples", "2", "--out", path]) == 2
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err


def test_bad_config_exit_two():
    assert main(["verify", "sphere", "--samples", "0"]) == 2
    assert main(["verify", "sphere", "--rank-tol", "2.0"]) == 2
    assert main(["verify", "sphere", "--seed", "-1", "--samples", "2"]) == 2


def test_max_normal_order_flag_rejected(capsys):
    # the flag stages always run to the entry's own max_normal_order, and
    # the frame-difference oracles use the step their window is set for
    for flag, value in (("--max-normal-order", "2"), ("--fd-step", "1e-3")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "flat", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err


def test_report_file_schema(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["verify", "flat", "--samples", "3", "--seed", "2",
                 "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["schema_version"] == "3"
    assert data["config"]["entry"] == "flat"
    assert "fd_step" not in data["config"]
    assert len(data["points"]) == 3
    assert all("tolerance" in v for v in data["verdicts"])
    assert data["findings"] == []
    assert "timings" in data
    for point in data["points"]:
        assert {"x", "p", "s", "d", "nu", "case", "residuals"} <= point.keys()


def test_run_config_round_trip():
    cfg = RunConfig(entry="sphere", params={"n": 3}, samples=5, seed=9,
                    rank_tol=1e-7, out="r.json")
    again = RunConfig(**cfg.to_dict())
    assert again == cfg
    with pytest.raises(UsageError):
        RunConfig(entry="sphere", samples=0)


def test_findings_drive_exit_code_one(capsys):
    # a deliberately impossible expectation must fail the run, not crash it
    def bad_builder():
        entry = catalog.get_entry("sphere")
        return CatalogEntry(
            name="sphere-bad", params=entry.params,
            description="sphere with an impossible declared rank",
            chart=entry.chart, max_normal_order=entry.max_normal_order,
            expected=[Expectation("first_normal_rank", {"expected": 99},
                                  "impossible on purpose")],
            sampler=entry.sampler)

    catalog.BUILDERS["sphere-bad"] = (bad_builder, "test-only")
    try:
        assert main(["verify", "sphere-bad", "--samples", "3"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] first_normal_rank" in out
        assert "findings: 1" in out
    finally:
        del catalog.BUILDERS["sphere-bad"]


def test_exit_zero_iff_findings_empty():
    report = run_verification(RunConfig(entry="product-torus", samples=3,
                                        seed=4))
    assert report.passed == (len(report.findings) == 0)
    assert report.passed


def test_degenerate_sampling_exit_three(capsys):
    # an entry whose sampler always lands on rank-unstable points must end
    # with the degeneracy exit code, not a crash or a fake report
    def bad_builder():
        entry = catalog.get_entry("section4-ruled", {"m": 2})
        entry.sampler = lambda rng: np.array([0.1, 0.2, 1e-7, 1e-7])
        return entry

    catalog.BUILDERS["degenerate-test"] = (bad_builder, "test-only")
    try:
        assert main(["verify", "degenerate-test", "--samples", "2"]) == 3
        err = capsys.readouterr().err
        assert "degeneracy" in err
    finally:
        del catalog.BUILDERS["degenerate-test"]


def test_numerical_failure_during_run_exit_three(capsys):
    # a numerical error raised mid-run is not a usage error: exit 3, with
    # the error class named on stderr
    def failing_builder():
        entry = catalog.get_entry("sphere", {"n": 2})

        def sampler(rng):
            raise NumericalRankError("rank of Lambda changed from 1 to 0")
        entry.sampler = sampler
        return entry

    catalog.BUILDERS["rank-failure-test"] = (failing_builder, "test-only")
    try:
        assert main(["verify", "rank-failure-test", "--samples", "2"]) == 3
        err = capsys.readouterr().err
        assert "NumericalRankError" in err and "Traceback" not in err
    finally:
        del catalog.BUILDERS["rank-failure-test"]


@pytest.mark.parametrize("argv", [
    ["curve-parallel", "--samples", "5", "--seed", "4"],
    ["curve-parallel", "--param", "n=4", "--param", "N=8", "--samples", "3",
     "--seed", "7"]])
def test_ruling_checks_stay_at_the_sampled_points(argv, capsys):
    # constancy along the rulings is read at each sampled point, so no
    # check walks a leaf out of the chart box (these runs once exited 3)
    assert main(["verify", *argv]) == 0
    assert "findings: 0" in capsys.readouterr().out


@pytest.mark.parametrize("error,failure", [
    (GammaBandError("dim Gamma = 9 outside the band [1, 2]"), "gamma-band"),
    (NumericalRankError("alpha restricted to P has trivial kernel (d = 0)"),
     "d-zero"),
    (LRankError("splitting needs 0 < rank L < 5, got 5"), "l-rank")])
def test_split_rank_violation_is_a_finding(error, failure, monkeypatch,
                                           tmp_path, capsys):
    # split_jets raises when rank L leaves its range, d = 0 or dim Gamma
    # leaves its band; at a sampled point that is the exercise's failure of
    # that name, not a degeneracy exit
    real_at = SplittingSpec.at
    calls = []

    def at(self, geom, order=1):
        calls.append(order)
        if len(calls) == 2:
            raise error
        return real_at(self, geom, order)

    monkeypatch.setattr(SplittingSpec, "at", at)
    out_path = tmp_path / "report.json"
    assert main(["verify", "curve-parallel", "--param", "n=2", "--param",
                 "N=5", "--samples", "2", "--out", str(out_path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] split_exercise:parallel-line" in out
    assert "findings: 1" in out
    details = json.loads(out_path.read_text())["findings"][0]["details"]
    assert details["failures"] == [failure]
    assert details["band_holds"] == (failure != "gamma-band")
