"""Command-line interface: outputs, artifacts, and exit codes."""

import argparse
import csv
from dataclasses import fields
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import cylshell
from cylshell import ansatz, fixedbc, korn, rect
from cylshell.cli import build_parser, main
from cylshell.material import ShellGeometry


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_trivial_branch_json(capsys):
    code, out = run(capsys, "trivial-branch", "--E", "1.0", "--nu", "0.3",
                    "--lambda", "0.05")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["E"] == 1.0
    assert 0.0 < payload["b"] < 1.0 - 1.0 / math.sqrt(3.0)
    assert payload["residual"] <= 1e-12


def test_trivial_branch_inadmissible_load(capsys):
    code, _ = run(capsys, "trivial-branch", "--E", "1.0", "--nu", "0.3",
                  "--lambda", "1.0")
    assert code == 2


def test_trivial_branch_nan_load(capsys):
    code, _ = run(capsys, "trivial-branch", "--E", "1.0", "--nu", "0.3",
                  "--lambda", "nan")
    assert code == 2


def test_classical_load(capsys):
    code, out = run(capsys, "classical-load", "--h", "1e-3")
    assert code == 0
    payload = json.loads(out)
    assert 0.0 <= payload["lambda_hat"] / payload["closed_form"] - 1.0 <= 0.02
    assert payload["m"] >= 1 and payload["n"] >= 0


def test_koiter_modes_export(tmp_path, capsys):
    obj = tmp_path / "mode.obj"
    code, out = run(capsys, "--out", str(tmp_path), "koiter-modes",
                    "--h", "1e-3", "--m", "1", "--export", str(obj),
                    "--ntheta", "24", "--nz", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["modes"][0]["m"] == 1
    lines = obj.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 24 * 12
    assert sum(1 for ln in lines if ln.startswith("f ")) == 24 * 11
    assert (tmp_path / "mode.csv").exists()
    assert (tmp_path / "koiter_modes.csv").exists()


def test_koiter_modes_rejects_bad_amplitude(tmp_path, capsys):
    code, _ = run(capsys, "--out", str(tmp_path), "koiter-modes", "--h", "1e-3",
                  "--m", "1", "--export", str(tmp_path / "m.obj"),
                  "--amplitude", "0.0")
    assert code == 2


@pytest.mark.parametrize("mesh", [["--ntheta", "0"], ["--ntheta", "2"], ["--nz", "1"]])
def test_export_rejects_degenerate_mesh(tmp_path, capsys, mesh):
    obj = tmp_path / "m.obj"
    code, _ = run(capsys, "koiter-modes", "--h", "1e-3", "--m", "1",
                  "--export", str(obj), *mesh)
    assert code == 2
    assert not obj.exists()


@pytest.mark.parametrize("flag", ["--out", "--export"])
def test_bad_artifact_path(tmp_path, capsys, flag):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    missing = tmp_path / "missing"
    argv = (["--out", str(taken), "classical-load", "--h", "1e-4"] if flag == "--out" else
            ["koiter-modes", "--h", "1e-4", "--m", "1", "--export", str(missing / "m.obj")])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and flag in captured.err
    assert captured.out == ""  # rejected before any computation
    assert taken.read_text() == "keep\n" and not missing.exists()


@pytest.mark.parametrize("name", ["mode.csv", "mode.CSV"])
def test_export_onto_its_csv_twin(tmp_path, capsys, name):
    # the OBJ would be overwritten by its own CSV twin: rejected before any computation
    code = main(["koiter-modes", "--h", "1e-3", "--m", "1", "--export", str(tmp_path / name)])
    captured = capsys.readouterr()
    assert code == 2
    assert "--export" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_korn_sweep_artifacts(tmp_path, capsys):
    h_list = "1e-2,7e-3,5e-3,3e-3"
    code, out = run(capsys, "--out", str(tmp_path), "korn", "--h-list", h_list)
    assert code == 0
    payload = json.loads(out)
    assert 1.3 <= payload["fit"]["exponent"] <= 1.7
    with open(tmp_path / "korn.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0][0].startswith("# config:")
    assert rows[1] == ["h", "K", "m_star", "n_star", "K_over_h15"]
    assert len(rows) == 6
    assert json.loads((tmp_path / "korn.json").read_text()) == payload


@pytest.mark.parametrize("command", [["korn"], ["components", "--which", "rthr"]])
def test_sweep_reports_each_scan(capsys, command):
    # one scans entry per h, from the same scan as the row: h, every
    # ScanResult field but the row's value and mode, and the wall time; rows
    # keep their columns; at N = 8 the coarse grid is the N grid, so no gap
    geos = [ShellGeometry(h, math.pi) for h in (1e-2, 5e-3)]
    keys = [f.name for f in fields(korn.ScanResult) if f.name not in ("value", "m", "n")]
    assert keys == ["evaluations", "on_boundary", "resolution_gap", "walked_at_N",
                    "screened_out", "bound_ratio"]
    for n_r in (8, 16):
        code, out = run(capsys, *command, "--h-list", "1e-2,5e-3", "--N", str(n_r))
        assert code == 0
        payload = json.loads(out)
        expected = [korn.korn_constant(geo, N=n_r) if command == ["korn"]
                    else korn.component_bound(geo, "rthr", N=n_r) for geo in geos]
        assert [row[:4] for row in payload["rows"]] == [[geo.h, r.value, r.m, r.n]
                                                        for geo, r in zip(geos, expected)]
        assert {len(row) for row in payload["rows"]} == {5 if command == ["korn"] else 4}
        assert all(list(scan) == ["h", *keys, "wall_s"] for scan in payload["scans"])
        assert [[scan["h"], *(scan[k] for k in keys)] for scan in payload["scans"]] == [
            [geo.h, *(getattr(r, k) for k in keys)] for geo, r in zip(geos, expected)]
        assert all((scan["resolution_gap"] is None) == (n_r == 8)
                   for scan in payload["scans"])
        assert all(scan["screened_out"] > 0 and scan["bound_ratio"] > 0
                   for scan in payload["scans"])
        assert all(scan["wall_s"] > 0 for scan in payload["scans"])


def test_no_jobs_option(capsys):
    code, _ = run(capsys, "--jobs", "2", "korn", "--h-list", "1e-2")
    assert code == 2


def test_korn_lapack_failure_exits_3(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    monkeypatch.setattr(scipy.linalg, "svd", no_convergence)
    code = main(["korn", "--h-list", "1e-2", "--mmax", "3", "--nmax", "3", "--N", "8"])
    assert code == 3
    assert "SVD did not converge" in capsys.readouterr().err


def test_korn_failed_model_bound_exits_3(capsys, monkeypatch):
    # pencil quotients a tenth of the true ones undercut the Korn model's bound
    solve = korn._solve_stack

    def undercut(C_num, C_den, sign):
        return [(0.1 * value, v) for value, v in solve(C_num, C_den, sign)]

    monkeypatch.setattr(korn, "_solve_stack", undercut)
    code = main(["korn", "--h-list", "1e-2", "--N", "8"])
    assert code == 3
    assert "bound fails" in capsys.readouterr().err


@pytest.mark.parametrize("group, scale", [("rthr", 10.0), ("ththzz", 1.0 + 1e-9)])
def test_component_failed_model_bound_exits_3(capsys, monkeypatch, group, scale):
    # pencil quotients above the group's upper bound: ten times the true
    # rthr ones, and ththzz ones 1e-9 above its proven bound 1, beyond the
    # bound's 1e-12 slack
    solve = korn._solve_stack

    def overshoot(C_num, C_den, sign):
        return [(scale * value, v) for value, v in solve(C_num, C_den, sign)]

    monkeypatch.setattr(korn, "_solve_stack", overshoot)
    code = main(["components", "--which", group, "--h-list", "1e-2", "--N", "8"])
    assert code == 3
    assert "bound fails" in capsys.readouterr().err


def test_components_subcommand(tmp_path, capsys):
    code, out = run(capsys, "--out", str(tmp_path), "components",
                    "--h-list", "1e-2,5e-3", "--which", "ththzz")
    assert code == 0
    payload = json.loads(out)
    assert payload["target_exponent"] == 0.0
    for row in payload["rows"]:
        assert row[1] <= 1.0 + 1e-9
    assert (tmp_path / "components_ththzz.csv").exists()


@pytest.mark.parametrize("command", [["korn"], ["components", "--which", "rthr"]])
@pytest.mark.parametrize("caps", [["--mmax", "0"], ["--mmax", "-3"], ["--nmax", "-1"]])
def test_empty_scan_window(tmp_path, capsys, command, caps):
    code, _ = run(capsys, "--out", str(tmp_path), *command, "--h-list", "1e-2", *caps)
    assert code == 2


@pytest.mark.parametrize("command", [["korn"], ["components", "--which", "rthr"]])
def test_too_few_radial_nodes(tmp_path, capsys, command):
    code = main(["--out", str(tmp_path), *command, "--h-list", "1e-2", "--N", "2"])
    assert code == 2
    assert "N=2" in capsys.readouterr().err


def test_components_unknown_group(tmp_path, capsys):
    code, _ = run(capsys, "--out", str(tmp_path), "components",
                  "--h-list", "1e-2", "--which", "bogus")
    assert code == 2


def test_ansatz_limits(tmp_path, capsys):
    # h of the form k^-4 so the circumferential wavenumber h^(-1/4) is integral
    code, out = run(capsys, "--out", str(tmp_path), "ansatz",
                    "--h-list", "0.0016,0.0001")
    assert code == 0
    payload = json.loads(out)
    for name in ("gradient", "strain"):
        assert all(1.0 < v < 1.1 for v in payload[name]["normalized"])
    assert (tmp_path / "ansatz_limits.csv").exists()


def test_ansatz_stress_fit(tmp_path, capsys):
    code, out = run(capsys, "--out", str(tmp_path), "ansatz",
                    "--h-list", "1e-2,3e-3,1e-3", "--stress", "perfect")
    assert code == 0
    payload = json.loads(out)
    assert payload["fit"]["exponent"] == pytest.approx(1.0, abs=0.2)
    assert (tmp_path / "ansatz_perfect.csv").exists()


def test_fixedbc_sweep(tmp_path, capsys):
    obj = tmp_path / "fixed.obj"
    code, out = run(capsys, "--out", str(tmp_path), "fixedbc",
                    "--h-list", "1e-3,1e-4", "--export", str(obj),
                    "--ntheta", "16", "--nz", "8")
    assert code == 0
    payload = json.loads(out)
    ratios = [row[3] for row in payload["rows"]]
    assert all(r > 1.0 for r in ratios)
    assert ratios[-1] < ratios[0]
    assert obj.exists()
    assert (tmp_path / "fixedbc.csv").exists()


def test_rect_korn(capsys):
    code, out = run(capsys, "rect-korn", "--trials", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["extremal_equality_error"] <= 1e-8


def test_rect_korn_seed_flag(capsys):
    first = run(capsys, "rect-korn", "--trials", "10", "--seed", "777")
    assert first[0] == 0
    assert json.loads(first[1])["config"]["seed"] == 777
    assert run(capsys, "rect-korn", "--trials", "10", "--seed", "777") == first


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_rect_korn_rejects_empty_scan(capsys, trials):
    code, _ = run(capsys, "rect-korn", "--trials", trials)
    assert code == 2


def test_rect_korn_rejects_a_negative_seed(tmp_path, capsys):
    # numpy's generator would raise a bare ValueError (exit 1)
    code = main(["--out", str(tmp_path), "rect-korn", "--trials", "1", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "seed" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--L", "-1"], ["--L", "0"], ["--L", "nan"], ["--L", "inf"],
    ["--h", "0"], ["--h", "-0.1"], ["--h", "0.2"], ["--h", "0.5"], ["--h", "nan"],
    ["--trials", "0"],
], ids=["L-negative", "L-zero", "L-nan", "L-inf", "h-zero", "h-negative",
        "h-sigma", "h-above-sigma", "h-nan", "trials-zero"])
def test_rect_korn_checks_inputs_first(capsys, monkeypatch, argv):
    # every input is checked before the first trial: nothing is computed
    def computed(*args, **kwargs):
        raise AssertionError("rect-korn ran a trial before checking its inputs")

    for name in ("basic_inequality_trials", "harmonic_lemma_check",
                 "periodic_inequality_trials"):
        monkeypatch.setattr(rect, name, computed)
    code, out = run(capsys, "rect-korn", *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["korn", "--h-list", "1e-2,abc"],
    ["korn", "--h-list", ","],
    ["koiter-modes", "--h", "1e-3", "--m", "1,abc"],
    ["koiter-modes", "--h", "1e-3", "--m", "1.5"],
], ids=["h-list-abc", "h-list-empty", "m-abc", "m-float"])
def test_bad_h_list(capsys, argv):
    code, _ = run(capsys, *argv)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["ansatz", "--h-list", "1e-2,-1"],
    ["fixedbc", "--h-list", "1e-3,0"],
    ["ansatz", "--h-list", "1e-2,1e-3", "--L", "-1"],
    ["fixedbc", "--h-list", "1e-3", "--L", "0"],
    ["korn", "--h-list", "1e-2,-1"],
    ["components", "--which", "rthr", "--h-list", "1e-2,-1"],
    ["ansatz", "--h-list", "1e-2,1e-3,1e-4", "--L", "inf"],
    ["fixedbc", "--h-list", "1e-4", "--L", "inf"],
    ["korn", "--h-list", "1e-2", "--L", "inf"],
    ["ansatz", "--h-list", "1e-2", "--skew", "nan"],
    ["ansatz", "--h-list", "1e-2", "--skew", "inf"],
    ["korn", "--h-list", "1e-2,1e-2,1e-2,1e-2"],
    ["fixedbc", "--h-list", "1e-3,1e-4,1e-3"],
    ["ansatz", "--h-list", "0.0016,0.0016"],
    # the second h is below its scan's pi h / L floor
    ["components", "--which", "urrzzr", "--h-list", "1e-2,1e-7"],
    ["korn", "--h-list", "1e-2,1e-11"],
    ["korn", "--h-list", "0.5,1e-11", "--L", "1", "--mmax", "60", "--nmax", "60"],
], ids=["ansatz-h", "fixedbc-h", "ansatz-L", "fixedbc-L", "korn-h", "components-h",
        "ansatz-L-inf", "fixedbc-L-inf", "korn-L-inf", "ansatz-skew-nan", "ansatz-skew-inf",
        "korn-h-repeated", "fixedbc-h-repeated", "ansatz-h-repeated", "urrzzr-h-floor",
        "korn-h-floor", "korn-h-floor-window"])
def test_bad_sweep_geometry(capsys, monkeypatch, argv):
    # every h, L and skew is validated before the first solve: nothing is computed
    def computed(*args, **kwargs):
        raise AssertionError("a sweep computed before validating its h-list")

    for module, name in ((korn, "_scan"), (ansatz, "build_ansatz"),
                         (fixedbc, "classical_ratio")):
        monkeypatch.setattr(module, name, computed)
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["classical-load", "--h", "1e-4", "--L", "inf"],
    ["trivial-branch", "--E", "inf", "--nu", "0.3", "--lambda", "0.01"],
    ["koiter-modes", "--h", "1e-4", "--m", "1", "--export", "{tmp}/x.obj", "--amplitude", "nan"],
    ["koiter-modes", "--h", "1e-4", "--m", "1", "--export", "{tmp}/x.obj", "--amplitude", "inf"],
], ids=["classical-load-L", "trivial-branch-E", "amplitude-nan", "amplitude-inf"])
def test_non_finite_parameters(tmp_path, capsys, argv):
    code, out = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert not (tmp_path / "x.obj").exists()


@pytest.mark.parametrize("argv", [
    ["ansatz", "--h-list", "1e-2", "--L", "1e-300"],
    ["ansatz", "--h-list", "1e-2", "--L", "1e300"],
    ["ansatz", "--h-list", "1e-2,1e-300"],
    ["koiter-modes", "--h", "1e-4", "--m", "1", "--L", "1e300"],
    ["rect-korn", "--trials", "1", "--L", "1e-30"],
    ["rect-korn", "--trials", "1", "--L", "1e-300"],
    ["rect-korn", "--trials", "1", "--L", "1e30"],
    ["rect-korn", "--trials", "1", "--L", "1e300"],
    ["rect-korn", "--trials", "1", "--h", "1e-30"],
    ["rect-korn", "--trials", "1", "--h", "1e-300"],
    ["classical-load", "--h", "1e-4", "--L", "1e30"],
    ["classical-load", "--h", "1e-4", "--L", "1e300"],
    ["classical-load", "--h", "1e-300"],
    ["classical-load", "--h", "1e-30"],
    ["classical-load", "--h", "1e-300", "--L", "1e300"],
    ["classical-load", "--h", "1e-4", "--mmax", "4000001"],
    ["korn", "--h-list", "1e-2", "--L", "1e300", "--N", "8"],
    ["korn", "--h-list", "1e-2", "--L", "1e12", "--N", "8"],
    ["components", "--which", "rthr", "--h-list", "1e-2", "--L", "1e300"],
    ["components", "--which", "thzzth", "--h-list", "1e-2,0.5", "--L", "1e12"],
    ["components", "--which", "urrzzr", "--h-list", "1e-2", "--L", "1e5"],
    ["korn", "--h-list", "1e-2", "--N", "513"],
    ["korn", "--h-list", "1e-2", "--L", "1e-100"],
    ["korn", "--h-list", "1e-2", "--L", "5e-77"],
    ["korn", "--h-list", "1e-2", "--nmax", "1000000000"],
    ["koiter-modes", "--h", "1e-3", "--m", "1", "--export", "{tmp}/x.obj",
     "--ntheta", "200000", "--nz", "20000"],
    # a bad second m: no surface of the first is written
    ["koiter-modes", "--h", "1e-4", "--m", "1,100000", "--export", "{tmp}/x.obj"],
    ["koiter-modes", "--h", "1e-4", "--m", "1,-3", "--export", "{tmp}/x.obj"],
], ids=["ansatz-L-tiny", "ansatz-L-huge", "ansatz-h-tiny", "koiter-modes-L-huge",
        "rect-L-1e-30", "rect-L-1e-300", "rect-L-1e30", "rect-L-1e300", "rect-h-1e-30",
        "rect-h-1e-300", "load-L-1e30", "load-L-1e300", "load-h-1e-300", "load-h-1e-30",
        "load-M-overflow", "load-mmax-cap", "korn-L-1e300", "korn-L-1e12",
        "components-L-1e300", "components-L-1e12", "urrzzr-L-1e5", "korn-N-513",
        "korn-L-1e-100", "korn-L-5e-77", "korn-nmax-1e9", "export-mesh-4e9",
        "export-m-outside-circle", "export-m-negative"])
def test_extreme_finite_parameters(tmp_path, capsys, argv):
    # finite but out of each formula's admitted range: exit 2 before any
    # large array is made, not a traceback (classical-load --h 1e-30 would
    # ask for 25 PiB, the 4e9-vertex surface for 30 GiB, the Korn model of
    # --nmax 1e9 about 1.5 TB)
    code, out = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_koiter_modes_rejects_nonpositive_m(capsys):
    # the axial mode is checked before the circle wavenumber is taken
    code = main(["koiter-modes", "--h", "1e-4", "--m", "-3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "m=-3 must be >= 1" in captured.err
    assert "Koiter circle" not in captured.err


def test_missing_subcommand(capsys):
    assert main([]) == 2


ARTIFACT_RUNS = {
    "trivial_branch": ["trivial-branch", "--E", "1", "--nu", "0.3", "--lambda", "0.05"],
    "classical_load": ["classical-load", "--h", "1e-3"],
    "koiter_modes": ["koiter-modes", "--h", "1e-3", "--m", "1,2"],
    "korn": ["korn", "--h-list", "1e-2", "--mmax", "3", "--nmax", "3", "--N", "8"],
    "components_rthr": ["components", "--which", "rthr", "--h-list", "1e-2",
                        "--mmax", "3", "--nmax", "3", "--N", "8"],
    "ansatz_limits": ["ansatz", "--h-list", "0.0016,0.0001"],
    "fixedbc": ["fixedbc", "--h-list", "1e-3,1e-4"],
    "rect_korn": ["rect-korn", "--trials", "5"],
}
SWEEPS = ("koiter_modes", "korn", "components_rthr", "ansatz_limits", "fixedbc")


def test_every_subcommand_writes_its_artifacts(tmp_path, capsys):
    for name, argv in ARTIFACT_RUNS.items():
        out = tmp_path / name
        code, text = run(capsys, "--out", str(out), *argv)
        assert code == 0, name
        expected = {f"{name}.json"} | ({f"{name}.csv"} if name in SWEEPS else set())
        assert set(os.listdir(out)) == expected
        assert (out / f"{name}.json").read_text() == text
        if name in SWEEPS:
            with open(out / f"{name}.csv") as f:
                first = next(csv.reader(f))[0]
            assert json.loads(first.removeprefix("# config: ")) == json.loads(text)["config"]


def _declared(argv):
    """The parsed namespace of argv and the dests its subcommand declares, in order."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    args = parser.parse_args(argv)
    return args, [a.dest for a in sub.choices[args.command]._actions if a.dest != "help"]


@pytest.mark.parametrize("argv", [*ARTIFACT_RUNS.values(),
                                  ["fixedbc", "--h-list", "1e-3", "--export", "{tmp}/f.obj",
                                   "--ntheta", "7", "--nz", "5"]],
                         ids=[*ARTIFACT_RUNS, "fixedbc-export"])
def test_config_is_every_declared_option(tmp_path, capsys, argv):
    # every option the subcommand declares, in its order, but --export, and
    # without unset values
    argv = [a.format(tmp=tmp_path) for a in argv]
    args, dests = _declared(argv)
    expected = {k: getattr(args, k) for k in dests
                if k != "export" and getattr(args, k) is not None}
    code, out = run(capsys, *argv)
    assert code == 0
    config = json.loads(out)["config"]
    assert config == expected and list(config) == list(expected)


def test_successive_runs_share_no_options(capsys):
    # the parser is built once per process, so an option given to one run
    # must not carry over to the next
    assert build_parser() is build_parser()
    argv = ["korn", "--h-list", "1e-2", "--N", "8"]
    configs = []
    for extra in (["--mmax", "3"], []):
        code, out = run(capsys, *argv, *extra)
        assert code == 0
        configs.append(json.loads(out)["config"])
    assert configs[0]["mmax"] == 3 and "mmax" not in configs[1]
    assert configs[1] == {k: v for k, v in configs[0].items() if k != "mmax"}


def test_ansatz_modes_share_one_out(tmp_path, capsys):
    assert run(capsys, "--out", str(tmp_path), "ansatz", "--h-list", "0.0016,0.0001")[0] == 0
    assert run(capsys, "--out", str(tmp_path), "ansatz", "--h-list", "1e-2,3e-3",
               "--stress", "hoop")[0] == 0
    assert "gradient" in json.loads((tmp_path / "ansatz_limits.json").read_text())
    assert "ratio" in json.loads((tmp_path / "ansatz_hoop.json").read_text())


@pytest.mark.parametrize("name", SWEEPS)
def test_no_files_without_out(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, *ARTIFACT_RUNS[name])
    assert code == 0
    assert json.loads(out)["config"]
    assert list(tmp_path.iterdir()) == []


def test_every_export_resolves():
    missing = [name for name in cylshell.__all__ if not hasattr(cylshell, name)]
    assert missing == []


def test_import_loads_no_scipy():
    # a fresh process: the test modules themselves import scipy
    code = ("import sys, cylshell, cylshell.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(cylshell.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
