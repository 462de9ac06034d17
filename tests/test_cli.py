import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import CHILD_ENV
from darkstate import (load_scenario, preset, preset_names,
                       propagate, save_scenario, scenario_to_dict,
                       spectrum_analytic, spectrum_time_domain,
                       trapped_fraction)
import darkstate
from darkstate import _dop853, cli, dynamics
from darkstate.analysis import default_grid
from darkstate.cli import main
from darkstate.model import DriveField, write_json
from darkstate.spectrum import SpectrumResult


@pytest.fixture
def fig2_config(tmp_path):
    path = tmp_path / "fig2.json"
    save_scenario(preset("fig2-notrapping").system, path)
    return path


@pytest.fixture
def trapping_config(tmp_path):
    path = tmp_path / "trap.json"
    save_scenario(preset("fig2-trapping").system, path)
    return path


def run(*argv):
    return main(list(argv))


class TestSpectrumCommand:
    def test_csv_output(self, fig2_config, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = run("spectrum", "--config", str(fig2_config),
                   "--grid=-30:30:101", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert comments
        header = [l for l in lines if l.startswith("delta")][0]
        assert header == "delta,branch1,branch2,branch3,total"
        rows = [l for l in lines if not l.startswith(("#", "delta"))]
        assert len(rows) == 101
        first = rows[0].split(",")
        assert float(first[0]) == -30.0
        # 17 significant digits, scientific notation
        assert "e" in first[0] and len(first[0].split("e")[0].lstrip("-")) == 18

    def test_manifest_written(self, fig2_config, tmp_path):
        out = tmp_path / "spec.csv"
        run("spectrum", "--config", str(fig2_config), "--grid=-5:5:11",
            "--out", str(out))
        manifest = json.loads((tmp_path / "spec.csv.manifest.json").read_text())
        assert manifest["command"] == "spectrum"
        assert str(out) in manifest["outputs"]
        assert manifest["parameters"]["system"] == "d2"

    def test_json_output_includes_poles(self, fig2_config, tmp_path):
        out = tmp_path / "spec.json"
        code = run("spectrum", "--config", str(fig2_config), "--grid=-5:5:11",
                   "--format", "json", "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["poles"]) == 3
        assert len(data["poles"][0]) == 4
        assert {"pole", "residue", "order", "trapped"} <= \
            set(data["poles"][0][0])

    def test_svg_written(self, fig2_config, tmp_path):
        out = tmp_path / "spec.csv"
        svg = tmp_path / "spec.svg"
        run("spectrum", "--config", str(fig2_config), "--grid=-30:30:201",
            "--out", str(out), "--svg", str(svg))
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_deterministic_output(self, fig2_config, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run("spectrum", "--config", str(fig2_config), "--grid=-30:30:101",
            "--out", str(a))
        run("spectrum", "--config", str(fig2_config), "--grid=-30:30:101",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_config_is_input_error(self, tmp_path):
        code = run("spectrum", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_unreadable_config_is_input_error(self, tmp_path, capsys):
        # a directory as scenario file is a failed read, not a failed write
        code = run("spectrum", "--config", str(tmp_path),
                   "--out", str(tmp_path / "x.csv"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot read scenario file ")
        assert list(tmp_path.iterdir()) == []

    def test_bad_grid_is_input_error(self, fig2_config, tmp_path):
        code = run("spectrum", "--config", str(fig2_config),
                   "--grid", "oops", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("method", ["analytic", "timedomain", "both"])
    def test_manifest_integrator_entry(self, method, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--preset", "fig2-notrapping", "--method",
                   method, "--grid=-5:5:11", "--out", str(out)) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        if method == "analytic":
            assert "integrator" not in manifest
        else:
            alone = []
            propagate(preset("fig2-notrapping").system, runs=alone)
            assert manifest["integrator"] == [{**alone[0],
                                               "eps_extrapolated": False}]
            # a resonant preset without cross-damping: a constant drift,
            # whose sample-step operator evaluates no right-hand side and
            # halves the sample step until its error bound meets atol
            assert alone[0]["end"] == "t_final" and alone[0]["nfev"] == 0
            assert alone[0]["kernel"] == "operator"
            assert alone[0]["halvings"] >= 0 and alone[0]["rejected"] == 0
            assert 0 < alone[0]["error_bound"] <= 1e-10

    @pytest.mark.parametrize("name, trapped", [
        ("fig2-notrapping", False), ("d1-fig3a", True), ("d1-trapping", True)])
    def test_manifest_records_the_eps_path(self, name, trapped, tmp_path,
                                           capsys):
        """A time-domain run records whether its branches took the
        eps-extrapolated transform of a trapped component."""
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--preset", name, "--method", "timedomain",
                   "--grid=-5:5:11", "--out", str(out)) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        (entry,) = manifest["integrator"]
        traj = propagate(preset(name).system)
        assert entry["eps_extrapolated"] is trapped
        assert dynamics._is_trapped(traj) is trapped

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--preset", "fig2-notrapping"],
        ["spectrum", "--preset", "d1-fig3a", "--method", "both",
         "--grid=-5:5:41", "--format", "json"],
        ["sweep", "--preset", "fig2-trapping", "--vary", "phase2",
         "--range", "0:1:5", "--metric", "central_area"],
        ["sweep", "--preset", "fig2-trapping", "--vary", "phase2",
         "--range", "0:1:2", "--metric", "trapped_fraction"],
    ])
    def test_manifest_stage_timings(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        stages = manifest["stage_s"]
        assert set(stages) == {"load", "compute", "write"}
        assert all(v >= 0.0 for v in stages.values())
        assert sum(stages.values()) <= manifest["wall_time_s"]

    def test_no_emission_warning(self, tmp_path, capsys):
        from darkstate import D2System, DriveField
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(0),) * 4, initial="B")
        cfg = tmp_path / "empty.json"
        save_scenario(s, cfg)
        code = run("spectrum", "--config", str(cfg), "--grid=-5:5:11",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 0
        assert "no emission" in capsys.readouterr().out

    def test_d1_trapping_note(self, tmp_path, capsys):
        cfg = tmp_path / "d1trap.json"
        save_scenario(preset("d1-trapping").system, cfg)
        code = run("spectrum", "--config", str(cfg), "--grid=-5:5:11",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 0
        assert "trapping condition satisfied" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["d1-trapping", "d1-fig3c", "d1-fig3f"])
    def test_dark_preset_note_on_default_grid(self, name, tmp_path, capsys):
        # the closed form leaves roundoff of up to ~7e-29 on these dark
        # atoms, which still counts as a zero spectrum
        code = run("spectrum", "--preset", name,
                   "--out", str(tmp_path / "x.csv"))
        assert code == 0
        assert capsys.readouterr().out == \
            "note: trapping condition satisfied (dark atom)\n"

    def test_numerical_failure_exit_code(self, tmp_path):
        from darkstate import D2System, DriveField
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(1),) * 4, detunings=(0.5, 0, 0, 0))
        cfg = tmp_path / "detuned.json"
        save_scenario(s, cfg)
        code = run("spectrum", "--config", str(cfg), "--grid=-5:5:11",
                   "--method", "analytic", "--out", str(tmp_path / "x.csv"))
        assert code == 3


class TestTrappingCommand:
    def test_report_printed(self, trapping_config, capsys):
        code = run("trapping", "--config", str(trapping_config))
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["satisfied"] is True

    def test_solve_completes_fields(self, tmp_path, capsys):
        from darkstate import D2System, DriveField
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(2), DriveField(1, math.pi),
                             DriveField(1), DriveField(0.3)))
        cfg = tmp_path / "partial.json"
        save_scenario(s, cfg)
        out = tmp_path / "solved.json"
        code = run("trapping", "--config", str(cfg), "--solve",
                   "--out", str(out))
        assert code == 0
        solved = load_scenario(out)
        assert solved.drives[3].magnitude == pytest.approx(2.0)
        assert solved.drives[2].phase == pytest.approx(0.0, abs=1e-12)
        manifest = json.loads((tmp_path / "solved.json.manifest.json")
                              .read_text())
        assert manifest["outputs"] == [str(out)]

    def test_nothing_written_without_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("trapping", "--preset", "fig2-notrapping") == 0
        assert "solved_fields" not in json.loads(capsys.readouterr().out)
        assert run("trapping", "--preset", "fig2-notrapping", "--solve") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["solved_fields"][3]["mag"] == pytest.approx(2.0)
        assert "solved_scenario" not in data
        assert list(tmp_path.iterdir()) == []

    def test_solve_rejects_zero_inner_drive(self, tmp_path, capsys):
        from darkstate import D2System, DriveField
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(2), DriveField(1, math.pi),
                             DriveField(0), DriveField(1)))
        cfg = tmp_path / "bad.json"
        save_scenario(s, cfg)
        assert run("trapping", "--config", str(cfg), "--solve") == 4
        assert capsys.readouterr() == (
            "", "error: cannot solve: cannot solve for |Omega4| with "
                "|Omega3| = 0\n")

    @pytest.mark.parametrize("outer", [1e300, 1e150])
    def test_solve_overflow_is_numerical_failure(self, outer, tmp_path,
                                                 capsys):
        # finite drives whose residuals (1e300) or solved |Omega4| (1e150)
        # overflow: no NaN residuals printed and no scenario with an
        # infinite drive written
        from darkstate import D2System, DriveField
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(outer), DriveField(outer, math.pi),
                             DriveField(1e-300), DriveField(1)))
        cfg = tmp_path / "huge.json"
        save_scenario(s, cfg)
        code = run("trapping", "--config", str(cfg), "--solve",
                   "--out", str(tmp_path / "solved.json"))
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("error: numerical failure in NonFiniteValue")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [cfg]

    def test_solve_rejects_rate_imbalance(self, tmp_path, capsys):
        from darkstate import D2System, DriveField
        s = D2System(gamma=(1, 1, 2), omega12=13, omega23=13,
                     drives=(DriveField(2), DriveField(1, math.pi),
                             DriveField(1), DriveField(1)))
        cfg = tmp_path / "bad.json"
        save_scenario(s, cfg)
        assert run("trapping", "--config", str(cfg), "--solve") == 4
        assert capsys.readouterr() == (
            "", "error: cannot solve: Gamma1=1.0 != Gamma3=2.0\n")

    @pytest.mark.parametrize("excess,code", [(5e-10, 0), (2e-9, 4)])
    def test_solve_rate_balance_tolerance(self, excess, code, tmp_path):
        # Gamma1 = Gamma3 to trapping.DEFAULT_TOL, as fgc_check tests it
        from darkstate import D2System, DriveField, fgc_check
        s = D2System(gamma=(1, 1, 1 + excess), omega12=13, omega23=13,
                     drives=(DriveField(2), DriveField(1, math.pi),
                             DriveField(1), DriveField(0.3)))
        cfg, out = tmp_path / "near.json", tmp_path / "solved.json"
        save_scenario(s, cfg)
        assert run("trapping", "--config", str(cfg), "--solve", "--out",
                   str(out)) == code
        if code == 0:
            assert fgc_check(load_scenario(out)).satisfied
        else:
            assert not out.exists()

    def test_solve_rejects_d1_system(self, tmp_path, capsys):
        code = run("trapping", "--preset", "d1-trapping", "--solve",
                   "--out", str(tmp_path / "solved.json"))
        assert code == 4
        assert capsys.readouterr() == (
            "", "error: --solve supports only the chain (d2) system\n")
        assert list(tmp_path.iterdir()) == []


class TestSweepCommand:
    def test_phase_sweep_minimum_at_trapping_phase(self, tmp_path):
        from darkstate import D2System, DriveField
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(2), DriveField(1),
                             DriveField(1), DriveField(2)))
        cfg = tmp_path / "s.json"
        save_scenario(s, cfg)
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--config", str(cfg), "--vary", "phase2",
                   "--range", "0:6.283185307179586:25",
                   "--metric", "central_area", "--out", str(out))
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith(("#", "value"))]
        values = np.array([float(r[0]) for r in rows])
        areas = np.array([float(r[1]) for r in rows])
        assert values[np.argmin(areas)] == pytest.approx(math.pi, abs=0.27)

    def test_mag_sweep_minimum_at_balance(self, tmp_path):
        from darkstate import D2System, DriveField
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(2), DriveField(1, math.pi),
                             DriveField(1), DriveField(1)))
        cfg = tmp_path / "s.json"
        save_scenario(s, cfg)
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--config", str(cfg), "--vary", "mag4",
                   "--range", "1:3:9", "--metric", "central_area",
                   "--out", str(out))
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith(("#", "value"))]
        best = min(rows, key=lambda r: float(r[1]))
        assert float(best[0]) == pytest.approx(2.0)

    def test_unknown_parameter_is_input_error(self, trapping_config, tmp_path):
        code = run("sweep", "--config", str(trapping_config),
                   "--vary", "bogus", "--range", "0:1:3",
                   "--metric", "total_area", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_gamma_sweep_peak_count_rises_off_balance(self, trapping_config,
                                                      tmp_path):
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--config", str(trapping_config),
                   "--vary", "gamma1", "--range", "0.6:1.4:5",
                   "--metric", "peak_count", "--out", str(out))
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith(("#", "value"))]
        counts = {float(r[0]): float(r[1]) for r in rows}
        assert counts[1.0] == min(counts.values())
        assert counts[0.6] > counts[1.0]


    def test_trapped_fraction_manifest_records_integrator(self, tmp_path):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert run("sweep", "--preset", "fig2-trapping", "--vary",
                       "phase2", "--range", "0:3.141592653589793:3",
                       "--metric", "trapped_fraction", "--out",
                       str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert "nfev" not in outs[0].read_text()
        a, b = (json.loads(Path(str(out) + ".manifest.json").read_text())
                for out in outs)
        assert a["integrator"] == b["integrator"]
        values = np.linspace(0.0, math.pi, 3)
        assert [r["value"] for r in a["integrator"]] == values.tolist()
        system = preset("fig2-trapping").system
        for value, record in zip(values, a["integrator"]):
            alone = []
            trapped_fraction(system.with_drives(
                [d if k != 1 else DriveField(d.magnitude, value)
                 for k, d in enumerate(system.drives)]),
                require_plateau=False, runs=alone)
            assert record == {"value": value, **alone[0]}
        # the two ends of a run that succeeds
        assert {r["end"] for r in a["integrator"]} <= set(_dop853.ENDS[:2])

    def test_analytic_sweep_manifest_has_no_integrator(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("sweep", "--preset", "fig2-trapping", "--vary", "phase2",
                   "--range", "0:1:3", "--metric", "total_area",
                   "--out", str(out)) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert "integrator" not in manifest

    def test_failed_integration_is_one_error_line(self, tmp_path, capsys):
        # the error norm is NaN from the first step; the integrator reports
        # that as a failure, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("sweep", "--preset", "fig2-trapping", "--vary",
                       "mag1", "--range", "0:1e200:3", "--metric",
                       "trapped_fraction", "--out", str(tmp_path / "s.csv"))
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == ("error: numerical failure in StepSizeUnderflow: "
                       "integrator failed; no sample reached: Required step "
                       "size is less than spacing between numbers.\n")
        assert list(tmp_path.iterdir()) == []


class TestValidateCommand:
    def test_two_level_passes(self, capsys):
        assert run("validate", "two-level") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_no_color_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        run("validate", "two-level")
        assert "\x1b[" not in capsys.readouterr().out

    @pytest.mark.parametrize("target, trapped", [
        ("all", ["d1-fig3c", "d1-fig3f", "d1-trapping"]),
        ("d1-fig3c", ["d1-fig3c"]),
        ("fig2-trapping", []),
    ], ids=["all", "d1-fig3c", "fig2-trapping"])
    def test_trapped_checks_are_one_batch(self, target, trapped,
                                          monkeypatch, capsys):
        calls = []

        def spy(systems, **kwargs):
            calls.append(list(systems))
            return trapped_fraction(systems, **kwargs)

        monkeypatch.setattr(cli, "trapped_fraction", spy)
        assert run("validate", target) == 0
        systems = [preset(name).system for name in trapped]
        assert calls == ([systems] if systems else [])

    def test_all_is_the_single_runs(self, capsys):
        expected = []
        for name in preset_names():
            assert run("validate", name) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[-1] == "all checks passed"
            expected += lines[:-1]
        assert run("validate", "all") == 0
        assert capsys.readouterr().out.splitlines() == \
            expected + ["all checks passed"]

    def test_unknown_preset_numerical_path_not_taken(self, capsys):
        # unknown preset is bad input, not a numerical failure
        code = run("validate", "definitely-not-a-preset")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: unknown preset ")
        assert err.count("\n") == 1


def _set_gamma1(d):
    d["gamma"][0] = -1.0


def _set_omega12(d):
    d["omega12"] = 0.0


def _set_initial(d):
    d["initial"] = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def _set_nan_mag(d):
    d["fields"][0]["mag"] = math.nan


class TestInputValidation:
    """Invalid systems exit 2 with one error line and write nothing."""

    @pytest.mark.parametrize("corrupt", [
        lambda d: d["fields"][0].update(mag=None),
        lambda d: d.update(omega12=None),
        lambda d: d.update(initial=[1, 0, 0]),
        lambda d: d.update(initial={"a": 1}),
    ], ids=["mag-null", "omega12-null", "initial-not-pairs", "initial-object"])
    def test_wrongly_typed_scenario_value(self, corrupt, tmp_path,
                                          monkeypatch, capsys):
        data = scenario_to_dict(preset("fig2-notrapping").system)
        corrupt(data)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)
        code = run("spectrum", "--config", str(cfg), "--svg", "s.svg",
                   "--out", str(tmp_path / "out.csv"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: bad scenario file {cfg}: ")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("corrupt", [_set_gamma1, _set_omega12,
                                         _set_initial, _set_nan_mag])
    @pytest.mark.parametrize("command", ["spectrum", "trapping", "sweep"])
    def test_invalid_scenario_rejected(self, corrupt, command, tmp_path,
                                       monkeypatch, capsys):
        data = scenario_to_dict(preset("fig2-notrapping").system)
        corrupt(data)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)
        argv = {"spectrum": ["--grid=-5:5:11"], "trapping": [],
                "sweep": ["--vary", "phase2", "--range", "0:1:3",
                          "--metric", "total_area"]}[command]
        code = run(command, "--config", str(cfg), *argv,
                   "--out", str(tmp_path / "out.csv"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("vary, named", [("gamma1", "Gamma1"),
                                              ("mag1", "magnitude")])
    def test_sweep_into_negative_rate_rejected(self, vary, named, tmp_path,
                                               capsys):
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--preset", "fig2-trapping", "--vary", vary,
                   "--range=-1:1:3", "--metric", "total_area",
                   "--out", str(out))
        assert code == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_nonfinite_grid_rejected(self, tmp_path):
        code = run("spectrum", "--preset", "two-level", "--grid=-inf:5:11",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert list(tmp_path.iterdir()) == []


SPECTRUM_ARGV = ["spectrum", "--preset", "two-level", "--grid=-5:5:11"]


@pytest.mark.parametrize("argv", [
    [*SPECTRUM_ARGV, "--out", "missing/x"],
    [*SPECTRUM_ARGV, "--out", "s.csv", "--svg", "missing/x.svg"],
    [*SPECTRUM_ARGV, "--out", "s.csv", "--svg", "."],
    ["sweep", "--preset", "fig2-trapping", "--vary", "phase2",
     "--range", "0:1:2", "--metric", "total_area", "--out", "missing/x"],
    ["trapping", "--preset", "fig2-trapping", "--out", "missing/x.json"],
    ["trapping", "--preset", "fig2-trapping", "--solve", "--out",
     "missing/x"],
])
def test_unwritable_out_is_input_error(argv, tmp_path, monkeypatch, capsys):
    # every output path is checked before any work: nothing is printed or
    # written, not even the outputs whose directory exists
    monkeypatch.chdir(tmp_path)
    code = run(*argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["spectrum", "sweep"])
def test_overflowing_quartic_is_numerical_failure(command, tmp_path):
    # finite drives whose powers overflow the characteristic quartic; run in
    # a child so that stderr is exactly what a user sees
    system = preset("fig2-trapping").system
    save_scenario(system.with_drives([DriveField(1e200),
                                      *system.drives[1:]]),
                  tmp_path / "big.json")
    argv = {"spectrum": ["--config", "big.json", "--svg", "s.svg"],
            "sweep": ["--preset", "fig2-trapping", "--vary", "mag1",
                      "--range", "0:1e200:3", "--metric", "peak_count"]}
    proc = subprocess.run(
        [sys.executable, "-m", "darkstate.cli", command, *argv[command],
         "--out", "out.csv"],
        capture_output=True, text=True, env=CHILD_ENV, cwd=tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: numerical failure in NonFiniteValue")
    assert proc.stderr.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["big.json"]


def test_coarse_grid_warnings_are_message_lines(tmp_path, capsys):
    code = run("sweep", "--preset", "fig2-trapping", "--vary", "phase2",
               "--range", "0:1:11", "--metric", "central_area",
               "--grid=-30:30:101", "--out", str(tmp_path / "s.csv"))
    lines = capsys.readouterr().err.splitlines()
    assert code == 0
    assert lines and len(set(lines)) == len(lines)
    assert all(l.startswith("warning: grid spacing ") for l in lines)
    assert not any("analysis.py" in l for l in lines)


def test_import_leaves_scipy_signal_out():
    code = ("import sys, darkstate.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=CHILD_ENV, check=True)
    assert proc.stdout.strip() == "[]"


class TestGridParsing:
    def test_inclusive_endpoints(self):
        from darkstate.cli import _parse_grid
        g = _parse_grid("-2:2:5")
        assert list(g) == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_count_below_two_rejected(self):
        from darkstate.cli import _InputError, _parse_grid
        with pytest.raises(_InputError):
            _parse_grid("0:1:1")

    def test_reversed_range_rejected(self):
        from darkstate.cli import _InputError, _parse_grid
        with pytest.raises(_InputError):
            _parse_grid("5:1:10")

    @pytest.mark.parametrize("command,option,spec", [
        ("spectrum", "--grid", "0:1:1"),
        ("spectrum", "--grid", "1:1:5"),
        ("sweep", "--grid", "0:1:1"),
        ("sweep", "--grid", "1:1:5"),
        ("sweep", "--range", "0:1:1"),
        ("sweep", "--range", "1:1:5"),
        # finite bounds whose span overflows: linspace gives [nan, inf, 1e308]
        ("spectrum", "--grid", "-1e308:1e308:3"),
        ("sweep", "--grid", "-1e308:1e308:3"),
        ("sweep", "--range", "-1e308:1e308:3"),
        # a count above dynamics.MAX_TIME_SAMPLES, rejected before linspace
        # would ask for 7 TiB
        ("spectrum", "--grid", "0:1:1000000000000"),
        ("sweep", "--grid", "0:1:1000000000000"),
        ("sweep", "--range", "0:1:1000000000000"),
    ])
    def test_errors_name_the_option(self, command, option, spec, tmp_path,
                                    capsys):
        argv = [command, "--preset", "fig2-trapping", f"{option}={spec}",
                "--out", str(tmp_path / "x.csv")]
        if command == "sweep":
            argv += ["--vary", "phase2", "--metric", "total_area"]
            if option != "--range":
                argv.append("--range=0:1:3")
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {option} ") and err.count("\n") == 1
        assert spec in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["spectrum", "sweep"])
def test_overflowing_grid_is_input_error(command, tmp_path, capsys):
    """A finite grid that reaches |delta| ~ 1e77, where the terms of the
    quartic overflow, is bad input: one error line, exit 2 and nothing
    written, not NaN rows with raw RuntimeWarnings and exit 0."""
    argv = [command, "--preset", "fig2-notrapping", "--grid=-1e300:1e300:5",
            "--out", str(tmp_path / "x.csv")]
    if command == "sweep":
        argv += ["--vary", "phase2", "--range=0:1:3", "--metric",
                 "total_area"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("error: the detuning grid reaches |delta + shift| = "
                   "1e+300, where the terms of the characteristic quartic "
                   "overflow\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the writers are byte-identical to the per-value references below
# ---------------------------------------------------------------------------

def _savetxt_reference(path, header, columns):
    np.savetxt(path, np.column_stack(columns), fmt="%.16e", delimiter=",",
               header="\n".join(header), comments="", encoding="utf-8")


def _json_reference(path, data):
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v
             for k, v in data.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plain, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _polyline_reference(x, curves):
    """Each curve's points as svg_line_plot formats them, one f-string per
    point, in its 560 x 325 plot box at (60, 30)."""
    ml, mt, pw, ph = 60.0, 30.0, 560.0, 325.0
    x0, x1 = float(np.min(x)), float(np.max(x))
    y0, y1 = 0.0, max(float(np.max(y)) for _, y in curves)
    if y1 <= y0:
        y1 = y0 + 1.0
    sx = lambda v: ml + (v - x0) / (x1 - x0) * pw
    sy = lambda v: mt + ph - (v - y0) / (y1 - y0) * ph
    return [" ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, y))
            for _, y in curves]


def _assert_same_bytes(path, ref):
    got, want = Path(path).read_bytes(), Path(ref).read_bytes()
    if got != want:
        for n, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
            assert a == b, f"line {n + 1} differs"
        assert len(got) == len(want)


def _pole_tables_reference(spec):
    """Each branch's pole terms as the JSON spectrum holds them: every
    PoleTerm field, a complex one as [re, im]."""
    return [[{"pole": [float(t.pole.real), float(t.pole.imag)],
              "residue": [float(t.residue.real), float(t.residue.imag)],
              "order": int(t.order), "trapped": bool(t.trapped)}
             for t in terms]
            for terms in spec.branch_poles]


def _assert_spectrum_writers_match(tmp_path, spec, method, svg=True):
    sys_dict = {"system": "synthetic", "omega12": 13.0}
    columns = [spec.grid, *spec.branch_intensity, spec.total]
    header = ["# header", cli.SPECTRUM_CSV_HEADER]
    cli.write_csv(tmp_path / "new.csv", header, columns)
    _savetxt_reference(tmp_path / "ref.csv", header, columns)
    _assert_same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")

    cli._write_json_spectrum(tmp_path / "new.json", spec, sys_dict, method)
    _json_reference(tmp_path / "ref.json", {
        "scenario": sys_dict, "method": method, "delta": spec.grid,
        "branch_intensity": spec.branch_intensity, "total": spec.total,
        "poles": _pole_tables_reference(spec)})
    _assert_same_bytes(tmp_path / "new.json", tmp_path / "ref.json")

    if svg:
        curves = [(f"branch {n + 1}", spec.branch_intensity[n])
                  for n in range(3)] + [("total", spec.total)]
        cli.svg_line_plot(tmp_path / "new.svg", spec.grid, curves,
                          title="emission spectrum")
        text = (tmp_path / "new.svg").read_text(encoding="utf-8")
        assert re.findall(r'<polyline points="([^"]*)"', text) == \
            _polyline_reference(spec.grid, curves)


def _synthetic_spectrum(rng, n=2 * cli.CSV_BLOCK_ROWS + 1, nonfinite=True):
    """Values at the edges of float formatting: signed zero, the smallest
    subnormal, the largest finite, values that need all 17 digits, wide
    exponents and (optionally) NaN and +-inf."""
    special = [-0.0, 5e-324, 1e308, 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0,
               -1.7976931348623157e308, 2.2250738585072014e-308, 1e-5, 1e16,
               123456789.12345679, 0.0, -2.5e-310]
    if nonfinite:
        special += [math.nan, math.inf, -math.inf]
    rows = rng.normal(size=(4, n)) * 10.0 ** rng.integers(-300, 300,
                                                            size=(4, n))
    m = min(n, len(special))
    rows[:, :m] = [np.roll(special, k)[:m] for k in range(4)]
    return SpectrumResult(grid=np.linspace(-7.0, 7.0, n),
                          branch_intensity=rows[:3], total=rows[3])


class TestWriterByteIdentity:
    @pytest.mark.parametrize("name", preset_names())
    def test_preset_analytic_spectra(self, name, tmp_path):
        spec = spectrum_analytic(preset(name).system, default_grid())
        _assert_spectrum_writers_match(tmp_path, spec, "analytic")

    def test_time_domain_spectrum(self, tmp_path):
        spec = spectrum_time_domain(preset("fig2-notrapping").system,
                                    np.linspace(-30.0, 30.0, 1201))
        _assert_spectrum_writers_match(tmp_path, spec, "timedomain")

    def test_synthetic_edge_values(self, tmp_path):
        rng = np.random.default_rng(7)
        _assert_spectrum_writers_match(tmp_path, _synthetic_spectrum(rng),
                                       "analytic", svg=False)
        for n in (2, cli.CSV_BLOCK_ROWS - 1, cli.CSV_BLOCK_ROWS):
            spec = _synthetic_spectrum(rng, n=n, nonfinite=False)
            _assert_spectrum_writers_match(tmp_path, spec, "analytic")

    def test_svg_rounding_ties(self, tmp_path):
        # every coordinate is an exact multiple of 1/8, so half of them are
        # %.2f ties that one ulp of a reordered expression would flip
        x = np.linspace(0.0, 14.0, 4481)
        curves = [("ties", np.arange(4481) % 2601 / 200.0),
                  ("ramp", x / 2.0)]
        cli.svg_line_plot(tmp_path / "new.svg", x, curves)
        text = (tmp_path / "new.svg").read_text(encoding="utf-8")
        assert re.findall(r'<polyline points="([^"]*)"', text) == \
            _polyline_reference(x, curves)

    def test_svg_one_point_grid(self, tmp_path):
        # a zero x span is widened to 1, as a zero y span is
        cli.svg_line_plot(tmp_path / "one.svg", [2.0], [("a", [1.0])])
        text = (tmp_path / "one.svg").read_text(encoding="utf-8")
        assert "nan" not in text
        assert re.findall(r'<polyline points="([^"]*)"', text) == \
            ["60.00,30.00"]

    @pytest.mark.parametrize("bad", ["x", "y"])
    def test_svg_rejects_nonfinite(self, bad, tmp_path):
        x = np.linspace(0.0, 1.0, 5)
        y = x ** 2
        (x if bad == "x" else y)[2] = math.nan
        with pytest.raises(ValueError):
            cli.svg_line_plot(tmp_path / "bad.svg", x, [("a", y), ("b", x)])
        assert list(tmp_path.iterdir()) == []

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--preset", "fig2-trapping", "--vary",
                     "phase2", "--range", "0:6.283185307179586:61",
                     "--metric", "central_area", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3 + 61
        data = np.loadtxt(out, delimiter=",", skiprows=3)
        _savetxt_reference(tmp_path / "ref.csv", lines[:3],
                           [data[:, 0], data[:, 1]])
        _assert_same_bytes(out, tmp_path / "ref.csv")

    def test_json_documents(self, tmp_path):
        docs = [
            {},
            {"b": [1, 2.5, None, True, "x\u00e9\n"], "a": {"z": {}, "y": []},
             "\u00e9": 1e-7},
            {"rows": np.zeros((3, 0)), "empty": np.array([]),
             "grid": np.array([[0.5, math.nan], [-0.0, 1e300]])},
        ]
        for k, data in enumerate(docs):
            write_json(tmp_path / f"new{k}.json", data)
            _json_reference(tmp_path / f"ref{k}.json", data)
            _assert_same_bytes(tmp_path / f"new{k}.json",
                               tmp_path / f"ref{k}.json")

    @pytest.mark.parametrize("name", preset_names())
    def test_saved_scenarios_and_manifests(self, name, tmp_path):
        system = preset(name).system
        save_scenario(system, tmp_path / "new.json")
        _json_reference(tmp_path / "ref.json", scenario_to_dict(system))
        _assert_same_bytes(tmp_path / "new.json", tmp_path / "ref.json")

        marks = (0.5, 0.625, 1.125, 1.25)
        runs = [{"nfev": 1, "accepted": 0, "rejected": 0, "end": "t_final"}]
        manifest = cli.RunManifest(
            command="spectrum", scenario=f"preset:{name}",
            parameters=scenario_to_dict(system), marks=marks,
            outputs=[tmp_path / "s.csv"], integrator=runs)
        path = manifest.write(tmp_path / "s.csv")
        canonical = json.dumps(scenario_to_dict(system), sort_keys=True)
        _json_reference(tmp_path / "ref.manifest.json", {
            "command": "spectrum", "scenario": f"preset:{name}",
            "parameters": scenario_to_dict(system),
            "version": darkstate.__version__, "wall_time_s": 0.75,
            "stage_s": {"load": 0.125, "compute": 0.5, "write": 0.125},
            "outputs": [str(tmp_path / "s.csv")], "integrator": runs,
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "scenario_sha256": hashlib.sha256(canonical.encode()).hexdigest()})
        _assert_same_bytes(path, tmp_path / "ref.manifest.json")


def test_default_grids_are_the_analysis_default():
    parser = cli.build_parser()
    for argv in (["spectrum"],
                 ["sweep", "--vary", "phase2", "--range", "0:1:2",
                  "--metric", "total_area"]):
        grid = cli._parse_grid(parser.parse_args(argv).grid)
        assert np.array_equal(grid, default_grid())


def test_parser_built_once_and_commands_found_by_name(monkeypatch, capsys):
    """main builds its parser once per process and runs the module's
    current cmd_<command>: a command function replaced after the first
    call (as a tracer wraps it) is the one reached, also after an argv
    that argparse rejected."""
    assert cli.build_parser() is cli.build_parser()
    assert run("validate", "two-level") == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_validate",
                        lambda args: calls.append(args.preset) or 0)
    with pytest.raises(SystemExit) as exc:
        run("validate")
    assert exc.value.code == 2
    assert run("validate", "fig2-trapping") == 0
    assert calls == ["fig2-trapping"]
    # a parse leaves nothing behind for the next one
    parser = cli.build_parser()
    assert parser.parse_args(["spectrum", "--out", "x.csv"]).out == "x.csv"
    assert parser.parse_args(["spectrum"]).out == "spectrum.csv"


# ---------------------------------------------------------------------------
# write_csv's vectorized %.16e kernel against Python's % on adversarial values
# ---------------------------------------------------------------------------

def _near_ties():
    """Doubles v = m 2^-(k+d) whose scaled value v 10^k = m 5^k / 2^d has a
    fraction 1/2 + delta / 2^d, |delta| <= 40, d >= 40: within 4e-11 of a
    decimal tie without being one, the values a rounding error of the
    double-double scaling could send to the wrong side."""
    values = []
    for k in range(17, 60):
        for d in range(40, 75):
            inv = pow(5 ** k, -1, 2 ** d)
            for delta in range(-40, 41):
                m = (2 ** (d - 1) + delta) * inv % 2 ** d
                m += max(0, -(-(2 ** 52 - m) // 2 ** d)) * 2 ** d
                if (delta and m < 2 ** 53 and 10 ** 16 * 2 ** d
                        <= m * 5 ** k < 10 ** 17 * 2 ** d):
                    values.append(math.ldexp(m, -(k + d)))
    return np.array(values)


def _dyadic_ties(rng, count):
    """v = +-k 2^-m with k odd and k 5^m of 18 digits: v has 18 significant
    digits, the last a 5, so %.16e rounds an exact tie (half-even)."""
    m = rng.integers(2, 26, count)
    lo = (10 ** 17 + 5 ** m - 1) // 5 ** m
    hi = np.minimum((10 ** 18 - 1) // 5 ** m, 2 ** 53 - 1)
    k = rng.integers(lo, hi + 1) | 1
    k = np.where(k > hi, k - 2, k)
    assert np.all((k >= lo) & (k % 2 == 1))
    return np.ldexp(k.astype(float), -m) * rng.choice([-1.0, 1.0], count)


class TestCsvKernel:
    """write_csv's bytes equal np.savetxt(fmt="%.16e"), that is '%.16e' % v
    per value, wherever the kernel formats a value itself and wherever it
    falls back to %."""

    @staticmethod
    def _check(tmp_path, *columns):
        header = ["# kernel", "a,b"]
        cli.write_csv(tmp_path / "new.csv", header, columns)
        _savetxt_reference(tmp_path / "ref.csv", header, columns)
        _assert_same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")

    def test_random_bit_patterns(self, tmp_path):
        # every exponent, both signs, NaN payloads; then subnormals alone
        rng = np.random.default_rng(2026)
        bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64,
                            endpoint=False)
        self._check(tmp_path, *bits.view(np.float64).reshape(4, -1))
        sub = rng.integers(1, 2 ** 52, 10 ** 4, dtype=np.uint64)
        sub |= rng.integers(0, 2, 10 ** 4, dtype=np.uint64) << np.uint64(63)
        self._check(tmp_path, *sub.view(np.float64).reshape(2, -1))

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        # log10 misjudges the exponent next to some powers of ten
        # (1e-248 is 9.9999999999999998e-249)
        values = []
        for w in range(-323, 309):
            p = float(f"1e{w}")
            values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
        values = np.array(values)
        self._check(tmp_path, values, -values)

    def test_dyadic_ties(self, tmp_path):
        ties = _dyadic_ties(np.random.default_rng(25), 10 ** 5)
        assert "%.17e" % 2.0 ** -25 == "2.98023223876953125e-08"
        self._check(tmp_path, *ties.reshape(2, -1))

    def test_near_ties(self, tmp_path):
        values = _near_ties()
        assert len(values) > 1000
        self._check(tmp_path, values, -values)

    def test_zeros_and_nonfinite(self, tmp_path):
        special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan,
                            -math.nan, 1.0, -1.0])
        self._check(tmp_path, special, special[::-1])

    def test_int_and_bool_columns(self, tmp_path):
        rng = np.random.default_rng(4)
        ints = rng.integers(-2 ** 62, 2 ** 62, 500)
        ints[:4] = [0, 1, -1, 2 ** 53 + 1]
        flags = rng.integers(0, 2, 500).astype(bool)
        self._check(tmp_path, ints, flags)
        self._check(tmp_path, ints, rng.normal(size=500))
        self._check(tmp_path, flags, flags)

    @pytest.mark.parametrize("rows", [1, cli.CSV_BLOCK_ROWS - 1,
                                      cli.CSV_BLOCK_ROWS,
                                      cli.CSV_BLOCK_ROWS + 1])
    def test_table_sizes(self, rows, tmp_path):
        rng = np.random.default_rng(rows)
        columns = rng.normal(size=(3, rows)) * 10.0 ** rng.integers(
            -300, 300, size=(3, rows))
        self._check(tmp_path, *columns)

    def test_complex_column_raises(self, tmp_path):
        with pytest.raises(TypeError):
            cli.write_csv(tmp_path / "c.csv", ["z"],
                          [np.ones(3), np.ones(3) * 1j])
