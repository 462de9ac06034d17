import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import CHILD_ENV
from darkstate import load_scenario, preset, save_scenario, scenario_to_dict
from darkstate.cli import main


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

    def test_numerical_failure_exit_code(self, tmp_path):
        from darkstate import D2System, DriveField
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=14,
                     drives=(DriveField(1),) * 4)
        cfg = tmp_path / "uneven.json"
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

    def test_solve_rejects_zero_inner_drive(self, tmp_path):
        from darkstate import D2System, DriveField
        s = D2System(gamma=(1, 1, 1), omega12=13, omega23=13,
                     drives=(DriveField(2), DriveField(1, math.pi),
                             DriveField(0), DriveField(1)))
        cfg = tmp_path / "bad.json"
        save_scenario(s, cfg)
        assert run("trapping", "--config", str(cfg), "--solve") == 4

    def test_solve_rejects_rate_imbalance(self, tmp_path):
        from darkstate import D2System, DriveField
        s = D2System(gamma=(1, 1, 2), omega12=13, omega23=13,
                     drives=(DriveField(2), DriveField(1, math.pi),
                             DriveField(1), DriveField(1)))
        cfg = tmp_path / "bad.json"
        save_scenario(s, cfg)
        assert run("trapping", "--config", str(cfg), "--solve") == 4


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


class TestValidateCommand:
    def test_two_level_passes(self, capsys):
        assert run("validate", "two-level") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_no_color_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        run("validate", "two-level")
        assert "\x1b[" not in capsys.readouterr().out

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

    def test_sweep_into_negative_rate_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--preset", "fig2-trapping", "--vary", "gamma1",
                   "--range=-1:1:3", "--metric", "total_area",
                   "--out", str(out))
        assert code == 2
        assert "Gamma1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_nonfinite_grid_rejected(self, tmp_path):
        code = run("spectrum", "--preset", "two-level", "--grid=-inf:5:11",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["spectrum", "--preset", "two-level", "--grid=-5:5:11"],
    ["sweep", "--preset", "fig2-trapping", "--vary", "phase2",
     "--range", "0:1:2", "--metric", "total_area"],
    ["trapping", "--preset", "fig2-trapping"],
    ["trapping", "--preset", "fig2-trapping", "--solve"],
])
def test_unwritable_out_is_input_error(argv, tmp_path, capsys):
    code = run(*argv, "--out", str(tmp_path / "missing" / "x"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_import_leaves_scipy_signal_out():
    code = ("import sys, darkstate.cli; print(sorted(m for m in "
            "('scipy.signal', 'scipy.stats') if m in sys.modules))")
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
