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
from darkstate import (load_scenario, preset, preset_names, save_scenario,
                       scenario_to_dict, spectrum_analytic,
                       spectrum_time_domain, trapped_fraction)
from darkstate import cli
from darkstate.analysis import default_grid
from darkstate.cli import main
from darkstate.model import D1System, DriveField, write_json
from darkstate.spectrum import SpectrumResult, d1_spectrum


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

    @pytest.mark.parametrize("tol", ["0", "-1e-8", "nan", "inf"])
    def test_bad_tol_is_input_error(self, tol, tmp_path, capsys):
        code = run("spectrum", "--preset", "two-level", "--grid=-5:5:11",
                   "--method", "timedomain", f"--tol={tol}",
                   "--out", str(tmp_path / "x.csv"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --tol") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

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
        assert {r["end"] for r in a["integrator"]} <= {"t_final",
                                                       "decay_floor"}

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
        "poles": cli._pole_tables(spec)})
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
        system = preset(name).system
        compute = d1_spectrum if isinstance(system, D1System) \
            else spectrum_analytic
        spec = compute(system, default_grid())
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

        manifest = cli.RunManifest(
            command="spectrum", scenario=f"preset:{name}",
            parameters=scenario_to_dict(system), version="1.2.3",
            wall_time_s=0.123456789, outputs=[tmp_path / "s.csv"])
        path = manifest.write(tmp_path / "s.csv")
        _json_reference(tmp_path / "ref.manifest.json", {
            "command": "spectrum", "scenario": f"preset:{name}",
            "parameters": scenario_to_dict(system), "version": "1.2.3",
            "wall_time_s": 0.123456789,
            "outputs": [str(tmp_path / "s.csv")]})
        _assert_same_bytes(path, tmp_path / "ref.manifest.json")


def test_default_grids_are_the_analysis_default():
    parser = cli.build_parser()
    for argv in (["spectrum"],
                 ["sweep", "--vary", "phase2", "--range", "0:1:2",
                  "--metric", "total_area"]):
        grid = cli._parse_grid(parser.parse_args(argv).grid)
        assert np.array_equal(grid, default_grid())
