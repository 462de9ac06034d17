"""The float text kernels of the writers (darkstate._text) against Python's
own formatting, and the bounds of the JSON and SVG writers built on them:
their inputs and their memory."""
import hashlib
import json
import math
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CHILD_ENV
from darkstate import _text, cli, preset, scenario_to_dict
from darkstate.cli import main
from darkstate.model import write_json
from darkstate.spectrum import spectrum_analytic
from test_cli import _dyadic_ties, _near_ties, _polyline_reference


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: every float64: a bit pattern (NaN payloads and subnormals included),
#: or a float as Hypothesis draws them
_ANY_FLOAT = st.one_of(st.integers(0, 2 ** 64 - 1).map(_from_bits),
                       st.floats())

#: the values the property tests always run
_PINNED = [0.005, 0.015, 1.005, 2.675, 5e-324, 2.0 ** -1074, 2.0 ** -1022,
           0.5, 2.0 ** 52, 2.0 ** 53, 2.0 ** 1023, 1e16, 9999999999999998.0,
           1e-4, 9.999999999999999e-05, 1e22, 1e23, 0.0, -0.0]


def _pinned(lo=-math.inf, hi=math.inf):
    """Run the _PINNED values within [lo, hi] as explicit examples."""
    def pin(test):
        for value in reversed(_PINNED):
            if lo <= value <= hi:
                test = example(value)(test)
        return test
    return pin


def _repr_kernel(values) -> list:
    sep = b",\n    "
    text = _text.format_repr(np.asarray(values, np.float64), sep)
    return text.decode().split(sep.decode())[:-1]


def _f2_kernel(values):
    """The text format_f2 gives each value it formats, None for the rest."""
    text, ok = _text.format_f2(np.asarray(values, np.float64))
    return [row.tobytes().translate(None, b"\0").decode() if k else None
            for row, k in zip(text, ok)]


class TestReprKernel:
    """format_repr writes float.__repr__ (json.dumps for NaN and +-inf)."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_ANY_FLOAT)
    @_pinned()
    def test_equals_repr(self, x):
        want = repr(x) if math.isfinite(x) else json.dumps(x)
        assert _repr_kernel([x, -x]) == [want, json.dumps(-x)]

    def test_powers_of_two_and_ten_and_neighbours(self):
        values = []
        for k in range(-1074, 1024):
            p = 2.0 ** k
            values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
        for w in range(-323, 309):
            p = float(f"1e{w}")
            values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
        values += [-v for v in values]
        assert _repr_kernel(values) == list(map(repr, values))

    def test_short_decimals_and_random_bits(self):
        rng = np.random.default_rng(13)
        short = rng.integers(-10 ** 6, 10 ** 6, 20000) \
            * 10.0 ** rng.integers(-9, 9, 20000)
        bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64,
                            endpoint=False).view(np.float64)
        for values in (short, np.arange(-3000, 3000) / 100.0,
                       np.arange(-3000, 3000) / 7.0, bits):
            assert _repr_kernel(values) == list(map(json.dumps,
                                                    values.tolist()))

    def test_decimal_ties_and_near_ties(self):
        # 18-digit values whose 17-digit roundings tie, which repr breaks
        # half-even on the exact value (2**-25 is 2.9802322387695312e-08),
        # and values within 4e-11 units of such a tie
        ties = np.concatenate([_dyadic_ties(np.random.default_rng(25), 20000),
                               _near_ties()])
        assert _repr_kernel([2.0 ** -25]) == ["2.9802322387695312e-08"]
        assert _repr_kernel(ties) == list(map(repr, ties.tolist()))

    def test_fallbacks_are_rare_on_a_spectrum(self):
        # the kernel, not repr, writes a spectrum: a kernel that fell back
        # on everything would pass every identity test
        grid = np.linspace(-30.0, 30.0, 6001)
        spec = spectrum_analytic(preset("fig2-trapping").system, grid)
        values = np.concatenate([grid, *spec.branch_intensity, spec.total])
        found = np.concatenate([_text._shortest_digits(values[k:k + 4096])[2]
                                for k in range(0, len(values), 4096)])
        assert np.count_nonzero(~found) <= 20
        assert _repr_kernel(values) == list(map(repr, values.tolist()))


class TestF2Kernel:
    """format_f2 writes '%.2f' % x wherever it formats x."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.floats(-1e-3, 700.0))
    @_pinned(-1e-3, 700.0)
    def test_equals_percent_on_plot_coordinates(self, x):
        assert _f2_kernel([x]) == ["%.2f" % x]

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_ANY_FLOAT)
    @_pinned()
    def test_formats_only_what_it_formats_exactly(self, x):
        got = _f2_kernel([x, -x])
        assert got[0] in (None, "%.2f" % x) and got[1] in (None, "%.2f" % -x)

    def test_ties_and_grids(self):
        values = np.concatenate([np.arange(0, 70001) / 100.0,
                                 np.arange(0, 140001) / 200.0,
                                 np.arange(0, 5601) / 8.0,
                                 [-0.001, -0.005, -0.0051, 1e7 - 0.005]])
        assert _f2_kernel(values) == ["%.2f" % x for x in values.tolist()]

    def test_far_out_of_box_points_fall_back(self, tmp_path):
        # a y of -1e300 lands ~1e302 below the box: % formats that point
        x = np.linspace(0.0, 1.0, 3000)
        curves = [("a", np.sin(40 * x))]
        curves[0][1][[5, 1500]] = -1e300
        cli.svg_line_plot(tmp_path / "far.svg", x, curves)
        text = (tmp_path / "far.svg").read_text(encoding="utf-8")
        assert re.findall(r'<polyline points="([^"]*)"', text) == \
            _polyline_reference(x, curves)


# ---------------------------------------------------------------------------
# write_json at its boundary
# ---------------------------------------------------------------------------

def _json_dump_bytes(data) -> bytes:
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v
             for k, v in data.items()}
    return (json.dumps(plain, indent=2, sort_keys=True) + "\n").encode()


class TestWriteJsonArrays:
    @pytest.mark.parametrize("value", [
        np.array(1.5), np.array(-0.0), np.array(math.nan), np.array(3),
        np.array(True), np.arange(4), np.array([[1, -2], [3, 4]]),
        np.array([True, False]), np.zeros((2, 0), int), np.array([], bool),
        np.array([0.1, 2.5], np.float32), np.array(["a", "b"]),
    ], ids=repr)
    def test_written_as_json_writes_tolist(self, value, tmp_path):
        data = {"x": value, "grid": np.array([0.5, 1e-7])}
        write_json(tmp_path / "a.json", data)
        assert (tmp_path / "a.json").read_bytes() == _json_dump_bytes(data)

    def test_complex_array_raises_naming_the_key(self, tmp_path):
        with pytest.raises(TypeError, match="'amplitude'"):
            write_json(tmp_path / "c.json", {"grid": np.ones(3),
                                             "amplitude": np.ones(3) * 1j})
        assert list(tmp_path.iterdir()) == []

    def test_unserializable_value_leaves_no_file(self, tmp_path):
        # every value is serialized before the file is opened
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json(tmp_path / "a.json", {"a": {"b": np.ones(2)}})
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# memory of one write, and no work at import
# ---------------------------------------------------------------------------

def _peak_bytes(write) -> int:
    write()  # the tables are built on first use; measure a warm write
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def spectrum_6001():
    system = preset("fig2-notrapping").system
    return system, spectrum_analytic(system, np.linspace(-30.0, 30.0, 6001))


def test_json_spectrum_write_memory(spectrum_6001, tmp_path):
    system, spec = spectrum_6001
    peak = _peak_bytes(lambda: cli._write_json_spectrum(
        tmp_path / "s.json", spec, scenario_to_dict(system), "analytic"))
    assert peak <= 1.5e6


def test_svg_write_memory(spectrum_6001, tmp_path):
    _, spec = spectrum_6001
    curves = [(f"branch {n + 1}", spec.branch_intensity[n])
              for n in range(3)] + [("total", spec.total)]
    peak = _peak_bytes(lambda: cli.svg_line_plot(
        tmp_path / "s.svg", spec.grid, curves, title="emission spectrum"))
    assert peak <= 1.5e6


def test_import_builds_no_tables():
    code = ("import darkstate.cli, darkstate._text as t; "
            "print(sum(f.cache_info().currsize for f in "
            "(t._pow10, t._digit_tables, t._repr_slots)))")
    out = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# manifests: stage timings, versions and the scenario hash
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, manifest", [
    (["spectrum", "--preset", "fig2-notrapping", "--out", "{d}/s.csv"],
     "s.csv"),
    (["sweep", "--preset", "fig2-trapping", "--vary", "phase2", "--range",
      "0:1:3", "--metric", "total_area", "--out", "{d}/w.csv"], "w.csv"),
    (["trapping", "--preset", "fig2-notrapping", "--solve", "--out",
      "{d}/t.json"], "t.json"),
])
def test_manifest_provenance(argv, manifest, tmp_path, capsys):
    assert main([a.format(d=tmp_path) for a in argv]) == 0
    data = json.loads((tmp_path / (manifest + ".manifest.json")).read_text())
    canonical = json.dumps(data["parameters"], sort_keys=True).encode()
    name = argv[argv.index("--preset") + 1]
    assert data["parameters"] == scenario_to_dict(preset(name).system)
    assert data["scenario_sha256"] == hashlib.sha256(canonical).hexdigest()
    assert data["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert data["numpy"] == np.__version__
    assert set(data["stage_s"]) == {"load", "compute", "write"}
    assert all(t >= 0.0 for t in data["stage_s"].values())
    assert sum(data["stage_s"].values()) == pytest.approx(
        data["wall_time_s"], abs=1e-3)
