#!/usr/bin/env python3
"""Render the preset spectra as SVG line plots (plus CSV data files).

Covers the driven five-level loop at the two phase choices (trapping and
non-trapping) and the single-loss loop presets.
"""
import argparse
from pathlib import Path

from darkstate import D1System, preset, spectrum_analytic
from darkstate.analysis import d1_grid, default_grid
from darkstate.cli import SPECTRUM_CSV_HEADER, svg_line_plot, write_csv

D2_PRESETS = ["two-level", "autler-townes-doublet", "at-quartet",
              "fig2-trapping", "fig2-notrapping"]
D1_PRESETS = ["d1-trapping", "d1-fig3a", "d1-fig3b", "d1-fig3d", "d1-fig3e"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figures", help="output directory")
    args = parser.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name in D2_PRESETS + D1_PRESETS:
        system = preset(name).system
        grid = d1_grid() if isinstance(system, D1System) else default_grid()
        spec = spectrum_analytic(system, grid)
        curves = [(f"branch {n + 1}", spec.branch_intensity[n])
                  for n in range(3)]
        curves.append(("total", spec.total))
        svg_line_plot(outdir / f"{name}.svg", grid, curves, title=name)
        write_csv(outdir / f"{name}.csv", [SPECTRUM_CSV_HEADER],
                  [spec.grid, *spec.branch_intensity, spec.total])
        print(f"wrote {outdir / name}.svg / .csv "
              f"(max intensity {spec.total.max():.3e})")


if __name__ == "__main__":
    main()
