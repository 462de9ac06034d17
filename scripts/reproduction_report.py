#!/usr/bin/env python3
"""Reproduction report for the source figures' headline percentages.

The source analysis of this scheme quotes 41% excited-state trapping for the five-level
loop under the field-generated trapping condition, a 34% area reduction
between the corresponding phase pairs, and 47% trapping for one single-loss
configuration.  Those claims are not pinned to complete parameter sets, so
this script recomputes the closest well-defined quantities from the shipped
presets, archives them as JSON, and flags (without failing) values more than
ten percentage points away from the quoted ones.
"""
import argparse
import json
from pathlib import Path

from darkstate import (
    __version__,
    default_grid,
    preset,
    spectrum_analytic,
    trapped_fraction,
)
from darkstate.analysis import spectral_areas


def compute_report():
    grid = default_grid()

    trap = preset("fig2-trapping").system
    notrap = preset("fig2-notrapping").system
    trapped = trapped_fraction(trap, require_plateau=False)

    total_trap, branches_trap = spectral_areas(spectrum_analytic(trap, grid))
    total_notrap, branches_notrap = spectral_areas(
        spectrum_analytic(notrap, grid))
    total_reduction = 1.0 - total_trap / total_notrap
    central_reduction = 1.0 - branches_trap[1] / branches_notrap[1]

    d1_trapped = trapped_fraction(preset("d1-trapping").system,
                                  require_plateau=False)

    entries = [
        {
            "quantity": "trapped fraction, five-level loop trapping preset",
            "computed": trapped,
            "quoted_value": 0.41,
        },
        {
            "quantity": "total-area reduction, trapping vs pi/2(3pi/2) phases",
            "computed": total_reduction,
            "quoted_value": 0.34,
        },
        {
            "quantity": "central-branch area reduction, same phase pair",
            "computed": central_reduction,
            "quoted_value": 0.34,
        },
        {
            "quantity": "trapped fraction, single-loss trapping preset",
            "computed": d1_trapped,
            "quoted_value": 0.47,
        },
    ]
    for e in entries:
        e["difference_pp"] = 100.0 * abs(e["computed"] - e["quoted_value"])
        e["flagged"] = e["difference_pp"] > 10.0
    return {"version": __version__, "entries": entries}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reports/reproduction.json")
    args = parser.parse_args(argv)
    report = compute_report()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for e in report["entries"]:
        mark = "FLAGGED" if e["flagged"] else "ok"
        print(f"[{mark}] {e['quantity']}: computed {e['computed']:.4f}, "
              f"quoted {e['quoted_value']:.2f}")
    print(f"report written to {out}")


if __name__ == "__main__":
    main()
