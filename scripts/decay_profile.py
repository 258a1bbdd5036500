#!/usr/bin/env python3
"""Tabulate curvature decay of the reflexive family along chosen rays.

Writes a CSV of (ray, r, |F|, |i Lambda F|, weight) rows for external
plotting.  Usage: python scripts/decay_profile.py [out.csv]
"""

import csv
import sys

import numpy as np

from hymkit import ansatz, monads as mo

RAYS = {
    "generic_xy": np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),
    "x_axis": np.array([1.0, 0.0, 0.0]),
    "z_axis_offset": np.array([0.05, 0.0, 1.0]) / np.sqrt(1.0 + 0.05**2),
}


def main(argv):
    out = argv[0] if argv else "decay_profile.csv"
    spec = ansatz.ansatz_monad()
    rows = []
    for name, ray in RAYS.items():
        rs = np.geomspace(0.01, 1000.0, 60)
        pts = rs[:, None] * ray[None, :].astype(complex)
        data = mo.curvature_batch(spec, pts, fields=("norm_form", "norm_mean"))
        weight = ansatz.curvature_weight(pts)
        for r, nf, nm, wv in zip(rs, data["norm_form"], data["norm_mean"], weight):
            rows.append([name, f"{r:.6g}", f"{nf:.10g}", f"{nm:.10g}", f"{wv:.10g}"])
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ray", "r", "curvature_norm", "mean_curvature_norm",
                         "weight"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
