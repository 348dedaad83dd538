#!/usr/bin/env python3
"""Sweep the QND detection-error formulas over the near-deterministic knob
|α|·sinθ and the probe strength η·γ²·θp², printing a CSV for plotting (or
writing it to the given file).  The closed form replaces the n² response
exponent by n, so it is an overestimate that widens with α·sinθ.

Usage: python scripts/error_curves.py [out.csv]
"""

import csv
import io
import math
import sys

from qubusim.detection import (
    DetectorParams,
    detection_error_eq11,
    detection_error_exact,
)


def main():
    theta = 0.02
    rows = []
    for asin in [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]:
        alpha = asin / math.sin(theta)
        for probe in [0.5, 1.0, 2.0, 4.0]:
            thp = math.sqrt(probe / (0.5 * 100.0**2))
            det = DetectorParams(eta=0.5, gamma=100.0, theta_p=thp)
            exact = detection_error_exact(alpha, theta, det)
            closed = detection_error_eq11(alpha, theta, det)
            rows.append([asin, probe, alpha, theta, thp, exact, closed])
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["alpha_sin_theta", "eta_g2_thp2", "alpha", "theta",
                "theta_p", "exact_error", "closed_form"])
    for row in rows:
        w.writerow([f"{x:.10g}" for x in row])
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


if __name__ == "__main__":
    main()
