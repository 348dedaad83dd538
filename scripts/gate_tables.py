#!/usr/bin/env python3
"""Print the extracted process matrices of the built-in gates next to their
ideals, with residuals.

Usage: python scripts/gate_tables.py [alpha] [theta]
"""

import sys

import numpy as np

from qubusim.cli import gate_catalog
from qubusim.verify import extract_process_matrix, matrix_residual_up_to_phase


def main():
    alpha = float(sys.argv[1]) if len(sys.argv) > 1 else 2.0
    theta = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5
    for name, (nq, runner, ideal) in gate_catalog(alpha, theta).items():
        qubits = [(f"q{i}", i) for i in range(nq)]
        matrix = extract_process_matrix(runner, qubits)
        residual = matrix_residual_up_to_phase(matrix, ideal)
        print(f"{name}: {2**nq}x{2**nq}, residual {residual:.3e}")
        with np.printoptions(precision=3, suppress=True, linewidth=160):
            print(np.round(matrix, 6))
        print()


if __name__ == "__main__":
    main()
