"""Mesh refinement study: loop closure, mean curvature, and planarity of
the symmetry stretches across a ladder of resolutions.

Usage:
    python scripts/convergence_study.py [--resolutions 32 64 128 256]
"""
import argparse
import sys
import time

import numpy as np

from saddle_forge.mesh import (build_grid, integrate_piece,
                               mean_curvature_norm, _seam_deviation)
from saddle_forge.periods import solve_periods


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t", type=float, default=0.02)
    ap.add_argument("--X-offset", dest="X_offset", type=float, default=0.0)
    ap.add_argument("--resolutions", type=int, nargs="+",
                    default=[32, 64, 128, 256])
    args = ap.parse_args()

    sol = solve_periods(args.t, args.X_offset, tol=1e-11)
    p = sol.params
    print(f"member t={sol.t} X_offset={sol.X_offset}: a={sol.a:.12g} "
          f"b={sol.b:.12g} y={sol.y:.12g}")
    print(f"{'res':>5} {'nodes':>8} {'lc_max':>10} {'|H|_mean':>10} "
          f"{'planarity':>10} {'level_gap':>10} {'T':>14} {'secs':>7}")
    prev_h = None
    for res in args.resolutions:
        t0 = time.monotonic()
        piece = integrate_piece(build_grid(p, res))
        dt = time.monotonic() - t0
        hm = mean_curvature_norm(piece.vertices, piece.faces)
        dev, gap = _seam_deviation(piece)
        ratio = "" if prev_h is None else f"  (x{prev_h/hm:.2f})"
        print(f"{res:>5} {len(piece.vertices):>8} "
              f"{np.max(piece.loop_residuals):>10.2e} {hm:>10.3e} "
              f"{max(dev.values()):>10.2e} {gap:>10.2e} "
              f"{piece.T:>14.10f} {dt:>7.1f}{ratio}")
        prev_h = hm
    return 0


if __name__ == "__main__":
    sys.exit(main())
