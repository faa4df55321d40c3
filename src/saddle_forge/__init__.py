"""saddle-forge: construction and numerical verification of singly periodic
genus-two saddle towers from explicit Weierstrass data.

SADDLE_FORGE_THREADS caps the BLAS thread pool.  It is applied here, before
the first submodule import loads numpy, so it reaches the pool for any entry
point that imports this package; it has no effect if numpy was imported
earlier in the same process.  An explicitly set OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS, MKL_NUM_THREADS or NUMEXPR_NUM_THREADS takes
precedence.
"""
import os as _os


def _apply_thread_env():
    n = _os.environ.get("SADDLE_FORGE_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            _os.environ.setdefault(var, n)


_apply_thread_env()

from .errors import (BranchInconsistency, ContourTooClose, DegenerateRoot,
                     DomainViolation, InvalidResolution, NoConvergence,
                     NoRoot, NotApplicable, SaddleForgeError,
                     WeldMismatch)
from .params import SurfaceParams, SymFuncs, sym_funcs
from .quad import integrate_singular, integrate_to_infinity
from .weier import g_eval, phi_vec, vertical_normal_points, w_closed
from .periods import (FamilySolution, PeriodReport, F_eval, I_integral,
                      J_integral, K_integral, family_tangent,
                      period_report_for, residue_R, residue_r, solve_periods,
                      solve_y, sweep_family, write_sweep_csv)
from .mesh import (AssembledMesh, DomainGrid, PieceMesh, assemble, build_grid,
                   curvature_stats, edge_increments, export_obj,
                   integrate_piece, mean_curvature_norm)
from .verify import (VerificationReport, case_diagnostics, check_injectivity,
                     check_profile_bell, check_self_intersections,
                     check_symmetry_table, check_tower_embedded,
                     degree_diagnostic)

__version__ = "0.1.0"
