"""Hull-membership and dominance-slack oracles for the sweep and evidence
tests; no program code needs them."""

import numpy as np

from wiretap_regions.polytope_fm import solve_lp


def in_hull(point, points, tol: float = 1e-9) -> bool:
    """True when ``point`` is within ``tol`` (max norm) of a convex combination
    of the rows of ``points``, checked on the weights the LP returns."""
    pts = np.asarray(points, dtype=float)
    p = np.asarray(point, dtype=float)
    n, d = pts.shape
    # variables (lambda, s): minimize s subject to |pts.T @ lambda - p| <= s
    c = np.concatenate([np.zeros(n), [1.0]])
    A_ub = np.hstack([np.vstack([pts.T, -pts.T]), -np.ones((2 * d, 1))])
    A_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    # always feasible and bounded below by 0, so the solver returns an optimum
    res = solve_lp(c, A_ub, np.concatenate([p, -p]), A_eq, [1.0], what="hull distance")
    lam = np.clip(res.x[:n], 0.0, None)
    return float(np.abs(pts.T @ (lam / lam.sum()) - p).max()) <= tol


def primal_dominance_slack(point, cloud) -> float:
    """Reference: one point's slack from the primal LP, min s over simplex
    weights lambda with cloud.T @ lambda + s >= point."""
    n, d = cloud.shape
    res = solve_lp(np.append(np.zeros(n), 1.0), np.hstack([-cloud.T, -np.ones((d, 1))]),
                   -np.asarray(point, dtype=float), np.append(np.ones(n), 0.0)[None, :],
                   [1.0], bounds=[(0, None)] * n + [(None, None)], what="primal dominance")
    return float(res.x[-1])
