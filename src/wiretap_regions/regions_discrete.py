"""Numeric rate regions of the two-user channel with an eavesdropper.

Evaluates the degraded-channel inner and outer bounds, the pre-elimination
(per-message) form, the general layered inner bound, corollary
specializations, the equivocation mapping, and seeded sweeps over auxiliary
distributions.  Rate tuples are ordered ``(Rp1, Rs1, Rp2, Rs2)``; all
constants are in nats.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetZero,
    InconsistentAux,
    NegativeRate,
    UnknownCorollary,
)
from .info_core import (
    ChannelSpec,
    ProbTable,
    VarId,
    make_table,
    mutual_information,
    require_degraded,
)
from .polytope_fm import IneqSystem, LinIneq, solve_lp, vertices

RATES = ("Rp1", "Rs1", "Rp2", "Rs2")
AUX_TOL = 1e-10


@dataclass(frozen=True)
class AuxJoint:
    """Auxiliary joint distribution with its factorization tag.

    ``kind="ux"`` is a table over (U, X); ``kind="layered"`` is a table over
    (Q, U, V1, V2, X) that must factor as p(q,u) p(v1,v2,x|u).
    """

    table: ProbTable
    kind: str = "ux"

    def __post_init__(self):
        names = self.table.names
        if self.kind == "ux":
            if names != ("U", "X"):
                raise InconsistentAux(f"ux aux must be over (U, X), got {names}")
        elif self.kind == "layered":
            if names != ("Q", "U", "V1", "V2", "X"):
                raise InconsistentAux(
                    f"layered aux must be over (Q, U, V1, V2, X), got {names}")
            resid = mutual_information(self.table, {"Q"}, {"V1", "V2", "X"}, {"U"})
            if resid > AUX_TOL:
                raise InconsistentAux(
                    f"I(Q; V1,V2,X | U) = {resid:.2e} violates the layered factorization")
        else:
            raise InconsistentAux(f"unknown aux kind {self.kind!r}")


def _joint_with_output(aux: ProbTable, ch: ChannelSpec, out_name: str) -> ProbTable:
    """Joint table over (aux vars..., out) without materializing the full kernel."""
    k = ch.pair_kernel(out_name)
    arr = np.einsum("...x,xw->...xw", aux.probs, k)
    out_var = ch.outputs[ch.output_names.index(out_name)]
    return make_table(aux.vars + (out_var,), arr)


def _degraded_constants(aux: AuxJoint, ch: ChannelSpec) -> dict[str, float]:
    if aux.kind != "ux":
        raise InconsistentAux("degraded-channel bounds take an aux over (U, X)")
    require_degraded(ch)
    t1 = _joint_with_output(aux.table, ch, ch.output_names[0])
    t2 = _joint_with_output(aux.table, ch, ch.output_names[1])
    tz = _joint_with_output(aux.table, ch, ch.output_names[2])
    y1, y2, z = ch.output_names
    return {
        "iuy2": mutual_information(t2, {"U"}, {y2}),
        "iuz": mutual_information(tz, {"U"}, {z}),
        "ixy1_u": mutual_information(t1, {"X"}, {y1}, {"U"}),
        "ixz": mutual_information(tz, {"X"}, {z}),
        "ixz_u": mutual_information(tz, {"X"}, {z}, {"U"}),
    }


def _system(rows) -> IneqSystem:
    return IneqSystem.of(RATES, [LinIneq.of(c, float(r), label=l) for c, r, l in rows])


def five_bound_system(iuy2: float, iuz: float, ixy1_u: float, ixz: float,
                      ixz_u: float) -> IneqSystem:
    """Five-bound degraded-channel region from its five information quantities
    I(U;Y2), I(U;Z), I(X;Y1|U), I(X;Z) and I(X;Z|U), whatever the input law
    (discrete auxiliaries, Gaussian covariances or scalar mixtures)."""
    return _system([
        ({"Rs2": 1}, iuy2 - iuz, "rs2"),
        ({"Rs1": 1, "Rs2": 1}, iuy2 + ixy1_u - ixz, "rs12"),
        ({"Rp2": 1, "Rs2": 1}, iuy2, "rs2p2"),
        ({"Rs1": 1, "Rp2": 1, "Rs2": 1}, iuy2 + ixy1_u - ixz_u, "rs12p2"),
        ({"Rp1": 1, "Rs1": 1, "Rp2": 1, "Rs2": 1}, iuy2 + ixy1_u, "total"),
    ])


def outer_of(inner: IneqSystem) -> IneqSystem:
    """Outer bound: the five-bound inner system without the Rs1+Rp2+Rs2 constraint."""
    return inner.with_ineqs([q for q in inner.ineqs if q.label != "rs12p2"])


def eval_degraded_inner(aux: AuxJoint, ch: ChannelSpec) -> IneqSystem:
    """Five-bound achievable region of the degraded channel for a fixed aux."""
    return five_bound_system(**_degraded_constants(aux, ch))


def eval_degraded_outer(aux: AuxJoint, ch: ChannelSpec) -> IneqSystem:
    """Outer bound of the degraded channel for a fixed aux."""
    return outer_of(eval_degraded_inner(aux, ch))


def eval_original_inner(aux: AuxJoint, ch: ChannelSpec) -> IneqSystem:
    """Pre-elimination per-message form: each rate bounded individually.

    The public rates ride on the randomization the eavesdropper can resolve,
    so ``Rp2 <= I(U;Z)`` and ``Rp1 <= I(X;Z|U)``.
    """
    c = _degraded_constants(aux, ch)
    return _system([
        ({"Rp2": 1}, c["iuz"], "rp2"),
        ({"Rs2": 1}, c["iuy2"] - c["iuz"], "rs2"),
        ({"Rp1": 1}, c["ixz_u"], "rp1"),
        ({"Rs1": 1}, c["ixy1_u"] - c["ixz_u"], "rs1"),
    ])


def eval_general_inner(aux: AuxJoint, ch: ChannelSpec) -> IneqSystem:
    """Ten-bound layered inner region; the min over the two receivers is
    evaluated numerically per bound.  The channel need not be degraded."""
    if aux.kind != "layered":
        raise InconsistentAux("general inner bound takes a layered aux")
    y1, y2, z = ch.output_names
    t1 = _joint_with_output(aux.table, ch, y1)
    t2 = _joint_with_output(aux.table, ch, y2)
    tz = _joint_with_output(aux.table, ch, z)

    m = min(mutual_information(t1, {"U"}, {y1}),
            mutual_information(t2, {"U"}, {y2}))
    m_q = min(mutual_information(t1, {"U"}, {y1}, {"Q"}),
              mutual_information(t2, {"U"}, {y2}, {"Q"}))
    a1 = mutual_information(t1, {"V1"}, {y1}, {"U"})
    a2 = mutual_information(t2, {"V2"}, {y2}, {"U"})
    b12 = mutual_information(aux.table, {"V1"}, {"V2"}, {"U"})
    z_uv1_q = mutual_information(tz, {"U", "V1"}, {z}, {"Q"})
    z_uv2_q = mutual_information(tz, {"U", "V2"}, {z}, {"Q"})
    z_uv12_q = mutual_information(tz, {"U", "V1", "V2"}, {z}, {"Q"})
    z_v1 = mutual_information(tz, {"V1"}, {z}, {"U"})
    z_v2 = mutual_information(tz, {"V2"}, {z}, {"U"})
    z_v12 = mutual_information(tz, {"V1", "V2"}, {z}, {"U"})

    return _system([
        ({"Rs1": 1}, m_q + a1 - z_uv1_q, "rs1"),
        ({"Rs2": 1}, m_q + a2 - z_uv2_q, "rs2"),
        ({"Rs1": 1, "Rs2": 1}, m_q + a1 + a2 - b12 - z_uv12_q, "rs12"),
        ({"Rs1": 1, "Rp1": 1}, m + a1, "rs1p1"),
        ({"Rs2": 1, "Rp2": 1}, m + a2, "rs2p2"),
        ({"Rs1": 1, "Rp1": 1, "Rs2": 1}, m + a1 + a2 - z_v2, "rs1p1s2_a"),
        ({"Rs1": 1, "Rp1": 1, "Rs2": 1}, m + 2 * a1 + a2 - b12 - z_v12, "rs1p1s2_b"),
        ({"Rs1": 1, "Rs2": 1, "Rp2": 1}, m + a1 + a2 - z_v1, "rs12p2_a"),
        ({"Rs1": 1, "Rs2": 1, "Rp2": 1}, m + a1 + 2 * a2 - b12 - z_v12, "rs12p2_b"),
        ({"Rp1": 1, "Rs1": 1, "Rp2": 1, "Rs2": 1}, m + a1 + a2 - b12, "total"),
    ])


def reduction_aux(aux: AuxJoint) -> AuxJoint:
    """Embed a (U, X) aux as a layered aux with Q constant, V2 = U, V1 = X."""
    if aux.kind != "ux":
        raise InconsistentAux("reduction embeds a (U, X) aux")
    p = aux.table.probs
    cu, cx = p.shape
    arr = np.zeros((1, cu, cx, cu, cx))
    for u in range(cu):
        for x in range(cx):
            arr[0, u, x, u, x] = p[u, x]
    table = make_table(
        (VarId("Q", 1), VarId("U", cu), VarId("V1", cx), VarId("V2", cu), VarId("X", cx)),
        arr)
    return AuxJoint(table, kind="layered")


def _prune_dominated(sys: IneqSystem, tol: float = 1e-12) -> IneqSystem:
    """Drop constraints implied by another one on the nonnegative orthant."""
    rows = list(sys.ineqs)
    keep = []
    for i, qi in enumerate(rows):
        ci = qi.coeff_dict()
        dominated = False
        for j, qj in enumerate(rows):
            if i == j:
                continue
            cj = qj.coeff_dict()
            # qj implies qi when qj has at least qi's coefficients and a
            # smaller right-hand side; ties broken by keeping the earlier row
            geq = all(cj.get(v, 0) >= c for v, c in ci.items())
            if geq and float(qj.rhs) <= float(qi.rhs) + tol:
                if float(qj.rhs) < float(qi.rhs) - tol or ci != cj or j < i:
                    dominated = True
                    break
        if not dominated:
            keep.append(qi)
    return sys.with_ineqs(keep)


def _zero_rates(sys: IneqSystem, names) -> IneqSystem:
    out = []
    for q in sys.ineqs:
        coeffs = {v: c for v, c in q.coeffs if v not in names}
        out.append(LinIneq.of(coeffs, q.rhs, q.rel, q.label))
    remaining = tuple(v for v in sys.vars if v not in names)
    return IneqSystem.of(remaining, [q for q in out if q.coeffs])


def specialize_corollary(sys: IneqSystem, which: str) -> IneqSystem:
    """Specialize a five- or four-bound system by zeroing designated rates.

    ``cor1`` drops the first user's confidential message, ``cor2`` the second
    user's public message, ``cor3`` both public messages (the secrecy region),
    and ``cor3_alt`` is the alternate secrecy form with a standalone Rs1 bound
    (available only on inner systems, which carry the extra constraint).
    """
    labels = {q.label for q in sys.ineqs}
    if which == "cor1":
        return _prune_dominated(_zero_rates(sys, {"Rs1"}))
    if which == "cor2":
        return _prune_dominated(_zero_rates(sys, {"Rp2"}))
    if which == "cor3":
        return _prune_dominated(_zero_rates(sys, {"Rp1", "Rp2"}))
    if which == "cor3_alt":
        if "rs12p2" not in labels:
            raise UnknownCorollary("alternate secrecy form needs the inner system")
        by = {q.label: float(q.rhs) for q in sys.ineqs}
        return IneqSystem.of(("Rs1", "Rs2"), [
            LinIneq.of({"Rs2": 1}, by["rs2"], label="rs2"),
            LinIneq.of({"Rs1": 1}, by["rs12p2"] - by["rs2p2"], label="rs1"),
        ])
    raise UnknownCorollary(f"unknown specialization {which!r}")


def to_equivocation(rates) -> tuple[float, float, float, float]:
    """Map (Rp1, Rs1, Rp2, Rs2) to the rate-equivocation tuple
    (R1, Re1, R2, Re2) = (Rp1+Rs1, Rs1, Rp2+Rs2, Rs2)."""
    rp1, rs1, rp2, rs2 = rates
    if min(rp1, rs1, rp2, rs2) < 0:
        raise NegativeRate(f"negative rate in {rates}")
    return (rp1 + rs1, rs1, rp2 + rs2, rs2)


# --- sweeps -----------------------------------------------------------------


@dataclass
class SweepResult:
    rates: tuple[str, ...]
    points: np.ndarray
    rows: list = field(default_factory=list)   # (sample id, tag, constants, n vertices)

    @functools.cached_property
    def hull_points(self) -> np.ndarray:
        return hull_of(self.points)


def _aux_hash(table: ProbTable) -> str:
    h = hashlib.sha256(np.round(table.probs, 12).tobytes())
    return h.hexdigest()[:12]


def hull_of(points: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of a point cloud, as rows of the cloud.  A
    cloud that Qhull refuses as flat is hulled inside its own affine span."""
    from scipy.spatial import ConvexHull, QhullError

    pts = np.unique(np.round(points, 12), axis=0)
    if pts.shape[0] <= 1:
        return pts
    try:
        return pts[ConvexHull(pts).vertices]
    except QhullError:
        centred = pts - pts.mean(axis=0)
        _, sv, vt = np.linalg.svd(centred, full_matrices=False)
        coords = centred @ vt[:int((sv > 1e-9 * sv[0]).sum())].T
        if coords.shape[1] <= 1:
            return pts[[coords[:, 0].argmin(), coords[:, 0].argmax()]]
        return pts[ConvexHull(coords).vertices]


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


def dominance_slack(point, points) -> float:
    """Smallest uniform slack s making ``point - s`` dominated by the cloud.

    Raises LPFailure when the solver stops without an optimum.
    """
    pts = np.asarray(points, dtype=float)
    p = np.asarray(point, dtype=float)
    n, d = pts.shape
    # variables (lambda, s): minimize s subject to pts.T @ lambda + s >= p
    c = np.concatenate([np.zeros(n), [1.0]])
    A_ub = np.hstack([-pts.T, -np.ones((d, 1))])
    A_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    # always feasible (any simplex lambda with s large enough satisfies it)
    # and bounded (s >= p_k - max of column k), so the solver returns an optimum
    res = solve_lp(c, A_ub, -p, A_eq, [1.0], bounds=[(0, None)] * n + [(None, None)],
                   what="dominance")
    return float(res.x[-1])


def pareto_front(points) -> np.ndarray:
    """Rows of ``points`` that no other row dominates componentwise, in their
    original order; of equal rows the first is kept.

    Dropping dominated rows changes no :func:`dominance_slack` value: a convex
    combination using a dominated row is dominated by the same combination
    using the row that dominates it.
    """
    pts = np.asarray(points, dtype=float)
    # descending lexicographic order puts every row after the rows dominating
    # it and after its earlier duplicates (the index breaks ties)
    order = np.lexsort((np.arange(len(pts)), *(-pts[:, ::-1].T)))
    front, kept = np.empty_like(pts), []
    for i in order:
        if not (front[:len(kept)] >= pts[i]).all(axis=1).any():
            front[len(kept)] = pts[i]
            kept.append(i)
    return pts[np.sort(np.asarray(kept, dtype=int))]


def _corner_aux_ux(card_u: int, card_x: int):
    """Hand-picked extreme auxiliaries: U = X, deterministic U, independent U."""
    eye = np.zeros((card_u, card_x))
    for x in range(card_x):
        eye[x % card_u, x] = 1.0 / card_x
    det = np.zeros((card_u, card_x))
    det[0, :] = 1.0 / card_x
    indep = np.full((card_u, card_x), 1.0 / (card_u * card_x))
    return [eye, det, indep]


def random_aux_ux(rng: np.random.Generator, card_u: int, card_x: int) -> AuxJoint:
    arr = rng.dirichlet(np.ones(card_u * card_x)).reshape(card_u, card_x)
    return AuxJoint(make_table((VarId("U", card_u), VarId("X", card_x)), arr))


def random_aux_layered(rng: np.random.Generator, card_q: int, card_u: int,
                       card_v1: int, card_v2: int, card_x: int,
                       indep_v: bool = False) -> AuxJoint:
    """Random layered aux; ``indep_v`` draws V1 and V2 independent given U,
    which keeps the joint-covering penalty at zero and the pair bound
    nonnegative far more often."""
    p_qu = rng.dirichlet(np.ones(card_q * card_u)).reshape(card_q, card_u)
    if indep_v:
        p1 = rng.dirichlet(np.ones(card_v1), size=card_u)
        p2 = rng.dirichlet(np.ones(card_v2), size=card_u)
        px = rng.dirichlet(np.ones(card_x), size=card_u * card_v1 * card_v2)
        px = px.reshape(card_u, card_v1, card_v2, card_x)
        p_rest = np.einsum("ua,ub,uabx->uabx", p1, p2, px)
    else:
        p_rest = rng.dirichlet(np.ones(card_v1 * card_v2 * card_x), size=card_u)
        p_rest = p_rest.reshape(card_u, card_v1, card_v2, card_x)
    arr = np.einsum("qu,uabx->quabx", p_qu, p_rest)
    table = make_table((VarId("Q", card_q), VarId("U", card_u), VarId("V1", card_v1),
                        VarId("V2", card_v2), VarId("X", card_x)), arr)
    return AuxJoint(table, kind="layered")


def sweep_systems(samples) -> SweepResult:
    """Merge the vertex clouds of a stream of ``(tag, system)`` samples into
    one sweep: a CSV row per sample, the point cloud and its hull."""
    pts, rows = [], []
    for idx, (tag, sys) in enumerate(samples):
        vp = vertices(sys)
        if vp.vertices.size:
            pts.append(vp.vertices)
        rows.append((idx, tag, [float(q.rhs) for q in sys.ineqs], vp.vertices.shape[0]))
    cloud = np.vstack(pts) if pts else np.empty((0, len(RATES)))
    return SweepResult(rates=RATES, points=cloud, rows=rows)


def sweep_inner_region(ch: ChannelSpec, budget: int, seed: int = 0,
                       mode: str = "degraded") -> SweepResult:
    """Seeded sweep of auxiliary joints; returns the merged vertex cloud and
    its hull.  Samples are a fixed prefix sequence, so a larger budget extends
    a smaller one and the hull can only grow.
    """
    if budget < 1:
        raise BudgetZero("sweep budget must be >= 1")
    rng = np.random.default_rng(seed)
    card_x = ch.input.cardinality
    card_u = card_x + 3
    card_v = card_x + 1

    def samples():
        if mode == "degraded":
            for arr in _corner_aux_ux(card_u, card_x):
                yield AuxJoint(make_table((VarId("U", card_u), VarId("X", card_x)), arr))
            while True:
                yield random_aux_ux(rng, card_u, card_x)
        elif mode == "general":
            for i in itertools.count():
                yield random_aux_layered(rng, 2, card_u, card_v, card_v, card_x,
                                         indep_v=(i % 2 == 0))
        else:
            raise BudgetZero(f"unknown sweep mode {mode!r}")

    build = eval_general_inner if mode == "general" else eval_degraded_inner
    return sweep_systems((_aux_hash(aux.table), build(aux, ch))
                         for aux in itertools.islice(samples(), budget))
