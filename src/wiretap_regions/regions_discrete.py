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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetZero,
    InconsistentAux,
    NegativeRate,
    NotDegraded,
    UnknownCorollary,
    ValidationError,
    raise_for_first,
)
from .info_core import (
    ChannelSpec,
    ProbTable,
    VarId,
    check_vars,
    make_stack,
    make_table,
    mutual_information,
)
from .polytope_fm import IneqSystem, LinIneq, block_diagonal_csr, instantiate, solve_lp, vertices

RATES = ("Rp1", "Rs1", "Rp2", "Rs2")
OUTPUTS = ("Y1", "Y2", "Z")   # what the regions call a channel's outputs, by position
UX_VARS = ("U", "X")                       # the variables of the two kinds of aux
LAYERED_VARS = ("Q", "U", "V1", "V2", "X")
AUX_TOL = 1e-10
ZERO_BOUND_TOL = 1e-12   # a general-region bound this close to 0 is printed as 0


@dataclass(frozen=True)
class AuxJoint:
    """Auxiliary joint distribution: a table over (U, X) (kind ``"ux"``) or one
    over (Q, U, V1, V2, X) that factors as p(q,u) p(v1,v2,x|u) (kind
    ``"layered"``).  A stacked table holds one aux per member, each checked
    (an error names the first member that fails)."""

    table: ProbTable

    def __post_init__(self):
        names = self.table.names
        if names not in (UX_VARS, LAYERED_VARS):
            raise InconsistentAux(f"an aux must be over (U, X) or (Q, U, V1, V2, X), "
                                  f"got {names}")
        if self.kind == "layered":
            _check_layered(self.table)

    @property
    def kind(self) -> str:
        """``"ux"`` or ``"layered"``, as the table's variables say."""
        return "ux" if len(self.table.vars) == 2 else "layered"


def _check_layered(t: ProbTable) -> None:
    """Raise InconsistentAux unless the aux table ``t`` (or each member of a
    stacked one, naming the first that fails) factors as p(q,u)
    p(v1,v2,x|u): I(Q; V1,V2,X | U) at most ``AUX_TOL``."""
    resid = np.asarray(mutual_information(t, {"Q"}, {"V1", "V2", "X"}, {"U"}))
    raise_for_first(resid > AUX_TOL, InconsistentAux, lambda k: f"I(Q; V1,V2,X | U) = "
                    f"{resid[k]:.2e} violates the layered factorization")


def _aux_stack(aux: AuxJoint, kind: str, refusal: str) -> ProbTable:
    """The aux's table as a stacked one (a lone table as a stack of one);
    InconsistentAux(``refusal``) unless the aux is of ``kind``."""
    if aux.kind != kind:
        raise InconsistentAux(refusal)
    t = aux.table
    return t if t.stacked else ProbTable(t.vars, t.probs[None], stacked=True)


def _lone(aux: AuxJoint) -> AuxJoint:
    """``aux``, refused (InconsistentAux) when its table is stacked."""
    if aux.table.stacked:
        raise InconsistentAux("this region takes a lone aux, not a stacked one")
    return aux


def _one_or_all(aux: AuxJoint, regions):
    """The region of a lone aux, or the list of the regions of a stacked one."""
    return regions if aux.table.stacked else regions[0]


def _output_joints(t: ProbTable, ch: ChannelSpec) -> tuple[ProbTable, ...]:
    """Joint tables over (aux vars..., out), one stacked table per output
    from one product, the outputs named Y1, Y2, Z by position, without
    materializing the full kernel."""
    return tuple(make_stack(t.vars + (VarId(name, out.cardinality),),
                            np.einsum("...x,xw->...xw", t.probs, ch.pair_kernel(out.name)))
                 for name, out in zip(OUTPUTS, ch.outputs))


def _degraded_constants(aux, ch: ChannelSpec) -> dict[str, np.ndarray]:
    """The five information quantities of the degraded regions, one value
    per member of the aux's table (one for a lone aux)."""
    t = _aux_stack(aux, "ux", "degraded-channel bounds take an aux over (U, X)")
    if not ch.degraded:
        raise NotDegraded("channel is not flagged degraded (X -> Y1 -> Y2 -> Z)")
    t1, t2, tz = _output_joints(t, ch)
    y1, y2, z = OUTPUTS
    return {
        "iuy2": mutual_information(t2, {"U"}, {y2}),
        "iuz": mutual_information(tz, {"U"}, {z}),
        "ixy1_u": mutual_information(t1, {"X"}, {y1}, {"U"}),
        "ixz": mutual_information(tz, {"X"}, {z}),
        "ixz_u": mutual_information(tz, {"X"}, {z}, {"U"}),
    }


def _system(rows) -> IneqSystem:
    return IneqSystem.of(RATES, [LinIneq.of(c, float(r), label=l) for c, r, l in rows])


# The five-bound region's rows with a zero right-hand side, built once: every
# system five_bound_system returns shares their coefficient tuples.
_FIVE_BOUNDS = _system([
    ({"Rs2": 1}, 0.0, "rs2"),
    ({"Rs1": 1, "Rs2": 1}, 0.0, "rs12"),
    ({"Rp2": 1, "Rs2": 1}, 0.0, "rs2p2"),
    ({"Rs1": 1, "Rp2": 1, "Rs2": 1}, 0.0, "rs12p2"),
    ({"Rp1": 1, "Rs1": 1, "Rp2": 1, "Rs2": 1}, 0.0, "total"),
])


def five_bound_system(iuy2: float, iuz: float, ixy1_u: float, ixz: float,
                      ixz_u: float) -> IneqSystem:
    """Five-bound degraded-channel region from its five information quantities
    I(U;Y2), I(U;Z), I(X;Y1|U), I(X;Z) and I(X;Z|U), whatever the input law
    (discrete auxiliaries, Gaussian covariances or scalar mixtures)."""
    rhs = (iuy2 - iuz, iuy2 + ixy1_u - ixz, iuy2, iuy2 + ixy1_u - ixz_u, iuy2 + ixy1_u)
    return _FIVE_BOUNDS.with_ineqs([q.with_rhs(float(r))
                                    for q, r in zip(_FIVE_BOUNDS.ineqs, rhs)])


def outer_of(inner: IneqSystem) -> IneqSystem:
    """Outer bound: the five-bound inner system without the Rs1+Rp2+Rs2 constraint."""
    return inner.with_ineqs([q for q in inner.ineqs if q.label != "rs12p2"])


def eval_degraded_inner(aux: AuxJoint, ch: ChannelSpec):
    """Five-bound achievable region of the degraded channel for a fixed aux;
    for a stacked aux, the list of its members' regions, every information
    quantity computed once for all of them."""
    c = _degraded_constants(aux, ch)
    return _one_or_all(aux, [five_bound_system(**dict(zip(c, map(float, v))))
                             for v in zip(*c.values())])


def eval_degraded_outer(aux: AuxJoint, ch: ChannelSpec) -> IneqSystem:
    """Outer bound of the degraded channel for a fixed lone aux."""
    return outer_of(eval_degraded_inner(_lone(aux), ch))


def eval_original_inner(aux: AuxJoint, ch: ChannelSpec) -> IneqSystem:
    """Pre-elimination per-message form of a lone aux: each rate bounded
    individually.

    The public rates ride on the randomization the eavesdropper can resolve,
    so ``Rp2 <= I(U;Z)`` and ``Rp1 <= I(X;Z|U)``.
    """
    c = {k: float(v[0]) for k, v in _degraded_constants(_lone(aux), ch).items()}
    return _system([
        ({"Rp2": 1}, c["iuz"], "rp2"),
        ({"Rs2": 1}, c["iuy2"] - c["iuz"], "rs2"),
        ({"Rp1": 1}, c["ixz_u"], "rp1"),
        ({"Rs1": 1}, c["ixy1_u"] - c["ixz_u"], "rs1"),
    ])


def eval_general_inner(aux: AuxJoint, ch: ChannelSpec):
    """Ten-bound layered inner region: the bundled chain's certified target
    (``data/elimination_chain/target.sys``, rows and labels in file order)
    evaluated on the aux and the channel's outputs, taken by position as Y1,
    Y2, Z.  The channel need not be degraded.  For a stacked aux, the list
    of its members' regions from one instantiation of the target."""
    t = _aux_stack(aux, "layered", "general inner bound takes a layered aux")
    # fm_script imports this module, directly and through io_files, so it is
    # imported here; loading the target (once per process) derives no equality span
    from . import fm_script
    tables = (t, *_output_joints(t, ch))
    regions = instantiate(fm_script.load_fixture("target"), tables,
                          fm_script.min_sym_values(tables))
    # each bound is a sum of entropies, so one that is 0 (a degenerate aux)
    # reads about +-1e-16; the clamped mutual informations it stands for give 0
    return _one_or_all(aux, [r.with_ineqs([q.with_rhs(0.0) if abs(q.rhs) <= ZERO_BOUND_TOL
                                           else q for q in r.ineqs]) for r in regions])


def reduction_aux(aux: AuxJoint) -> AuxJoint:
    """Embed a (U, X) aux as a layered aux with Q constant, V2 = U, V1 = X."""
    if aux.kind != "ux":
        raise InconsistentAux("reduction embeds a (U, X) aux")
    p = _lone(aux).table.probs
    cu, cx = p.shape
    arr = np.zeros((1, cu, cx, cu, cx))
    for u in range(cu):
        for x in range(cx):
            arr[0, u, x, u, x] = p[u, x]
    table = make_table(
        (VarId("Q", 1), VarId("U", cu), VarId("V1", cx), VarId("V2", cu), VarId("X", cx)),
        arr)
    return AuxJoint(table)


def _prune_dominated(sys: IneqSystem) -> IneqSystem:
    """Drop the rows another row implies on the nonnegative orthant: a row
    with at least another's coefficients and at most its right-hand side
    implies it, so the rows kept are those :func:`pareto_front` keeps of
    (coefficients, -rhs)."""
    rows = np.array([[float(q.coeff(v)) for v in sys.vars] + [-q.rhs] for q in sys.ineqs],
                    dtype=float).reshape(-1, len(sys.vars) + 1)
    return sys.with_ineqs([sys.ineqs[i] for i in _undominated(rows)])


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


def _aux_hash(probs: np.ndarray) -> str:
    h = hashlib.sha256(np.round(probs, 12).tobytes())
    return h.hexdigest()[:12]


def hull_of(points: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of a point cloud, as rows of the cloud.  A
    cloud that Qhull refuses as flat is hulled inside its own affine span."""
    from scipy.spatial import ConvexHull, QhullError

    pts = np.unique(np.round(points, 12) + 0.0, axis=0)   # + 0.0: no -0.0 from rounding
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


def dominance_slack(points, cloud) -> np.ndarray:
    """Smallest uniform slack s_k making ``points[k] - s_k`` dominated by a
    convex combination of the rows of ``cloud``, for every row of ``points``,
    from one LP.

    The slack of p is ``min s`` over simplex weights lambda with
    ``cloud.T @ lambda + s >= p``.  Each row of ``points`` solves its dual
    block, ``max mu.p - t`` over simplex mu with ``mu.g <= t`` for every cloud
    row g, and the blocks are stacked block-diagonally.  The block's row
    multipliers, clipped to >= 0 and renormalised, are weights lambda, and the
    value returned is ``max(p - cloud.T @ lambda)``: the slack that explicit
    combination of cloud rows achieves.

    Raises LPFailure when the solver stops without an optimum.
    """
    cloud = np.asarray(cloud, dtype=float)
    p = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = cloud.shape
    k = p.shape[0]
    # variables (mu, t) per block: minimize t - mu.p subject to cloud @ mu <= t, sum(mu) = 1;
    # always feasible (any simplex mu with t = max of cloud @ mu) and bounded
    # (t - mu.p >= mu.(g - p) for any cloud row g), so the solver returns an optimum
    c = np.hstack([-p, np.ones((k, 1))]).ravel()
    A_ub = block_diagonal_csr([np.hstack([cloud, -np.ones((n, 1))])] * k)
    A_eq = block_diagonal_csr([np.append(np.ones(d), 0.0)[None, :]] * k)
    res = solve_lp(c, A_ub, np.zeros(k * n), A_eq, np.ones(k),
                   bounds=([(0, None)] * d + [(None, None)]) * k, what="dominance")
    lam = np.clip(-res.ineqlin.marginals.reshape(k, n), 0.0, None)
    lam /= lam.sum(axis=1, keepdims=True)
    return (p - lam @ cloud).max(axis=1)


def _undominated(pts: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of ``pts`` that no other row dominates
    componentwise; of equal rows the first is kept."""
    # descending lexicographic order puts every row after the rows dominating
    # it and after its earlier duplicates (the index breaks ties)
    order = np.lexsort((np.arange(len(pts)), *(-pts[:, ::-1].T)))
    front, kept = np.empty_like(pts), []
    for i in order:
        if not (front[:len(kept)] >= pts[i]).all(axis=1).any():
            front[len(kept)] = pts[i]
            kept.append(i)
    return np.sort(np.asarray(kept, dtype=int))


def pareto_front(points) -> np.ndarray:
    """Rows of ``points`` that no other row dominates componentwise, in their
    original order; of equal rows the first is kept.

    Dropping dominated rows changes no :func:`dominance_slack` value: a convex
    combination using a dominated row is dominated by the same combination
    using the row that dominates it.
    """
    pts = np.asarray(points, dtype=float)
    return pts[_undominated(pts)]


def _corner_aux_ux(card_u: int, card_x: int):
    """Hand-picked extreme auxiliaries: U = X, deterministic U, independent U."""
    eye = np.zeros((card_u, card_x))
    for x in range(card_x):
        eye[x % card_u, x] = 1.0 / card_x
    det = np.zeros((card_u, card_x))
    det[0, :] = 1.0 / card_x
    indep = np.full((card_u, card_x), 1.0 / (card_u * card_x))
    return [eye, det, indep]


def _aux_vars(names, shape) -> tuple[VarId, ...]:
    return tuple(VarId(n, k) for n, k in zip(names, shape))


def random_aux_ux(rng: np.random.Generator, card_u: int, card_x: int) -> AuxJoint:
    arr = _ux_probs(rng, card_u, card_x)
    return AuxJoint(make_table(_aux_vars(UX_VARS, arr.shape), arr))


def _ux_probs(rng, card_u: int, card_x: int) -> np.ndarray:
    return rng.dirichlet(np.ones(card_u * card_x)).reshape(card_u, card_x)


def random_aux_layered(rng: np.random.Generator, card_q: int, card_u: int,
                       card_v1: int, card_v2: int, card_x: int,
                       indep_v: bool = False) -> AuxJoint:
    """Random layered aux; ``indep_v`` draws V1 and V2 independent given U,
    which keeps the joint-covering penalty at zero and the pair bound
    nonnegative far more often."""
    arr = _layered_probs(rng, card_q, card_u, card_v1, card_v2, card_x, indep_v)
    return AuxJoint(make_table(_aux_vars(LAYERED_VARS, arr.shape), arr))


def _layered_probs(rng, card_q, card_u, card_v1, card_v2, card_x, indep_v) -> np.ndarray:
    """The array of :func:`random_aux_layered`, drawn in its order."""
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
    return np.einsum("qu,uabx->quabx", p_qu, p_rest)


def sweep_systems(samples) -> SweepResult:
    """Merge the vertex clouds of ``(tag, system)`` samples into one sweep: a
    CSV row per sample, the point cloud and its hull.  The samples share their
    coefficient rows, so the sweep is evaluated as one stack: a single
    :func:`vertices` call enumerates every sample against one set of bases
    and solves at most one recession LP."""
    tags, systems = zip(*samples)
    vp = vertices(systems)
    rows = [(idx, tag, [float(q.rhs) for q in sys.ineqs], n)
            for idx, (tag, sys, n) in enumerate(zip(tags, systems, vp.counts.tolist()))]
    return SweepResult(rates=RATES, points=vp.vertices, rows=rows)


# Most cells of the widest stacked output joint of one block of a discrete
# sweep (8 MB of float64): a sweep draws and evaluates its auxes in blocks
# that small (one aux a block when one is wider), so its memory does not grow
# with the budget.
_BLOCK_CELLS = 1 << 20


def sweep_inner_region(ch: ChannelSpec, budget: int, seed: int = 0,
                       mode: str = "degraded") -> SweepResult:
    """Seeded sweep of auxiliary joints; returns the merged vertex cloud and
    its hull.  Samples are a fixed prefix sequence, so a larger budget extends
    a smaller one and the hull can only grow.

    The auxes are drawn in the order a one-at-a-time loop draws them, in
    blocks whose widest output joint holds at most ``_BLOCK_CELLS`` cells;
    the regions of a block come from one stacked evaluation, equal to the
    loop's byte for byte.  Every table is checked against the cell cap
    before any aux is drawn.
    """
    if budget < 1:
        raise BudgetZero("sweep budget must be >= 1")
    if mode not in ("degraded", "general"):
        raise ValidationError(f"unknown sweep mode {mode!r}")
    rng = np.random.default_rng(seed)
    card_x = ch.input.cardinality
    card_u = card_x + 3
    card_v = card_x + 1
    if mode == "degraded":
        aux_vars = _aux_vars(UX_VARS, (card_u, card_x))
        corners = _corner_aux_ux(card_u, card_x)

        def draw(i):
            return corners[i] if i < len(corners) else _ux_probs(rng, card_u, card_x)
        evaluate = eval_degraded_inner
    else:
        aux_vars = _aux_vars(LAYERED_VARS, (2, card_u, card_v, card_v, card_x))

        def draw(i):
            return _layered_probs(rng, 2, card_u, card_v, card_v, card_x, i % 2 == 0)
        evaluate = eval_general_inner
    table_vars = [aux_vars] + [aux_vars + (VarId(name, out.cardinality),)
                               for name, out in zip(OUTPUTS, ch.outputs)]
    for vars_ in table_vars:   # every table a block builds, in the order it builds them
        check_vars(vars_)
    per_block = max(1, _BLOCK_CELLS // max(math.prod(v.cardinality for v in vars_)
                                           for vars_ in table_vars))
    samples = []
    for lo in range(0, budget, per_block):
        probs = np.stack([draw(i) for i in range(lo, min(lo + per_block, budget))])
        regions = evaluate(AuxJoint(make_stack(aux_vars, probs)), ch)
        samples += zip(map(_aux_hash, probs), regions)
    return sweep_systems(samples)
