"""Numeric rate regions of the two-user channel with an eavesdropper.

Evaluates the degraded-channel inner and outer bounds, the pre-elimination
(per-message) form, the general layered inner bound, corollary
specializations, and seeded sweeps over auxiliary distributions.  Rate
tuples are ordered ``(Rp1, Rs1, Rp2, Rs2)``; all constants are in nats.
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
    LPFailure,
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
    mutual_information,
    take_stack,
)
from .polytope_fm import (
    CERT_LP_OPTIONS,
    CERT_TOL,
    IneqSystem,
    LinIneq,
    SystemStack,
    block_diagonal_csr,
    instantiate,
    solve_lp,
    unique_rows,
    vertices,
)

RATES = ("Rp1", "Rs1", "Rp2", "Rs2")
OUTPUTS = ("Y1", "Y2", "Z")   # what the regions call a channel's outputs, by position
UX_VARS = ("U", "X")                       # the variables of the two kinds of aux
LAYERED_VARS = ("Q", "U", "V1", "V2", "X")
# Largest I(Q; V1,V2,X | U) of a layered aux, in nats, absolute.
AUX_TOL = 1e-10
ZERO_BOUND_TOL = 1e-12   # a general-region bound this close to 0 is printed as 0
# Singular value of a flat hull cloud, relative to its largest, above which
# its direction spans the cloud's affine hull.
HULL_RANK_RTOL = 1e-9
# Decimal places a sweep's point cloud is rounded to before hull_of merges
# equal points: a quantum of 1e-12 nats, absolute.
HULL_DECIMALS = 12
# Decimal places an aux's probabilities are rounded to before they are hashed
# into its sample's tag: a quantum of 1e-12, absolute.
AUX_HASH_DECIMALS = 12


@dataclass(frozen=True)
class AuxJoint:
    """Auxiliary joint distribution: a table over (U, X) (kind ``"ux"``) or one
    over (Q, U, V1, V2, X) that factors as p(q,u) p(v1,v2,x|u) (kind
    ``"layered"``), one aux per member of the table, each checked (an error
    names the first member that fails)."""

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
    """Raise InconsistentAux unless each member of the aux table ``t`` (naming
    the first that fails) factors as p(q,u) p(v1,v2,x|u): I(Q; V1,V2,X | U)
    at most ``AUX_TOL``."""
    resid = mutual_information(t, {"Q"}, {"V1", "V2", "X"}, {"U"})
    raise_for_first(resid > AUX_TOL, InconsistentAux, lambda k: f"I(Q; V1,V2,X | U) = "
                    f"{resid[k]:.2e} violates the layered factorization")


def _evaluate(aux: AuxJoint, kind: str, refusal: str, fn) -> SystemStack:
    """``fn`` of the aux's table, a :class:`SystemStack` with one member per
    member of the aux.  InconsistentAux(``refusal``) unless the aux is of
    ``kind``."""
    if aux.kind != kind:
        raise InconsistentAux(refusal)
    return fn(aux.table)


def _output_joints(t: ProbTable, ch: ChannelSpec) -> tuple[ProbTable, ...]:
    """Joint tables over (aux vars..., out), one table per output taking over
    its own product, the outputs named Y1, Y2, Z by position,
    without materializing the full kernel.  A joint is the product of the
    checked aux and channel, so it is not checked again: its mass is the
    aux's mass weighted by the kernel's row sums, each within
    ``NORMALIZATION_TOL`` of 1, and can deviate from 1 by their sum."""
    return tuple(ProbTable(t.vars + (VarId(name, out.cardinality),),
                           np.einsum("...x,xw->...xw", t.probs, ch.pair_kernel(out.name)),
                           _fresh=True)
                 for name, out in zip(OUTPUTS, ch.outputs))


def _degraded_constants(t: ProbTable, ch: ChannelSpec) -> dict[str, np.ndarray]:
    """The five information quantities of the degraded regions, one value
    per member of the aux table ``t``."""
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
    return IneqSystem.of(RATES, [LinIneq.of(c, label=l) for c, l in rows])


# The rows of the five-bound region and of the per-message form, built once:
# every stack of either region shares them.
_FIVE_BOUNDS = _system([
    ({"Rs2": 1}, "rs2"),
    ({"Rs1": 1, "Rs2": 1}, "rs12"),
    ({"Rp2": 1, "Rs2": 1}, "rs2p2"),
    ({"Rs1": 1, "Rp2": 1, "Rs2": 1}, "rs12p2"),
    ({"Rp1": 1, "Rs1": 1, "Rp2": 1, "Rs2": 1}, "total"),
])
_PER_MESSAGE = _system([
    ({"Rp2": 1}, "rp2"),
    ({"Rs2": 1}, "rs2"),
    ({"Rp1": 1}, "rp1"),
    ({"Rs1": 1}, "rs1"),
])
_DEGRADED_AUX = "degraded-channel bounds take an aux over (U, X)"


def region_stack(rows: IneqSystem, columns) -> SystemStack:
    """The stack over ``rows`` whose right-hand sides are ``columns``, one per
    row: arrays of one length (a member per entry), or floats (a stack of one)."""
    return SystemStack(rows, np.stack(np.broadcast_arrays(*columns), axis=-1)
                       .reshape(-1, len(rows.ineqs)))


def five_bound_system(iuy2, iuz, ixy1_u, ixz, ixz_u) -> SystemStack:
    """Five-bound degraded-channel regions from their five information
    quantities I(U;Y2), I(U;Z), I(X;Y1|U), I(X;Z) and I(X;Z|U), whatever the
    input law (discrete auxiliaries, Gaussian covariances or scalar
    mixtures): one member per entry of the quantities (arrays of one length,
    or floats for a stack of one), each right-hand side summed in one fixed
    order."""
    return region_stack(_FIVE_BOUNDS, (iuy2 - iuz, iuy2 + ixy1_u - ixz, iuy2,
                                       iuy2 + ixy1_u - ixz_u, iuy2 + ixy1_u))


def _take(stack: SystemStack, keep) -> SystemStack:
    """The rows of ``stack`` at the indices ``keep``, with their columns."""
    return SystemStack(stack.rows.with_ineqs([stack.rows.ineqs[i] for i in keep]),
                       stack.rhs[:, keep])


def outer_of(inner: SystemStack) -> SystemStack:
    """Outer bound: the five-bound inner regions without the Rs1+Rp2+Rs2 row."""
    return _take(inner, [i for i, q in enumerate(inner.rows.ineqs) if q.label != "rs12p2"])


def eval_degraded_inner(aux: AuxJoint, ch: ChannelSpec) -> SystemStack:
    """Five-bound achievable region of the degraded channel for a fixed aux,
    one member per member of the aux, every information quantity computed
    once for all of them."""
    return _evaluate(aux, "ux", _DEGRADED_AUX,
                     lambda t: five_bound_system(**_degraded_constants(t, ch)))


def eval_degraded_outer(aux: AuxJoint, ch: ChannelSpec) -> SystemStack:
    """Outer bound of the degraded channel for a fixed aux."""
    return outer_of(eval_degraded_inner(aux, ch))


def eval_original_inner(aux: AuxJoint, ch: ChannelSpec) -> SystemStack:
    """Pre-elimination per-message form of an aux: each rate bounded
    individually.

    The public rates ride on the randomization the eavesdropper can resolve,
    so ``Rp2 <= I(U;Z)`` and ``Rp1 <= I(X;Z|U)``.
    """
    def per_message(t):
        c = _degraded_constants(t, ch)
        return region_stack(_PER_MESSAGE, (c["iuz"], c["iuy2"] - c["iuz"], c["ixz_u"],
                                           c["ixy1_u"] - c["ixz_u"]))
    return _evaluate(aux, "ux", _DEGRADED_AUX, per_message)


def eval_general_inner(aux: AuxJoint, ch: ChannelSpec) -> SystemStack:
    """Ten-bound layered inner region: the bundled chain's certified target
    (``data/elimination_chain/target.sys``, rows and labels in file order)
    evaluated on the aux and the channel's outputs, taken by position as Y1,
    Y2, Z.  The channel need not be degraded.  One member per member of the
    aux, from one instantiation of the target."""
    # fm_script imports this module, directly and through io_files, so it is
    # imported here; loading the target (once per process) derives no equality span
    from . import fm_script

    def evaluate(t):
        tables = (t, *_output_joints(t, ch))
        target = fm_script.load_fixture("target")
        rhs = instantiate(target, tables, fm_script.min_sym_values(
            tables, [q.rhs for q in target.ineqs])).rhs
        # each bound is a sum of entropies, so one that is 0 (a degenerate aux)
        # reads about +-1e-16; the clamped mutual informations it stands for give 0
        return SystemStack(target, np.where(np.abs(rhs) <= ZERO_BOUND_TOL, 0.0, rhs))
    return _evaluate(aux, "layered", "general inner bound takes a layered aux", evaluate)


def reduction_aux(aux: AuxJoint) -> AuxJoint:
    """Embed a (U, X) aux as a layered aux with Q constant, V2 = U, V1 = X,
    member by member."""
    if aux.kind != "ux":
        raise InconsistentAux("reduction embeds a (U, X) aux")
    p = aux.table.probs
    n, cu, cx = p.shape
    arr = np.zeros((n, 1, cu, cx, cu, cx))
    u, x = np.indices((cu, cx))
    arr[:, 0, u, x, u, x] = p
    return AuxJoint(take_stack(_aux_vars(LAYERED_VARS, (1, cu, cx, cu, cx)), arr))


def _prune_dominated(stack: SystemStack) -> SystemStack:
    """Drop the rows another row implies on the nonnegative orthant in every
    member: a row with at least another's coefficients and at most its
    right-hand side implies it, so the rows kept are those
    :func:`pareto_front` keeps of (coefficients, -rhs of every member)."""
    coeffs = np.array([[float(q.coeff(v)) for v in stack.vars] for q in stack.rows.ineqs],
                      dtype=float).reshape(-1, len(stack.vars))
    return _take(stack, _undominated(np.hstack([coeffs, -stack.rhs.T])))


def _zero_rates(stack: SystemStack, names) -> SystemStack:
    rows = [LinIneq.of({v: c for v, c in q.coeffs if v not in names}, q.rhs, q.rel, q.label)
            for q in stack.rows.ineqs]
    keep = [i for i, q in enumerate(rows) if q.coeffs]
    return SystemStack(IneqSystem.of([v for v in stack.vars if v not in names],
                                     [rows[i] for i in keep]), stack.rhs[:, keep])


def specialize_corollary(stack: SystemStack, which: str) -> SystemStack:
    """Specialize five- or four-bound regions by zeroing designated rates.

    ``cor1`` drops the first user's confidential message, ``cor2`` the second
    user's public message, ``cor3`` both public messages (the secrecy region),
    and ``cor3_alt`` is the alternate secrecy form with a standalone Rs1 bound
    (available only on inner regions, which carry the extra constraint).
    """
    if which == "cor1":
        return _prune_dominated(_zero_rates(stack, {"Rs1"}))
    if which == "cor2":
        return _prune_dominated(_zero_rates(stack, {"Rp2"}))
    if which == "cor3":
        return _prune_dominated(_zero_rates(stack, {"Rp1", "Rp2"}))
    if which == "cor3_alt":
        col = {q.label: i for i, q in enumerate(stack.rows.ineqs)}
        if "rs12p2" not in col:
            raise UnknownCorollary("alternate secrecy form needs the inner system")
        b = stack.rhs
        return region_stack(IneqSystem.of(("Rs1", "Rs2"), [
            LinIneq.of({"Rs2": 1}, label="rs2"), LinIneq.of({"Rs1": 1}, label="rs1")]),
            (b[:, col["rs2"]], b[:, col["rs12p2"]] - b[:, col["rs2p2"]]))
    raise UnknownCorollary(f"unknown specialization {which!r}")


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
    h = hashlib.sha256(np.round(probs, AUX_HASH_DECIMALS).tobytes())
    return h.hexdigest()[:12]


def hull_of(points: np.ndarray) -> np.ndarray:
    """Vertices of the convex hull of a point cloud, as rows of the cloud.  A
    cloud that Qhull refuses as flat is hulled inside its own affine span."""
    from scipy.spatial import ConvexHull, QhullError

    pts = unique_rows(np.round(points, HULL_DECIMALS) + 0.0)[0]   # + 0.0: no -0.0 from rounding
    if pts.shape[0] <= 1:
        return pts
    try:
        return pts[ConvexHull(pts).vertices]
    except QhullError:
        centred = pts - pts.mean(axis=0)
        _, sv, vt = np.linalg.svd(centred, full_matrices=False)
        coords = centred @ vt[:int((sv > HULL_RANK_RTOL * sv[0]).sum())].T
        if coords.shape[1] <= 1:
            return pts[[coords[:, 0].argmin(), coords[:, 0].argmax()]]
        return pts[ConvexHull(coords).vertices]


def dominance_slack(points, cloud) -> np.ndarray:
    """Smallest uniform slack s_k making ``points[k] - s_k`` dominated by a
    convex combination of the rows of ``cloud``, for every row of ``points``.

    The slack of p is ``min s`` over simplex weights lambda with
    ``cloud.T @ lambda + s >= p``.  Each row of ``points`` solves its dual
    block, ``max mu.p - t`` over simplex mu with ``mu.g <= t`` for every cloud
    row g.  The blocks are stacked block-diagonally, in order, into LPs of
    ``max(1, _DOMINANCE_ROWS // n)`` whole blocks of an n-row cloud (the last
    LP takes the rest), each solved at ``CERT_LP_OPTIONS``.  A block's row
    multipliers, clipped to >= 0 and renormalised, are weights lambda, and the
    value returned is ``max(p - cloud.T @ lambda)``: the slack that explicit
    combination of cloud rows achieves, an upper bound on the optimum.  The
    block's mu, clipped and renormalised, bounds it from below by weak
    duality: ``mu.p - max_g mu.g``.

    Raises LPFailure when the solver stops without an optimum, and when a
    point's bracket is wider than ``CERT_TOL * (1 + max|p|)``.
    """
    cloud = np.asarray(cloud, dtype=float)
    p = np.atleast_2d(np.asarray(points, dtype=float))
    (n, d), per_lp = cloud.shape, max(1, _DOMINANCE_ROWS // len(cloud))
    k = min(per_lp, len(p))
    # the rows of a full LP, built once; a shorter last LP takes their top-left corner
    A_ub = block_diagonal_csr([np.hstack([cloud, -np.ones((n, 1))])] * k)
    A_eq = block_diagonal_csr([np.append(np.ones(d), 0.0)[None, :]] * k)
    return np.concatenate([_dominance_lp(p[lo:lo + per_lp], cloud, lo, A_ub, A_eq)
                           for lo in range(0, len(p), per_lp)])


# Inequality rows of one dominance LP: HiGHS costs about 4.6 ms a call whatever
# its size on these LPs, plus about 1.5 KB of memory a row, so dominance_slack
# packs whole point blocks up to this many rows (a cloud of more rows gets one
# block an LP).  On a 2-vCPU x86 VM, `fisher evidence --budget 10` ops at 3,500
# rows took nearly the time they took at 4,000, with +3.5% peak memory over one
# LP a mixture where 4,000 rows gave +5%.
_DOMINANCE_ROWS = 3500


def _simplex_weights(w: np.ndarray) -> np.ndarray:
    w = np.clip(w, 0.0, None)
    return w / w.sum(axis=1, keepdims=True)


def _dominance_lp(p: np.ndarray, cloud: np.ndarray, first: int, A_ub, A_eq) -> np.ndarray:
    """The checked slacks of the rows of ``p`` from one LP of one block a
    row, its rows the top-left corner of the block-diagonal ``A_ub`` and
    ``A_eq``; ``first`` numbers the first row in an error."""
    (n, d), k = cloud.shape, len(p)
    # variables (mu, t) per block: minimize t - mu.p subject to cloud @ mu <= t, sum(mu) = 1;
    # always feasible (any simplex mu with t = max of cloud @ mu) and bounded
    # (t - mu.p >= mu.(g - p) for any cloud row g), so the solver returns an optimum
    c = np.hstack([-p, np.ones((k, 1))]).ravel()
    if A_eq.shape[0] > k:
        A_ub, A_eq = A_ub[:k * n, :k * (d + 1)], A_eq[:k, :k * (d + 1)]
    res = solve_lp(c, A_ub, np.zeros(k * n), A_eq, np.ones(k),
                   bounds=([(0, None)] * d + [(None, None)]) * k, what="dominance",
                   options=CERT_LP_OPTIONS)
    lam = _simplex_weights(-res.ineqlin.marginals.reshape(k, n))
    mu = _simplex_weights(res.x.reshape(k, d + 1)[:, :d])
    upper = (p - lam @ cloud).max(axis=1)
    lower = (mu * p).sum(axis=1) - (mu @ cloud.T).max(axis=1)
    # written so that a NaN bound fails too
    loose = ~(upper - lower <= CERT_TOL * (1 + np.abs(p).max(axis=1)))
    if loose.any():
        i = int(np.flatnonzero(loose)[0])
        raise LPFailure(f"dominance LP of point {first + i}: its slack bracket "
                        f"[{lower[i]:.6e}, {upper[i]:.6e}] is wider than "
                        f"{CERT_TOL:g} * (1 + max|p|)")
    return upper


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
    return AuxJoint(take_stack(_aux_vars(UX_VARS, arr.shape), arr[None]))


def _ux_probs(rng, card_u: int, card_x: int) -> np.ndarray:
    return rng.dirichlet(np.ones(card_u * card_x)).reshape(card_u, card_x)


def _layered_probs(rng, card_q, card_u, card_v1, card_v2, card_x, indep_v) -> np.ndarray:
    """A random layered aux array over (Q, U, V1, V2, X); ``indep_v`` draws V1
    and V2 independent given U, which keeps the joint-covering penalty at
    zero and the pair bound nonnegative far more often."""
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


def sweep_systems(tags, stack: SystemStack) -> SweepResult:
    """Merge the vertex clouds of the members of ``stack``, one sample each,
    tagged by ``tags``, into one sweep: a CSV row per sample, read from the
    stack's right-hand-side matrix, the point cloud and its hull.  A single
    :func:`vertices` call enumerates every sample against one set of bases
    and solves at most one recession LP."""
    vp = vertices(stack)
    return SweepResult(rates=RATES, points=vp.vertices,
                       rows=list(zip(range(len(tags)), tags, stack.rhs.tolist(),
                                     vp.counts.tolist())))


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
    tags, rhs = [], []
    for lo in range(0, budget, per_block):
        probs = np.stack([draw(i) for i in range(lo, min(lo + per_block, budget))])
        stack = evaluate(AuxJoint(take_stack(aux_vars, probs)), ch)
        tags += map(_aux_hash, probs)
        rhs.append(stack.rhs)
    return sweep_systems(tags, SystemStack(stack.rows, np.concatenate(rhs)))
