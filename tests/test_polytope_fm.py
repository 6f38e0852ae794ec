import ast
import itertools
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wiretap_regions
from wiretap_regions import polytope_fm
from wiretap_regions.entropy_algebra import InfoExpr, sym
from wiretap_regions.errors import (
    DimensionTooLarge,
    DuplicateSlackName,
    LPFailure,
    RowsDiffer,
    UnboundedRegion,
    ZeroCoefficient,
)
from wiretap_regions.info_core import build_degraded_joint
from wiretap_regions.polytope_fm import (
    EQ,
    VERTEX_TOL,
    IneqSystem,
    LinIneq,
    _unique_points,
    apply_rate_transfer,
    block_diagonal_csr,
    fm_eliminate,
    instantiate,
    max_violation,
    region_equal,
    substitute_equality,
    support_value,
    vertices,
)
from wiretap_regions.regions_discrete import sweep_inner_region
from wiretap_regions.regions_gaussian import GaussChannel, sweep_covariances


def num_sys(varnames, rows):
    return IneqSystem.of(varnames, [LinIneq.of(c, float(r)) for c, r in rows])


def grid_membership(sys, varnames, pts):
    """Oracle: brute membership test of points against a numeric system plus
    the nonnegative orthant."""
    out = []
    for p in pts:
        ok = all(x >= -1e-12 for x in p)
        for q in sys.ineqs:
            lhs = sum(float(c) * p[varnames.index(v)] for v, c in q.coeffs)
            ok = ok and lhs <= float(q.rhs) + 1e-9
        out.append(ok)
    return out


def test_fm_projection_matches_sampling_oracle():
    # {x+y <= 2, x-y <= 1} in the orthant; eliminate x
    s = num_sys(("x", "y"), [({"x": 1, "y": 1}, 2), ({"x": 1, "y": -1}, 1)])
    proj = fm_eliminate(s, "x")
    ys = np.linspace(-0.5, 2.5, 200)
    got = grid_membership(proj, ("y",), [(y,) for y in ys])
    # oracle: y is in the projection iff some x >= 0 lifts it
    expect = []
    for y in ys:
        feasible = y >= 0 and min(2 - y, 1 + y) >= 0
        expect.append(bool(feasible))
    assert got == expect


def test_fm_absent_variable_noop():
    s = num_sys(("x", "y"), [({"x": 1}, 1)])
    assert fm_eliminate(s, "w") is s


def test_fm_soundness_random_systems():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        names = tuple(f"v{i}" for i in range(d))
        rows = []
        for _ in range(6):
            coeffs = {names[i]: float(np.round(rng.uniform(-2, 2), 3)) for i in range(d)}
            rows.append((coeffs, float(rng.uniform(0.5, 3.0))))
        s = num_sys(names, rows)
        target = names[-1]
        proj = fm_eliminate(s, target)
        for _ in range(100):
            p = rng.uniform(0, 2, size=d - 1)
            in_proj = all(
                sum(float(c) * p[list(proj.vars).index(v)] for v, c in q.coeffs)
                <= float(q.rhs) + 1e-9 for q in proj.ineqs)
            # 1-D lift feasibility: intersect the interval constraints on target
            lo, hi = 0.0, np.inf
            feasible = True
            for q in s.ineqs:
                a = float(q.coeff(target))
                rest = sum(float(c) * p[names.index(v)] for v, c in q.coeffs if v != target)
                slack = float(q.rhs) - rest
                if a > 0:
                    hi = min(hi, slack / a)
                elif a < 0:
                    lo = max(lo, slack / a)
                elif slack < -1e-9:
                    feasible = False
            liftable = feasible and lo <= hi + 1e-9
            assert in_proj == liftable


def test_substitute_equality_simple():
    s = num_sys(("x", "y"), [({"x": 1, "y": 1}, 3)])
    out = substitute_equality(s, LinIneq.of({"x": 1}, 1.0, rel=EQ))
    assert out.vars == ("y",)
    [q] = [q for q in out.ineqs if q.coeffs]
    assert q.coeff("y") == 1 and float(q.rhs) == 2.0


def test_substitute_equality_noop_when_var_absent():
    s = num_sys(("y",), [({"y": 1}, 3)])
    out = substitute_equality(s, LinIneq.of({"x": 1}, 1.0, rel=EQ), "x")
    assert out is s


def test_substitute_zero_coefficient():
    with pytest.raises(ZeroCoefficient):
        substitute_equality(num_sys(("x",), [({"x": 1}, 1)]),
                            LinIneq.of({"x": 1}, 1.0, rel=EQ), "y")


def test_transfer_zero_is_contained():
    # after a transfer the old region (slack = 0) stays feasible
    s = num_sys(("Rs", "Rp"), [({"Rs": 1}, 1.0), ({"Rp": 1, "Rs": 1}, 1.5)])
    t = apply_rate_transfer(s, [("Rs", "Rp")], ["t0"])
    proj = fm_eliminate(t, "t0")
    for p in vertices(s).vertices:
        assert max_violation(proj, p, var_order=s.vars) <= 1e-9


def test_transfer_fresh_destination():
    # {Rs <= c} with a transfer into a new variable: membership oracle on a grid
    s = num_sys(("Rs",), [({"Rs": 1}, 1.0)])
    t = apply_rate_transfer(s, [("Rs", "Rp")], ["t0"])
    proj = fm_eliminate(t, "t0")
    assert set(proj.vars) == {"Rs", "Rp"}
    for rs in np.linspace(0, 1.4, 15):
        for rp in np.linspace(0, 1.4, 15):
            lifted = rp + rs <= 1.0 + 1e-12
            p = [rs if v == "Rs" else rp for v in proj.vars]
            assert (max_violation(proj, p) <= 1e-9) == lifted


def test_transfer_duplicate_slack():
    s = num_sys(("Rs", "Rp"), [({"Rs": 1}, 1)])
    with pytest.raises(DuplicateSlackName):
        apply_rate_transfer(s, [("Rs", "Rp")], ["Rs"])


def test_vertices_unit_square():
    s = num_sys(("x", "y"), [({"x": 1}, 1), ({"y": 1}, 1)])
    got = sorted(map(tuple, np.round(vertices(s).vertices, 9)))
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_vertices_simplex():
    s = num_sys(("x", "y", "z"), [({"x": 1, "y": 1, "z": 1}, 1)])
    assert vertices(s).vertices.shape[0] == 4


def exact_vertex_oracle(rows, d):
    """Independent exact enumeration with Fraction arithmetic."""
    import fractions
    A = [[fractions.Fraction(r[0].get(i, 0)) for i in range(d)] for r in rows]
    b = [fractions.Fraction(r[1]) for r in rows]
    for i in range(d):
        A.append([fractions.Fraction(-int(i == j)) for j in range(d)])
        b.append(fractions.Fraction(0))
    verts = set()
    for idx in itertools.combinations(range(len(A)), d):
        M = [[A[i][j] for j in range(d)] for i in idx]
        rhs = [b[i] for i in idx]
        # Gaussian elimination over Fractions
        M = [row[:] for row in M]
        rhs = rhs[:]
        sing = False
        for col in range(d):
            piv = next((r for r in range(col, d) if M[r][col] != 0), None)
            if piv is None:
                sing = True
                break
            M[col], M[piv] = M[piv], M[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = M[col][col]
            M[col] = [x / inv for x in M[col]]
            rhs[col] = rhs[col] / inv
            for r in range(d):
                if r != col and M[r][col] != 0:
                    f = M[r][col]
                    M[r] = [x - f * y for x, y in zip(M[r], M[col])]
                    rhs[r] = rhs[r] - f * rhs[col]
        if sing:
            continue
        x = rhs
        if all(sum(A[i][j] * x[j] for j in range(d)) <= b[i] for i in range(len(A))):
            verts.add(tuple(float(v) for v in x))
    return sorted(verts)


def test_vertices_against_exact_oracle():
    # a five-bound rate system with hand-picked constants
    consts = {"rs2": 0.2, "rs12": 0.55, "rs2p2": 0.3, "rs12p2": 0.65, "total": 0.8}
    rows = [
        ({3: 1}, consts["rs2"]),
        ({1: 1, 3: 1}, consts["rs12"]),
        ({2: 1, 3: 1}, consts["rs2p2"]),
        ({1: 1, 2: 1, 3: 1}, consts["rs12p2"]),
        ({0: 1, 1: 1, 2: 1, 3: 1}, consts["total"]),
    ]
    oracle = exact_vertex_oracle(rows, 4)
    names = ("Rp1", "Rs1", "Rp2", "Rs2")
    sys = num_sys(names, [({names[i]: c for i, c in r.items()}, v) for r, v in rows])
    got = sorted(map(tuple, np.round(vertices(sys).vertices, 9)))
    oracle_rounded = sorted(set(tuple(np.round(p, 9)) for p in oracle))
    assert got == oracle_rounded


def test_vertices_unbounded_raises():
    s = num_sys(("x", "y"), [({"x": 1}, 1)])
    with pytest.raises(UnboundedRegion):
        vertices(s)


_DYADIC = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def _mixed_sign_system(draw):
    d = draw(st.integers(1, 3))
    names = tuple(f"v{i}" for i in range(d))
    rows = draw(st.lists(st.tuples(st.lists(_DYADIC, min_size=d, max_size=d), _DYADIC),
                         max_size=5))
    return num_sys(names, [(dict(zip(names, a)), b) for a, b in rows])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_mixed_sign_system())
def test_vertices_decide_emptiness_and_boundedness_like_the_lps(s):
    empty = support_value([(s, [{}])])[0][0] == float("-inf")
    unbounded = not empty and support_value([(s, [{v: 1 for v in s.vars}])])[0][0] is None
    try:
        got = vertices(s).vertices
    except UnboundedRegion:
        assert unbounded
        return
    assert not unbounded
    assert (got.shape[0] == 0) == empty


_HALF = st.integers(-4, 4).map(lambda k: k / 2)


@st.composite
def _shared_rows_with_rhs_list(draw):
    d = draw(st.integers(1, 4))
    names = tuple(f"v{i}" for i in range(d))
    rows = draw(st.lists(st.lists(_HALF, min_size=d, max_size=d), max_size=4))
    # a first row v0 <= b0 makes every draw with b0 < 0 empty, between nonempty ones
    coeffs = [{names[0]: 1}] + [dict(zip(names, a)) for a in rows]
    rhs_list = draw(st.lists(st.lists(_HALF, min_size=len(coeffs), max_size=len(coeffs)),
                             min_size=2, max_size=6))
    return [num_sys(names, list(zip(coeffs, b))) for b in rhs_list]


def _vertices_or_unbounded(s):
    try:
        return vertices(s).vertices
    except UnboundedRegion:
        return "unbounded"


def _stacked(systems):
    try:
        vp = vertices(systems)
    except UnboundedRegion:
        return "unbounded"
    return vp.vertices, vp.counts.tolist()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_shared_rows_with_rhs_list())
def test_stacked_vertices_match_the_lone_calls_bit_for_bit(systems):
    alone = [_vertices_or_unbounded(s) for s in systems]
    got = _stacked(systems)
    # a nonempty unbounded member raises, as its lone call does
    if any(isinstance(v, str) for v in alone):
        assert got == "unbounded"
        return
    assert not isinstance(got, str)
    points, counts = got
    assert counts == [len(v) for v in alone]            # an empty member counts 0
    assert points.tobytes() == np.concatenate(alone).tobytes()
    with mock.patch.object(polytope_fm, "_BLOCK_SOLVES", 1):
        one_by_one = _stacked(systems)
    assert one_by_one[0].tobytes() == points.tobytes() and one_by_one[1] == counts


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_shared_rows_with_rhs_list())
def test_shared_recession_verdict_matches_one_lp_per_call(systems):
    whats, real = [], polytope_fm.solve_lp

    def solve_lp(*args, what="LP", **kw):
        whats.append(what)
        return real(*args, what=what, **kw)

    alone = [_vertices_or_unbounded(s) for s in systems]
    with mock.patch.object(polytope_fm, "solve_lp", solve_lp):
        got = _stacked(systems)
    assert whats == (["recession"] if any(len(v) for v in alone) else [])
    assert isinstance(got, str) == any(isinstance(v, str) for v in alone)


def test_shared_recession_verdict_keys_on_the_row_shape():
    # both coefficient matrices hold the bytes of 1, -1, -1, 1, and each
    # alone gets its own verdict; stacked, they do not share their rows
    unbounded = num_sys(("x", "y"), [({"x": 1, "y": -1}, 1), ({"x": -1, "y": 1}, 1)])
    bounded = num_sys(("x",), [({"x": 1}, 1), ({"x": -1}, 1), ({"x": -1}, 2),
                               ({"x": 1}, 2)])
    assert _vertices_or_unbounded(unbounded) == "unbounded"
    assert _vertices_or_unbounded(bounded).tolist() == [[0.0], [1.0]]
    for pair in ((unbounded, bounded), (bounded, unbounded)):
        with pytest.raises(RowsDiffer):
            vertices(pair)
    # equal rows over other variables, or other rows over the same variables
    renamed = num_sys(("x", "z"), [({"x": 1, "z": -1}, 1), ({"x": -1, "z": 1}, 1)])
    other = num_sys(("x", "y"), [({"x": 1, "y": -1}, 1), ({"x": -1, "y": 2}, 1)])
    for s in (renamed, other):
        with pytest.raises(RowsDiffer):
            vertices([unbounded, s])


def test_vertices_solve_one_recession_lp_a_call_without_a_shared_verdict(lp_whats):
    sq = num_sys(("x", "y"), [({"x": 1}, 1), ({"y": 1}, 2)])
    vertices(sq)
    assert lp_whats == ["recession"]
    vertices(sq)
    assert lp_whats == ["recession"] * 2


def _readme_channel_sweep():
    stages = [np.array([[1 - p, p], [p, 1 - p]]) for p in (0.05, 0.1, 0.15)]
    return sweep_inner_region(build_degraded_joint(*stages), budget=20)


def _covariance_sweep_2x2():
    eye = np.eye(2)
    ch = GaussChannel(S=np.array([[2.0, 0.3], [0.3, 1.5]]), Sigma1=0.5 * eye, Sigma2=eye,
                      SigmaZ=2 * eye)
    return sweep_covariances(ch, budget=10, seed=4)


@pytest.mark.parametrize("sweep", [_readme_channel_sweep, _covariance_sweep_2x2])
def test_a_sweep_solves_one_recession_lp(lp_whats, sweep):
    res = sweep()
    assert sum(n > 0 for *_, n in res.rows) > 1
    assert lp_whats == ["recession"]


def test_failed_recession_lp_leaves_no_shared_verdict(monkeypatch):
    # a failed LP raises and is not remembered: the next call solves its own
    import wiretap_regions.polytope_fm as pf

    whats, real = [], pf.solve_lp

    def solve_lp(*args, what="LP", **kw):
        whats.append(what)
        if len(whats) == 1:
            raise LPFailure(f"{what} LP failed with status 4: numerical difficulties")
        return real(*args, what=what, **kw)

    monkeypatch.setattr(pf, "solve_lp", solve_lp)
    stack = [num_sys(("x", "y"), [({"x": 1}, b), ({"y": 1}, 2)]) for b in (1, 3)]
    with pytest.raises(LPFailure):
        vertices(stack)
    assert vertices(stack).counts.tolist() == [4, 4]
    assert whats == ["recession"] * 2


def two_pass_unique(pts, tol):
    """Reference: the lexsort-neighbour pass, then the all-pairs sweep on its
    survivors, one point pair at a time."""
    pts = pts[np.lexsort(pts.T[::-1])]
    keep = [0]
    for i in range(1, pts.shape[0]):
        if np.abs(pts[i] - pts[keep[-1]]).max() > tol:
            keep.append(i)
    uniq = []
    for p in pts[keep]:
        if not any(np.abs(p - q).max() <= tol for q in uniq):
            uniq.append(p)
    return np.array(uniq)


@st.composite
def _cloud_with_near_duplicates(draw):
    d = draw(st.integers(1, 4))
    base = draw(st.lists(st.lists(_DYADIC, min_size=d, max_size=d), min_size=1, max_size=6))
    offsets = st.sampled_from([0.0, VERTEX_TOL / 2, -VERTEX_TOL / 2,
                               2 * VERTEX_TOL, -2 * VERTEX_TOL])
    copies = draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                     st.lists(offsets, min_size=d, max_size=d)), max_size=12))
    rows = base + [[x + o for x, o in zip(base[i], offs)] for i, offs in copies]
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_cloud_with_near_duplicates())
def test_unique_points_matches_the_two_pass_loop(pts):
    got = _unique_points(pts, VERTEX_TOL)
    np.testing.assert_array_equal(got, two_pass_unique(pts, VERTEX_TOL))
    assert got.dtype == pts.dtype


def test_vertices_dimension_cap():
    names = tuple(f"v{i}" for i in range(7))
    s = num_sys(names, [({n: 1 for n in names}, 1)])
    with pytest.raises(DimensionTooLarge):
        vertices(s)


def test_region_equal_cases():
    sq = num_sys(("x", "y"), [({"x": 1}, 1), ({"y": 1}, 1)])
    assert region_equal(sq, sq)
    redundant = num_sys(("x", "y"), [({"x": 1}, 1), ({"y": 1}, 1), ({"x": 1, "y": 1}, 5)])
    assert region_equal(sq, redundant)
    tri = num_sys(("x", "y"), [({"x": 1, "y": 1}, 1)])
    assert not region_equal(sq, tri)


def test_support_value_and_infeasible():
    sq = num_sys(("x", "y"), [({"x": 1}, 1), ({"y": 1}, 2)])
    assert support_value([(sq, [{"x": 1, "y": 1}])])[0][0] == pytest.approx(3.0)
    empty = num_sys(("x",), [({"x": 1}, -1)])
    assert support_value([(empty, [{"x": 1}])])[0][0] == float("-inf")
    unb = num_sys(("x", "y"), [({"x": 1}, 1)])
    assert support_value([(unb, [{"y": 1}])])[0][0] is None


def test_support_value_answers_each_objective_from_two_lps(lp_whats):
    # a nonempty region costs the classification LP and one support LP; an
    # empty one only the classification LP
    sq = num_sys(("x", "y"), [({"x": 1}, 1), ({"y": 1}, 2)])
    assert support_value([(sq, [{"x": 1}, {"x": 1, "y": 1}, {"y": -1}])])[0] == \
        [pytest.approx(1.0), pytest.approx(3.0), pytest.approx(0.0)]
    assert lp_whats == ["support"] * 2
    empty = num_sys(("x",), [({"x": 1}, -1)])
    assert support_value([(empty, [{"x": 1}, {"x": -1}])])[0] == [float("-inf")] * 2
    assert lp_whats == ["support"] * 3


def test_unbounded_support_is_not_read_as_empty():
    # x = 0 is feasible and x1 = x2 = t is a ray; HiGHS's presolve calls this
    # LP infeasible
    s = num_sys(("x0", "x1", "x2"), [({"x0": 1, "x1": 1, "x2": -1}, 0),
                                     ({"x0": 1, "x1": -1, "x2": 1}, 1)])
    assert support_value([(s, [{"x0": 1, "x1": 1, "x2": 1}])])[0] == [None]


def test_unbounded_stacked_lp_solves_each_objective_alone(lp_whats):
    # the classification LP finds y unbounded; the support LP gets the other two
    unb = num_sys(("x", "y"), [({"x": 1}, 1)])
    assert support_value([(unb, [{"x": 1}, {"y": 1}, {"y": -1}])])[0] == \
        [pytest.approx(1.0), None, pytest.approx(0.0)]
    assert lp_whats == ["support"] * 2


def test_unbounded_lp_of_unknown_status_is_classified():
    # HiGHS without presolve ends this one-direction support LP in model
    # status "unknown"; the recession block of the classification LP says
    # unbounded
    s = num_sys(("v0", "v1"), [({"v0": -2, "v1": 1.5}, 0.25), ({"v0": -1.75, "v1": -1}, 2)])
    assert support_value([(s, [{"v0": 2, "v1": -1}])]) == [[None]]


@st.composite
def _support_job(draw):
    """A numeric system of mixed-sign rows, some of them equalities, and up to
    three directions over it: empty, unbounded and bounded regions all occur."""
    d = draw(st.integers(1, 3))
    names = tuple(f"v{i}" for i in range(d))
    rows = draw(st.lists(st.tuples(st.lists(_DYADIC, min_size=d, max_size=d), _DYADIC,
                                   st.sampled_from(["<=", "<=", "<=", EQ])), max_size=5))
    sys = IneqSystem.of(names, [LinIneq.of(dict(zip(names, a)), b, rel)
                                for a, b, rel in rows])
    objectives = draw(st.lists(st.lists(_DYADIC, min_size=d, max_size=d), max_size=3))
    return sys, [dict(zip(names, w)) for w in objectives]


def _support_alone(sys, objective):
    """One LP for one direction at the certification options, without
    presolve as ``solve_lp`` runs it: ``-inf`` when it is infeasible,
    ``None`` when it is unbounded.  It reads the solver's status itself,
    since ``solve_lp`` refuses every LP that does not end optimal."""
    import scipy.optimize

    import wiretap_regions.polytope_fm as pf

    d = len(sys.vars)

    def dense(coeffs):
        row = np.zeros(d)
        for v, c in coeffs:
            row[sys.vars.index(v)] = float(c)
        return row

    ub = [q for q in sys.ineqs if q.rel != EQ]
    eq = [q for q in sys.ineqs if q.rel == EQ]
    res = scipy.optimize.linprog(
        -dense(objective.items()),
        np.array([dense(q.coeffs) for q in ub]).reshape(-1, d), [q.rhs for q in ub],
        np.array([dense(q.coeffs) for q in eq]).reshape(-1, d), [q.rhs for q in eq],
        method="highs", options={**pf.CERT_LP_OPTIONS, "presolve": False})
    if res.status not in (0, 2, 3):
        raise LPFailure(f"reference LP failed with status {res.status}")
    if res.status == 0:
        return -res.fun
    return float("-inf") if res.status == 2 else None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_support_job(), min_size=2, max_size=5))
def test_batched_support_values_equal_each_job_alone(jobs):
    batched = support_value(jobs)
    try:
        alone = [[_support_alone(sys, o) for o in objectives] for sys, objectives in jobs]
    except LPFailure:
        assume(False)   # the one-direction reference itself ended in status 4

    def pattern(vals):
        return [v if v is None or v == float("-inf") else "value" for v in vals]

    assert [pattern(v) for v in batched] == [pattern(v) for v in alone]
    for got, want in zip(batched, alone):
        for g, w in zip(got, want):
            if g is not None and g != float("-inf"):
                assert abs(g - w) <= 1e-9


def test_batched_support_values_cost_two_lps(lp_whats):
    sq = num_sys(("x", "y"), [({"x": 1}, 1), ({"y": 1}, 2)])
    empty = num_sys(("x",), [({"x": 1}, -1)])
    pinned = IneqSystem.of(("x",), [LinIneq.of({"x": 1}, 0.5, rel=EQ)])
    assert support_value([(sq, [{"x": 1}, {"x": 1, "y": 1}]), (empty, [{"x": 1}]),
                          (pinned, [{"x": 1}, {"x": -1}])]) == \
        [[pytest.approx(1.0), pytest.approx(3.0)], [float("-inf")],
         [pytest.approx(0.5), pytest.approx(-0.5)]]
    assert lp_whats == ["support"] * 2


def test_support_lps_store_no_explicit_zeros(monkeypatch):
    real, stored = polytope_fm.solve_lp, []

    def solve_lp(c, A_ub, b_ub, A_eq, b_eq, **kw):
        stored.extend(m for m in (A_ub, A_eq) if m.shape[0])
        return real(c, A_ub, b_ub, A_eq, b_eq, **kw)

    monkeypatch.setattr(polytope_fm, "solve_lp", solve_lp)
    sq = num_sys(("x", "y"), [({"x": 1}, 1), ({"y": 1}, 2), ({"x": 1, "y": 1}, 2.5)])
    pinned = IneqSystem.of(("x", "y"), [LinIneq.of({"x": 1}, 0.5, rel=EQ)])
    assert support_value([(sq, [{"x": 1, "y": 1}]), (pinned, [{"x": 1}])]) == \
        [[pytest.approx(2.5)], [pytest.approx(0.5)]]
    assert stored and all(m.nnz == m.count_nonzero() for m in stored)


def _patched_support_lp(monkeypatch, which, change):
    """Hand the result of LP number ``which`` (1: the classification LP, 2:
    the support LP) to ``change``."""
    import wiretap_regions.polytope_fm as pf

    real, calls = pf.solve_lp, []

    def solve_lp(*args, **kw):
        calls.append(args)
        res = real(*args, **kw)
        return change(res) if len(calls) == which else res

    monkeypatch.setattr(pf, "solve_lp", solve_lp)


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("status", [2, 3, 4])
def test_support_lp_that_does_not_end_optimal_raises(monkeypatch, which, status):
    # the solver's own verdict, as solve_lp receives it
    import scipy.optimize

    real, calls = scipy.optimize.linprog, []

    def linprog(*args, **kw):
        calls.append(args)
        res = real(*args, **kw)
        return scipy.optimize.OptimizeResult(status=status, message="patched", x=None,
                                             fun=None) if len(calls) == which else res

    monkeypatch.setattr(scipy.optimize, "linprog", linprog)
    sq = num_sys(("x", "y"), [({"x": 1}, 1), ({"y": 1}, 2)])
    with pytest.raises(LPFailure, match=f"support LP failed with status {status}"):
        support_value([(sq, [{"x": 1}]), (sq, [{"y": 1}])])


@pytest.mark.parametrize("which", [1, 2])
def test_support_point_outside_its_rows_raises(monkeypatch, which):
    def shifted(res):
        res.x = res.x + 1e-8
        return res

    _patched_support_lp(monkeypatch, which, shifted)
    sq = num_sys(("x", "y"), [({"x": 1}, 1), ({"y": 1}, 2)])
    with pytest.raises(LPFailure, match="violates its rows"):
        support_value([(sq, [{"x": 1}]), (sq, [{"y": 1}])])


def test_lp_solver_failure_raises(monkeypatch):
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: scipy.optimize.OptimizeResult(
        status=4, message="numerical difficulties", x=None, fun=None))
    sq = num_sys(("x", "y"), [({"x": 1}, 1), ({"y": 1}, 2)])
    with pytest.raises(LPFailure, match="recession LP failed with status 4"):
        vertices(sq)
    with pytest.raises(LPFailure, match="support LP failed with status 4"):
        support_value([(sq, [{"x": 1}])])[0][0]


def test_linprog_is_named_only_in_solve_lp():
    # one LP entry point with one outcome rule: a second call site, or a
    # caller reading an LP's status, would need its own status policy
    for path in sorted(pathlib.Path(wiretap_regions.__file__).parent.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        funcs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]

        def owner(lineno):
            around = [f for f in funcs if f.lineno <= lineno <= f.end_lineno]
            return max(around, key=lambda f: f.lineno).name if around else None

        lines = [i for i, line in enumerate(text.splitlines(), 1) if "linprog" in line]
        lines += [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                  and n.attr == "status"]
        for lineno in lines:
            assert (path.name, owner(lineno)) == ("polytope_fm.py", "solve_lp"), \
                f"linprog or an LP status named at {path.name}:{lineno}"


# entries with many zeros, so blocks hold zero rows, zero columns and
# all-zero blocks
_ENTRY = st.one_of(st.just(0.0), st.just(0.0), st.sampled_from([1.0, -1.0, 0.5]),
                   st.floats(-1e3, 1e3, allow_subnormal=False))


@st.composite
def _dense_blocks(draw):
    """1-5 dense blocks of 0-4 rows and 1-4 columns: some all zero, some
    without rows (a support job's empty ``A_eq``)."""
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        rows, cols = draw(st.integers(0, 4)), draw(st.integers(1, 4))
        entry = st.just(0.0) if draw(st.integers(0, 4)) == 0 else _ENTRY
        blocks.append(np.array(draw(st.lists(entry, min_size=rows * cols,
                                             max_size=rows * cols))).reshape(rows, cols))
    return blocks


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_dense_blocks())
def test_block_diagonal_csr_stores_only_the_blocks_nonzeros(blocks):
    from scipy.linalg import block_diag

    got = block_diagonal_csr(blocks)
    np.testing.assert_array_equal(got.toarray(), block_diag(*blocks))
    assert (got.data != 0).all()


def test_elimination_order_invariance():
    # projecting out two variables in either order yields the same region
    rng = np.random.default_rng(19)
    for _ in range(5):
        names = ("a", "b", "c", "d")
        rows = []
        for _ in range(7):
            coeffs = {n: float(np.round(rng.uniform(-1.5, 2.0), 3)) for n in names}
            rows.append((coeffs, float(rng.uniform(1.0, 3.0))))
        s = num_sys(names, rows)
        p1 = fm_eliminate(fm_eliminate(s, "c"), "d")
        p2 = fm_eliminate(fm_eliminate(s, "d"), "c")
        assert region_equal(p1, p2)


_NONZERO_QUARTER = st.sampled_from([k / 4 for k in range(-8, 9) if k])


@st.composite
def _symbolic_projection_case(draw):
    """A system over 2-3 rates with coefficients on a 1/4 grid and right-hand
    sides combining 2-3 symbols, the rate to eliminate, values for the
    symbols and dyadic directions over the remaining rates.  The first row
    has positive coefficients, so every instantiation is bounded; an optional
    equality row mentions the eliminated rate, so elimination substitutes it."""
    d = draw(st.integers(2, 3))
    names = tuple(f"v{i}" for i in range(d))
    syms = ("a", "b", "c")[:draw(st.integers(2, 3))]

    def coeffs():
        return draw(st.lists(_DYADIC, min_size=d, max_size=d))

    def rhs():
        return sum((sym(n) * draw(_DYADIC) for n in syms), InfoExpr(constant=draw(_DYADIC)))

    var = draw(st.sampled_from(names))
    box = draw(st.lists(st.integers(1, 8).map(lambda k: k / 4), min_size=d, max_size=d))
    rows = [LinIneq.of(dict(zip(names, box)), rhs())]
    rows += [LinIneq.of(dict(zip(names, coeffs())), rhs())
             for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        eq = dict(zip(names, coeffs()))
        eq[var] = draw(_NONZERO_QUARTER)
        rows.append(LinIneq.of(eq, rhs(), rel=EQ))
    values = dict(zip(syms, draw(st.lists(st.integers(0, 12).map(lambda k: k / 4),
                                          min_size=len(syms), max_size=len(syms)))))
    directions = draw(st.lists(st.lists(_DYADIC, min_size=d - 1, max_size=d - 1),
                               min_size=1, max_size=3))
    return IneqSystem.of(names, rows), var, values, directions


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_symbolic_projection_case())
def test_fm_projection_commutes_with_instantiation_and_keeps_support_values(case):
    s, var, values, directions = case
    stacked = {n: np.array([v]) for n, v in values.items()}
    projected = instantiate(fm_eliminate(s, var), (), stacked)[0]
    numeric = instantiate(s, (), stacked)[0]
    assert region_equal(projected, fm_eliminate(numeric, var))
    for w in directions:
        objective = dict(zip(projected.vars, w))
        got = support_value([(projected, [objective])])[0][0]
        want = support_value([(numeric, [{**objective, var: 0.0}])])[0][0]
        if want == float("-inf"):
            assert got == want
        else:
            assert abs(got - want) <= 1e-9


def test_transfer_monotone_on_instantiations():
    rng = np.random.default_rng(8)
    for _ in range(5):
        c = np.sort(rng.uniform(0.2, 1.0, size=3))
        s = num_sys(("Rp", "Rs"), [({"Rs": 1}, c[0]), ({"Rp": 1, "Rs": 1}, c[2])])
        t = fm_eliminate(apply_rate_transfer(s, [("Rs", "Rp")], ["t0"]), "t0")
        for p in vertices(s).vertices:
            assert max_violation(t, p, var_order=s.vars) <= 1e-9
