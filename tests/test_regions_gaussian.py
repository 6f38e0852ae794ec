import ast
import math
import pathlib

import numpy as np
import pytest

import wiretap_regions
from hull_oracle import in_hull
from wiretap_regions import regions_gaussian
from wiretap_regions.errors import (
    CapExceeded,
    NotDegraded,
    NotPSD,
    UnknownCorollary,
    ValidationError,
)
from wiretap_regions.polytope_fm import max_violation, region_equal, vertices
from wiretap_regions.regions_gaussian import (
    CovSplit,
    GaussChannel,
    HGaussChannel,
    construct_joint_noise,
    dpc_identity_check,
    dpc_matrix,
    eval_gauss_inner,
    eval_gauss_outer,
    eval_general_gauss,
    psd_leq,
    random_psd_under,
    specialize_gauss_corollary,
    sweep_covariances,
)

I1 = np.eye(1)

# frozen against 30-digit evaluation of the log-det expressions
SCALAR_FIXTURE = {
    "rs2": 0.052680257828913151,
    "rs12": 0.28768207245178093,
    "rs2p2": 0.14384103622589046,
    "rs12p2": 0.37884285084875824,
    "total": 0.49041462650586312,
}
HALF_LN2 = 0.34657359027997265


def scalar_channel():
    return GaussChannel(S=1.0 * I1, Sigma1=0.5 * I1, Sigma2=1.0 * I1, SigmaZ=2.0 * I1)


def rand_degraded(rng, d):
    a = rng.normal(size=(d, d))
    s1 = a @ a.T + 0.2 * np.eye(d)
    b = rng.normal(size=(d, d)) * 0.5
    s2 = s1 + b @ b.T
    c = rng.normal(size=(d, d)) * 0.5
    sz = s2 + c @ c.T
    e = rng.normal(size=(d, d))
    S = e @ e.T + 0.5 * np.eye(d)
    return GaussChannel(S=S, Sigma1=s1, Sigma2=s2, SigmaZ=sz)


def test_gauss_channel_refuses_entries_beyond_max_entry():
    # MAX_ENTRY itself is accepted; a larger or infinite entry is refused
    big = np.array([[1e300, 0.0], [0.0, 1e300]])
    assert GaussChannel(big, 0.5 * np.eye(2), np.eye(2), big).degraded
    for off in (2e300, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="Sigma2 has an entry of magnitude"):
            GaussChannel(np.eye(2), 0.5 * np.eye(2), np.array([[1.0, off], [off, 1.0]]),
                         2 * np.eye(2))


def test_degraded_order_examples():
    assert GaussChannel(I1, I1, I1, I1).degraded
    d2 = np.eye(2)
    assert not GaussChannel(d2, 2 * d2, d2, 2 * d2).degraded
    assert GaussChannel(np.eye(2), np.diag([0.5, 1.0]),
                        np.diag([1.0, 1.0]), np.diag([2.0, 3.0])).degraded


def test_degraded_H_examples():
    ch = HGaussChannel(np.eye(2), np.eye(2), np.eye(2))
    assert ch.degraded and np.allclose(ch.quotients[0], np.eye(2))
    ch = HGaussChannel(np.eye(2), 0.5 * np.eye(2), 0.25 * np.eye(2))
    assert ch.degraded and np.allclose(ch.quotients[0], 0.5 * np.eye(2))
    assert not HGaussChannel(np.eye(2), 2.0 * np.eye(2), np.eye(2)).degraded


def test_fixed_S_sweep_decides_degradedness_once(monkeypatch):
    # the order test is the only psd_leq call that compares against SigmaZ
    calls, real = [], regions_gaussian.psd_leq
    monkeypatch.setattr(regions_gaussian, "psd_leq",
                        lambda a, b: calls.append(b) or real(a, b))
    ch = scalar_channel()
    sweep_covariances(ch, budget=10, seed=3)
    assert sum(b is ch.SigmaZ for b in calls) == 1


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_psd_leq_slack_is_relative_to_the_larger_matrix(c):
    # one side zero: the slack scales with the other side, whichever it is
    zero = np.zeros((2, 2))
    assert psd_leq(zero, c * np.diag([1.0, -1e-12]))
    assert psd_leq(c * np.diag([-1.0, 1e-12]), zero)
    assert not psd_leq(zero, c * np.diag([1.0, -1e-9]))
    assert not psd_leq(c * np.diag([-1.0, 1e-9]), zero)
    assert list(psd_leq(np.stack([zero, c * np.diag([-1.0, 1e-9])]), zero)) == [True, False]


def test_stacked_split_gives_each_sample_its_lone_system():
    ch = GaussChannel(S=np.array([[2.0, 0.3], [0.3, 1.5]]), Sigma1=0.5 * np.eye(2),
                      Sigma2=np.eye(2), SigmaZ=2 * np.eye(2))
    K = random_psd_under(np.random.default_rng(8), ch.S, size=6)
    stacked = eval_gauss_inner(CovSplit(K=K), ch)
    alone = [eval_gauss_inner(CovSplit(K=k), ch) for k in K]
    assert stacked == alone
    # one cap check for the stack, naming the first sample over the cap
    K[[2, 4]] = 1.5 * ch.S
    with pytest.raises(CapExceeded, match="^instance 2: covariance allocation exceeds"):
        eval_gauss_inner(CovSplit(K=K), ch)


def test_trace_P_sweep_checks_the_channel_once(monkeypatch):
    # the caps of a sweep are one stack: how often the channel and the caps
    # are checked does not grow with the budget
    counts = {}
    for name in ("psd_leq", "check_pd"):
        real = getattr(regions_gaussian, name)
        monkeypatch.setattr(regions_gaussian, name,
                            lambda *a, _real=real, _name=name, **k:
                            counts.__setitem__(_name, counts.get(_name, 0) + 1) or _real(*a, **k))
    eye = np.eye(2)
    ch = GaussChannel(S=np.array([[2.0, 0.3], [0.3, 1.5]]), Sigma1=0.5 * eye, Sigma2=eye,
                      SigmaZ=2 * eye)
    assert ch.degraded
    made = []
    for budget in (10, 40):
        counts.clear()
        sweep_covariances(ch, budget=budget, seed=3, mode="trace_P")
        made.append(dict(counts))
    assert made[0] == made[1]
    assert made[0]["psd_leq"] <= 3


def test_only_scalar_of_reads_entry_0_0():
    # one scalar reader: every other [0, 0] read would need its own shape check
    for path in sorted(pathlib.Path(wiretap_regions.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            index = node.slice if isinstance(node, ast.Subscript) else None
            if (isinstance(index, ast.Tuple) and len(index.elts) == 2
                    and all(isinstance(e, ast.Constant) and e.value == 0 for e in index.elts)):
                around = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                owner = max(around, key=lambda f: f.lineno).name if around else None
                assert (path.name, owner) == ("regions_gaussian.py", "scalar_of"), \
                    f"[0, 0] read at {path.name}:{node.lineno}"


def test_joint_noise_scalar_forced_covariances():
    jn = construct_joint_noise(scalar_channel())
    assert jn[0, 1] == pytest.approx(0.5)
    assert jn[1, 2] == pytest.approx(1.0)


def test_joint_noise_degenerate_increment():
    ch = GaussChannel(I1, 0.7 * I1, 0.7 * I1, 1.0 * I1)
    jn = construct_joint_noise(ch)
    assert jn[0, 0] == jn[0, 1] == jn[1, 1]  # N2 = N1 exactly


def test_joint_noise_blocks_and_psd():
    rng = np.random.default_rng(21)
    for _ in range(10):
        vals = np.sort(rng.uniform(0.2, 3.0, size=(3, 2)), axis=0)
        ch = GaussChannel(np.eye(2), np.diag(vals[0]), np.diag(vals[1]), np.diag(vals[2]))
        jn = construct_joint_noise(ch)
        assert np.linalg.eigvalsh(jn).min() >= -1e-12
        assert np.allclose(jn[:2, :2][:1, :1], ch.Sigma1[:1, :1])
        assert np.allclose(jn[2:4, 2:4], ch.Sigma2)
        assert np.allclose(jn[4:, 4:], ch.SigmaZ)
    with pytest.raises(NotDegraded):
        construct_joint_noise(GaussChannel(I1, 2 * I1, I1, 2 * I1))


def test_scalar_fixture_bounds():
    sys = eval_gauss_inner(CovSplit(K=0.5 * I1), scalar_channel())
    by = {q.label: float(q.rhs) for q in sys.ineqs}
    for label, expect in SCALAR_FIXTURE.items():
        assert by[label] == pytest.approx(expect, abs=1e-9), label


def test_rs2_vanishes_at_full_allocation():
    sys = eval_gauss_inner(CovSplit(K=1.0 * I1), scalar_channel())
    assert float(sys.ineqs[0].rhs) == pytest.approx(0.0, abs=1e-12)


def test_rs2_vanishes_when_eavesdropper_equals_user2():
    ch = GaussChannel(S=1.0 * I1, Sigma1=0.5 * I1, Sigma2=2.0 * I1, SigmaZ=2.0 * I1)
    for k in (0.0, 0.3, 1.0):
        sys = eval_gauss_inner(CovSplit(K=k * I1), ch)
        assert float(sys.ineqs[0].rhs) == pytest.approx(0.0, abs=1e-12)


def test_outer_drops_extra_bound():
    ch = scalar_channel()
    inner = eval_gauss_inner(CovSplit(K=0.5 * I1), ch)
    outer = eval_gauss_outer(CovSplit(K=0.5 * I1), ch)
    assert [q.label for q in outer.ineqs] == ["rs2", "rs12", "rs2p2", "total"]
    inner_by = {q.label: float(q.rhs) for q in inner.ineqs}
    for q in outer.ineqs:
        assert float(q.rhs) == pytest.approx(inner_by[q.label], abs=0.0)


def test_zero_allocation_cancellations():
    ch = GaussChannel(S=1.0 * I1, Sigma1=0.5 * I1, Sigma2=2.0 * I1, SigmaZ=2.0 * I1)
    outer = eval_gauss_outer(CovSplit(K=0.0 * I1), ch)
    by = {q.label: float(q.rhs) for q in outer.ineqs}
    assert by["rs2"] == pytest.approx(0.0, abs=1e-12)
    assert by["rs2p2"] == pytest.approx(0.5 * math.log(1.5), abs=1e-12)


def test_cap_and_degradedness_errors():
    ch = scalar_channel()
    with pytest.raises(CapExceeded):
        eval_gauss_inner(CovSplit(K=2.0 * I1), ch)
    with pytest.raises(NotDegraded):
        eval_gauss_inner(CovSplit(K=0.5 * I1),
                         GaussChannel(I1, 2.0 * I1, I1, 3.0 * I1))
    with pytest.raises(NotPSD):
        CovSplit(K=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_inner_inside_outer_random():
    rng = np.random.default_rng(22)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        ch = rand_degraded(rng, d)
        split = CovSplit(K=random_psd_under(rng, ch.S))
        inner = eval_gauss_inner(split, ch)
        outer = eval_gauss_outer(split, ch)
        for p in vertices(inner).vertices:
            assert max_violation(outer, p, var_order=inner.vars) <= 1e-9


def test_corollaries_match_and_alt_form():
    rng = np.random.default_rng(23)
    for _ in range(5):
        ch = rand_degraded(rng, 2)
        split = CovSplit(K=random_psd_under(rng, ch.S))
        inner = eval_gauss_inner(split, ch)
        outer = eval_gauss_outer(split, ch)
        for which in ("cor4", "cor5", "cor6"):
            assert region_equal(specialize_gauss_corollary(inner, which),
                                specialize_gauss_corollary(outer, which))
        alt = specialize_gauss_corollary(inner, "cor6_alt")
        cor6 = specialize_gauss_corollary(inner, "cor6")
        for p in vertices(alt).vertices:
            assert max_violation(cor6, p, var_order=alt.vars) <= 1e-9
    with pytest.raises(UnknownCorollary):
        specialize_gauss_corollary(inner, "cor7")


def test_cor6_alt_union_matches_cor6_union():
    # unions over sampled K agree within sampling resolution
    ch = scalar_channel()
    ks = np.linspace(0.0, 1.0, 41)
    pts_alt, pts_c6 = [], []
    for k in ks:
        inner = eval_gauss_inner(CovSplit(K=k * I1), ch)
        pts_alt.append(vertices(specialize_gauss_corollary(inner, "cor6_alt")).vertices)
        pts_c6.append(vertices(specialize_gauss_corollary(inner, "cor6")).vertices)
    cloud_alt, cloud_c6 = np.vstack(pts_alt), np.vstack(pts_c6)
    for p in cloud_c6:
        assert in_hull(p, cloud_alt, tol=5e-3) or _dominated(p, cloud_alt, 5e-3)
    for p in cloud_alt:
        assert in_hull(p, cloud_c6, tol=5e-3) or _dominated(p, cloud_c6, 5e-3)


def _dominated(p, cloud, slack):
    from wiretap_regions.regions_discrete import dominance_slack
    return dominance_slack([p], cloud)[0] <= slack


def test_dpc_matrix_examples():
    assert np.allclose(dpc_matrix(np.zeros((2, 2)), np.eye(2)), 0.0)
    assert dpc_matrix(1.0 * I1, 1.0 * I1)[0, 0] == pytest.approx(0.5)
    rng = np.random.default_rng(24)
    for _ in range(10):
        a = rng.normal(size=(2, 2))
        k1 = a @ a.T
        b = rng.normal(size=(2, 2))
        s1 = b @ b.T + 0.3 * np.eye(2)
        A = dpc_matrix(k1, s1)
        assert np.abs(A @ k1 + A @ s1 - k1).max() <= 1e-12 * max(1, np.abs(k1).max())


def test_dpc_identity_scalar_fixture():
    ch = GaussChannel(S=2.0 * I1, Sigma1=1.0 * I1, Sigma2=1.5 * I1, SigmaZ=3.0 * I1)
    res = dpc_identity_check(1.0 * I1, 0.5 * I1, 0.25 * I1, ch)
    assert res <= 1e-9
    # the identity value itself is log(2)/2
    from wiretap_regions.regions_gaussian import logdet
    assert 0.5 * (logdet(1.0 * I1 + 1.0 * I1) - logdet(1.0 * I1)) == pytest.approx(
        HALF_LN2, abs=1e-12)


def test_dpc_identity_degenerate_splits():
    ch = GaussChannel(S=2.0 * I1, Sigma1=1.0 * I1, Sigma2=1.5 * I1, SigmaZ=3.0 * I1)
    assert dpc_identity_check(0.0 * I1, 0.5 * I1, 0.25 * I1, ch) <= 1e-12
    assert dpc_identity_check(1.0 * I1, 0.0 * I1, 0.25 * I1, ch) <= 1e-12


def test_general_gauss_reduction_to_inner():
    rng = np.random.default_rng(25)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        ch = rand_degraded(rng, d)
        K = random_psd_under(rng, ch.S)
        chS = GaussChannel(S=K + (ch.S - K) + 1e-12 * np.eye(d), Sigma1=ch.Sigma1,
                           Sigma2=ch.Sigma2, SigmaZ=ch.SigmaZ)
        split = CovSplit(K0=chS.S - K, K1=K, K2=np.zeros((d, d)))
        gen = eval_general_gauss(split, chS)
        inner = eval_gauss_inner(CovSplit(K=K), chS)
        assert region_equal(gen, inner)


def test_general_gauss_zero_split():
    # with a zero allocation the three secrecy bounds vanish; the bounds
    # anchored to the cap S keep the cloud-layer value min_j log|S+Sj|/|Sj| / 2
    ch = scalar_channel()
    split = CovSplit(K0=0.0 * I1, K1=0.0 * I1, K2=0.0 * I1)
    by = {q.label: float(q.rhs) for q in eval_general_gauss(split, ch).ineqs}
    for label in ("rs1", "rs2", "rs12"):
        assert by[label] == pytest.approx(0.0, abs=1e-12), label
    cap_term = min(0.5 * math.log(1.5 / 0.5), 0.5 * math.log(2.0 / 1.0))
    for label in ("rs1p1", "rs2p2", "rs1p1s2", "rs12p2", "total"):
        assert by[label] == pytest.approx(cap_term, abs=1e-12), label


def test_general_gauss_swap_symmetry():
    rng = np.random.default_rng(26)
    for _ in range(5):
        ch = rand_degraded(rng, 2)
        k0 = random_psd_under(rng, ch.S / 3)
        k1 = random_psd_under(rng, ch.S / 3)
        k2 = random_psd_under(rng, ch.S / 3)
        swapped_ch = GaussChannel(ch.S, ch.Sigma2, ch.Sigma1, ch.SigmaZ)
        a = eval_general_gauss(CovSplit(K0=k0, K1=k1, K2=k2), swapped_ch, order="12")
        b = eval_general_gauss(CovSplit(K0=k0, K1=k2, K2=k1), ch, order="21")
        swap = {"Rp1": "Rp2", "Rp2": "Rp1", "Rs1": "Rs2", "Rs2": "Rs1"}
        got = sorted((tuple(sorted((swap[v], c) for v, c in q.coeffs)), round(float(q.rhs), 12))
                     for q in a.ineqs)
        want = sorted((tuple(sorted(q.coeffs)), round(float(q.rhs), 12)) for q in b.ineqs)
        assert got == want


def test_bound_monotone_in_private_allocation():
    # the rs2p2 lead term shrinks as K grows along any PSD direction
    ch = scalar_channel()
    prev = np.inf
    for k in np.linspace(0.0, 1.0, 6):
        val = float(eval_gauss_inner(CovSplit(K=k * I1), ch).ineqs[2].rhs)
        assert val <= prev + 1e-12
        prev = val
    rng = np.random.default_rng(27)
    ch2 = rand_degraded(rng, 2)
    K0 = random_psd_under(rng, 0.25 * ch2.S)
    a = rng.normal(size=(2, 2))
    delta = a @ a.T
    delta *= 0.2 / np.linalg.eigvalsh(delta).max()
    prev = np.inf
    for t in np.linspace(0.0, 1.0, 6):
        K = K0 + t * delta
        if not np.all(np.linalg.eigvalsh(ch2.S - K) >= -1e-12):
            break
        val = float(eval_gauss_inner(CovSplit(K=K), ch2).ineqs[2].rhs)
        assert val <= prev + 1e-12
        prev = val


def test_sweep_modes_and_monotonicity():
    ch = scalar_channel()
    small = sweep_covariances(ch, budget=4, seed=9)
    big = sweep_covariances(ch, budget=10, seed=9)
    for p in small.hull_points:
        assert in_hull(p, big.points, tol=1e-9)
    traced = sweep_covariances(ch, budget=6, seed=9, mode="trace_P", trace_p=1.0)
    assert traced.points.shape[0] > 0
    with pytest.raises(ValidationError):
        sweep_covariances(ch, budget=6, seed=9, mode="trace")
    with pytest.raises(ValidationError):
        sweep_covariances(ch, budget=6, seed=9, trace_p=1.0)   # fixed_S reads no cap
    fixed = sweep_covariances(ch, budget=6, seed=10)
    for p in fixed.hull_points:
        assert _dominated(p, traced.points, 5e-2) or in_hull(p, traced.points, 1e-6)


@pytest.mark.parametrize("scale", [1e-12, 1e-3, 1.0, 1e12])
def test_sym_refuses_an_asymmetric_matrix_at_every_scale(scale):
    bad = scale * np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NotPSD, match="^symmetry residual"):
        regions_gaussian._sym(bad)
    # asymmetry of relative size 1e-14 is rounding noise, averaged away
    near = scale * np.array([[1.0, 0.5], [0.5 * (1 + 1e-14), 1.0]])
    assert np.array_equal(regions_gaussian._sym(near), 0.5 * (near + near.T))
    # in a stack, each matrix is held to its own scale
    with pytest.raises(NotPSD, match="^instance 1: symmetry residual"):
        regions_gaussian._sym(np.stack([1e12 * near / scale, bad]))
