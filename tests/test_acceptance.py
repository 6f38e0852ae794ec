"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget."""

import math
import time

import numpy as np
import pytest

from wiretap_regions.fisher_lab import (
    ScalarMixture,
    debruijn_check,
    interpolation_t_star,
    lemma_suite_check,
    mixture_cond_fisher,
    random_gauss_pair,
    random_mixture,
    sufficiency_evidence_scalar,
)
from wiretap_regions.fm_script import verify_builtin_chain
from wiretap_regions.info_core import build_degraded_joint
from wiretap_regions.polytope_fm import (
    apply_rate_transfer,
    fm_eliminate,
    max_violation,
    region_equal,
    vertices,
)
from wiretap_regions.regions_discrete import (
    eval_degraded_inner,
    eval_degraded_outer,
    eval_general_inner,
    eval_original_inner,
    random_aux_ux,
    reduction_aux,
    specialize_corollary,
)
from wiretap_regions.regions_gaussian import (
    CovSplit,
    GaussChannel,
    discretize_scalar,
    dpc_identity_check,
    eval_gauss_inner,
    eval_gauss_outer,
    eval_general_gauss,
    random_psd_under,
    specialize_gauss_corollary,
    sweep_covariances,
)

I1 = np.eye(1)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *a):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.1f}s / {self.seconds:.0f}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded its runtime budget"
        return False


def seeded_pairs(seed, count, cx=3, cy=3, cu=4):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ch = build_degraded_joint(rng.dirichlet(np.ones(cy), size=cx),
                                  rng.dirichlet(np.ones(cy), size=cy),
                                  rng.dirichlet(np.ones(cy), size=cy))
        yield random_aux_ux(rng, cu, cx), ch


def test_c01_elimination_chain_replay():
    with Budget("C1 derivation-chain replay", 10.0):
        rep = verify_builtin_chain(seed=0, instantiations=2)
        assert rep.ok
        assert rep.steps[-1].expect == "target"


def test_c02_rate_transfer_equivalence():
    with Budget("C2 rate-transfer equivalence (100 pairs)", 60.0):
        for aux, ch in seeded_pairs(101, 100):
            s = eval_original_inner(aux, ch)
            s = apply_rate_transfer(s, [("Rs1", "Rp1"), ("Rs2", "Rp2")], ["t1", "t2"])
            s = fm_eliminate(fm_eliminate(s, "t1"), "t2")
            s = apply_rate_transfer(s, [("Rs2", "Rp1"), ("Rs2", "Rs1")], ["t3", "t4"])
            s = fm_eliminate(fm_eliminate(s, "t3"), "t4")
            s = apply_rate_transfer(s, [("Rp2", "Rp1")], ["t5"])
            s = fm_eliminate(s, "t5")
            assert region_equal(s, eval_degraded_inner(aux, ch))


def test_c03_partial_match_discrete():
    with Budget("C3 discrete partial match (100 pairs)", 60.0):
        for aux, ch in seeded_pairs(101, 100):
            inner = eval_degraded_inner(aux, ch)
            outer = eval_degraded_outer(aux, ch)
            for p in vertices(inner).vertices:
                assert max_violation(outer, p, var_order=inner.vars) <= 1e-9
            trimmed = inner.with_ineqs([q for q in inner.ineqs if q.label != "rs12p2"])
            assert region_equal(trimmed, outer)
            for which in ("cor1", "cor2", "cor3"):
                assert region_equal(specialize_corollary(inner, which),
                                    specialize_corollary(outer, which))


def test_c04_layered_reduction():
    with Budget("C4 layered-to-degraded reduction (50 channels)", 60.0):
        for aux, ch in seeded_pairs(202, 50, cx=2, cy=2, cu=3):
            gen = eval_general_inner(reduction_aux(aux), ch)
            assert region_equal(gen, eval_degraded_inner(aux, ch))


# frozen 30-digit evaluation of the scalar fixture's secrecy bound
SCALAR_RS2 = 0.052680257828913151


def gauss_instances(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(1, 4))
        a = rng.normal(size=(d, d))
        s1 = a @ a.T + 0.2 * np.eye(d)
        s2 = s1 + 0.3 * _psd(rng, d)
        sz = s2 + 0.3 * _psd(rng, d)
        e = rng.normal(size=(d, d))
        S = e @ e.T + 0.5 * np.eye(d)
        ch = GaussChannel(S=S, Sigma1=s1, Sigma2=s2, SigmaZ=sz)
        yield CovSplit(K=random_psd_under(rng, S)), ch


def _psd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T


def test_c05_gaussian_partial_match():
    with Budget("C5 Gaussian partial match (100 instances)", 60.0):
        fixture = eval_gauss_inner(
            CovSplit(K=0.5 * I1),
            GaussChannel(S=1.0 * I1, Sigma1=0.5 * I1, Sigma2=1.0 * I1, SigmaZ=2.0 * I1))
        assert float(fixture.ineqs[0].rhs) == pytest.approx(SCALAR_RS2, abs=1e-9)
        for split, ch in gauss_instances(303, 100):
            inner = eval_gauss_inner(split, ch)
            outer = eval_gauss_outer(split, ch)
            for p in vertices(inner).vertices:
                assert max_violation(outer, p, var_order=inner.vars) <= 1e-9
            for which in ("cor4", "cor5", "cor6"):
                assert region_equal(specialize_gauss_corollary(inner, which),
                                    specialize_gauss_corollary(outer, which))


def test_c06_general_gaussian_consistency():
    with Budget("C6 layered Gaussian consistency (50 + 100 dpc)", 60.0):
        rng = np.random.default_rng(404)
        count = 0
        for split, ch in gauss_instances(404, 200):
            if count >= 50:
                break
            d = ch.dim
            K = split.K
            triple = CovSplit(K0=ch.S - K, K1=K, K2=np.zeros((d, d)))
            gen = eval_general_gauss(triple, ch)
            inner = eval_gauss_inner(CovSplit(K=K), ch)
            assert region_equal(gen, inner)
            count += 1
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 4))
            s1 = _psd(rng, d) + 0.2 * np.eye(d)
            ch = GaussChannel(S=_psd(rng, d) + np.eye(d), Sigma1=s1,
                              Sigma2=s1 + 0.2 * _psd(rng, d), SigmaZ=s1 + np.eye(d))
            worst = max(worst, dpc_identity_check(
                _psd(rng, d) / 3, _psd(rng, d) / 3, _psd(rng, d) / 3, ch))
        assert worst <= 1e-9


def test_c07_fisher_lab():
    with Budget("C7 Fisher lab (gradients, 200 lemma instances, interpolation)", 120.0):
        rng = np.random.default_rng(505)
        worst_g = 0.0
        for d in (1, 2, 3):
            for _ in range(5):
                pair = random_gauss_pair(rng, d)
                sn = _psd(rng, d) + 0.4 * np.eye(d)
                worst_g = max(worst_g, debruijn_check(pair, sn, step=1e-4))
        assert worst_g <= 1e-5
        worst_m = 0.0
        for _ in range(5):
            mix = random_mixture(rng)
            worst_m = max(worst_m, debruijn_check(mix, [[0.6 + rng.uniform(0, 1)]],
                                                  step=1e-4))
        assert worst_m <= 1e-4
        rep = lemma_suite_check(seed=505, count=200)
        assert rep.worst >= -1e-8
        assert len({l for l, _, _, _ in rep.rows}) == 6
        for _ in range(25):
            mix = random_mixture(rng)
            s2, sz = 1.0, 2.0
            t, k = interpolation_t_star(mix, s2, sz)
            assert 0.0 <= t <= 1.0
            k_floor = 1.0 / mixture_cond_fisher(mix, s2) - s2
            assert k >= k_floor - 1e-8
            assert k <= mix.second_moment() + 1e-8
        for _ in range(10):
            pair = random_gauss_pair(rng, 1)
            t, k = interpolation_t_star(pair, 1.0, 2.0)
            cxu = float(pair.cov_x_given_u()[0, 0])
            assert k == pytest.approx(cxu, abs=1e-8)


def test_c08_sufficiency_evidence():
    with Budget("C8 Gaussian-sufficiency evidence (50 mixtures)", 300.0):
        ch = GaussChannel(S=1.0 * I1, Sigma1=0.5 * I1, Sigma2=1.0 * I1, SigmaZ=2.0 * I1)
        envelope = sweep_covariances(ch, budget=120, seed=606).points
        rng = np.random.default_rng(606)
        for i in range(50):
            mix = random_mixture(rng)
            scale = min(1.0, math.sqrt(0.98 / max(mix.second_moment(), 1e-9)))
            mix = ScalarMixture(mix.u_points, mix.x_points * scale, mix.weights)
            rep = sufficiency_evidence_scalar([mix], ch, envelope, slack_tol=1e-3)[0]
            assert rep.contained, f"mixture {i}: slack {rep.max_slack:.3e}"


def test_c09_scalar_cross_check():
    with Budget("C9 scalar discrete/Gaussian cross-check (10 fixtures)", 120.0):
        fixtures = [
            (1.0, 0.5, 1.0, 2.0, 0.5), (1.0, 0.5, 1.0, 2.0, 0.25),
            (1.0, 0.5, 1.0, 2.0, 0.75), (2.0, 0.4, 0.9, 1.8, 1.0),
            (1.5, 0.3, 0.8, 1.2, 0.6), (1.0, 0.2, 0.5, 3.0, 0.5),
            (0.8, 0.6, 1.1, 1.6, 0.4), (1.2, 0.5, 0.7, 2.5, 0.9),
            (1.0, 1.0, 1.5, 2.0, 0.5), (2.5, 0.5, 1.5, 4.0, 1.25),
        ]
        for S, s1, s2, sz, K in fixtures:
            ch = GaussChannel(S * I1, s1 * I1, s2 * I1, sz * I1)
            closed = {q.label: float(q.rhs)
                      for q in eval_gauss_inner(CovSplit(K=K * I1), ch).ineqs}
            aux, disc_ch = discretize_scalar(ch, K)
            disc = {q.label: float(q.rhs) for q in eval_degraded_inner(aux, disc_ch).ineqs}
            for label, val in closed.items():
                assert disc[label] == pytest.approx(val, abs=5e-3), (label, S, s1, s2, sz, K)


def test_c10_determinism(tmp_path):
    with Budget("C10 byte-identical reruns", 60.0):
        from wiretap_regions.cli import main

        ch_file = tmp_path / "g.txt"
        ch_file.write_text("kind: gauss\nS:\n1\nSigma1:\n0.5\nSigma2:\n1\nSigmaZ:\n2\n")
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(["gauss", "sweep", "--channel", str(ch_file), "--budget", "12",
                       "--seed", "9", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

        dch = tmp_path / "d.txt"
        dch.write_text("kind: discrete\ninput: X 2\noutputs: Y1 2 Y2 2 Z 2\n"
                       "stage Y1|X:\n0.9 0.1\n0.1 0.9\nstage Y2|Y1:\n0.9 0.1\n0.1 0.9\n"
                       "stage Z|Y2:\n0.8 0.2\n0.2 0.8\n")
        outs = []
        for name in ("c.csv", "d.csv"):
            out = tmp_path / name
            rc = main(["region", "sweep", "--channel", str(dch), "--budget", "7",
                       "--seed", "5", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
