"""Stacked Gaussian algebra.

A stack of matrices ``(n, d, d)`` gives, instance by instance, exactly what
each matrix gives alone; the commands that check their instances stacked
print what the one-instance-at-a-time loops they replaced print; and an
instance that breaks a check raises the error it raises alone, naming it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretap_regions import cli, fisher_lab
from wiretap_regions.errors import (
    NotPSD,
    SingularConditionalCovariance,
    SingularMatrix,
    StepTooLarge,
    WiretapError,
    at_instance,
    numbered,
)
from wiretap_regions.fisher_lab import (
    TWO_PI_E,
    GaussPair,
    SuiteReport,
    debruijn_check,
    gaussian_fisher,
    random_gauss_pair,
    random_mixture,
)
from wiretap_regions.regions_gaussian import (
    GaussChannel,
    check_psd,
    dpc_identity_check,
    dpc_matrix,
    gauss_mi,
    logdet,
    project_range,
    random_psd_under,
)

# --- a stack equals its parts ----------------------------------------------------


@st.composite
def _factor_stacks(draw, count: int, joint: bool = False):
    """d and ``count`` stacks of n square factors, d x d (2d x 2d if
    ``joint``): each factor keeps only its first r columns (r drawn per
    factor), so the products G G^T include every rank down to zero."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    m = 2 * d if joint else d
    stacks = []
    for _ in range(count):
        g = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * m * m,
                                   max_size=n * m * m))).reshape(n, m, m)
        for k in range(n):
            g[k, :, draw(st.integers(0, m)):] = 0.0
        stacks.append(g)
    return d, stacks


def _gram(g):
    return g @ np.swapaxes(g, -1, -2)


def _agree(fn, *stacks, first=True):
    """``fn`` on stacks gives, for each instance, exactly what it gives on
    that instance alone, of the shape of one instance of the stacked result;
    or, when some instance fails alone, the stack raises the error of a
    failing instance (the first one if ``first``), naming it.  A lone
    instance's error names no instance."""
    n = len(stacks[0])
    alone = []
    for k in range(n):
        try:
            alone.append(fn(*(s[k] for s in stacks)))
        except WiretapError as e:
            assert e.instance == () and e.detail == str(e)
            assert not str(e).startswith("instance ")
            alone.append(e)
    failed = [k for k, a in enumerate(alone) if isinstance(a, WiretapError)]
    if not failed:
        out = fn(*stacks)
        for k in range(n):
            assert np.shape(alone[k]) == np.shape(out)[1:]
            assert np.array_equal(out[k], alone[k])
        return
    with pytest.raises(WiretapError) as info:
        fn(*stacks)
    k = info.value.instance[0]
    assert k == failed[0] if first else k in failed
    assert type(info.value) is type(alone[k])
    assert str(info.value) == f"instance {k}: {alone[k]}"


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(_factor_stacks(2))
def test_check_psd_and_logdet_of_a_stack_equal_its_parts(drawn):
    d, (g, h) = drawn
    # some instances lose a multiple of I and are not PSD
    shift = np.array([0.0, 0.0, 0.5, 0.0])[: len(g), None, None] * np.eye(d)
    _agree(check_psd, _gram(g) - shift)
    _agree(logdet, _gram(g) + _gram(h))


@_PROPERTY
@given(_factor_stacks(1, joint=True))
def test_gauss_mi_of_a_stack_equals_its_parts(drawn):
    # joint covariances of (A, B) of every rank: ranges of Cov(A) and Cov(B)
    # with several kept-column patterns in one stack, so gauss_mi groups them
    d, (g,) = drawn
    c = _gram(g)
    _agree(gauss_mi, c[:, :d, :d], c[:, :d, d:], c[:, d:, d:])


@_PROPERTY
@given(_factor_stacks(3))
def test_dpc_identity_of_a_stack_equals_its_parts(drawn):
    d, (g1, g2, g0) = drawn
    ch = GaussChannel(S=4.0 * np.eye(d), Sigma1=0.5 * np.eye(d) + 0.1,
                      Sigma2=np.eye(d) + 0.1, SigmaZ=2.0 * np.eye(d) + 0.1)
    _agree(lambda k1, k2, k0: dpc_identity_check(k1, k2, k0, ch),
           _gram(g1), _gram(g2), _gram(g0), first=False)


@_PROPERTY
@given(_factor_stacks(1, joint=True))
def test_gaussian_fisher_and_debruijn_of_a_stack_equal_their_parts(drawn):
    d, (g,) = drawn
    noise = _gram(g[:, :d, :d])   # of every rank, so Cov(X|U) + noise may be singular

    def pair(c):
        return GaussPair(c, d_u=d, d_x=d)

    _agree(lambda c, s: gaussian_fisher(pair(c), s), _gram(g), noise)
    noise = noise + 0.3 * np.eye(d)
    _agree(lambda c, s: fisher_lab._joint_fisher(pair(c), s), _gram(g), noise)
    _agree(lambda c, s: debruijn_check(pair(c), s), _gram(g), noise, first=False)


def test_project_range_groups_a_stack_by_its_kept_columns():
    # eigh sorts eigenvalues up, so every rank-1 diagonal keeps column 1
    covs = np.stack([np.diag([1.0, 0.0]), np.eye(2), np.diag([0.0, 2.0]), np.zeros((2, 2))])
    groups = project_range(covs)
    assert sorted(np.flatnonzero(where).tolist() for where, _ in groups) == [[0, 2], [1], [3]]
    for where, basis in groups:
        for k, b in zip(np.flatnonzero(where), basis):
            [(alone_where, alone)] = project_range(covs[k])   # a 0-d True: a stack of one
            assert np.shape(alone_where) == () and alone_where
            assert np.array_equal(alone, b[None])


def test_random_psd_under_stacks_the_draws_of_as_many_calls():
    S = np.array([[2.0, 0.3], [0.3, 1.5]])
    one, many = np.random.default_rng(5), np.random.default_rng(5)
    loop = [random_psd_under(one, S, 1)[0] for _ in range(7)]
    assert np.array_equal(random_psd_under(many, S, size=7), np.stack(loop))
    assert one.uniform() == many.uniform()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.tuples(st.booleans(), st.integers(1, 3),
                                                     st.integers(0, 3)), max_size=6))
def test_bare_generator_draws_are_the_normal_and_uniform_draws(seed, calls):
    # standard_normal and random filling a buffer give the values of
    # normal(size=...) and uniform(0.0, 1.0, size=...) and leave the
    # generator where those calls leave it
    bare, full = np.random.default_rng(seed), np.random.default_rng(seed)
    for normal, d, lead in calls:
        shape = (lead, d, d) if normal else (d,)
        out = np.empty(shape)
        if normal:
            bare.standard_normal(out=out)
            want = full.normal(size=shape)
        else:
            bare.random(out=out)
            want = full.uniform(0.0, 1.0, size=shape)
        assert out.tobytes() == want.tobytes()
    assert bare.normal() == full.normal() and bare.uniform() == full.uniform()


# --- the commands print what the per-instance loops printed ------------------------


def _rand_psd(rng, d, jitter=0.1):
    a = rng.normal(size=(d, d))
    return a @ a.T + jitter * np.eye(d)


def _min_eig(m) -> float:
    return float(np.linalg.eigvalsh(m).min())


def _lemma_loop(seed=0, count=200, include_mixtures=False):
    """lemma_suite_check as a loop over instances, one matrix at a time."""
    rng = np.random.default_rng(seed)
    rep = SuiteReport()
    for i in range(count):
        d = 1 + i % 3
        pair = random_gauss_pair(rng, d)
        s1 = _rand_psd(rng, d)
        s2 = s1 + _rand_psd(rng, d, jitter=0.05)
        j1 = gaussian_fisher(pair, s1)
        jy = fisher_lab._joint_fisher(pair, s1)
        cxu = pair.cov_x_given_u() + s1
        rep.rows.append(("L6", "gauss", i, _min_eig(jy - j1)))
        j2 = gaussian_fisher(pair, s2)
        gap = (np.linalg.inv(j2) - s2) - (np.linalg.inv(j1) - s1)
        rep.rows.append(("L7", "gauss", i, _min_eig(gap)))
        _rand_psd(rng, d)
        rng.normal(size=(d, d))
        b = rng.normal(size=(d, d))
        wa = _rand_psd(rng, d)
        wb = _rand_psd(rng, d)
        rep.rows.append(("L8", "gauss", i,
                         _min_eig(np.linalg.inv(wb) - np.linalg.inv(b @ wa @ b.T + wb))))
        k1m = _rand_psd(rng, d, jitter=0.0)
        k2m = k1m + _rand_psd(rng, d, jitter=0.0)
        sN = _rand_psd(rng, d)
        rep.rows.append(("L9", "gauss", i, fisher_lab._segment_integral(k1m, k2m, sN)))
        h = 0.5 * (d * math.log(TWO_PI_E) + logdet(cxu))
        bound = 0.5 * (d * math.log(TWO_PI_E) - logdet(jy))
        rep.rows.append(("L11", "gauss", i, h - bound))
        A = _rand_psd(rng, d)
        B = A + _rand_psd(rng, d, jitter=0.0)
        rep.rows.append(("L12", "gauss", i, _min_eig(np.linalg.inv(A) - np.linalg.inv(B))))
        if include_mixtures and i % 10 == 0:
            mix = random_mixture(rng)
            var1 = 0.5 + rng.uniform(0.0, 1.0)
            var2 = var1 + rng.uniform(0.1, 1.0)
            hm, jm1 = fisher_lab._stack_quadrature([mix.groups()], [var1],
                                                   fisher_lab.QUAD_N)[0].tolist()
            jm2 = fisher_lab.mixture_fisher([mix.groups()], [var2])[0]
            v1 = fisher_lab._cond_var(mix) + var1
            rep.rows.append(("L6", "mixture", i, jm1 - 1.0 / v1))
            rep.rows.append(("L7", "mixture", i, (1.0 / jm2 - var2) - (1.0 / jm1 - var1)))
            rep.rows.append(("L11", "mixture", i, hm - 0.5 * math.log(TWO_PI_E / jm1)))
    return rep


def _debruijn_loop(args) -> int:
    """``fisher debruijn`` as a loop over instances, one matrix at a time."""
    rng = np.random.default_rng(args.seed)
    rows = []
    for i in range(args.budget):
        d = 1 + i % args.dim
        pair = random_gauss_pair(rng, d)
        a = rng.normal(size=(d, d))
        rows.append(["gauss", i, debruijn_check(pair, a @ a.T + 0.3 * np.eye(d), step=args.step)])
    for i in range(max(1, args.budget // 5)):
        mix = random_mixture(rng)
        [r] = debruijn_check([mix], [[[0.5 + rng.uniform(0, 1)]]], step=args.step)
        rows.append(["mixture", i, r])
    worst = max(0.0, *(r for _, _, r in rows))
    return cli._conclude(args, (["kind", "instance", "residual"],
                                [[kind, i, f"{r:.6e}"] for kind, i, r in rows]),
                         [f"max entropy-gradient residual: {worst:.3e}"],
                         worst > args.tol, f"entropy-gradient identity within {args.tol}")


def _dpc_loop(args) -> int:
    """``gauss dpc-check`` on random triples as a loop, one triple at a time."""
    ch = cli._load_channel(args.channel, GaussChannel)
    rng = np.random.default_rng(args.seed or 0)
    triples = ([random_psd_under(rng, ch.S / 3.0, 1)[0] for _ in range(3)]
               for _ in range(args.budget or 100))
    worst = max(0.0, *(dpc_identity_check(k1, k2, k0, ch) for k0, k1, k2 in triples))
    return cli._conclude(args, None, [f"max precoding-identity residual: {worst:.3e}"],
                         worst > args.tol, f"precoding identity within {args.tol}")


def _printed(run, argv, out, capsys):
    rc = run(argv)
    text = capsys.readouterr().out
    data = out.read_bytes() if out.exists() else None
    if out.exists():
        out.unlink()
    return rc, text, data


@pytest.mark.parametrize("seed", range(10))
def test_stacked_commands_print_what_the_loops_printed(seed, tmp_path, capsys, monkeypatch):
    channel = tmp_path / "g2.txt"
    channel.write_text("kind: gauss\nS:\n2 0.3\n0.3 1.5\nSigma1:\n0.5 0\n0 0.4\n"
                       "Sigma2:\n1 0.1\n0.1 0.8\nSigmaZ:\n2 0\n0 1.6\n")
    out = tmp_path / "out.csv"
    parse = cli.build_parser().parse_args
    commands = [
        (["fisher", "debruijn", "--budget", "100", "--out", str(out)], _debruijn_loop),
        (["gauss", "dpc-check", "--channel", str(channel), "--budget", "200"], _dpc_loop),
    ]
    for argv, loop in commands:
        argv = argv + ["--seed", str(seed)]
        stacked = _printed(cli.main, argv, out, capsys)
        assert stacked == _printed(lambda a: loop(parse(a)), argv, out, capsys)
        assert stacked[0] == 0
    argv = ["fisher", "lemmas", "--budget", "200", "--mixtures", "--out", str(out),
            "--seed", str(seed)]
    stacked = _printed(cli.main, argv, out, capsys)
    monkeypatch.setattr(cli, "lemma_suite_check", _lemma_loop)
    assert stacked == _printed(cli.main, argv, out, capsys)
    assert stacked[0] == 0 and stacked[2].count(b"\n") == 1 + 6 * 200 + 3 * 20


def test_lemma_rows_equal_the_loop_bit_for_bit():
    for seed in range(3):
        assert (fisher_lab.lemma_suite_check(seed, 60, True).rows
                == _lemma_loop(seed, 60, True).rows)


# --- an instance that breaks a check ---------------------------------------------


def _stacked(instances, k, bad):
    """The stack of ``instances`` with instance ``k`` replaced by ``bad``."""
    out = np.array(instances, dtype=float)
    out[k] = bad
    return out


def _same_error(call, stack, k):
    """``call`` on the stack raises what it raises on instance k alone, naming k."""
    with pytest.raises(WiretapError) as alone:
        call(stack[k])
    with pytest.raises(type(alone.value)) as stacked:
        call(stack)
    assert str(stacked.value) == f"instance {k}: {alone.value}"
    assert stacked.value.instance == (k,) and stacked.value.detail == str(alone.value)
    return str(alone.value)


@pytest.mark.parametrize("k", [0, 2])
def test_a_broken_instance_raises_its_error_naming_it(k):
    good = [np.eye(2) * (1 + j) for j in range(4)]
    # NotPSD, from the eigenvalue check and from the symmetry check
    assert _same_error(lambda m: check_psd(m, "K"), _stacked(good, k, np.diag([1.0, -1.0])),
                       k) == "K has eigenvalue -1.000e+00 below tolerance -1.0e-10"
    assert _same_error(check_psd, _stacked(good, k, [[1.0, 0.5], [0.0, 1.0]]), k) \
        == "symmetry residual 5.00e-01 exceeds 1e-12"
    # SingularMatrix, from Cholesky, from a solve and from a grouped gauss_mi
    assert _same_error(logdet, _stacked(good, k, np.diag([1.0, 0.0])), k) \
        == "nonpositive pivot in Cholesky factorization"
    assert _same_error(lambda m: dpc_matrix(np.zeros((2, 2)), m),
                       _stacked(good, k, np.zeros((2, 2))), k) == "K1 + Sigma1 is singular"
    deterministic = np.eye(2)            # B = A: Cov(B | A) = 0
    partial = np.diag([1.0, 0.0])        # another range pattern in the same stack
    cross = _stacked([0.5 * partial, 0.5 * np.eye(2)] * 2, k, deterministic)
    same = _stacked([partial, np.eye(2), partial, np.eye(2)], k, deterministic)
    with pytest.raises(SingularMatrix, match=f"^instance {k}: nonpositive pivot"):
        gauss_mi(same, cross, same)
    # SingularConditionalCovariance: U = X and no noise
    pair = GaussPair(np.stack([np.eye(2) if j != k else np.ones((2, 2)) for j in range(4)]),
                     d_u=1, d_x=1)
    noise = np.zeros((4, 1, 1))
    with pytest.raises(SingularConditionalCovariance,
                       match=f"^instance {k}: Cov\\(X\\|U\\) \\+ Sigma_N has near-zero"):
        gaussian_fisher(pair, noise)
    with pytest.raises(SingularConditionalCovariance, match="^Cov"):
        gaussian_fisher(GaussPair(np.ones((2, 2)), d_u=1, d_x=1), [[0.0]])
    # StepTooLarge: at step 0.9 the unit-variance instance is truncation-dominated,
    # the others (Cov(X|U) = 1e6) are not
    covs = np.stack([np.diag([1.0, 1e6 if j != k else 1.0]) for j in range(4)])
    with pytest.raises(StepTooLarge) as alone:
        debruijn_check(GaussPair(covs[k], d_u=1, d_x=1), [[1.0]], step=0.9)
    with pytest.raises(StepTooLarge) as stacked:
        debruijn_check(GaussPair(covs, d_u=1, d_x=1), [[1.0]], step=0.9)
    assert str(stacked.value) == f"instance {k}: {alone.value}"
    assert str(alone.value).startswith("residual ")


def test_a_command_names_its_own_instance_number():
    with pytest.raises(NotPSD, match="^instance 9: x$"):
        with numbered([5, 9]):
            raise at_instance(NotPSD, (1,), "x")
    with pytest.raises(NotPSD, match="^x$"):   # an error of one instance is left as it is
        with numbered([5, 9]):
            raise NotPSD("x")


def test_numbered_takes_the_callers_instance_tuples():
    # instance j of the stack is the caller's tuple numbers[j]; () is a single
    # instance, whose message stays bare
    with pytest.raises(NotPSD, match=r"^instance \(2, 1\): x$") as e:
        with numbered([(), (2, 1), (7,)]):
            raise at_instance(NotPSD, (1,), "x")
    assert (e.value.instance, e.value.detail) == ((2, 1), "x")
    with pytest.raises(NotPSD, match="^instance 7: x$") as e:
        with numbered([(), (2, 1), (7,)]):
            raise at_instance(NotPSD, (2,), "x")
    assert e.value.instance == (7,)
    with pytest.raises(NotPSD, match="^x$") as e:
        with numbered([(), (2, 1), (7,)]):
            raise at_instance(NotPSD, (0,), "x")
    assert (e.value.instance, e.value.detail) == ((), "x")


def test_debruijn_command_names_the_instance_of_a_step_too_large(capsys):
    assert cli.main(["fisher", "debruijn", "--budget", "4", "--step", "0.9"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("violated invariant: instance ") and "truncation-dominated" in err
