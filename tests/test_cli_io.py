import ast
import csv
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wiretap_regions
from generators import emit_channel_file, random_aux_layered, stack_of
from wiretap_regions import cli, fm_script
from wiretap_regions.cli import build_parser, main
from wiretap_regions.entropy_algebra import FactorStructure
from wiretap_regions.errors import (
    DimensionMismatch,
    ParseError,
    UnknownVariable,
    ValidationError,
    WiretapError,
)
from wiretap_regions.fisher_lab import GaussPair
from wiretap_regions.info_core import ChannelSpec, VarId, build_degraded_joint
from wiretap_regions.io_files import (
    check_matches_channel,
    parse_aux_file,
    parse_channel_file,
    parse_dag_file,
    parse_split_file,
    region_csv_text,
)
from wiretap_regions.polytope_fm import IneqSystem, LinIneq, VPolytope, vertices
from wiretap_regions.regions_discrete import (
    eval_degraded_inner,
    eval_degraded_outer,
    eval_general_inner,
    random_aux_ux,
)
from wiretap_regions.regions_gaussian import (
    CovSplit,
    GaussChannel,
    HGaussChannel,
    discretize_scalar,
    eval_gauss_inner,
    eval_general_gauss,
)


DISCRETE = """\
kind: discrete
input: X 2
outputs: Y1 2 Y2 2 Z 2
stage Y1|X:
1 0
0 1
stage Y2|Y1:
1 0
0 1
stage Z|Y2:
1 0
0 1
"""

GAUSS = """\
kind: gauss
S:
1
Sigma1:
0.5
Sigma2:
1
SigmaZ:
2
"""

AUX = """\
kind: aux
vars: U 2 X 2
table:
0.5 0
0 0.5
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_discrete_identity(tmp_path):
    ch = parse_channel_file(write(tmp_path, "c.txt", DISCRETE))
    assert isinstance(ch, ChannelSpec)
    assert ch.degraded is True
    assert ch.input.cardinality == 2


def test_parse_gauss_scalar_fixture(tmp_path):
    ch = parse_channel_file(write(tmp_path, "g.txt", GAUSS))
    assert isinstance(ch, GaussChannel)
    assert ch.S[0, 0] == 1.0 and ch.SigmaZ[0, 0] == 2.0


def test_parse_indefinite_sigma_rejected(tmp_path):
    bad = GAUSS.replace("Sigma1:\n0.5", "Sigma1:\n1 2\n2 1").replace(
        "S:\n1", "S:\n1 0\n0 1").replace("Sigma2:\n1", "Sigma2:\n1 0\n0 1").replace(
        "SigmaZ:\n2", "SigmaZ:\n2 0\n0 2")
    with pytest.raises(ValidationError, match="Sigma1 must be positive definite"):
        parse_channel_file(write(tmp_path, "bad.txt", bad))


def test_parse_error_carries_line(tmp_path):
    with pytest.raises(ParseError, match="line"):
        parse_channel_file(write(tmp_path, "b.txt", "kind: discrete\no_ops\n"))


def test_round_trip_channels(tmp_path):
    rng = np.random.default_rng(40)
    ch = build_degraded_joint(rng.dirichlet(np.ones(2), size=3),
                              rng.dirichlet(np.ones(3), size=2),
                              rng.dirichlet(np.ones(2), size=3))
    path = tmp_path / "rt.txt"
    emit_channel_file(ch, path)
    back = parse_channel_file(path)
    for a, b in zip(ch.stages, back.stages):
        assert np.array_equal(a, b)  # bit exact

    g = GaussChannel(S=np.array([[1.3, 0.2], [0.2, 0.9]]), Sigma1=np.eye(2) * 0.4,
                     Sigma2=np.eye(2) * 0.8, SigmaZ=np.eye(2) * 1.7)
    emit_channel_file(g, path)
    gb = parse_channel_file(path)
    assert np.array_equal(g.S, gb.S) and np.array_equal(g.SigmaZ, gb.SigmaZ)

    h = HGaussChannel(np.array([[1.0, 0.0]]), np.array([[0.5, 0.0]]),
                      np.array([[0.25, 0.0]]))
    emit_channel_file(h, path)
    hb = parse_channel_file(path)
    assert np.array_equal(h.H2, hb.H2)


_entries = st.floats(1e-3, 1e3, allow_subnormal=False)
_reals = st.floats(-1e3, 1e3, allow_subnormal=False)


def _stochastic(rows, cols):
    """Row-stochastic matrix of drawn positive entries."""
    return st.lists(_entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda v: (lambda m: m / m.sum(axis=1, keepdims=True))(
            np.array(v).reshape(rows, cols)))


def _matrix(rows, cols):
    return st.lists(_reals, min_size=rows * cols, max_size=rows * cols).map(
        lambda v: np.array(v).reshape(rows, cols))


@st.composite
def _channels(draw):
    kind = draw(st.sampled_from(["cascade", "kernel", "gauss", "gauss_h"]))
    if kind in ("cascade", "kernel"):
        cards = draw(st.lists(st.integers(1, 3), min_size=4, max_size=4))
        inp = VarId("X", cards[0])
        outs = tuple(VarId(n, c) for n, c in zip(("Y1", "Y2", "Z"), cards[1:]))
        if kind == "cascade":
            stages = tuple(draw(_stochastic(a, b)) for a, b in zip(cards, cards[1:]))
            return ChannelSpec(input=inp, outputs=outs, stages=stages)
        k = draw(_stochastic(cards[0], int(np.prod(cards[1:]))))
        return ChannelSpec(input=inp, outputs=outs, kernel=k.reshape(cards))
    d = draw(st.integers(1, 3))
    if kind == "gauss":
        # A A^T + I is positive definite whatever A holds
        pd = [(lambda a: a @ a.T + np.eye(d))(draw(_matrix(d, d))) for _ in range(4)]
        return GaussChannel(*pd)
    return HGaussChannel(*(draw(_matrix(draw(st.integers(1, 3)), d)) for _ in range(3)))


def _arrays(ch):
    if isinstance(ch, ChannelSpec):
        return [ch.kernel] if ch.stages is None else list(ch.stages)
    if isinstance(ch, GaussChannel):
        return [ch.S, ch.Sigma1, ch.Sigma2, ch.SigmaZ]
    return [ch.H1, ch.H2, ch.HZ]


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_channels())
def test_channel_file_round_trip_is_bit_exact(tmp_path, ch):
    path = tmp_path / "rt.txt"
    emit_channel_file(ch, path)
    back = parse_channel_file(path)
    assert type(back) is type(ch)
    if isinstance(ch, ChannelSpec):
        assert (back.input, back.outputs) == (ch.input, ch.outputs)
        assert (back.stages is None) == (ch.stages is None)
    for a, b in zip(_arrays(ch), _arrays(back), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_parse_aux_and_split(tmp_path):
    aux = parse_aux_file(write(tmp_path, "a.txt", AUX))
    assert aux.kind == "ux"
    split = parse_split_file(write(tmp_path, "s.txt", "kind: split\nK:\n0.5\n"))
    assert split.K[0, 0] == 0.5
    triple = parse_split_file(write(tmp_path, "t.txt",
                                    "kind: split\nK0:\n0.1\nK1:\n0.2\nK2:\n0.3\n"))
    assert triple.K2[0, 0] == 0.3


def test_parse_dag_file(tmp_path):
    text = "kind: dag\nnode: U\nnode: X U\nnode: Y1 X\nnode: Y2 Y1\nnode: Z Y2\n"
    st = parse_dag_file(write(tmp_path, "d.txt", text))
    assert st.parents["Z"] == ("Y2",)


def test_csv_unit_square_vertices():
    sq = IneqSystem.of(("x", "y"), [LinIneq.of({"x": 1}, 1.0), LinIneq.of({"y": 1}, 1.0)])
    text = region_csv_text(vertices(stack_of(sq)))
    rows = [l for l in text.splitlines() if l.startswith("vertex")]
    assert len(rows) == 4


def test_csv_constraint_rows():
    from wiretap_regions.regions_gaussian import CovSplit, eval_gauss_inner
    ch = GaussChannel(S=np.eye(1), Sigma1=0.5 * np.eye(1), Sigma2=np.eye(1),
                      SigmaZ=2 * np.eye(1))
    sys = eval_gauss_inner(CovSplit(K=0.5 * np.eye(1)), ch)
    text = region_csv_text(sys)
    rows = [l for l in text.splitlines() if l.startswith("constraint")]
    assert len(rows) == 5  # nonnegativity is ambient, bounds are explicit


def test_csv_empty_polytope_note():
    empty = VPolytope(("x", "y"), np.empty((0, 2)))
    text = region_csv_text(empty)
    assert "EMPTY" in text


def test_cli_round_trip_determinism(tmp_path):
    ch = write(tmp_path, "c.txt", DISCRETE)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1 = main(["region", "sweep", "--channel", ch, "--budget", "5", "--seed", "3",
                "--out", str(out1)])
    rc2 = main(["region", "sweep", "--channel", ch, "--budget", "5", "--seed", "3",
                "--out", str(out2)])
    assert rc1 == rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_calls_share_no_state(tmp_path, capsys):
    ch = write(tmp_path, "c.txt", DISCRETE)
    out = tmp_path / "a.csv"
    argv = ["region", "sweep", "--channel", ch, "--budget", "3", "--format", "csv"]
    assert main(argv + ["--out", str(out)]) == 0
    written = out.read_bytes()
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == written
    assert out.read_bytes() == written


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["region", "sweep", "--channel", str(tmp_path / "missing.txt"),
                 "--budget", "2"]) == 2
    gauss = write(tmp_path, "g.txt", GAUSS)
    split = write(tmp_path, "s.txt", "kind: split\nK:\n0.5\n")
    assert main(["gauss", "eval", "--channel", gauss, "--split", split]) == 0
    # a property violation: demand an impossible dpc tolerance
    assert main(["gauss", "dpc-check", "--channel", gauss, "--budget", "2",
                 "--seed", "1", "--tol", "1e-30"]) == 1


_DPC_2X2 = (np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([[0.5, 0.1], [0.1, 0.4]]),
            np.array([[1.0, 0.2], [0.2, 0.8]]), np.array([[1.5, 0.0], [0.0, 1.2]]))


@pytest.mark.parametrize("mats, scale", [
    (_DPC_2X2, 1e-12), (_DPC_2X2, 1.0), (_DPC_2X2, 1e12), ((np.eye(1),) * 4, 1e-10),
], ids=["2x2-1e-12", "2x2", "2x2-1e12", "1x1-1e-10"])
def test_dpc_check_is_invariant_under_scaling_the_channel(tmp_path, capsys, mats, scale):
    # the precoding identity holds for a channel scaled as a whole: a
    # covariance's range and its symmetry check follow the channel's scale
    path = tmp_path / "g.txt"
    emit_channel_file(GaussChannel(*(m * scale for m in mats)), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["gauss", "dpc-check", "--channel", str(path), "--budget", "20",
                   "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert float(out.split("residual:")[1].split()[0]) <= 1e-12


def test_cli_verify_appendix(tmp_path, capsys):
    out = tmp_path / "chain.csv"
    assert main(["fm", "verify-appendix", "--instantiations", "1", "--seed", "2",
                 "--out", str(out)]) == 0
    outerr = capsys.readouterr()
    assert "chain verified" in outerr.out
    # transfer-step details hold commas; every row must still parse to the header width
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert {len(r) for r in rows} == {len(rows[0])}
    assert any("," in r[2] for r in rows[1:])


def test_cli_verify_appendix_replays_share_no_state(tmp_path, capsys):
    # the derived equality span is shared across replays in one process; a
    # replay between two runs of one seed must not change the second run
    runs = []
    for seed in ("3", "5", "3"):
        out = tmp_path / f"chain{seed}.csv"   # stdout names the file
        rc = main(["fm", "verify-appendix", "--seed", seed, "--out", str(out)])
        outerr = capsys.readouterr()
        runs.append((rc, outerr.out, outerr.err, out.read_bytes()))
    assert runs[0] == runs[2]
    assert runs[0][3] != runs[1][3]


@pytest.mark.parametrize("flag", ["--instantiations", "--budget"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_verify_appendix_needs_an_instantiation(flag, value, capsys):
    # with no instantiation no dropped row is certified: not a verified chain
    assert main(["fm", "verify-appendix", flag, value]) == 2
    outerr = capsys.readouterr()
    assert "chain verified" not in outerr.out
    assert "budget must be at least 1" in outerr.err


def test_verify_appendix_defaults_are_the_library_constants():
    args = build_parser().parse_args(["fm", "verify-appendix"])
    assert (args.tol, args.budget) == (fm_script.CERT_TOL, fm_script.CERT_INSTANTIATIONS)


def test_cli_tol_is_what_the_user_typed():
    # the entropy-gradient residual of this run is about 3e-8
    argv = ["fisher", "debruijn", "--budget", "5", "--seed", "1"]
    assert main(argv) == 0
    assert main(argv + ["--tol", "1e-9"]) == 1


def test_cli_out_directory_is_an_input_error(tmp_path):
    assert main(["fisher", "debruijn", "--budget", "1", "--out", str(tmp_path)]) == 2
    assert main(["fisher", "lemmas", "--budget", "1", "--out", str(tmp_path)]) == 2


def test_fisher_evidence_prints_worst_slack(tmp_path, capsys):
    out = tmp_path / "evidence.csv"
    assert main(["fisher", "evidence", "--channel", write(tmp_path, "g.txt", GAUSS),
                 "--budget", "3", "--seed", "4", "--out", str(out)]) == 0
    line = [l for l in capsys.readouterr().out.splitlines() if "dominance slack" in l][0]
    with open(out, newline="") as fh:
        worst = max(float(r["max_slack"]) for r in csv.DictReader(fh))
    assert float(line.rsplit(":", 1)[1]) == pytest.approx(worst, rel=1e-3)


def test_fisher_evidence_on_a_2x2_channel_is_an_input_error(tmp_path, capsys):
    channel = ("kind: gauss\nS:\n2 0\n0 2\nSigma1:\n0.5 0\n0 0.5\n"
               "Sigma2:\n1 0\n0 1\nSigmaZ:\n2 0\n0 2\n")
    assert main(["fisher", "evidence", "--channel", write(tmp_path, "g.txt", channel),
                 "--budget", "1"]) == 2
    assert capsys.readouterr().err == "input error: S must be a 1x1 matrix, got shape (2, 2)\n"


def test_fisher_evidence_names_a_dominance_lp_failure(tmp_path, monkeypatch, capsys):
    import scipy.optimize

    real = scipy.optimize.linprog

    def linprog(*args, **kw):
        # the dominance LP is the only one with a free last variable
        if kw["bounds"][-1] == (None, None):
            return scipy.optimize.OptimizeResult(status=4, message="numerical difficulties",
                                                 x=None)
        return real(*args, **kw)

    monkeypatch.setattr(scipy.optimize, "linprog", linprog)
    assert main(["fisher", "evidence", "--channel", write(tmp_path, "g.txt", GAUSS),
                 "--budget", "1"]) == 1
    assert "dominance LP failed with status 4" in capsys.readouterr().err


def test_every_lp_of_a_command_runs_without_presolve(tmp_path, monkeypatch):
    import scipy.optimize

    real, options = scipy.optimize.linprog, []

    def linprog(*args, **kw):
        options.append(kw["options"])
        return real(*args, **kw)

    monkeypatch.setattr(scipy.optimize, "linprog", linprog)
    commands = [
        ["region", "sweep", "--channel", write(tmp_path, "d.txt", DISCRETE), "--budget", "5"],
        ["fisher", "evidence", "--channel", write(tmp_path, "g.txt", GAUSS), "--budget", "2"],
        ["fm", "verify-appendix", "--seed", "1"],
    ]
    for argv in commands:
        options.clear()
        assert main(argv) == 0
        assert options, argv   # recession, dominance and support LPs
        assert all(o["presolve"] is False for o in options), argv


def test_fisher_evidence_packs_its_dominance_lps_to_the_row_budget(tmp_path, monkeypatch):
    from wiretap_regions import fisher_lab, regions_discrete

    real_lp, real_slack, rows, calls = regions_discrete.solve_lp, fisher_lab.dominance_slack, [], []

    def solve_lp(*args, what="LP", **kw):
        if what == "dominance":
            rows.append(args[1].shape[0])
        return real_lp(*args, what=what, **kw)

    def dominance_slack(points, cloud):
        calls.append((len(points), len(cloud)))
        return real_slack(points, cloud)

    monkeypatch.setattr(regions_discrete, "solve_lp", solve_lp)
    monkeypatch.setattr(fisher_lab, "dominance_slack", dominance_slack)
    assert main(["fisher", "evidence", "--channel", write(tmp_path, "g.txt", GAUSS),
                 "--budget", "5"]) == 0
    [(points, n)] = calls   # every mixture's front in one call
    budget = regions_discrete._DOMINANCE_ROWS
    assert len(rows) == -(-points // max(1, budget // n))
    assert max(rows) <= max(budget, n)


def test_fisher_evidence_builds_no_hull(tmp_path, monkeypatch):
    from wiretap_regions import regions_discrete

    def hull_of(points):
        raise AssertionError("fisher evidence reads only the sweep cloud")

    monkeypatch.setattr(regions_discrete, "hull_of", hull_of)
    assert main(["fisher", "evidence", "--channel", write(tmp_path, "g.txt", GAUSS),
                 "--budget", "1"]) == 0


@pytest.mark.parametrize("argv", [
    ["fisher", "debruijn", "--budget", "2", "--dim", "0"],
    ["fisher", "debruijn", "--budget", "2", "--dim", "-2"],
    ["fisher", "debruijn", "--budget", "2", "--step", "0"],
    ["fisher", "debruijn", "--budget", "2", "--step", "-1"],
    ["gauss", "sweep", "--budget", "2", "--mode", "trace_P", "--trace-p", "0", "--channel"],
    ["gauss", "sweep", "--budget", "2", "--mode", "trace_P", "--trace-p", "-1", "--channel"],
    # the default fixed_S mode reads no trace cap
    ["gauss", "sweep", "--budget", "2", "--trace-p", "2.0", "--channel"],
    ["fisher", "debruijn", "--budget", "2", "--step", "inf"],
    ["gauss", "sweep", "--budget", "2", "--mode", "trace_P", "--trace-p", "inf", "--channel"],
    # a NaN tolerance would pass every check, an infinite one would check nothing
    *([*cmd, "--tol", tol] for tol in ("nan", "inf") for cmd in (
        ["fm", "verify-appendix"], ["fisher", "debruijn"], ["fisher", "lemmas"],
        ["fisher", "evidence", "--channel"], ["gauss", "dpc-check", "--channel"])),
    # numpy's PCG64 takes no negative seed
    ["fisher", "lemmas", "--budget", "2", "--seed", "-1"],
    ["gauss", "sweep", "--budget", "2", "--seed", "-5", "--channel"],
])
def test_cli_bad_numeric_option_is_an_input_error(tmp_path, argv, capsys):
    if "--channel" in argv:
        i = argv.index("--channel") + 1
        argv = argv[:i] + [write(tmp_path, "g.txt", GAUSS)] + argv[i:]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("dim", [1, 2])
def test_cli_gauss_eval_takes_a_split_whose_K0_is_zero(tmp_path, dim):
    # a zero K0 has only zero eigenvalues, which its PSD floor, relative to
    # the matrix and so 0 here, accepts: the command prints the library's region
    eye = np.eye(dim)
    ch = GaussChannel(S=eye, Sigma1=0.5 * eye, Sigma2=eye, SigmaZ=2 * eye)
    split = CovSplit(K0=np.zeros((dim, dim)), K1=0.3 * eye, K2=0.1 * eye)

    def block(name, m):
        return f"{name}:\n" + "".join(" ".join(map(repr, row)) + "\n" for row in m.tolist())

    g = write(tmp_path, "g.txt", "kind: gauss\n" + "".join(
        block(n, getattr(ch, n)) for n in ("S", "Sigma1", "Sigma2", "SigmaZ")))
    s = write(tmp_path, "s.txt", "kind: split\n" + "".join(
        block(n, getattr(split, n)) for n in ("K0", "K1", "K2")))
    out = tmp_path / "out.csv"
    assert main(["gauss", "eval", "--channel", g, "--split", s, "--bound", "general",
                 "--out", str(out)]) == 0
    assert out.read_text() == region_csv_text(eval_general_gauss(split, ch))


@pytest.mark.parametrize("split, bound", [
    ("kind: split\nK0:\n0.1\nK1:\n0.2\nK2:\n0.3\n", "inner"),
    ("kind: split\nK:\n0.5\n", "general"),
], ids=["triple-inner", "single-general"])
def test_cli_gauss_eval_split_of_the_wrong_shape_is_an_input_error(tmp_path, split, bound,
                                                                  capsys):
    assert main(["gauss", "eval", "--channel", write(tmp_path, "g.txt", GAUSS),
                 "--split", write(tmp_path, "s.txt", split), "--bound", bound]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


GAUSS_2X2 = """\
kind: gauss
S:
2 0.3
0.3 1.5
Sigma1:
0.5 0
0 0.5
Sigma2:
1 0
0 1
SigmaZ:
2 0
0 2
"""

TERNARY = """\
kind: discrete
input: X 3
outputs: Y1 3 Y2 3 Z 3
stage Y1|X:
1 0 0
0 1 0
0 0 1
stage Y2|Y1:
1 0 0
0 1 0
0 0 1
stage Z|Y2:
1 0 0
0 1 0
0 0 1
"""


TRIPLE_1X1 = "kind: split\nK0:\n0.1\nK1:\n0.2\nK2:\n0.3\n"


@pytest.mark.parametrize("split, cmd", [
    ("kind: split\nK:\n0.5\n", ["eval", "--bound", "inner"]),
    ("kind: split\nK:\n0.5\n", ["eval", "--bound", "outer"]),
    (TRIPLE_1X1, ["eval", "--bound", "general"]),
    (TRIPLE_1X1, ["dpc-check"]),
], ids=["inner", "outer", "general", "dpc-check"])
def test_cli_gauss_split_smaller_than_the_channel_is_an_input_error(tmp_path, split, cmd,
                                                                   capsys):
    assert main(["gauss", *cmd, "--channel", write(tmp_path, "g.txt", GAUSS_2X2),
                 "--split", write(tmp_path, "s.txt", split)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


EXTREME_GAUSS = "kind: gauss\nS:\n1e308\nSigma1:\n1e-308\nSigma2:\n1\nSigmaZ:\n2\n"


@pytest.mark.parametrize("cmd", [
    ["gauss", "sweep", "--budget", "5"],
    ["gauss", "dpc-check", "--budget", "5"],
    ["fisher", "evidence", "--budget", "2"],
    ["gauss", "degraded-check"],
    ["region", "sweep", "--budget", "5"],
], ids=["gauss-sweep", "dpc-check", "evidence", "degraded-check", "region-sweep"])
def test_cli_gauss_channel_with_an_overflowing_entry_is_an_input_error(tmp_path, cmd, capsys):
    # 1e308 + 1e308 overflows when S is symmetrized: the channel is refused
    # when it is built, before any arithmetic can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*cmd, "--channel", write(tmp_path, "g.txt", EXTREME_GAUSS)]) == 2
    assert capsys.readouterr().err == ("input error: S has an entry of magnitude 1e+308; "
                                       "channel entries must be finite and at most 1e+300\n")


TINY_SCALAR = "kind: gauss\nS:\n1e-300\nSigma1:\n1e-300\nSigma2:\n1e-300\nSigmaZ:\n1e-300\n"
TINY_2X2 = "kind: gauss\n" + "".join(f"{m}:\n1e-320 0\n0 1e-320\n"
                                     for m in ("S", "Sigma1", "Sigma2", "SigmaZ"))


@pytest.mark.parametrize("cmd, text, scale", [
    (["fisher", "evidence", "--budget", "2"], TINY_SCALAR, "1e-300"),
    (["gauss", "dpc-check"], TINY_2X2, "1e-320"),
], ids=["evidence-1e-300", "dpc-check-1e-320"])
def test_cli_gauss_channel_below_min_scale_is_an_input_error(tmp_path, cmd, text, scale,
                                                            capsys):
    # entries this small square to zero or to subnormals in the quadrature and
    # the precoding check, which printed warnings and then nan residuals
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*cmd, "--channel", write(tmp_path, "g.txt", text)]) == 2
    assert capsys.readouterr().err == (f"input error: S has largest entry magnitude {scale}; "
                                       f"channel matrices must hold an entry of at least "
                                       f"1e-150\n")


@pytest.mark.parametrize("cmd, dim", [
    (["fisher", "evidence", "--budget", "2"], 1),
    (["gauss", "dpc-check", "--budget", "5"], 1),
    (["gauss", "dpc-check", "--budget", "5"], 2),
    (["gauss", "sweep", "--budget", "10"], 2),
    (["gauss", "sweep", "--budget", "10", "--mode", "trace_P"], 2),
], ids=["evidence", "dpc-check-1x1", "dpc-check-2x2", "sweep", "sweep-trace_P"])
def test_cli_gauss_channel_at_min_scale_runs_clean(tmp_path, cmd, dim, capsys):
    eye = np.eye(dim) * 1e-150
    ch = GaussChannel(S=2 * eye, Sigma1=eye, Sigma2=1.5 * eye, SigmaZ=3 * eye)
    path = tmp_path / "g.txt"
    emit_channel_file(ch, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*cmd, "--channel", str(path)]) == 0
    assert not re.search(r"\bnan\b", capsys.readouterr().out)


def test_gauss_channel_names_the_cap_below_min_scale():
    eye = np.eye(2)
    caps = np.stack([eye, eye, 1e-160 * eye])
    with pytest.raises(ValidationError, match="^instance 2: S has largest entry magnitude 1e-160"):
        GaussChannel(S=caps, Sigma1=eye, Sigma2=eye, SigmaZ=eye)


def _scaled_gauss(tmp_path, c, S, Sigma1, Sigma2, SigmaZ):
    """The channel file of ``c`` times each matrix."""
    path = tmp_path / f"g{c:g}.txt"
    emit_channel_file(GaussChannel(S=c * np.atleast_2d(S), Sigma1=c * np.atleast_2d(Sigma1),
                                   Sigma2=c * np.atleast_2d(Sigma2),
                                   SigmaZ=c * np.atleast_2d(SigmaZ)), path)
    return str(path)


@pytest.mark.parametrize("cmd", [
    ["gauss", "degraded-check"],
    ["gauss", "eval", "--split"],
    ["gauss", "sweep", "--budget", "5"],
    ["fisher", "evidence", "--budget", "2"],
], ids=["degraded-check", "eval", "sweep", "evidence"])
def test_cli_noise_order_verdict_does_not_depend_on_the_channel_scale(tmp_path, cmd, capsys):
    # Sigma1 = 2c > Sigma2 = c: not degraded at any scale c.  The order test
    # was absolute (-1e-10), so at c = 1e-12 the channel passed as degraded
    outs = []
    for c in (1.0, 1e-12):
        argv = [*cmd, write(tmp_path, f"k{c:g}.txt", f"kind: split\nK:\n{c!r}\n")] \
            if cmd[-1] == "--split" else list(cmd)
        assert main([*argv, "--channel", _scaled_gauss(tmp_path, c, 2.0, 2.0, 1.0, 3.0)]) == 1
        outs.append(capsys.readouterr())
    assert outs[1] == outs[0]
    assert "violated invariant" in outs[0].out + outs[0].err


def _scaled_gains(tmp_path, c, H1, H2, HZ):
    """The gauss_h channel file of ``c`` times each gain matrix."""
    path = tmp_path / f"h{c:g}.txt"
    emit_channel_file(HGaussChannel(H1=c * np.asarray(H1), H2=c * np.asarray(H2),
                                    HZ=c * np.asarray(HZ)), path)
    return str(path)


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e6])
def test_cli_gain_quotient_verdict_does_not_depend_on_the_channel_scale(tmp_path, c, capsys):
    # H2 = c I cannot be reproduced from the rank-one H1 = c [1 0] at any
    # scale c; the reproduction residual was compared with an absolute 1e-9,
    # so at c = 1e-12 the channel passed as degraded
    path = _scaled_gains(tmp_path, c, [[1.0, 0.0]], np.eye(2), [[0.5, 0.5]])
    assert main(["gauss", "degraded-check", "--channel", path]) == 1
    out = capsys.readouterr().out
    assert "gain-quotient degradedness holds: False" in out and "violated invariant: " in out


@pytest.mark.parametrize("c", [1e-12, 1e8])
def test_cli_degraded_gain_channel_stays_degraded_at_every_scale(tmp_path, c, capsys):
    # H2 = D21 H1 and HZ = DZ2 H2 for contractions D21 and DZ2: at c = 1e8 the
    # rounding of the reproduction (about 1e-7) exceeded the absolute 1e-9
    h1 = np.array([[2.0, 0.3], [0.1, 1.5]])
    h2 = np.array([[0.6, 0.1], [0.2, 0.5]]) @ h1
    path = _scaled_gains(tmp_path, c, h1, h2, np.array([[0.5, 0.4]]) @ h2)
    assert main(["gauss", "degraded-check", "--channel", path]) == 0
    assert "gain-quotient degradedness holds: True" in capsys.readouterr().out


@pytest.mark.parametrize("c", [1e6, 1e12])
def test_cli_sweep_at_the_input_cap_does_not_depend_on_the_channel_scale(tmp_path, c, capsys):
    # covariances drawn at the cap S met the absolute cap test only up to
    # rounding of about eps * c, so large channels were refused
    mats = (np.array([[2, 0.3], [0.3, 1.5]]), np.diag([0.5, 0.7]),
            np.array([[1, 0.1], [0.1, 1.2]]), np.array([[1.5, 0.1], [0.1, 2]]))
    argv = ["gauss", "sweep", "--budget", "20", "--seed", "3", "--channel"]
    assert main([*argv, _scaled_gauss(tmp_path, 1.0, *mats)]) == 0
    want = capsys.readouterr()
    assert main([*argv, _scaled_gauss(tmp_path, c, *mats)]) == 0
    assert capsys.readouterr() == want


LAYERED_AUX = "kind: aux\nvars: Q 1 U 1 V1 1 V2 1 X 2\ntable:\n0.5 0.5\n"


@pytest.mark.parametrize("cmd, aux", [("eval-inner", AUX), ("eval-outer", AUX),
                                      ("eval-general", LAYERED_AUX)],
                         ids=["inner", "outer", "general"])
def test_cli_region_eval_aux_alphabet_other_than_the_input_is_an_input_error(tmp_path, cmd,
                                                                             aux, capsys):
    assert main(["region", cmd, "--channel", write(tmp_path, "c.txt", TERNARY),
                 "--aux", write(tmp_path, "a.txt", aux)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


UNFACTORED_AUX = "kind: aux\nvars: Q 2 U 1 V1 1 V2 1 X 2\ntable:\n0.5 0\n0 0.5\n"


@pytest.mark.parametrize("cmd, aux, reason", [
    ("eval-general", AUX, "takes a layered aux"),
    ("eval-inner", LAYERED_AUX, "takes a ux aux"),
    ("eval-outer", LAYERED_AUX, "takes a ux aux"),
    ("eval-general", UNFACTORED_AUX, "violates the layered factorization"),
    ("eval-general", LAYERED_AUX.replace("Q 1", "W 1"), "must be over"),
], ids=["ux-for-general", "layered-for-inner", "layered-for-outer", "unfactored",
        "layered-names"])
def test_cli_region_eval_aux_of_the_wrong_kind_is_an_input_error(tmp_path, cmd, aux,
                                                                 reason, capsys):
    assert main(["region", cmd, "--channel", write(tmp_path, "c.txt", DISCRETE),
                 "--aux", write(tmp_path, "a.txt", aux)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and reason in err


def test_cli_internal_aux_inconsistency_stays_a_violated_invariant(tmp_path, monkeypatch,
                                                                   capsys):
    # only what the aux file says is an input error; an evaluator's own check is not
    from wiretap_regions import cli
    from wiretap_regions.errors import InconsistentAux

    def eval_general_inner(aux, ch):
        raise InconsistentAux("reduction embeds a (U, X) aux")

    monkeypatch.setattr(cli, "eval_general_inner", eval_general_inner)
    assert main(["region", "eval-general", "--channel", write(tmp_path, "c.txt", DISCRETE),
                 "--aux", write(tmp_path, "a.txt", LAYERED_AUX)]) == 1
    assert capsys.readouterr().err.startswith("violated invariant: ")


def test_a_refused_aux_file_names_no_instance(tmp_path, capsys):
    # a file holds one aux, so the refusal of it names no instance
    aux = "kind: aux\nvars: U 2 X 2\ntable:\n0.6 0.5\n-0.1 0\n"
    assert main(["region", "eval-inner", "--channel", write(tmp_path, "c.txt", DISCRETE),
                 "--aux", write(tmp_path, "a.txt", aux)]) == 2
    assert capsys.readouterr().err == "input error: entry -0.1 below tolerance -1e-15\n"


@pytest.mark.parametrize("cmd, aux, module", [
    ("eval-inner", AUX, "regions_discrete"), ("eval-outer", AUX, "regions_discrete"),
    ("eval-general", LAYERED_AUX, "fm_script")], ids=["inner", "outer", "general"])
def test_an_error_evaluating_an_aux_file_names_no_instance(tmp_path, monkeypatch, capsys,
                                                           cmd, aux, module):
    # the file's one aux is evaluated as a stack of one; the command strips
    # the member's name from an error the evaluation raises on it
    from wiretap_regions.errors import NegativeMass, raise_for_first

    def mutual_information(t, *sets):
        raise_for_first(np.arange(len(t.probs)) == 0, NegativeMass,
                        lambda k: "mutual information -1e-09 below clamp -1e-12")

    monkeypatch.setattr(f"wiretap_regions.{module}.mutual_information", mutual_information)
    assert main(["region", cmd, "--channel", write(tmp_path, "c.txt", DISCRETE),
                 "--aux", write(tmp_path, "a.txt", aux)]) == 1
    assert capsys.readouterr().err == ("violated invariant: mutual information -1e-09 "
                                       "below clamp -1e-12\n")


def _layered_aux_text(aux):
    t = aux.table
    rows = t.probs.reshape(-1, t.vars[-1].cardinality)
    return ("kind: aux\nvars: " + " ".join(f"{v.name} {v.cardinality}" for v in t.vars)
            + "\ntable:\n" + "".join(" ".join(map(repr, r.tolist())) + "\n" for r in rows))


@pytest.mark.parametrize("cascade", [False, True], ids=["kernel", "cascade"])
def test_general_region_follows_output_position_not_name(tmp_path, cascade):
    # the target names its outputs Y1, Y2, Z; a channel's outputs are read by
    # position whatever the file calls them
    rng = np.random.default_rng(21)
    if cascade:
        data = {"stages": [rng.dirichlet(np.ones(k), size=n) for n, k in ((2, 3), (3, 2), (2, 3))]}
    else:
        data = {"kernel": rng.dirichlet(np.ones(18), size=2).reshape(2, 3, 2, 3)}
    aux = write(tmp_path, "a.txt", _layered_aux_text(random_aux_layered(rng, 2, 3, 2, 2, 2)))
    csvs = []
    for names in (("Y1", "Y2", "Z"), ("A", "B", "E"), ("Y2", "Y1", "Z")):
        ch = ChannelSpec(VarId("X", 2), tuple(map(VarId, names, (3, 2, 3))), **data)
        path = tmp_path / f"c_{''.join(names)}.txt"
        emit_channel_file(ch, path)
        for argv in (["region", "eval-general", "--aux", aux],
                     ["region", "sweep", "--mode", "general", "--budget", "5"]):
            out = tmp_path / "out.csv"
            assert main([*argv, "--channel", str(path), "--out", str(out)]) == 0
            csvs.append(out.read_text())
    assert csvs[0] != csvs[1]
    assert csvs[0::2] == [csvs[0]] * 3 and csvs[1::2] == [csvs[1]] * 3


def test_general_region_prints_a_zero_bound_as_zero(tmp_path):
    # V1 and V2 are constant and every output is X, so the three secrecy-only
    # bounds are I(U;X) - I(U;X) = 0; their summed entropies read about 2.6e-16
    aux = "kind: aux\nvars: Q 1 U 2 V1 1 V2 1 X 2\ntable:\n0.4 0.1\n0.2 0.3\n"
    out = tmp_path / "out.csv"
    assert main(["region", "eval-general", "--channel", write(tmp_path, "c.txt", DISCRETE),
                 "--aux", write(tmp_path, "a.txt", aux), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(r["label"], r["rhs"]) for r in rows[:3]] == [("rs1", "0"), ("rs2", "0"),
                                                           ("rs12", "0")]
    assert all(float(r["rhs"]) > 0.05 for r in rows[3:])


def _passes_check_or_raises(ch, part, evaluate):
    """True when ``check_matches_channel`` accepts the pair; then the evaluator
    must end in a result or a typed error, never a numpy error."""
    try:
        check_matches_channel(ch, part)
    except ValidationError:
        return False
    try:
        evaluate(part, ch)
    except WiretapError:
        pass
    return True


@pytest.mark.parametrize("card_in, card_x, layered",
                         list(itertools.product((2, 3), (2, 3), (False, True))))
def test_mismatched_aux_is_refused_before_it_reaches_numpy(card_in, card_x, layered):
    stage = 0.5 * np.eye(card_in) + 0.5 / card_in
    ch = build_degraded_joint(stage, stage, stage)
    rng = np.random.default_rng(card_in * 10 + card_x)
    if layered:
        aux, evaluate = random_aux_layered(rng, 1, 2, 1, 2, card_x), eval_general_inner
    else:
        aux, evaluate = random_aux_ux(rng, 2, card_x), eval_degraded_inner
    assert _passes_check_or_raises(ch, aux, evaluate) == (card_x == card_in)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.one_of(st.tuples(st.integers(1, 3)),
                                    st.tuples(*[st.integers(1, 3)] * 3)))
def test_mismatched_split_is_refused_before_it_reaches_numpy(d, dims):
    eye = np.eye(d)
    ch = GaussChannel(S=2 * eye, Sigma1=0.5 * eye, Sigma2=eye, SigmaZ=2 * eye)
    if len(dims) == 1:
        split, evaluate = CovSplit(K=0.5 * np.eye(dims[0])), eval_gauss_inner
    else:
        split = CovSplit(**{f"K{i}": 0.2 * np.eye(k) for i, k in enumerate(dims)})
        evaluate = eval_general_gauss
    assert _passes_check_or_raises(ch, split, evaluate) == all(k == d for k in dims)


@pytest.mark.parametrize("argv", [
    ["region", "sweep", "--budget", "2", "--tol", "1e-3"],
    ["gauss", "degraded-check", "--seed", "1"],
    # the options below are declared, but not read in this combination
    ["gauss", "eval", "--split", "k", "--order", "12"],
    ["gauss", "eval", "--split", "k", "--bound", "outer", "--order", "21"],
    ["gauss", "dpc-check", "--split", "t", "--budget", "3"],
    ["gauss", "dpc-check", "--split", "t", "--seed", "0"],
])
def test_cli_rejects_an_option_the_command_ignores(tmp_path, argv, capsys):
    files = {"k": "kind: split\nK:\n0.5\n", "t": TRIPLE_1X1}
    argv = [write(tmp_path, a + ".txt", files[a]) if a in files else a for a in argv]
    channel = GAUSS if argv[1] in ("eval", "dpc-check") else DISCRETE
    try:
        assert main(argv + ["--channel", write(tmp_path, "c.txt", channel)]) == 2
        assert capsys.readouterr().err.startswith("input error: ")
    except SystemExit as e:             # argparse: the command declares no such option
        assert e.code == 2


def _replace_once(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


DISCRETE_HEAD = DISCRETE[:DISCRETE.index("stage")]


@pytest.mark.parametrize("channel, aux", [
    (DISCRETE, _replace_once(AUX, "0.5 0\n", "0.5 0.2\n")),
    (DISCRETE, _replace_once(AUX, "0.5 0\n", "0.7 -0.2\n")),
    (_replace_once(DISCRETE, "stage Y1|X:\n1 0\n", "stage Y1|X:\n0.5 0.2\n"), AUX),
    (_replace_once(DISCRETE, "stage Y1|X:\n1 0\n", "stage Y1|X:\n1.2 -0.2\n"), AUX),
    (_replace_once(DISCRETE, "stage Y1|X:\n1 0\n0 1\n", "stage Y1|X:\n1 0 0\n0 1 0\n"), AUX),
    (DISCRETE, _replace_once(AUX, "U 2 X 2", "U 0 X 2")),
    (DISCRETE, _replace_once(AUX, "U 2 X 2", "U 2 U 2")),
    (DISCRETE.replace("Y2", "Y1"), AUX),
    (_replace_once(DISCRETE, "stage Y1|X:\n1 0\n", "stage Y1|X:\nnan 1\n"), AUX),
    (DISCRETE, _replace_once(AUX, "0.5 0\n", "0.5 nan\n")),
    (_replace_once(GAUSS, "S:\n1\n", "S:\nnan\n"), None),
    (DISCRETE_HEAD + "kernel:\n0.5 0.5\n0.5 0.5\n", AUX),
    (_replace_once(DISCRETE, "input: X 2", "input: X 2 W 5"), AUX),
], ids=["aux-mass-1.2", "aux-entry-negative", "stage-row-0.7", "stage-entry-negative",
        "stage-2x3", "aux-cardinality-0", "aux-duplicate-name", "channel-duplicate-name",
        "stage-nan", "aux-nan", "gauss-nan", "kernel-4-entries", "two-inputs"])
def test_cli_file_a_model_refuses_is_an_input_error(tmp_path, channel, aux, capsys):
    argv = ["--channel", write(tmp_path, "c.txt", channel)]
    if aux is None:
        argv = ["gauss", "degraded-check", *argv]
    else:
        argv = ["region", "eval-inner", *argv, "--aux", write(tmp_path, "a.txt", aux)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_cli_repeated_key_is_an_input_error(tmp_path, capsys):
    # the first `input:` line must not be dropped in favour of the second
    channel = _replace_once(DISCRETE, "input: X 2\n", "input: X 3\ninput: X 2\n")
    assert main(["region", "eval-inner", "--channel", write(tmp_path, "c.txt", channel),
                 "--aux", write(tmp_path, "a.txt", AUX)]) == 2
    assert capsys.readouterr().err == "input error: line 3: duplicate key 'input'\n"


@pytest.mark.parametrize("cmd, output, aux_var, aux", [
    ("eval-inner", "Y1", "U", AUX),
    ("eval-outer", "Y2", "U", AUX),
    ("eval-general", "Y2", "V1", LAYERED_AUX),
], ids=["inner-Y1", "outer-Y2", "general-Y2"])
def test_cli_aux_named_like_a_channel_output_is_an_input_error(tmp_path, cmd, output,
                                                                aux_var, aux, capsys):
    channel = DISCRETE.replace(output, aux_var)
    assert main(["region", cmd, "--channel", write(tmp_path, "c.txt", channel),
                 "--aux", write(tmp_path, "a.txt", aux)]) == 2
    assert capsys.readouterr().err == (f"input error: aux variables {aux_var} are named "
                                       f"like channel outputs\n")


def test_non_finite_entry_names_its_line(tmp_path):
    with pytest.raises(ParseError, match="line 6: non-finite entry"):
        parse_channel_file(write(tmp_path, "c.txt", _replace_once(DISCRETE, "0 1\n", "inf 1\n")))


def test_dense_kernel_channel_derives_its_degradedness(tmp_path, capsys):
    path = write(tmp_path, "c.txt",
                 DISCRETE_HEAD + "kernel:\n1 0 0 0 0 0 0 0\n0 0 0 0 0 0 0 1\n")
    ch = parse_channel_file(path)
    assert ch.degraded and ch.kernel.shape == (2, 2, 2, 2)
    argv = ["region", "eval-inner", "--channel", path, "--aux", write(tmp_path, "a.txt", AUX)]
    assert main(argv) == 0
    dense_out = capsys.readouterr()
    assert main(argv[:3] + [write(tmp_path, "d.txt", DISCRETE)] + argv[4:]) == 0
    assert capsys.readouterr() == dense_out


_VALID_FILES = [
    (parse_channel_file, DISCRETE),
    (parse_channel_file, DISCRETE_HEAD + "kernel:\n" + 2 * ("0.125 " * 8 + "\n")),
    (parse_channel_file, GAUSS_2X2),
    (parse_aux_file, AUX),
    (parse_aux_file, LAYERED_AUX),
    (parse_split_file, "kind: split\nK:\n0.5 0.1\n0.1 0.5\n"),
    (parse_split_file, TRIPLE_1X1),
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_VALID_FILES), st.integers(0, 10**6),
       st.sampled_from(["nan", "inf", "negative", "drop", "zero", "extra variable"]))
def test_a_mutated_file_parses_to_a_model_or_an_input_error(tmp_path, case, pick, how):
    # one token of a valid file, replaced: a parser returns a model of finite
    # numbers or refuses the file as an input error, never anything else
    parse, text = case
    lines = [line.split() for line in text.splitlines()]
    spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    i, j = spots[pick % len(spots)]
    lines[i][j] = {"nan": "nan", "inf": "inf", "negative": f"-{lines[i][j]}", "drop": "",
                   "zero": "0", "extra variable": f"{lines[i][j]} W 2"}[how]
    try:
        model = parse(write(tmp_path, "m.txt", "\n".join(" ".join(t) for t in lines) + "\n"))
    except (ParseError, ValidationError):
        return
    if isinstance(model, CovSplit):
        arrays = [m for m in (model.K, model.K0, model.K1, model.K2) if m is not None]
    else:
        arrays = [model.table.probs] if hasattr(model, "table") else _arrays(model)
    assert all(np.isfinite(a).all() for a in arrays)


@pytest.mark.parametrize("argv", [
    ["region", "eval-inner", "--aux", "a.txt"],
    ["region", "sweep", "--budget", "2"],
    ["gauss", "eval", "--split", "s.txt"],
    ["gauss", "sweep", "--budget", "2"],
])
def test_cli_out_with_format_pretty_is_an_input_error(tmp_path, argv, capsys):
    # --out always writes CSV, so a pretty format would be silently ignored
    out = tmp_path / "x.csv"
    argv = argv + ["--channel", "c.txt", "--out", str(out), "--format", "pretty"]
    assert main(argv) == 2
    assert "--format pretty" in capsys.readouterr().err
    assert not out.exists()


_BUNDLED_DAGS = {
    "layered.dag": {"Q": (), "U": ("Q",), "V1": ("U",), "V2": ("U", "V1"),
                    "X": ("U", "V1", "V2"), "Y1": ("X",), "Y2": ("X", "Y1"),
                    "Z": ("X", "Y1", "Y2")},
    "degraded_chain.dag": {"U": (), "X": ("U",), "Y1": ("X",), "Y2": ("Y1",),
                           "Z": ("Y2",)},
}


@pytest.mark.parametrize("name", sorted(_BUNDLED_DAGS))
def test_bundled_dag_files_parse_to_their_structures(name):
    path = pathlib.Path(wiretap_regions.__file__).parent / "data" / "factorizations" / name
    assert parse_dag_file(path) == FactorStructure(_BUNDLED_DAGS[name])


@pytest.mark.parametrize("text, line, what", [
    ("kind: discrete\nnode: U\n", 1, "expected kind: dag"),
    ("kind: dag\nnode: U\nkinda sorta\n", 3, "expected node: lines"),
    ("kind: dag\nnode: A\nnode: B A\n# B again\nnode: B\n", 5, "duplicate node 'B'"),
    ("kind: dag\nnode:\n", 2, "empty node line"),
], ids=["other-kind", "kind-prefix", "repeated-node", "empty-node"])
def test_dag_file_refusals_name_their_line(tmp_path, text, line, what):
    with pytest.raises(ParseError, match=f"line {line}: {what}"):
        parse_dag_file(write(tmp_path, "d.dag", text))


@pytest.mark.parametrize("build, error", [
    (lambda: GaussChannel(S=np.eye(2), Sigma1=0.5 * np.eye(1), Sigma2=np.eye(2),
                          SigmaZ=2 * np.eye(2)), DimensionMismatch),
    (lambda: HGaussChannel(H1=[[1.0, 0.0]], H2=[[1.0]], HZ=[[0.5, 0.0]]), DimensionMismatch),
    (lambda: CovSplit(), ValidationError),
    (lambda: discretize_scalar(GaussChannel(S=np.eye(2), Sigma1=0.5 * np.eye(2),
                                            Sigma2=np.eye(2), SigmaZ=2 * np.eye(2)), 0.5),
     ValidationError),
    (lambda: IneqSystem.of(("x",), [LinIneq.of({"y": 1}, 1.0)]), UnknownVariable),
    (lambda: GaussPair(np.eye(3), d_u=1, d_x=1), DimensionMismatch),
], ids=["gauss-sizes", "gauss-h-widths", "split-empty", "discretize-2x2", "unknown-rate",
        "gauss-pair-size"])
def test_model_errors_name_what_went_wrong(build, error):
    with pytest.raises(error):
        build()


def test_only_io_files_reads_or_writes_files():
    # one home for file I/O: every other module goes through io_files
    for path in sorted(pathlib.Path(wiretap_regions.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = [node.func.id]
            else:
                continue
            if "csv" in names or "open" in names:
                assert path.name == "io_files.py", f"{names} at {path.name}:{node.lineno}"


_NO_SCIPY = """\
import json, sys
from wiretap_regions.cli import main
from wiretap_regions.entropy_algebra import derive_equalities
rc = main(json.loads(sys.argv[1]))
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "numpy.ma" in sys.modules, derive_equalities.cache_info().currsize]))
"""


def test_commands_without_an_lp_load_no_scipy(tmp_path):
    # scipy is imported inside the functions that solve LPs or hull clouds, so
    # the commands that need neither start without it; none of them derives
    # an entropy equality span (`region eval-general` parses the chain's
    # target, which needs none).  Nor do they load numpy.ma, which numpy's
    # np.unique imports on its first call (about 14 ms)
    files = {"c": DISCRETE, "a": AUX, "l": LAYERED_AUX, "g": GAUSS, "k": "kind: split\nK:\n0.5\n",
             "t": TRIPLE_1X1, "h": "kind: gauss_h\nH1:\n2\nH2:\n1\nHZ:\n0.5\n"}
    f = {k: write(tmp_path, k + ".txt", v) for k, v in files.items()}
    commands = [
        ["region", "eval-inner", "--channel", f["c"], "--aux", f["a"]],
        ["region", "eval-outer", "--channel", f["c"], "--aux", f["a"], "--format", "csv"],
        ["region", "eval-general", "--channel", f["c"], "--aux", f["l"]],
        ["gauss", "eval", "--channel", f["g"], "--split", f["k"]],
        ["gauss", "dpc-check", "--channel", f["g"], "--split", f["t"]],
        ["gauss", "degraded-check", "--channel", f["h"]],
        ["fisher", "lemmas", "--mixtures", "--budget", "2"],
        ["fisher", "debruijn", "--budget", "2"],
    ]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(wiretap_regions.__file__).parents[1])}
    for argv in commands:
        run = subprocess.run([sys.executable, "-c", _NO_SCIPY, json.dumps(argv)], env=env,
                             capture_output=True, text=True, check=True)
        assert json.loads(run.stdout.splitlines()[-1]) == [0, [], False, 0], argv


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("budget", [1, 2, 100])
def test_debruijn_draws_every_instance_in_one_call(dim, budget):
    # Generator.normal fills its values in order, so one call gives the bits
    # of a loop of two calls an instance, and leaves the stream where it did
    one, loop = np.random.default_rng(7), np.random.default_rng(7)
    got = cli._gauss_draws(one, budget, dim)
    want = {}
    for i in range(budget):
        d = 1 + i % dim
        want.setdefault(d, []).append((i, loop.normal(size=(2 * d, 2 * d)),
                                       loop.normal(size=(d, d))))
    assert list(got) == list(want)
    for d, (nums, joint, a) in got.items():
        assert nums == [i for i, _, _ in want[d]]
        assert joint.tobytes() == np.stack([j for _, j, _ in want[d]]).tobytes()
        assert a.tobytes() == np.stack([x for _, _, x in want[d]]).tobytes()
    assert one.bit_generator.state == loop.bit_generator.state


_CSV_COMMANDS = {
    "region-eval-inner": ["region", "eval-inner", "--channel", "c", "--aux", "a"],
    "region-eval-outer": ["region", "eval-outer", "--channel", "c", "--aux", "a", "--vertices"],
    "region-eval-general": ["region", "eval-general", "--channel", "c", "--aux", "l"],
    "region-sweep": ["region", "sweep", "--channel", "c", "--budget", "2"],
    "gauss-eval": ["gauss", "eval", "--channel", "g", "--split", "t", "--bound", "general"],
    "gauss-sweep": ["gauss", "sweep", "--channel", "g", "--budget", "2"],
    "fm-verify-appendix": ["fm", "verify-appendix", "--instantiations", "1"],
    "fisher-debruijn": ["fisher", "debruijn", "--budget", "2"],
    "fisher-lemmas": ["fisher", "lemmas", "--budget", "2"],
    "fisher-evidence": ["fisher", "evidence", "--channel", "g", "--budget", "1"],
}


@pytest.mark.parametrize("name", sorted(_CSV_COMMANDS))
def test_every_out_file_is_confirmed_once_on_stdout(tmp_path, name, capsys):
    files = {"c": DISCRETE, "a": AUX, "l": LAYERED_AUX, "g": GAUSS, "t": TRIPLE_1X1}
    argv = [write(tmp_path, a + ".txt", files[a]) if a in files else a
            for a in _CSV_COMMANDS[name]]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if "wrote" in l] == [f"wrote {out}"]
    assert out.read_text().count("\n") >= 2


NOISY = """\
kind: discrete
input: X 2
outputs: Y1 2 Y2 2 Z 2
stage Y1|X:
0.9 0.1
0.2 0.8
stage Y2|Y1:
0.85 0.15
0.1 0.9
stage Z|Y2:
0.7 0.3
0.25 0.75
"""


@pytest.mark.parametrize("argv", [
    ["region", "eval-inner", "--channel", "n", "--aux", "a", "--vertices"],
    ["region", "eval-outer", "--channel", "n", "--aux", "a", "--vertices"],
    ["region", "eval-general", "--channel", "n", "--aux", "l", "--vertices"],
    ["region", "sweep", "--channel", "n", "--budget", "5"],
    ["region", "sweep", "--channel", "n", "--budget", "5", "--mode", "general"],
    ["gauss", "eval", "--channel", "g", "--split", "k", "--vertices"],
    ["gauss", "eval", "--channel", "g", "--split", "t", "--bound", "general", "--vertices"],
    ["gauss", "sweep", "--channel", "g", "--budget", "5"],
], ids=["region-inner", "region-outer", "region-general", "region-sweep-degraded",
        "region-sweep-general", "gauss-inner", "gauss-general", "gauss-sweep"])
def test_no_csv_field_reads_negative_zero(tmp_path, argv):
    # the zero coordinates of a vertex solve and of a rounded hull point can
    # come out as -0.0, which would print as "-0"
    files = {"n": NOISY, "a": AUX, "l": LAYERED_AUX, "g": GAUSS, "k": "kind: split\nK:\n0.5\n",
             "t": TRIPLE_1X1}
    argv = [write(tmp_path, a + ".txt", files[a]) if a in files else a for a in argv]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    with open(out, newline="") as fh:
        fields = [f for row in csv.reader(fh) for f in row]
    assert "0" in fields and "-0" not in fields


@pytest.mark.parametrize("channel, holds", [
    ("kind: gauss\nS:\n1\nSigma1:\n2\nSigma2:\n1\nSigmaZ:\n0.5\n",
     "noise-covariance order holds: False"),
    ("kind: gauss_h\nH1:\n1\nH2:\n2\nHZ:\n0.5\n", "gain-quotient degradedness holds: False"),
], ids=["gauss", "gauss_h"])
def test_cli_degraded_check_names_the_violated_invariant(tmp_path, channel, holds, capsys):
    assert main(["gauss", "degraded-check", "--channel", write(tmp_path, "g.txt", channel)]) == 1
    out = capsys.readouterr().out
    assert holds in out
    assert "violated invariant: " in out


def test_cli_pretty_vertices_are_a_table_of_the_rates(tmp_path, capsys):
    # the default format prints a vertex list as a header of the rate names
    # and one row of six-decimal rates per vertex
    ch, aux = write(tmp_path, "c.txt", NOISY), write(tmp_path, "a.txt", AUX)
    assert main(["region", "eval-outer", "--channel", ch, "--aux", aux, "--vertices"]) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    expect = vertices(eval_degraded_outer(parse_aux_file(aux), parse_channel_file(ch)))
    assert head.split() == list(expect.vars) == ["Rp1", "Rs1", "Rp2", "Rs2"]
    assert all(re.fullmatch(r"( +-?\d+\.\d{6}){4}", row) for row in rows)
    assert np.array([row.split() for row in rows], dtype=float).tolist() == \
        np.round(expect.vertices, 6).tolist()


def _general_rows(tmp_path, capsys, channel, split, order):
    argv = ["gauss", "eval", "--channel", write(tmp_path, "g.txt", channel), "--split",
            write(tmp_path, "t.txt", split), "--bound", "general", "--format", "csv"]
    assert main(argv + (["--order", order] if order else [])) == 0
    return list(csv.reader(capsys.readouterr().out.splitlines()))


def test_cli_general_order_12_is_order_21_with_the_users_swapped(tmp_path, capsys):
    # --order 12 on (Sigma1, Sigma2) and (K1, K2) is --order 21 on (Sigma2,
    # Sigma1) and (K2, K1) with the users' rates and labels exchanged
    swapped_channel = "kind: gauss\nS:\n1\nSigma1:\n1\nSigma2:\n0.5\nSigmaZ:\n2\n"
    swapped_split = "kind: split\nK0:\n0.1\nK1:\n0.3\nK2:\n0.2\n"
    got = _general_rows(tmp_path, capsys, GAUSS, TRIPLE_1X1, "12")
    [header, *rows] = _general_rows(tmp_path, capsys, swapped_channel, swapped_split, None)
    assert header == got[0] == ["kind", "label", "Rp1", "Rs1", "Rp2", "Rs2", "rhs"]
    exchange = str.maketrans("12", "21")
    assert got[1:] == [[kind, label.translate(exchange), p2, s2, p1, s1, rhs]
                       for kind, label, p1, s1, p2, s2, rhs in rows]
    assert got[1:] != rows


def test_cli_dpc_check_refuses_a_single_matrix_split(tmp_path, capsys):
    assert main(["gauss", "dpc-check", "--channel", write(tmp_path, "g.txt", GAUSS),
                 "--split", write(tmp_path, "k.txt", "kind: split\nK:\n0.5\n")]) == 2
    assert capsys.readouterr().err == \
        "input error: dpc-check needs a triple split (K0, K1, K2)\n"


@pytest.mark.parametrize("argv", [
    ["gauss", "eval", "--split", "k"],
    ["gauss", "sweep", "--budget", "2"],
    ["gauss", "dpc-check", "--budget", "2"],
    ["fisher", "evidence", "--budget", "2"],
], ids=["eval", "sweep", "dpc-check", "evidence"])
def test_cli_gauss_command_refuses_a_discrete_channel(tmp_path, argv, capsys):
    argv = [write(tmp_path, "k.txt", "kind: split\nK:\n0.5\n") if a == "k" else a for a in argv]
    assert main(argv + ["--channel", write(tmp_path, "c.txt", DISCRETE)]) == 2
    assert capsys.readouterr().err == "input error: this command needs a gauss channel file\n"


# A cascade whose stage Y1|X rows sum to 1 + 8e-13 and a 2x2 aux of four
# cells 0.2500000000002 (mass 1 + 8e-13): each file passes its own check, and
# the joint of the aux with an output, the product of the two, weighs about
# 1 + 1.6e-12.
HEAVY_CASCADE = """\
kind: discrete
input: X 2
outputs: Y1 2 Y2 2 Z 2
stage Y1|X:
0.95 0.0500000000008
0.05 0.9500000000008
stage Y2|Y1:
0.9 0.1
0.1 0.9
stage Z|Y2:
0.85 0.15
0.15 0.85
"""


def _uniform_aux(names, cells, cell):
    return f"kind: aux\nvars: {names}\ntable:\n" + " ".join([cell] * cells) + "\n"


def _rhs_column(text):
    return [float(r["rhs"]) for r in csv.DictReader(text.splitlines())]


@pytest.mark.parametrize("cmd, names, cells, heavy", [
    ("eval-inner", "U 2 X 2", 4, "0.2500000000002"),
    ("eval-outer", "U 2 X 2", 4, "0.2500000000002"),
    ("eval-general", "Q 2 U 2 V1 2 V2 2 X 2", 32, "0.031250000000025"),
], ids=["inner", "outer", "general"])
def test_inputs_each_within_their_mass_tolerance_are_evaluated_together(tmp_path, capsys, cmd,
                                                                        names, cells, heavy):
    ch = write(tmp_path, "ch.txt", HEAVY_CASCADE)
    aux = write(tmp_path, "aux.txt", _uniform_aux(names, cells, heavy))
    parse_channel_file(ch)                               # each file passes its own check
    parse_aux_file(aux)
    assert main(["region", cmd, "--channel", ch, "--aux", aux, "--format", "csv"]) == 0
    got = _rhs_column(capsys.readouterr().out)
    # the exactly normalised pair gives the same bounds up to the mass deviations
    plain = write(tmp_path, "plain.txt", HEAVY_CASCADE.replace("0000000008", ""))
    exact = write(tmp_path, "exact.txt", _uniform_aux(names, cells, repr(1 / cells)))
    assert main(["region", cmd, "--channel", plain, "--aux", exact, "--format", "csv"]) == 0
    want = _rhs_column(capsys.readouterr().out)
    assert len(got) == len(want) and max(abs(g - w) for g, w in zip(got, want)) <= 1e-11
    # the bounds of the heavy pair can read about -1e-12 where the exact pair's
    # are 0, and its vertices stay in the orthant all the same
    assert main(["region", cmd, "--channel", ch, "--aux", aux, "--vertices", "--format", "csv"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    coords = [r[v] for r in rows for v in ("Rp1", "Rs1", "Rp2", "Rs2")]
    assert rows and all(float(x) >= 0.0 and not x.startswith("-") for x in coords), coords
    assert main(["region", cmd, "--channel", ch, "--aux", aux, "--vertices"]) == 0
    assert "-" not in capsys.readouterr().out


def _ineq_systems_built(monkeypatch, argv):
    """How many IneqSystem values the command builds."""
    from wiretap_regions.polytope_fm import IneqSystem

    built, real = [], IneqSystem.__post_init__

    def counted(self):
        built.append(1)
        real(self)

    with monkeypatch.context() as m:
        m.setattr(IneqSystem, "__post_init__", counted)
        assert main(argv) == 0
    return len(built)


@pytest.mark.parametrize("argv", [
    ["region", "sweep", "--mode", "degraded"],
    ["region", "sweep", "--mode", "general"],
    ["gauss", "sweep", "--mode", "fixed_S"],
    ["gauss", "sweep", "--mode", "trace_P"],
    ["fisher", "evidence"],
], ids=["region-degraded", "region-general", "gauss-fixed_S", "gauss-trace_P", "evidence"])
def test_sweeps_and_evidence_build_no_system_per_sample(tmp_path, monkeypatch, argv):
    # a sweep's samples and the evidence run's mixtures are one stack of
    # right-hand sides, whatever the budget
    ch = write(tmp_path, "ch.txt", DISCRETE if argv[0] == "region" else GAUSS)
    argv = argv + ["--channel", ch, "--seed", "3"]
    main(argv + ["--budget", "2"])                    # loads what a process loads once
    counts = [_ineq_systems_built(monkeypatch, argv + ["--budget", b]) for b in ("5", "50")]
    assert counts[0] == counts[1], counts
