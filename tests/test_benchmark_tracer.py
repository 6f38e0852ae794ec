import pathlib

import pytest

import wiretap_regions.cli as cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_wraps_every_traced_function(monkeypatch):
    # the traced benchmark run wraps functions by module and name and reads
    # some of their parameters by name; install() raises if one is renamed
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    main = cli.main
    tracer = Tracer()
    try:
        tracer.install()
        assert cli.main is not main
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert all(tracer.bindings.values())


@pytest.mark.parametrize("name", ["sweeps", "chain_replay", "evidence", "fisher_checks"])
def test_traced_ops_reach_every_expected_layer(monkeypatch, tmp_path, capsys, name):
    # one op of each kind of a workload, in process: a refactor that bypasses
    # a layer the traced benchmark run expects, or reaches one it expects to
    # stay idle, fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spec
    from tracer import Tracer

    workload = spec.WORKLOADS[name]
    indices = range(len(workload.kinds))
    inputs = spec.make_inputs(workload, 1, indices, str(tmp_path))
    tracer = Tracer()
    try:
        tracer.install()
        for index in indices:
            op = workload.op(1, index, inputs, str(tmp_path))
            assert cli.main(list(op.argv)) == 0, op.argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.pass_metrics()
    assert [m for m in workload.expect_nonzero if not metrics[m]] == []
    assert [m for m in workload.expect_zero if metrics[m]] == []
