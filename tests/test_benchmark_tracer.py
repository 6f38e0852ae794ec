import pathlib

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


def test_traced_sweep_ops_reach_every_expected_layer(monkeypatch, tmp_path, capsys):
    # one op of each sweeps kind, in process: a refactor that bypasses a
    # layer the traced benchmark run expects fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spec
    from tracer import Tracer

    workload = spec.SWEEPS
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
    assert metrics["lp.other.calls"] == 0
