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
