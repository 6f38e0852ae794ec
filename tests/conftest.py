import pytest

pytest_plugins = ["pytester"]


@pytest.fixture
def lp_whats(monkeypatch):
    """The ``what`` of every LP solved through ``polytope_fm.solve_lp``."""
    import wiretap_regions.polytope_fm as pf

    real, whats = pf.solve_lp, []

    def solve_lp(*args, what="LP", **kw):
        whats.append(what)
        return real(*args, what=what, **kw)

    monkeypatch.setattr(pf, "solve_lp", solve_lp)
    return whats
