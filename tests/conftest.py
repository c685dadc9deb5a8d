import sys

import pytest


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts of the solver's spectral_norms and pseudoinverse calls."""
    import partlysmooth.solver as solver

    calls = {"spectral_norms": 0, "pseudoinverse": 0}
    for name in calls:
        real = getattr(solver, name)

        def counted(a, _real=real, _name=name):
            calls[_name] += 1
            return _real(a)

        monkeypatch.setattr(solver, name, counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance criteria report their verdict lines here so they stay
    # visible even when pytest captures stdout
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
