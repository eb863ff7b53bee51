import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gaugeflow import forms, synth

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _transient_peak(fn, *args) -> int:
    """Bytes that fn(*args) allocates above what is live when it starts.

    numpy reports its array allocations to tracemalloc, so the count does
    not depend on the allocator or the host.  A first call fills the
    cached matrices and symbols.
    """
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def transient_peak():
    return _transient_peak


def _random_vector_form(grid, k, m, rng, kmax):
    """Vector-valued k-form with one band_limited_field draw per component."""
    coeffs = np.stack([synth.band_limited_field(grid, rng, kmax, 1, (m,))
                       for _ in forms.components(grid.n, k)])
    return forms.VectorForm(grid, k, coeffs)


@pytest.fixture
def random_vector_form():
    return _random_vector_form


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Replay the acceptance verdict lines after capture is released; live
    # prints from inside the tests only reach the console under -s.
    gate = sys.modules.get("test_acceptance")
    verdicts = getattr(gate, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance gate")
        for line in verdicts:
            terminalreporter.write_line(line)
