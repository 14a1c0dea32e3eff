"""Shared test helpers and the acceptance-report hook.

Acceptance tests register one line per criterion through record_criterion;
the terminal-summary hook re-emits the collected lines so they stay
visible in captured pytest runs.
"""

import numpy as np
import pytest

from irsmimo import harness
from irsmimo.channel import ChannelRealization

ACCEPTANCE_LINES: list[str] = []


def record_criterion(num: int, name: str, passed: bool) -> bool:
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {name}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return passed


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    def key(line):
        return int(line.split("criterion ")[1].split(":")[0])
    for line in sorted(ACCEPTANCE_LINES, key=key):
        terminalreporter.write_line(line)


def cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array (unit variance per entry)."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dense_channel(h_c: np.ndarray, n_bs: int, n_ue: int) -> ChannelRealization:
    """A dense cascaded channel h_c (..., n_bs*n_ue, m) as channel factors
    with K = n_bs*n_ue: khatri_rao(h.T, g) is the identity, so w = h_c."""
    g = np.tile(np.eye(n_bs, dtype=complex), n_ue)
    h = np.repeat(np.eye(n_ue, dtype=complex), n_bs, axis=1).T
    lead = h_c.shape[:-2]
    return ChannelRealization(np.broadcast_to(g, lead + g.shape),
                              np.broadcast_to(h, lead + h.shape), h_c)


@pytest.fixture
def two_blas_threads():
    """Run the test with numpy's OpenBLAS at 2 threads, and restore the
    count after it; yields the count's getter. Skips where numpy's BLAS
    exports no thread-count setter (harness._openblas_threads)."""
    blas = harness._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exports no "
                    "scipy_openblas_set_num_threads64_")
    get, set_ = blas
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)
