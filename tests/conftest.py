"""Shared test helpers.

The acceptance tests in test_acceptance.py register one verdict line per
check through record_acceptance; the terminal-summary hook prints them all
at the end of the run so the final report carries an explicit PASS or FAIL
line for every acceptance check, whatever pytest's own outcome display says.
"""

import numpy as np
import pytest

from u2reg import Dataset, SyntheticProcess, corrupt, generate_uncorrupted, rbf_features
from u2reg.rngutil import derive_seed

ACCEPTANCE_LINES = []


def record_acceptance(name: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance checks")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def jacobian_rows(model, X) -> np.ndarray:
    """Row i holds d f(x_i)/d theta in closed form: [x_i, 1] (linear) or phi(x_i) (rbf).

    The reference the reverse-pass gradients are checked against.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if model.kind == "linear":
        return np.hstack([X, np.ones((len(X), 1))])
    assert model.kind == "rbf", model.kind
    return rbf_features(X, model.bases, model.sigma)


def param_jacobian(model, x: np.ndarray) -> np.ndarray:
    """d f(x) / d theta for a single input row, via the reverse pass (no dropout)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != 1:
        raise ValueError("param_jacobian takes a single input row")
    _f, cache = model.forward(model.features(x))
    return model.backward_weighted(cache, np.ones(1))


@pytest.fixture
def low_noise_process():
    return SyntheticProcess.draw(
        10, derive_seed(101, "test-process"), beta=1.0, k_percent=50.0
    )


@pytest.fixture
def small_corrupted(low_noise_process):
    ds = generate_uncorrupted(low_noise_process, 200, derive_seed(101, "test-data"))
    return corrupt(ds, low_noise_process, derive_seed(101, "test-corrupt"))


def make_dataset(n: int = 50, d: int = 3, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, d))
    ys = rng.standard_normal(n)
    return Dataset(xs, ys)
