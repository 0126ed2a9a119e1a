"""Loss values, derivatives, and the label-free lower-side contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from u2reg.losses import (
    LossKind,
    LossSpec,
    dloss_df,
    loss_value,
    lower_grad_coeff,
    parse_loss_kind,
    upper_grad_coeff,
)

finite = st.floats(-50.0, 50.0, allow_nan=False)
taus = st.floats(0.05, 0.95)


# ---------------------------------------------------------------------------
# pointwise values
# ---------------------------------------------------------------------------

def test_squared_value_and_deriv():
    k = LossKind("squared")
    assert loss_value(k, 3.0, 1.0) == 4.0
    assert dloss_df(k, 3.0, 1.0) == 4.0
    assert dloss_df(k, 0.0, 2.0) == -4.0


def test_absolute_value_and_deriv():
    k = LossKind("absolute")
    assert loss_value(k, 3.0, 1.0) == 2.0
    assert dloss_df(k, 3.0, 1.0) == 1.0
    assert dloss_df(k, -1.0, 1.0) == -1.0
    assert dloss_df(k, 1.0, 1.0) == 0.0  # kink reports the zero subgradient


def test_pinball_value_and_deriv():
    k = LossKind("pinball", 0.25)
    # residual u = y - f; tau * max(u, 0) + (1 - tau) * max(-u, 0)
    assert loss_value(k, 1.0, 3.0) == pytest.approx(0.25 * 2.0)
    assert loss_value(k, 3.0, 1.0) == pytest.approx(0.75 * 2.0)
    assert dloss_df(k, 3.0, 1.0) == pytest.approx(0.75)
    assert dloss_df(k, 1.0, 3.0) == pytest.approx(-0.25)
    assert dloss_df(k, 1.0, 1.0) == 0.0


def test_huber_value_and_deriv():
    k = LossKind("huber", 1.5)
    assert loss_value(k, 1.0, 0.0) == 1.0  # inside the quadratic zone
    assert loss_value(k, 3.0, 0.0) == pytest.approx(2 * 1.5 * 3 - 1.5**2)
    assert dloss_df(k, 1.0, 0.0) == 2.0
    assert dloss_df(k, 3.0, 0.0) == 3.0  # clipped at 2 * delta
    assert dloss_df(k, -3.0, 0.0) == -3.0
    # two-sided limit agrees at the transition point
    assert dloss_df(k, 1.5, 0.0) == 3.0


def test_huber_matches_squared_inside_delta():
    k = LossKind("huber", 2.0)
    sq = LossKind("squared")
    r = np.linspace(-1.9, 1.9, 21)
    assert np.allclose(loss_value(k, r, 0.0), loss_value(sq, r, 0.0))
    assert np.allclose(dloss_df(k, r, 0.0), dloss_df(sq, r, 0.0))


def test_side_dispatch():
    spec = LossSpec.parse("squared", "absolute")
    assert loss_value(spec.upper, 3.0, 1.0) == 4.0
    assert loss_value(spec.lower, 3.0, 1.0) == 2.0
    assert dloss_df(spec.upper, 3.0, 1.0) == 4.0
    assert dloss_df(spec.lower, 3.0, 1.0) == 1.0


# ---------------------------------------------------------------------------
# constructors and parsing
# ---------------------------------------------------------------------------

def test_kind_validation():
    with pytest.raises(ValueError):
        LossKind("cubic")
    with pytest.raises(ValueError):
        LossKind("pinball")  # needs a quantile level
    with pytest.raises(ValueError):
        LossKind("pinball", 1.0)
    with pytest.raises(ValueError):
        LossKind("huber", -1.0)
    with pytest.raises(ValueError):
        LossKind("squared", 2.0)  # takes no parameter


def test_parse_loss_kind():
    assert parse_loss_kind("squared") == LossKind("squared")
    assert parse_loss_kind("pinball:0.3") == LossKind("pinball", 0.3)
    assert parse_loss_kind("huber:2.5") == LossKind("huber", 2.5)
    with pytest.raises(ValueError):
        parse_loss_kind("pinball:huge")


def test_spec_rejects_label_dependent_lower_side():
    with pytest.raises(ValueError):
        LossSpec.parse("absolute", "squared")
    with pytest.raises(ValueError):
        LossSpec.parse("absolute", "huber:1.0")
    # any upper kind is fine as long as the lower side is label free
    LossSpec.parse("huber:1.0", "absolute")
    LossSpec.parse("squared", "pinball:0.4")


# ---------------------------------------------------------------------------
# label-free lower derivative (and the mirrored upper version)
# ---------------------------------------------------------------------------

@given(f=finite, y1=finite, y2=finite, tau=taus)
def test_lower_derivative_ignores_the_label(f, y1, y2, tau):
    ya, yb = f - 1e-6 - abs(y1), f - 1e-6 - abs(y2)  # both strictly below f
    for lower in ("absolute", f"pinball:{tau}"):
        spec = LossSpec.parse("absolute", lower)
        da = dloss_df(spec.lower, f, ya)
        db = dloss_df(spec.lower, f, yb)
        assert da == db
        assert da == lower_grad_coeff(spec)


def test_grad_coeff_values():
    assert lower_grad_coeff(LossSpec.parse("squared", "absolute")) == 1.0
    assert lower_grad_coeff(LossSpec.parse("squared", "pinball:0.3")) == pytest.approx(0.7)
    assert upper_grad_coeff(LossSpec.parse("absolute", "absolute")) == -1.0
    assert upper_grad_coeff(LossSpec.parse("pinball:0.3", "absolute")) == pytest.approx(-0.3)


def test_upper_grad_coeff_rejects_label_dependent_upper():
    with pytest.raises(ValueError):
        upper_grad_coeff(LossSpec.parse("squared", "absolute"))
    with pytest.raises(ValueError):
        upper_grad_coeff(LossSpec.parse("huber:1.0", "absolute"))


# ---------------------------------------------------------------------------
# shape properties: convexity, derivative consistency
# ---------------------------------------------------------------------------

ALL_KINDS = (
    LossKind("squared"),
    LossKind("absolute"),
    LossKind("pinball", 0.2),
    LossKind("pinball", 0.8),
    LossKind("huber", 0.7),
)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_loss_is_convex_along_f(kind):
    y = 0.37
    f = np.linspace(-5.0, 5.0, 801)
    v = loss_value(kind, f, y)
    second = np.diff(v, 2)
    assert second.min() >= -1e-9


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
@settings(max_examples=60)
@given(f=finite, y=finite)
def test_deriv_matches_finite_differences(kind, f, y):
    h = 1e-6
    r = f - y
    if abs(r) < 1e-3:
        f = y + 1e-3 + abs(r)  # step away from the kink
    if kind.name == "huber" and abs(abs(f - y) - kind.param) < 1e-3:
        f += 2e-3
    fd = (loss_value(kind, f + h, y) - loss_value(kind, f - h, y)) / (2 * h)
    d = dloss_df(kind, f, y)
    assert abs(d - fd) / (1.0 + abs(fd)) < 1e-6


def test_vectorized_matches_scalar():
    spec = LossSpec.parse("huber:1.0", "pinball:0.4")
    f = np.array([-2.0, 0.0, 0.5, 3.0])
    y = np.array([1.0, 0.0, -1.0, 2.0])
    for kind in (spec.upper, spec.lower):
        vec = dloss_df(kind, f, y)
        scalar = [float(dloss_df(kind, fi, yi)) for fi, yi in zip(f, y)]
        assert np.allclose(vec, scalar)
