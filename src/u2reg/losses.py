"""Loss families for corrected-gradient training.

A :class:`LossSpec` pairs an upper-side loss (applied to labeled points the
current model puts at or below their label, f(x) <= y') with a lower-side
loss. The lower-side loss must have a derivative in f that does not depend on
the label once y < f(x); that label-free derivative is the constant returned
by :func:`lower_grad_coeff` and is what allows the corrected gradient to use
unlabeled points. Absolute loss and pinball loss qualify; squared and huber
do not (their lower-side derivative still contains y).

:func:`loss_value` and :func:`dloss_df` are the only pointwise value and
derivative functions. Each takes one :class:`LossKind`: a corrected method
passes ``spec.upper`` or ``spec.lower`` for the side it needs, and a naive
baseline passes the single kind it trains on every label.

Conventions:
  - squared(f, y) = (f - y)^2, so d/df = 2(f - y). Huber is scaled to match
    the squared loss inside its quadratic region.
  - at a kink (absolute/pinball at f == y, huber at |f - y| == delta) the
    reported derivative is the zero subgradient for absolute/pinball and the
    two-sided limit for huber.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VALID_KINDS = ("squared", "absolute", "pinball", "huber")
LOWER_KINDS = ("absolute", "pinball")


@dataclass(frozen=True)
class LossKind:
    name: str
    param: float | None = None

    def __post_init__(self):
        if self.name not in VALID_KINDS:
            raise ValueError(f"unknown loss kind {self.name!r}")
        if self.name == "pinball":
            if self.param is None or not (0.0 < self.param < 1.0):
                raise ValueError("pinball requires a quantile level in (0, 1)")
        elif self.name == "huber":
            if self.param is None or self.param <= 0.0:
                raise ValueError("huber requires a positive transition width")
        elif self.param is not None:
            raise ValueError(f"{self.name} takes no parameter")

    def __str__(self) -> str:
        if self.param is None:
            return self.name
        return f"{self.name}:{self.param:g}"


def parse_loss_kind(text: str) -> LossKind:
    """Parse "squared", "absolute", "pinball:<tau>" or "huber:<delta>"."""
    name, sep, param = text.partition(":")
    name = name.strip()
    if not sep:
        return LossKind(name)
    try:
        value = float(param)
    except ValueError:
        raise ValueError(f"bad loss parameter in {text!r}") from None
    return LossKind(name, value)


@dataclass(frozen=True)
class LossSpec:
    """Upper-side loss plus a label-free lower-side loss."""

    upper: LossKind
    lower: LossKind

    def __post_init__(self):
        if self.lower.name not in LOWER_KINDS:
            raise ValueError(
                f"lower-side loss must be one of {LOWER_KINDS}, got {self.lower.name!r}"
            )

    @staticmethod
    def parse(upper: str, lower: str) -> "LossSpec":
        return LossSpec(parse_loss_kind(upper), parse_loss_kind(lower))


# ---------------------------------------------------------------------------
# pointwise values and derivatives (vectorized over numpy arrays)
# ---------------------------------------------------------------------------

def loss_value(kind: LossKind, f_x, y):
    """Loss of one kind at prediction f_x against label y."""
    r = np.asarray(f_x, dtype=float) - np.asarray(y, dtype=float)
    if kind.name == "squared":
        return r * r
    if kind.name == "absolute":
        return np.abs(r)
    if kind.name == "pinball":
        tau = kind.param
        # residual u = y - f: tau * max(u, 0) + (1 - tau) * max(-u, 0)
        return tau * np.maximum(-r, 0.0) + (1.0 - tau) * np.maximum(r, 0.0)
    if kind.name == "huber":
        d = kind.param
        a = np.abs(r)
        return np.where(a <= d, r * r, 2.0 * d * a - d * d)
    raise AssertionError(kind)


def dloss_df(kind: LossKind, f_x, y):
    """Derivative of the loss of one kind with respect to the prediction."""
    r = np.asarray(f_x, dtype=float) - np.asarray(y, dtype=float)
    if kind.name == "squared":
        return 2.0 * r
    if kind.name == "absolute":
        return np.sign(r)
    if kind.name == "pinball":
        tau = kind.param
        return np.where(r > 0, 1.0 - tau, np.where(r < 0, -tau, 0.0))
    if kind.name == "huber":
        d = kind.param
        return np.clip(2.0 * r, -2.0 * d, 2.0 * d)
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# label-free derivative constants
# ---------------------------------------------------------------------------

def lower_grad_coeff(spec: LossSpec) -> float:
    """Constant d/df of the lower-side loss for y < f(x).

    absolute -> 1.0, pinball(tau) -> 1 - tau; LossSpec admits no other
    lower kind.
    """
    return 1.0 if spec.lower.name == "absolute" else 1.0 - spec.lower.param


def upper_grad_coeff(spec: LossSpec) -> float:
    """Constant d/df of the upper-side loss for f(x) < y (LU mirror).

    Only losses whose derivative is label-free above the prediction qualify:
    absolute -> -1.0, pinball(tau) -> -tau. squared and huber raise.
    """
    kind = spec.upper
    if kind.name == "absolute":
        return -1.0
    if kind.name == "pinball":
        return -kind.param
    d1, d2 = (float(dloss_df(kind, 1.0, 1.0 + gap)) for gap in (0.7, 2.3))
    raise ValueError(
        f"{kind} has a label-dependent derivative on the above region "
        f"({d1} vs {d2}); it cannot serve as the label-free side"
    )
