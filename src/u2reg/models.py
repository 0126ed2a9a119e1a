"""Models with flat parameter vectors and exact parameter Jacobians.

Three architectures share one small protocol:

  - ``predict_batch(X)``: deterministic predictions, dropout off.
  - ``forward_train(X, rng)``: predictions plus a cache for the backward
    pass. For the MLP a train-mode rng draws inverted-dropout masks; passing
    rng=None runs the same deterministic forward as prediction.
  - ``backward_weighted(cache, w)``: sum_i w_i * d f(x_i) / d theta, computed
    in one reverse pass. With a one-hot weight this is the parameter Jacobian
    of a single prediction, and with loss-derivative weights it assembles a
    full batch gradient without materializing per-sample Jacobians.

Parameters always live in a single flat float64 vector ``theta`` so the
optimizer never needs to know the architecture.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .rngutil import derive_rng


@dataclass(frozen=True)
class ArchSpec:
    """Architecture descriptor used by training and the CLI.

    kind: "linear", "rbf" or "mlp".
    sigma: rbf kernel width (rbf only).
    hidden: hidden layer widths (mlp only).
    dropout: drop probability after each hidden activation (mlp only).
    """

    kind: str
    sigma: float | None = None
    hidden: tuple[int, ...] = (100, 100, 100, 100)
    dropout: float = 0.5

    def __post_init__(self):
        if self.kind not in ("linear", "rbf", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "rbf" and (self.sigma is None or not 0.0 < self.sigma < math.inf):
            raise ValueError("rbf model needs a positive, finite sigma")
        if self.kind == "mlp":
            if len(self.hidden) == 0 or any(h < 1 for h in self.hidden):
                raise ValueError("mlp needs at least one positive hidden width")
            if not (0.0 <= self.dropout < 1.0):
                raise ValueError("dropout rate must lie in [0, 1)")


class LinearModel:
    """f(x) = w . x + b with theta = [w, b]."""

    kind = "linear"

    def __init__(self, input_dim: int, theta: np.ndarray | None = None):
        self.input_dim = int(input_dim)
        if theta is None:
            theta = np.zeros(input_dim + 1)
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (input_dim + 1,):
            raise ValueError(
                f"theta length {theta.shape} does not match linear({input_dim}) "
                f"which has {input_dim + 1} parameters"
            )
        self.theta = theta

    @property
    def n_params(self) -> int:
        return self.input_dim + 1

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = _check_inputs(X, self.input_dim)
        return X @ self.theta[:-1] + self.theta[-1]

    def forward_train(self, X: np.ndarray, rng=None):
        X = _check_inputs(X, self.input_dim)
        return X @ self.theta[:-1] + self.theta[-1], X

    def backward_weighted(self, cache, w: np.ndarray) -> np.ndarray:
        X = cache
        g = np.empty(self.n_params)
        g[:-1] = w @ X
        g[-1] = w.sum()
        return g

    def clone_with_theta(self, theta: np.ndarray) -> "LinearModel":
        return LinearModel(self.input_dim, np.array(theta, dtype=float))

    def param_jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        """Row i holds d f(x_i) / d theta; for f = w.x + b that is [x_i, 1]."""
        X = _check_inputs(X, self.input_dim)
        return np.hstack([X, np.ones((X.shape[0], 1))])


def rbf_features(X: np.ndarray, bases: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel features exp(-||x - base_j||^2 / (2 sigma^2))."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    bases = np.atleast_2d(np.asarray(bases, dtype=float))
    sq = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(bases * bases, axis=1)[None, :]
        - 2.0 * (X @ bases.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * sigma * sigma))


class RbfLinearModel:
    """f(x) = theta . phi(x), Gaussian kernels centered on fixed bases."""

    kind = "rbf"

    def __init__(self, bases: np.ndarray, sigma: float, theta: np.ndarray | None = None):
        bases = np.atleast_2d(np.asarray(bases, dtype=float))
        if bases.shape[0] < 1:
            raise ValueError("rbf model needs at least one base")
        if not 0.0 < sigma < math.inf:
            raise ValueError("rbf sigma must be positive and finite")
        self.bases = bases
        self.sigma = float(sigma)
        self.input_dim = bases.shape[1]
        if theta is None:
            theta = np.zeros(bases.shape[0])
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (bases.shape[0],):
            raise ValueError(
                f"theta length {theta.shape} does not match {bases.shape[0]} bases"
            )
        self.theta = theta

    @property
    def n_params(self) -> int:
        return self.bases.shape[0]

    def features(self, X: np.ndarray) -> np.ndarray:
        return rbf_features(_check_inputs(X, self.input_dim), self.bases, self.sigma)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return self.features(X) @ self.theta

    def forward_train(self, X: np.ndarray, rng=None):
        phi = self.features(X)
        return phi @ self.theta, phi

    def backward_weighted(self, cache, w: np.ndarray) -> np.ndarray:
        return w @ cache

    def clone_with_theta(self, theta: np.ndarray) -> "RbfLinearModel":
        return RbfLinearModel(self.bases, self.sigma, np.array(theta, dtype=float))

    def param_jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        """Row i holds d f(x_i) / d theta, i.e. the kernel feature row."""
        return self.features(X)


class MlpModel:
    """Fully connected ReLU network with scalar output.

    Hidden activations use inverted dropout in train mode: units are kept
    with probability 1 - dropout and scaled by 1/(1 - dropout), so the
    prediction-time forward needs no rescaling. theta packs, layer by layer,
    the weight matrix (C order) followed by the bias vector.
    """

    kind = "mlp"

    def __init__(
        self,
        input_dim: int,
        hidden: tuple[int, ...],
        dropout: float = 0.5,
        theta: np.ndarray | None = None,
    ):
        self.input_dim = int(input_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.dropout = float(dropout)
        self.widths = (self.input_dim, *self.hidden, 1)
        self._shapes = [
            (self.widths[i], self.widths[i + 1]) for i in range(len(self.widths) - 1)
        ]
        count = sum(win * wout + wout for win, wout in self._shapes)
        if theta is None:
            theta = np.zeros(count)
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (count,):
            raise ValueError(
                f"theta length {theta.shape} does not match mlp{self.widths} "
                f"which has {count} parameters"
            )
        self.theta = theta

    @property
    def n_params(self) -> int:
        return self.theta.shape[0]

    def _layers(self, theta: np.ndarray):
        out = []
        pos = 0
        for win, wout in self._shapes:
            W = theta[pos : pos + win * wout].reshape(win, wout)
            pos += win * wout
            b = theta[pos : pos + wout]
            pos += wout
            out.append((W, b))
        return out

    def init_theta(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform(-sqrt(6/(fan_in+fan_out)), +...) weights, zero biases."""
        parts = []
        for win, wout in self._shapes:
            limit = np.sqrt(6.0 / (win + wout))
            parts.append(rng.uniform(-limit, limit, size=win * wout))
            parts.append(np.zeros(wout))
        return np.concatenate(parts)

    def _forward(self, X: np.ndarray, rng):
        layers = self._layers(self.theta)
        keep = 1.0 - self.dropout
        a = X
        acts = [a]
        masks = []
        for li, (W, b) in enumerate(layers):
            z = a @ W + b
            if li < len(layers) - 1:
                a = np.maximum(z, 0.0)
                if rng is not None and self.dropout > 0.0:
                    mask = (rng.random(a.shape) < keep) / keep
                    a = a * mask
                else:
                    mask = None
                masks.append(mask)
                acts.append(a)
            else:
                a = z[:, 0]
        return a, (X, acts, masks)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = _check_inputs(X, self.input_dim)
        return self._forward(X, None)[0]

    def forward_train(self, X: np.ndarray, rng=None):
        X = _check_inputs(X, self.input_dim)
        return self._forward(X, rng)

    def backward_weighted(self, cache, w: np.ndarray) -> np.ndarray:
        X, acts, masks = cache
        layers = self._layers(self.theta)
        grads = [None] * len(layers)
        # delta starts as d(sum_i w_i f_i)/d z_last, one column per output unit
        delta = np.asarray(w, dtype=float)[:, None]
        for li in range(len(layers) - 1, -1, -1):
            W, _b = layers[li]
            a_prev = acts[li]
            gW = a_prev.T @ delta
            gb = delta.sum(axis=0)
            grads[li] = (gW, gb)
            if li > 0:
                delta = delta @ W.T
                if masks[li - 1] is not None:
                    delta = delta * masks[li - 1]
                # relu gate: activations are zero exactly where z <= 0
                delta = delta * (acts[li] > 0)
        return np.concatenate([np.concatenate([gW.ravel(), gb]) for gW, gb in grads])

    def clone_with_theta(self, theta: np.ndarray) -> "MlpModel":
        return MlpModel(self.input_dim, self.hidden, self.dropout, np.array(theta, dtype=float))


Model = LinearModel | RbfLinearModel | MlpModel


def _check_inputs(X: np.ndarray, input_dim: int) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != input_dim:
        raise ValueError(f"expected {input_dim} features, got {X.shape[1]}")
    return X


def init_model(
    arch: ArchSpec,
    input_dim: int,
    seed: int,
    rbf_bases: np.ndarray | None = None,
) -> Model:
    """Build a model with its documented initialization.

    linear and rbf start at theta = 0; the mlp draws its weights from the
    fan-balanced uniform law, deterministically from the seed.
    """
    model = _build(arch, input_dim, rbf_bases, None)
    if arch.kind == "mlp":
        model.theta = model.init_theta(derive_rng(seed, "mlp-init"))
    return model


def _build(arch: ArchSpec, input_dim: int, bases, theta) -> Model:
    """The model arch describes; theta None means all zeros."""
    if input_dim < 1:
        raise ValueError("input_dim must be a positive integer")
    if arch.kind == "linear":
        return LinearModel(input_dim, theta)
    if arch.kind == "rbf":
        if bases is None:
            raise ValueError("rbf model needs basis points (pass the training inputs)")
        return RbfLinearModel(bases, arch.sigma, theta)
    return MlpModel(input_dim, arch.hidden, arch.dropout, theta)


def param_jacobian(model: Model, x: np.ndarray, rng=None) -> np.ndarray:
    """d f(x) / d theta for a single input, via the reverse pass.

    Passing a train-mode rng applies the same dropout masks to the forward
    value and its Jacobian, matching what a training step sees.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != 1:
        raise ValueError("param_jacobian takes a single input row")
    _f, cache = model.forward_train(x, rng)
    return model.backward_weighted(cache, np.ones(1))


# ---------------------------------------------------------------------------
# persistence: versioned flat text, bit-exact for theta
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


def model_payload(model: Model) -> dict:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "input_dim": model.input_dim,
        "theta": model.theta.tolist(),
    }
    if model.kind == "rbf":
        payload["sigma"] = model.sigma
        payload["bases"] = model.bases.tolist()
    if model.kind == "mlp":
        payload["hidden"] = list(model.hidden)
        payload["dropout"] = model.dropout
    return payload


def model_from_payload(payload: dict) -> Model:
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model file version {version!r}")
    kind = payload["kind"]
    mlp = {"hidden": tuple(payload["hidden"]), "dropout": payload["dropout"]} if kind == "mlp" else {}
    arch = ArchSpec(kind, sigma=payload.get("sigma"), **mlp)
    return _build(arch, payload["input_dim"], payload.get("bases"), payload["theta"])


def save_model(model: Model, path: str, extra: dict | None = None) -> None:
    """Write the model as JSON text; float lists round-trip bit-exactly."""
    payload = model_payload(model)
    if extra:
        overlap = set(extra) & set(payload)
        if overlap:
            raise ValueError(f"extra metadata clashes with model fields: {sorted(overlap)}")
        payload.update(extra)
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")


def load_model(path: str) -> tuple[Model, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return model_from_payload(payload), payload


def atomic_write_text(path: str, text: str) -> None:
    """Write to a temp file in the target directory, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{os.path.basename(path)}")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)
