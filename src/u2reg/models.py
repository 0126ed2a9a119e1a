"""Models with flat parameter vectors and exact parameter Jacobians.

Three architectures share one small protocol, features -> forward ->
backward_weighted:

  - ``features(X)``: the per-row array the forward pass reads: X itself
    (checked) for linear and mlp, the kernel features phi(X) for rbf.
  - ``forward(F, rng)``: predictions from features plus a cache for the
    backward pass. For the MLP a train-mode rng draws inverted-dropout
    masks; passing rng=None runs the same deterministic forward as
    prediction.
  - ``backward_weighted(cache, w)``: sum_i w_i * d f(x_i) / d theta, computed
    in one reverse pass. With a one-hot weight this is the parameter Jacobian
    of a single prediction, and with loss-derivative weights it assembles a
    full batch gradient without materializing per-sample Jacobians.

``predict(model, X)`` is the deterministic ``forward(features(X))`` value.
The per-row Jacobians of linear ([x, 1]) and rbf (phi(x)) are closed-form,
so no library path needs them as a method.

Parameters live in a flat float64 vector ``theta`` of length P so the
optimizer never needs to know the architecture. theta may also be a (C, P)
block of C cells of one structure, as the training engine holds them: then F
is (C, B, k) (or (B, k), shared by every cell), w is (C, B), rng is a list of
C generators, and every result gains the leading cell axis. The math is
written once over ``...`` and each 2-D slice runs the same BLAS call as a
single model, so a cell computes the same floats in a block as alone.
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
        self.theta = _as_theta(theta, input_dim + 1,
                               f"linear({input_dim}) which has {input_dim + 1} parameters")

    def features(self, X: np.ndarray) -> np.ndarray:
        return _check_inputs(X, self.input_dim)

    def forward(self, F: np.ndarray, rng=None):
        # w and b stay apart: folding b into the product would change the
        # rounding. b goes in place, so a large F needs one output buffer.
        t = self.theta
        preds = np.matmul(F, t[..., :-1, None])
        preds += t[..., -1:, None]
        return preds[..., 0], F

    def backward_weighted(self, cache, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        return np.concatenate([np.matmul(w[..., None, :], cache)[..., 0, :],
                               w.sum(axis=-1, keepdims=True)], axis=-1)

    def clone_with_theta(self, theta: np.ndarray) -> "LinearModel":
        return LinearModel(self.input_dim, np.array(theta, dtype=float))


def rbf_features(X: np.ndarray, bases: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel features exp(-||x - base_j||^2 / (2 sigma^2)).

    Built in the buffer X @ bases.T returns, so the peak is the (n, m) output
    plus one (256, m) chunk; each float is the one full-size temporaries give.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    bases = np.atleast_2d(np.asarray(bases, dtype=float))
    xx = np.sum(X * X, axis=1)[:, None]
    bb = np.sum(bases * bases, axis=1)
    sq = X @ bases.T
    norms = np.empty((min(256, len(sq)), sq.shape[1]))
    for start in range(0, len(sq), 256):
        rows = sq[start : start + 256]
        rows *= 2.0
        np.subtract(np.add(xx[start : start + 256], bb, out=norms[: len(rows)]), rows, out=rows)
    np.maximum(sq, 0.0, out=sq)
    np.negative(sq, out=sq)
    sq /= 2.0 * sigma * sigma
    return np.exp(sq, out=sq)


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
        self.theta = _as_theta(theta, bases.shape[0], f"{bases.shape[0]} bases")

    def features(self, X: np.ndarray) -> np.ndarray:
        return rbf_features(_check_inputs(X, self.input_dim), self.bases, self.sigma)

    def forward(self, F: np.ndarray, rng=None):
        return np.matmul(F, self.theta[..., None])[..., 0], F

    def backward_weighted(self, cache, w: np.ndarray) -> np.ndarray:
        return np.matmul(np.asarray(w, dtype=float)[..., None, :], cache)[..., 0, :]

    def clone_with_theta(self, theta: np.ndarray) -> "RbfLinearModel":
        return RbfLinearModel(self.bases, self.sigma, np.array(theta, dtype=float))


class MlpModel:
    """Fully connected ReLU network with scalar output.

    Hidden activations use inverted dropout in train mode: units are kept
    with probability 1 - dropout and scaled by 1/(1 - dropout), so the
    prediction-time forward needs no rescaling. theta packs, layer by layer,
    the weight matrix (C order) followed by the bias vector.
    """

    kind = "mlp"

    def __init__(self, input_dim: int, hidden: tuple[int, ...], dropout: float = 0.5,
                 theta: np.ndarray | None = None):
        self.input_dim = int(input_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.dropout = float(dropout)
        self.widths = (self.input_dim, *self.hidden, 1)
        self._shapes = list(zip(self.widths[:-1], self.widths[1:]))
        count = sum(win * wout + wout for win, wout in self._shapes)
        if theta is None:
            theta = np.zeros(count)
        self.theta = _as_theta(theta, count, f"mlp{self.widths} which has {count} parameters")

    def _layers(self, theta: np.ndarray):
        """(W, b) per layer as views of theta: W (..., win, wout), b (..., 1, wout)."""
        lead = theta.shape[:-1]
        out = []
        pos = 0
        for win, wout in self._shapes:
            W = theta[..., pos : pos + win * wout].reshape(*lead, win, wout)
            pos += win * wout
            b = theta[..., None, pos : pos + wout]
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

    def _mask(self, rng, shape) -> np.ndarray:
        """Inverted-dropout mask; a block draws each cell's from its own rng."""
        keep = 1.0 - self.dropout
        mask = np.empty(shape)
        for r, cell in [(rng, mask)] if self.theta.ndim == 1 else zip(rng, mask, strict=True):
            r.random(out=cell)
        return np.divide(mask < keep, keep, out=mask)

    def features(self, X: np.ndarray) -> np.ndarray:
        return _check_inputs(X, self.input_dim)

    def forward(self, F: np.ndarray, rng=None):
        layers = self._layers(self.theta)
        a = F
        acts = [a]
        masks = []
        for li, (W, b) in enumerate(layers):
            a = np.matmul(a, W)  # a fresh array: the layer is built in it
            a += b
            if li < len(layers) - 1:
                np.maximum(a, 0.0, out=a)
                if rng is not None and self.dropout > 0.0:
                    mask = self._mask(rng, a.shape)
                    a *= mask
                else:
                    mask = None
                masks.append(mask)
                acts.append(a)
            else:
                a = a[..., 0]
        return a, (F, acts, masks)

    def backward_weighted(self, cache, w: np.ndarray) -> np.ndarray:
        _F, acts, masks = cache
        layers = self._layers(self.theta)
        lead = self.theta.shape[:-1]
        grads = [None] * len(layers)
        # delta starts as d(sum_i w_i f_i)/d z_last, one column per output unit
        delta = np.asarray(w, dtype=float)[..., None]
        for li in range(len(layers) - 1, -1, -1):
            W, _b = layers[li]
            gW = np.matmul(np.swapaxes(acts[li], -1, -2), delta)
            gb = delta.sum(axis=-2)
            grads[li] = (gW.reshape(*lead, -1), gb)
            if li > 0:
                delta = np.matmul(delta, np.swapaxes(W, -1, -2))
                if masks[li - 1] is not None:
                    delta *= masks[li - 1]
                # relu gate: activations are zero exactly where z <= 0
                delta *= acts[li] > 0
        return np.concatenate([part for pair in grads for part in pair], axis=-1)

    def clone_with_theta(self, theta: np.ndarray) -> "MlpModel":
        return MlpModel(self.input_dim, self.hidden, self.dropout, np.array(theta, dtype=float))


Model = LinearModel | RbfLinearModel | MlpModel


def _as_theta(theta, count: int, what: str) -> np.ndarray:
    """theta as a float64 (count,) vector or a (C, count) block."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != count:
        raise ValueError(f"theta length {theta.shape} does not match {what}")
    return theta


def _check_inputs(X: np.ndarray, input_dim: int) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != input_dim:
        raise ValueError(f"expected {input_dim} features, got {X.shape[1]}")
    return X


def init_model(arch: ArchSpec, input_dim: int, seed: int,
               rbf_bases: np.ndarray | None = None) -> Model:
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
        model = RbfLinearModel(bases, arch.sigma, theta)
        if model.input_dim != input_dim:
            raise ValueError(f"input_dim {input_dim} does not match the "
                             f"{model.input_dim}-wide rbf bases")
        return model
    return MlpModel(input_dim, arch.hidden, arch.dropout, theta)


def predict(model: Model, X: np.ndarray) -> np.ndarray:
    """Predictions for the rows of X, without dropout; (C, n) for a block."""
    return model.forward(model.features(X))[0]


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
    if not isinstance(payload, dict):
        raise ValueError(f"a model file must hold a JSON object, got {payload!r:.60}")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model file version {version!r}")
    kind = payload.get("kind")
    input_dim = _field(payload, "input_dim", _is_int, "an integer")
    theta = _field(payload, "theta", _is_numbers, "a list of numbers")
    sigma = bases = None
    mlp = {}
    if kind == "rbf":
        sigma = _field(payload, "sigma", _is_number, "a number")
        bases = _field(payload, "bases", lambda v: isinstance(v, list) and all(map(_is_numbers, v)),
                       "a list of lists of numbers")
    if kind == "mlp":
        hidden = _field(payload, "hidden", lambda v: isinstance(v, list) and all(map(_is_int, v)),
                        "a list of integers")
        mlp = {"hidden": tuple(hidden), "dropout": _field(payload, "dropout", _is_number, "a number")}
    arch = ArchSpec(kind, sigma=sigma, **mlp)
    return _build(arch, input_dim, bases, theta)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_number_type(type(value))


def _is_number_type(kind: type) -> bool:
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _is_numbers(value) -> bool:
    # one check per element type, not per element: a theta list holds thousands of floats
    return isinstance(value, list) and all(map(_is_number_type, set(map(type, value))))


def _field(payload: dict, key: str, check, what: str):
    """payload[key] if check accepts it; JSON gives no type guarantees."""
    value = payload.get(key)
    if not check(value):
        raise ValueError(f"model file field {key!r} must be {what}, got {value!r:.60}")
    return value


def save_model(model: Model, path: str, extra: dict | None = None) -> None:
    """Write json.dumps(payload, indent=1); float lists round-trip bit-exactly.

    A non-finite theta or bases, which load_model rejects, raises ValueError
    before anything is written.
    """
    payload = model_payload(model)
    if extra:
        overlap = set(extra) & set(payload)
        if overlap:
            raise ValueError(f"extra metadata clashes with model fields: {sorted(overlap)}")
        payload.update(extra)
    # indent forces json's pure-Python encoder, so the float lists go through
    # the C encoder and are spliced in at their (unique) top-level lines
    lists = {key: payload[key] for key in ("theta", "bases") if key in payload}
    text = json.dumps({**payload, **dict.fromkeys(lists)}, indent=1)
    for key, values in lists.items():
        if not np.isfinite(getattr(model, key)).all():
            raise ValueError(f"model field {key!r} holds a non-finite number")
        text = text.replace(f'\n "{key}": null', f'\n "{key}": {_indented_list(values, 1)}', 1)
    atomic_write_text(path, text + "\n")


def _indented_list(values: list, depth: int) -> str:
    """json.dumps(values, indent=1) `depth` levels in, for a list of floats or of float lists."""
    if not values:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    if isinstance(values[0], list):
        items = ("," + pad).join(_indented_list(row, depth + 1) for row in values)
    else:  # a float's text holds no ", ": split the C encoder's compact text there
        items = json.dumps(values)[1:-1].replace(", ", "," + pad)
    return "[" + pad + items + "\n" + " " * depth + "]"


def load_model(path: str) -> tuple[Model, dict]:
    """The model a save_model file holds, and the file's whole payload.

    json reads NaN, Infinity and overflowing literals such as 1e400 as
    non-finite floats; a model whose theta or bases hold one raises.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    model = model_from_payload(payload)
    for key in ("theta", "bases"):
        values = getattr(model, key, None)
        if values is not None and not np.isfinite(values).all():
            raise ValueError(f"{path}: model file field {key!r} holds a non-finite number")
    return model, payload


def atomic_write_text(path: str, text: str) -> None:
    """Write to a temp file in the target directory, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{os.path.basename(path)}")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)
