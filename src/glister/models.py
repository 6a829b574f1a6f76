"""Tiny differentiable classifiers: logistic regression and a 2-layer ReLU MLP.

Losses follow the sum convention: `loss_value` returns the sum of per-sample
losses, never the mean, and gradients match that convention.  Binary margin
losses (logistic, hinge, perceptron) and the squared loss use a single output
column with labels encoded internally as -1/+1 (class 1 maps to +1).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import Dataset
from .numerics import SeededRng, log_sum_exp_rows

__all__ = [
    "LossKind",
    "ModelParams",
    "ModelSpec",
    "init_params",
    "forward",
    "last_layer_inputs",
    "loss_value",
    "logit_grads",
    "grad_full",
    "last_layer_per_sample_grads",
    "last_layer_rows",
    "sgd_epoch",
    "sgd_epoch_stack",
    "hypothesized_labels",
    "accuracy",
    "output_width",
    "flatten_grads",
]


class LossKind(str, Enum):
    CROSS_ENTROPY = "cross_entropy"
    LOGISTIC = "logistic"
    SQUARED = "squared"
    HINGE = "hinge"
    PERCEPTRON = "perceptron"


_MARGIN_LOSSES = {LossKind.LOGISTIC, LossKind.SQUARED, LossKind.HINGE, LossKind.PERCEPTRON}


def output_width(kind: LossKind, num_classes: int) -> int:
    """Margin-style losses drive a single score column; cross-entropy one per class."""
    if kind in _MARGIN_LOSSES:
        if num_classes != 2:
            raise ValueError(f"{kind.value} loss requires exactly 2 classes")
        return 1
    return num_classes


@dataclass(frozen=True)
class ModelParams:
    """Ordered (weight, bias) layers; `activation` is 'identity' for a single
    linear layer or 'relu' applied between layers of an MLP.  The layers are
    packed once into one read-only float64 vector `theta`, and `layers` holds
    read-only views into it (`_layer_views` gives the layout)."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    activation: str = "identity"
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.activation not in ("identity", "relu"):
            raise ValueError("activation must be 'identity' or 'relu'")
        layers = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)) for w, b in self.layers]
        for i, (w, b) in enumerate(layers):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError("layer shapes do not compose")
            if i and w.shape[0] != layers[i - 1][0].shape[1]:
                raise ValueError("adjacent layer dimensions do not compose")
        theta = flatten_grads(layers)
        if not np.all(np.isfinite(theta)):
            raise ValueError("parameters must be finite")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "layers", tuple(_layer_views(theta, [w.shape for w, _ in layers])))

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].shape[1]

    def with_theta(self, vector: np.ndarray) -> "ModelParams":
        """These layers' shapes and activation holding `vector`, laid out as
        `theta`; a vector of another length or with a non-finite entry
        raises ValueError."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != self.theta.shape:
            raise ValueError("parameter vector does not match the layers")
        return ModelParams(tuple(_layer_views(vector, [w.shape for w, _ in self.layers])), self.activation)

    def last_layer_vector(self) -> np.ndarray:
        """The final layer's [W row-major, b]: the tail of `theta`."""
        w, b = self.layers[-1]
        return self.theta[self.theta.size - w.size - b.size:]

    def with_last_layer_vector(self, vector: np.ndarray) -> "ModelParams":
        head = self.theta[: self.theta.size - self.last_layer_vector().size]
        return self.with_theta(np.concatenate([head, vector]))


@dataclass(frozen=True)
class ModelSpec:
    """Architecture knob: 'logistic' is a single linear layer, 'mlp' adds one
    ReLU hidden layer (default width 100)."""

    arch: str = "logistic"
    hidden: int = 100

    def __post_init__(self):
        if self.arch not in ("logistic", "mlp"):
            raise ValueError("arch must be 'logistic' or 'mlp'")
        if isinstance(self.hidden, bool) or not isinstance(self.hidden, numbers.Integral):
            raise ValueError("hidden width must be an integer")
        if self.hidden < 1:
            raise ValueError("hidden width must be >= 1")

    def layer_dims(self, input_dim: int, out_width: int) -> list[int]:
        if self.arch == "logistic":
            return [input_dim, out_width]
        return [input_dim, self.hidden, out_width]


def init_params(layer_dims: list[int], activation: str, rng: SeededRng) -> ModelParams:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] for weights
    and biases alike, drawn in one pass in `theta`'s order."""
    shapes = list(zip(layer_dims[:-1], layer_dims[1:]))
    bounds = np.concatenate([np.full((d + 1) * h, 1.0 / np.sqrt(d)) for d, h in shapes])
    theta = (rng.uniforms(bounds.size) * 2.0 - 1.0) * bounds
    if len(shapes) == 1:
        activation = "identity"  # no hidden layer, nothing to activate
    return ModelParams(tuple(_layer_views(theta, shapes)), activation)


def _forward_cached(params: ModelParams, x: np.ndarray):
    """Forward pass keeping every layer's output for backprop."""
    if x.shape[1] != params.input_dim:
        raise ValueError("input width does not match first layer")
    return _forward_layers(params.layers, params.activation, x)


def _forward_layers(layers, activation: str, x: np.ndarray) -> list:
    """`_forward_cached` on raw (W, b) pairs, with no shape check: the input
    followed by each layer's output, the ReLU applied in place.  A ReLU
    output is positive exactly where its pre-activation is, so backprop
    needs nothing else.  A stack of runs is the same call on x (S, n, d)
    with W (S, d, H) and b (S, 1, H): every product is one matmul per run."""
    acts = [x]
    for li, (w, b) in enumerate(layers):
        h = x @ w
        h += b
        if li < len(layers) - 1 and activation == "relu":
            np.maximum(h, 0.0, out=h)
        acts.append(h)
        x = h
    return acts


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Logits (no softmax), shape (n, out_dim)."""
    x = np.asarray(x, dtype=np.float64)
    return _forward_cached(params, x)[-1]


def last_layer_inputs(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Penultimate activations h, the input of the final layer, shape (n, H):
    x itself for a single linear layer."""
    x = np.asarray(x, dtype=np.float64)
    return _forward_cached(params, x)[-2]


def _signs(y: np.ndarray) -> np.ndarray:
    return 2.0 * y.astype(np.float64) - 1.0


def _check_labels(y: np.ndarray, kind: LossKind, out_dim: int):
    y = np.asarray(y, dtype=np.int64)
    if kind in _MARGIN_LOSSES:
        if out_dim != 1:
            raise ValueError(f"{kind.value} loss needs a single output column")
        if y.size and (y.min() < 0 or y.max() > 1):
            raise ValueError("margin losses need labels in {0, 1}")
    else:
        if y.size and (y.min() < 0 or y.max() >= out_dim):
            raise ValueError("label out of range")
    return y


def _softplus(v: np.ndarray) -> np.ndarray:
    # log(1 + exp(v)) without overflow for large |v|
    return np.where(v > 0, v + np.log1p(np.exp(-np.abs(v))), np.log1p(np.exp(v)))


def loss_value(params: ModelParams, x: np.ndarray, y: np.ndarray, kind: LossKind) -> float:
    """Sum of per-sample losses on (x, y)."""
    z = forward(params, np.asarray(x, dtype=np.float64))
    y = _check_labels(y, kind, z.shape[1])
    if kind == LossKind.CROSS_ENTROPY:
        lse = log_sum_exp_rows(z)
        return float(np.sum(lse - z[np.arange(len(y)), y]))
    f = z[:, 0]
    s = _signs(y)
    m = s * f
    if kind == LossKind.LOGISTIC:
        return float(np.sum(_softplus(-m)))
    if kind == LossKind.SQUARED:
        return float(np.sum((f - s) ** 2))
    if kind == LossKind.HINGE:
        return float(np.sum(np.maximum(0.0, 1.0 - m)))
    if kind == LossKind.PERCEPTRON:
        return float(np.sum(np.maximum(0.0, -m)))
    raise ValueError(f"unknown loss kind {kind}")


def logit_grads(z: np.ndarray, y: np.ndarray, kind: LossKind) -> np.ndarray:
    """Per-sample dLoss/dlogits (delta), shape like z."""
    y = _check_labels(y, kind, z.shape[1])
    return _logit_grads(z, _targets(y, kind, z.shape[1]), kind)


def _targets(y: np.ndarray, kind: LossKind, width: int) -> np.ndarray:
    """Checked labels encoded for `_logit_grads`, one row per label: one-hot
    rows (n, width) for cross-entropy, a column of -1/+1 signs (n, 1) for
    the margin losses.  A stack of runs stacks these along a new first axis."""
    if kind == LossKind.CROSS_ENTROPY:
        onehot = np.zeros((len(y), width))
        onehot[np.arange(len(y)), y] = 1.0
        return onehot
    return _signs(y)[:, None]


def _logit_grads(z: np.ndarray, t: np.ndarray, kind: LossKind) -> np.ndarray:
    """`logit_grads` from `_targets` rows, with no label check.  The softmax
    runs in place on the shifted logits; subtracting a one-hot row is the
    same IEEE operation as subtracting 1 at the label and leaves every other
    entry as it is.  Stacked logits (S, n, C) take stacked targets."""
    if kind == LossKind.CROSS_ENTROPY:
        p = z - z.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        p -= t
        return p
    m = t * z  # margin losses have one score column
    if kind == LossKind.LOGISTIC:
        dm = -1.0 / (1.0 + np.exp(m))  # -sigmoid(-m)
        return t * dm
    if kind == LossKind.SQUARED:
        return 2.0 * (z - t)
    if kind == LossKind.HINGE:
        return -t * (m < 1.0)
    if kind == LossKind.PERCEPTRON:
        return -t * (m < 0.0)
    raise ValueError(f"unknown loss kind {kind}")


def grad_full(params: ModelParams, x: np.ndarray, y: np.ndarray, kind: LossKind):
    """Analytic gradient of `loss_value` w.r.t. every layer; returns a list of
    (dW, db) matching `params.layers`."""
    x = np.asarray(x, dtype=np.float64)
    acts = _forward_cached(params, x)
    return _backprop(params.layers, params.activation, acts, logit_grads(acts[-1], y, kind))


def _backprop(layers, activation: str, acts: list, delta: np.ndarray, out=None):
    """Per-layer (dW, db) of the summed loss from `_forward_layers` outputs
    over raw (W, b) pairs and the logit gradients delta; `grad_full` and
    `sgd_epoch_stack` share it, the latter with a leading stack axis and
    with `out`, a list of (dW, db) arrays shaped like `layers` that receive
    the gradients.  Each db takes its bias's shape: (H,), or (1, H) and
    (S, 1, H) with a row axis."""
    grads = [(None, None)] * len(layers) if out is None else out
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = grads[li]
        grads[li] = (
            np.matmul(acts[li].swapaxes(-1, -2), delta, out=gw),
            np.add.reduce(delta, axis=-2, keepdims=layers[li][1].ndim > 1, out=gb),
        )
        if li > 0:
            delta = delta @ layers[li][0].swapaxes(-1, -2)
            if activation == "relu":
                delta *= acts[li] > 0.0
    return grads


def flatten_grads(grads) -> np.ndarray:
    """(dW, db) or (W, b) layers packed into one new vector in the layout of
    `ModelParams.theta`."""
    return np.concatenate([a.ravel() for layer in grads for a in layer])


def last_layer_per_sample_grads(
    params: ModelParams, x: np.ndarray, y: np.ndarray, kind: LossKind
) -> np.ndarray:
    """One row per sample: the gradient of that sample's loss restricted to
    the final layer, laid out as [W row-major, b]."""
    x = np.asarray(x, dtype=np.float64)
    acts = _forward_cached(params, x)
    delta = logit_grads(acts[-1], y, kind)  # (n, C)
    return last_layer_rows(acts[-2], delta)


def last_layer_rows(h: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Per-sample last-layer gradients [h (x) delta row-major, delta] from the
    penultimate activations h (n, H) and the logit gradients delta (n, C)."""
    outer = h[:, :, None] * delta[:, None, :]  # (n, H, C)
    return np.concatenate([outer.reshape(len(delta), -1), delta], axis=1)


def sgd_epoch(
    params: ModelParams,
    ds: Dataset,
    subset,
    lr: float,
    batch_size: int,
    rng: SeededRng,
    kind: LossKind = LossKind.CROSS_ENTROPY,
) -> ModelParams:
    """One pass of mini-batch SGD over the seeded-shuffled subset: the
    stack of one of `sgd_epoch_stack`, which holds the one implementation.
    Each batch takes a step of lr times the summed batch gradient; the input
    params are left unmodified."""
    return sgd_epoch_stack([params], [ds], [subset], lr, batch_size, [rng], kind)[0]


def sgd_epoch_stack(
    params,
    datasets,
    subsets,
    lr: float,
    batch_size: int,
    rngs,
    kind: LossKind = LossKind.CROSS_ENTROPY,
    names=None,
) -> list[ModelParams]:
    """One SGD epoch for each of S independent runs, stepped together.

    Run i shuffles `subsets[i]` with `rngs[i]` and trains `params[i]` on
    those rows of `datasets[i]`, exactly as it would alone: the stack only
    shares the numpy calls.  Every run needs the same architecture and a
    subset of the same size, so that batch j of every run is one
    (S, batch, ·) slice.  The epoch gathers each run's shuffled rows, checks
    their labels and encodes them once, and copies every run's `theta` into
    one row `theta[i]` of a private buffer.  Each batch writes the
    gradients into the views of a buffer of the same shape and steps every
    parameter of every run with one `grad *= lr; theta -= grad`, which
    rounds exactly as `w - lr * gw` does.  A stacked matmul makes one BLAS
    call per run, the same call as the run's own 2-D product, so every run's
    parameters are bit for bit those of a stack of one.  Each result is
    `with_theta` of its row, validated once, at the end of the epoch; a
    non-finite run raises the `ModelParams` ValueError prefixed with its
    entry of `names`.
    """
    subsets = [np.asarray(s, dtype=np.int64) for s in subsets]
    size = subsets[0].size
    if size == 0:
        raise ValueError("empty subset")
    if any(s.size != size for s in subsets):
        raise ValueError("the runs of a stack need subsets of one size")
    if lr < 0:
        raise ValueError("learning rate must be nonnegative")
    first = params[0]
    shapes = [w.shape for w, _ in first.layers]
    for p, ds in zip(params, datasets):
        if p.activation != first.activation or [w.shape for w, _ in p.layers] != shapes:
            raise ValueError("the runs of a stack need one architecture")
        if ds.features.shape[1] != p.input_dim:
            raise ValueError("input width does not match first layer")
    orders = [rng.shuffle(s) for rng, s in zip(rngs, subsets)]
    x = np.array([ds.features[o] for ds, o in zip(datasets, orders)])
    t = np.array([
        _targets(_check_labels(ds.labels[o], kind, first.out_dim), kind, first.out_dim)
        for ds, o in zip(datasets, orders)
    ])
    theta = np.array([p.theta for p in params])
    grad = np.empty_like(theta)
    layers, grads = _layer_views(theta, shapes), _layer_views(grad, shapes)
    for start in range(0, size, batch_size):
        stop = start + batch_size
        acts = _forward_layers(layers, first.activation, x[:, start:stop])
        delta = _logit_grads(acts[-1], t[:, start:stop], kind)
        _backprop(layers, first.activation, acts, delta, out=grads)
        grad *= lr
        theta -= grad
    out = []
    for i, row in enumerate(theta):
        try:
            out.append(first.with_theta(row))
        except ValueError as exc:
            if names is None:
                raise
            raise ValueError(f"{names[i]}: {exc}") from None
    return out


def _layer_views(flat: np.ndarray, shapes) -> list:
    """(W, b) views into `flat` for weight shapes `shapes`, in the one
    layout of `ModelParams.theta`: each layer's W row-major, then its b.
    A vector gives W (d, H) and b (H,); a stack (S, P), one run per row,
    gives W (S, d, H) and b (S, 1, H), whose row axis broadcasts over a
    batch.  Splitting the contiguous last axis of a slice is always a view,
    so writes to a stack's views write into `flat`."""
    lead = flat.shape[:-1]
    views, at = [], 0
    for d, h in shapes:
        w = flat[..., at:at + d * h].reshape(lead + (d, h))
        at += d * h
        views.append((w, flat[..., None, at:at + h] if lead else flat[at:at + h]))
        at += h
    return views


def hypothesized_labels(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Predicted class per row: argmax over logits (single-column margin
    models predict class 1 on strictly positive score).  Ties resolve to the
    lowest class id."""
    z = forward(params, np.asarray(x, dtype=np.float64))
    if z.shape[1] == 1:
        return (z[:, 0] > 0.0).astype(np.int64)
    return np.argmax(z, axis=1).astype(np.int64)


def accuracy(params: ModelParams, ds: Dataset) -> float:
    return float(np.mean(hypothesized_labels(params, ds.features) == ds.labels))
