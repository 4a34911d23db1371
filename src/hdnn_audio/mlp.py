"""Dense feed-forward networks: sigmoid hidden layers, softmax output,
minibatch SGD with cross-entropy loss and a newbob-style learning-rate
schedule (hold while CV accuracy ramps, then halve until the gain drops
below the stopping threshold)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, LabelOutOfRange, NonFiniteGradient)
from .evaluation import frame_accuracy

POSTERIOR_CLAMP = 1e-12
# newbob thresholds on the epoch-over-epoch CV accuracy gain, in
# percentage points: the rate halves once the gain is at most RAMP and
# training stops once it is below STOP
RAMP_IMPROVEMENT_THRESHOLD = 0.5
STOP_IMPROVEMENT_THRESHOLD = 0.1
# share of the training frames held out as the CV split
CV_FRACTION = 0.10


@dataclass
class Layer:
    weights: np.ndarray  # out_dim x in_dim
    bias: np.ndarray     # out_dim

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class MlpModel:
    """Sigmoid hidden layers followed by a softmax output layer (the last
    one in ``layers``)."""

    layers: list[Layer]

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise DimensionMismatch(
                    f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim


@dataclass
class TrainSchedule:
    """SGD recipe: fixed rate while CV accuracy ramps, then halving."""

    initial_lr: float = 0.002
    minibatch_frames: int = 1024
    max_epochs: int = 50
    min_epochs: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 <= self.min_epochs <= self.max_epochs:
            raise ValueError("need 0 <= min_epochs <= max_epochs")
        if self.minibatch_frames < 1:
            raise ValueError("minibatch_frames must be positive")
        if not self.initial_lr > 0:
            raise ValueError(f"initial_lr must be positive, got {self.initial_lr}")


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    cv_accuracy: float


class NewbobSchedule:
    """Learning-rate state machine driven by successive CV accuracies.

    The rate stays at ``initial_lr`` while the epoch-over-epoch accuracy
    gain exceeds the ramp threshold; afterwards it halves every epoch.
    Training stops once the gain falls below the stopping threshold.
    """

    def __init__(self, schedule: TrainSchedule, baseline_accuracy: float):
        self.lr = schedule.initial_lr
        self.ramping = True
        self.prev_accuracy = baseline_accuracy

    def update(self, cv_accuracy: float) -> bool:
        """Record one epoch's CV accuracy; returns True when training should stop.

        Also advances ``self.lr`` to the rate for the next epoch.
        """
        gain = cv_accuracy - self.prev_accuracy
        self.prev_accuracy = cv_accuracy
        stop = gain < STOP_IMPROVEMENT_THRESHOLD
        if self.ramping and gain <= RAMP_IMPROVEMENT_THRESHOLD:
            self.ramping = False
        if not self.ramping:
            self.lr /= 2.0
        return stop


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function that never overflows: with e = exp(-|z|), it is
    max(e, z >= 0) / (1 + e), one exp per entry.

    Bitwise equal to the two-branch form 1/(1+exp(-z)) for z >= 0 and
    exp(z)/(1+exp(z)) for z < 0, without gathering either branch: the
    numerator is 1 for z >= 0 (-0.0 included), since e <= 1, and e =
    exp(z) for z < 0. NaN stays NaN.

    The result is written into ``out``, a float64 array of ``z``'s shape
    allocated here by default; ``out`` may be ``z`` itself, which the
    callers that own ``z`` pass, so that only 1 + e is allocated.
    """
    pos = z >= 0
    e = np.abs(z, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    # the numerator built with np.copyto(e, 1.0, where=pos) has the same
    # bits but is about 2.5 times slower
    np.maximum(e, pos, out=e)
    return np.divide(e, d, out=e)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax of ``z``, written over ``z``."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def init_random(layer_dims: list[int], rng: np.random.Generator) -> MlpModel:
    """Random init: weights uniform(-r, r) with r = sqrt(6/(in+out)), zero biases.

    ``layer_dims`` lists every dimension input->...->output.
    """
    layers = []
    for d_in, d_out in zip(layer_dims, layer_dims[1:]):
        r = np.sqrt(6.0 / (d_in + d_out))
        w = rng.uniform(-r, r, size=(d_out, d_in))
        layers.append(Layer(weights=w, bias=np.zeros(d_out)))
    return MlpModel(layers=layers)


def forward(model: MlpModel, batch: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Run a B x D_in batch through the net.

    Returns (per-layer activations including the input, final posteriors).
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"batch dim {batch.shape[1]} != model input {model.input_dim}")
    activations = [batch]
    a = batch
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        # each layer's output is one array: its product, biased and then
        # activated in place
        z = a @ layer.weights.T
        z += layer.bias
        a = _softmax(z) if i == last else sigmoid(z, out=z)
        activations.append(a)
    return activations, a


def cross_entropy(posteriors: np.ndarray, labels: np.ndarray) -> float:
    """Mean -ln p[label], with posteriors clamped below at 1e-12."""
    posteriors = np.atleast_2d(posteriors)
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= posteriors.shape[1]:
        raise LabelOutOfRange(
            f"labels must lie in [0, {posteriors.shape[1]}) for this posterior matrix")
    picked = posteriors[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, POSTERIOR_CLAMP)).mean())


def backprop_step(model: MlpModel, batch: np.ndarray, labels: np.ndarray,
                  lr: float) -> float:
    """One SGD step (mean gradient over the batch, no momentum/decay).

    Updates the model in place; returns the pre-update batch loss. Every
    layer's gradient is checked before any layer is updated, so a
    NonFiniteGradient leaves the whole model unchanged.
    """
    loss, grads = _loss_and_gradients(model, batch, labels)
    for i in reversed(range(len(grads))):
        grad_w, grad_b = grads[i]
        if not (np.isfinite(grad_w).all() and np.isfinite(grad_b).all()):
            raise NonFiniteGradient(f"non-finite gradient at layer {i}")
    for layer, (grad_w, grad_b) in zip(model.layers, grads):
        grad_w *= lr
        layer.weights -= grad_w
        grad_b *= lr
        layer.bias -= grad_b
    return loss


def gradients(model: MlpModel, batch: np.ndarray,
              labels: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Mean-over-batch gradients per layer, without updating the model."""
    return _loss_and_gradients(model, batch, labels)[1]


def _loss_and_gradients(model: MlpModel, batch: np.ndarray, labels: np.ndarray
                        ) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Cross-entropy of the batch and its per-layer (weight, bias) gradients."""
    activations, posteriors = forward(model, batch)
    labels = np.asarray(labels)
    loss = cross_entropy(posteriors, labels)
    # softmax + cross-entropy: (posteriors - onehot) / batch size, over
    # the posteriors, which nothing reads after the loss
    delta = posteriors
    delta[np.arange(len(labels)), labels] -= 1.0
    delta /= delta.shape[0]
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(model.layers)
    for i in reversed(range(len(model.layers))):
        grads[i] = (delta.T @ activations[i], delta.sum(axis=0))
        if i > 0:
            # sigmoid derivative expressed through the activation itself
            a = activations[i]
            slope = np.subtract(1.0, a)
            slope *= a
            delta = delta @ model.layers[i].weights
            delta *= slope
    return loss, grads


def train(model: MlpModel, train_set: tuple[np.ndarray, np.ndarray],
          schedule: TrainSchedule) -> tuple[MlpModel, list[EpochRecord]]:
    """Minibatch SGD with a seeded CV split and the newbob-style schedule.

    ``train_set`` is (X, y) with one labeled feature vector per frame.
    Trains ``model`` in place and returns it, at its final epoch, with
    the per-epoch history.
    """
    x, y = train_set
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if schedule.max_epochs == 0:
        return model, []
    rng = np.random.default_rng(schedule.rng_seed)
    n = x.shape[0]
    perm = rng.permutation(n)
    n_cv = max(1, int(round(CV_FRACTION * n)))
    cv_idx, tr_idx = perm[:n_cv], perm[n_cv:]
    x_cv, y_cv = x[cv_idx], y[cv_idx]

    baseline = frame_accuracy(predict_frames(model, x_cv), y_cv)
    newbob = NewbobSchedule(schedule, baseline)
    history: list[EpochRecord] = []
    for epoch in range(1, schedule.max_epochs + 1):
        lr = newbob.lr
        order = rng.permutation(len(tr_idx))
        losses = []
        for start in range(0, len(order), schedule.minibatch_frames):
            # minibatches are gathered from x itself: a training-split copy
            # would hold most of x a second time
            sel = tr_idx[order[start:start + schedule.minibatch_frames]]
            losses.append(backprop_step(model, x[sel], y[sel], lr))
        cv_acc = frame_accuracy(predict_frames(model, x_cv), y_cv)
        history.append(EpochRecord(epoch=epoch, lr=lr,
                                   train_loss=float(np.mean(losses)),
                                   cv_accuracy=cv_acc))
        if epoch <= schedule.min_epochs:
            # warmup: hold the rate and defer schedule decisions; the
            # last warmup epoch's accuracy becomes the newbob baseline
            newbob.prev_accuracy = cv_acc
            continue
        if newbob.update(cv_acc):
            break
    return model, history


def predict_frames(model: MlpModel, frames: np.ndarray) -> np.ndarray:
    """Per-frame argmax label of an N x D frame matrix; ties break to the
    lowest class index."""
    _, post = forward(model, np.atleast_2d(frames))
    return post.argmax(axis=1)

