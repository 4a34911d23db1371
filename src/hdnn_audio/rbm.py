"""Greedy layer-wise RBM pre-training (CD-1) used to initialize the
hidden layers of the first-stage deep network.

The bottom RBM is Gaussian-Bernoulli over the normalized real-valued
features (unit-variance visibles, mean reconstruction); the stacked
RBMs above it are Bernoulli-Bernoulli over hidden probabilities.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteUpdate
from .mlp import sigmoid


# Reconstruction error only tracks progress (it steers nothing), so a
# subsample of this many rows is enough to watch it each epoch.
RECON_ERROR_ROWS = 1000


class RbmKind(enum.Enum):
    GAUSSIAN_BERNOULLI = "gaussian_bernoulli"
    BERNOULLI_BERNOULLI = "bernoulli_bernoulli"


@dataclass
class RbmModel:
    kind: RbmKind
    weights: np.ndarray       # H x V
    visible_bias: np.ndarray  # V
    hidden_bias: np.ndarray   # H

    @property
    def num_visible(self) -> int:
        return self.weights.shape[1]

    @property
    def num_hidden(self) -> int:
        return self.weights.shape[0]


@dataclass
class PretrainConfig:
    """Layer-wise pre-training hyperparameters."""

    gb_lr: float = 0.005
    gb_epochs: int = 10
    bb_lr: float = 0.05
    bb_epochs: int = 5
    minibatch: int = 1024
    rng_seed: int = 0

    def __post_init__(self):
        if self.gb_lr <= 0 or self.bb_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.gb_epochs < 0 or self.bb_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.minibatch < 1:
            raise ValueError("minibatch must be positive")


def init_rbm(kind: RbmKind, num_visible: int, num_hidden: int,
             rng: np.random.Generator) -> RbmModel:
    """Small-Gaussian weight init (std 0.01), zero biases."""
    return RbmModel(kind=kind,
                    weights=rng.normal(0.0, 0.01, size=(num_hidden, num_visible)),
                    visible_bias=np.zeros(num_visible),
                    hidden_bias=np.zeros(num_hidden))


def hidden_probabilities(rbm: RbmModel, visible: np.ndarray) -> np.ndarray:
    if visible.shape[1] != rbm.num_visible:
        raise DimensionMismatch(
            f"batch dim {visible.shape[1]} != visible units {rbm.num_visible}")
    return sigmoid(visible @ rbm.weights.T + rbm.hidden_bias)


def visible_mean(rbm: RbmModel, hidden: np.ndarray) -> np.ndarray:
    pre = hidden @ rbm.weights + rbm.visible_bias
    if rbm.kind is RbmKind.GAUSSIAN_BERNOULLI:
        return pre
    return sigmoid(pre)


def cd1_step(rbm: RbmModel, batch: np.ndarray, lr: float,
             rng: np.random.Generator) -> RbmModel:
    """One contrastive-divergence-1 update, in place.

    Positive phase uses hidden probabilities; the negative phase samples
    hidden units binary, reconstructs visibles as their mean, and takes
    one more hidden pass.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    b = batch.shape[0]
    h_pos = hidden_probabilities(rbm, batch)
    h_sample = (rng.random(h_pos.shape) < h_pos).astype(np.float64)
    v_neg = visible_mean(rbm, h_sample)
    h_neg = hidden_probabilities(rbm, v_neg)

    grad_w = (h_pos.T @ batch - h_neg.T @ v_neg) / b
    grad_vb = (batch - v_neg).mean(axis=0)
    grad_hb = (h_pos - h_neg).mean(axis=0)
    if not (np.isfinite(grad_w).all() and np.isfinite(grad_vb).all()
            and np.isfinite(grad_hb).all()):
        raise NonFiniteUpdate("non-finite CD-1 update")
    rbm.weights += lr * grad_w
    rbm.visible_bias += lr * grad_vb
    rbm.hidden_bias += lr * grad_hb
    return rbm


def reconstruction_error(rbm: RbmModel, batch: np.ndarray) -> float:
    """Mean squared error of the one-step mean-field reconstruction."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    recon = visible_mean(rbm, hidden_probabilities(rbm, batch))
    return float(np.mean((batch - recon) ** 2))


def train_rbm(rbm: RbmModel, data: np.ndarray, lr: float, epochs: int,
              minibatch: int, rng: np.random.Generator) -> list[float]:
    """CD-1 over shuffled minibatches; returns per-epoch reconstruction
    error on a fixed strided subsample of at most RECON_ERROR_ROWS rows.

    The subsample draws nothing from ``rng``, so the CD-1 trajectory does
    not depend on it.
    """
    data = np.asarray(data, dtype=np.float64)
    stride = max(1, -(-data.shape[0] // RECON_ERROR_ROWS))  # ceiling division
    probe = data[::stride]
    history = []
    for _ in range(epochs):
        order = rng.permutation(data.shape[0])
        for start in range(0, len(order), minibatch):
            cd1_step(rbm, data[order[start:start + minibatch]], lr, rng)
        history.append(reconstruction_error(rbm, probe))
    return history


def pretrain_stack(hidden_dims: list[int], data: np.ndarray,
                   config: PretrainConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Train a stack of RBMs greedily; returns (weights, hidden_bias) per
    hidden layer in MLP orientation (out_dim x in_dim).

    The first RBM is Gaussian-Bernoulli on the data; the rest are
    Bernoulli-Bernoulli on the previous layer's hidden probabilities.
    The softmax output layer is left to random initialization.
    """
    rng = np.random.default_rng(config.rng_seed)
    layer_input = np.asarray(data, dtype=np.float64)
    result = []
    for i, h in enumerate(hidden_dims):
        if i == 0:
            kind, lr, epochs = RbmKind.GAUSSIAN_BERNOULLI, config.gb_lr, config.gb_epochs
        else:
            kind, lr, epochs = RbmKind.BERNOULLI_BERNOULLI, config.bb_lr, config.bb_epochs
        rbm = init_rbm(kind, layer_input.shape[1], h, rng)
        train_rbm(rbm, layer_input, lr, epochs, config.minibatch, rng)
        result.append((rbm.weights.copy(), rbm.hidden_bias.copy()))
        layer_input = hidden_probabilities(rbm, layer_input)
    return result
