"""Two-stage posterior cascade on T x D frame matrices: the first-stage
network's T x C posteriors are sampled at sparse temporal offsets, and a
second network classifies the sampled long-term context. The cascade is
trained by ``systems.add_second_stage`` on a trained network system."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mlp
from .errors import DimensionMismatch
from .features import clamped_rows

DEFAULT_OFFSETS = (-10, -5, 0, 5, 10)


@dataclass
class SparseContextConfig:
    """Frame offsets at which stage-1 posteriors are sampled."""

    offsets: tuple[int, ...] = DEFAULT_OFFSETS

    def __post_init__(self):
        self.offsets = tuple(self.offsets)
        if not all(type(o) is int for o in self.offsets):  # bool is not an int here
            raise ValueError(f"offsets must be integers, got {list(self.offsets)}")
        if any(a >= b for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError("offsets must be strictly increasing")
        if 0 not in self.offsets:
            raise ValueError("offsets must contain 0")


@dataclass
class CascadeModel:
    first_stage: mlp.MlpModel
    sparse: SparseContextConfig
    second_stage: mlp.MlpModel

    def __post_init__(self):
        expected = len(self.sparse.offsets) * self.first_stage.output_dim
        if self.second_stage.input_dim != expected:
            raise DimensionMismatch(
                f"second stage input {self.second_stage.input_dim} != "
                f"|offsets| * C = {expected}")


def sparse_stack(post: np.ndarray, config: SparseContextConfig) -> np.ndarray:
    """Concatenate posterior rows at each configured offset, clamped to
    the clip boundaries. Output is T x (|offsets| * C)."""
    return clamped_rows(post, config.offsets).reshape(
        post.shape[0], len(config.offsets) * post.shape[1])


def second_stage_inputs(first: mlp.MlpModel, config: SparseContextConfig,
                        frames: np.ndarray) -> np.ndarray:
    """``first``'s T x C posteriors of the T x D ``frames``, sparse-stacked."""
    _, post = mlp.forward(first, frames)
    return sparse_stack(post, config)


def classify(cascade: CascadeModel, frames: np.ndarray) -> np.ndarray:
    """Per-frame labels of T x D ``frames`` from the full cascade
    (lowest-index tie-break)."""
    x2 = second_stage_inputs(cascade.first_stage, cascade.sparse, frames)
    return mlp.predict_frames(cascade.second_stage, x2)
