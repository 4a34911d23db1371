"""Two-stage posterior cascade: first-stage network produces a
posteriorgram, sparse temporal offsets sample it, and a second network
classifies the sampled long-term context. The cascade is trained by
``systems.add_second_stage`` on a trained network system."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mlp
from .errors import DimensionMismatch
from .features import FeatureSequence, clamped_rows

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


def posteriorgram(first_stage: mlp.MlpModel, seq: FeatureSequence) -> FeatureSequence:
    """T x C posterior matrix from the first-stage network."""
    _, post = mlp.forward(first_stage, seq.frames)
    return FeatureSequence(post)


def sparse_stack(post: np.ndarray, config: SparseContextConfig) -> np.ndarray:
    """Concatenate posterior rows at each configured offset, clamped to
    the clip boundaries. Output is T x (|offsets| * C)."""
    return clamped_rows(post, config.offsets).reshape(
        post.shape[0], len(config.offsets) * post.shape[1])


def second_stage_inputs(cascade_first: mlp.MlpModel, config: SparseContextConfig,
                        seq: FeatureSequence) -> np.ndarray:
    return sparse_stack(posteriorgram(cascade_first, seq).frames, config)


def classify(cascade: CascadeModel, seq: FeatureSequence) -> np.ndarray:
    """Per-frame labels from the full cascade (lowest-index tie-break)."""
    x2 = second_stage_inputs(cascade.first_stage, cascade.sparse, seq)
    return mlp.predict_frames(cascade.second_stage, x2)

