import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdnn_audio import hierarchy, mlp
from hdnn_audio.errors import DimensionMismatch
from hdnn_audio.hierarchy import (CascadeModel, SparseContextConfig, classify,
                                  second_stage_inputs, sparse_stack)


def make_cascade(rng, num_classes=3, in_dim=5):
    offsets = SparseContextConfig(offsets=(-2, 0, 2))
    stage1 = mlp.init_random([in_dim, 6, num_classes], rng)
    stage2 = mlp.init_random([3 * num_classes, 4, num_classes], rng)
    return CascadeModel(first_stage=stage1, sparse=offsets, second_stage=stage2)


class TestSparseConfig:
    def test_defaults(self):
        assert SparseContextConfig().offsets == (-10, -5, 0, 5, 10)

    def test_must_increase(self):
        with pytest.raises(ValueError):
            SparseContextConfig(offsets=(0, -5, 5))

    def test_must_contain_zero(self):
        with pytest.raises(ValueError):
            SparseContextConfig(offsets=(-5, 5))


class TestSparseStack:
    def test_hand_enumerated_with_clamping(self):
        post = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        out = sparse_stack(post, SparseContextConfig(offsets=(-1, 0, 1)))
        assert out.shape == (3, 6)
        np.testing.assert_allclose(out[0], [0, 1, 0, 1, 2, 3])  # left clamp
        np.testing.assert_allclose(out[1], [0, 1, 2, 3, 4, 5])
        np.testing.assert_allclose(out[2], [2, 3, 4, 5, 4, 5])  # right clamp

    def test_zero_offset_only_is_identity(self, rng):
        post = rng.random((7, 4))
        out = sparse_stack(post, SparseContextConfig(offsets=(0,)))
        np.testing.assert_allclose(out, post)

    @given(t=st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_center_block_is_input(self, t):
        rng = np.random.default_rng(t)
        post = rng.random((t, 3))
        config = SparseContextConfig(offsets=(-10, -5, 0, 5, 10))
        out = sparse_stack(post, config)
        assert out.shape == (t, 15)
        np.testing.assert_allclose(out[:, 6:9], post)


class TestCascadeModel:
    def test_dimension_validation(self, rng):
        stage1 = mlp.init_random([5, 4, 3], rng)
        stage2 = mlp.init_random([7, 3], rng)  # should be 3*3=9
        with pytest.raises(DimensionMismatch):
            CascadeModel(first_stage=stage1,
                         sparse=SparseContextConfig(offsets=(-2, 0, 2)),
                         second_stage=stage2)

    def test_classify_equals_composed_stages(self, rng):
        cascade = make_cascade(rng)
        frames = rng.standard_normal((15, 5))
        pred = classify(cascade, frames)
        # oracle: compose the pieces explicitly
        _, post = mlp.forward(cascade.first_stage, frames)
        assert post.shape == (15, 3)
        np.testing.assert_allclose(post.sum(axis=1), 1.0)
        x2 = sparse_stack(post, cascade.sparse)
        _, post2 = mlp.forward(cascade.second_stage, x2)
        np.testing.assert_array_equal(pred, post2.argmax(axis=1))
        np.testing.assert_array_equal(
            x2, second_stage_inputs(cascade.first_stage, cascade.sparse, frames))

