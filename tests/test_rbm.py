import numpy as np
import pytest

from hdnn_audio import mlp, rbm
from hdnn_audio.errors import DimensionMismatch, NonFiniteUpdate
from hdnn_audio.rbm import (PretrainConfig, RbmKind, cd1_step,
                            hidden_probabilities, init_rbm, pretrain_stack,
                            reconstruction_error, train_rbm, visible_mean)


def correlated_data(rng, n=512, d=12):
    """Strongly structured data a small RBM can compress."""
    latent = rng.standard_normal((n, 2))
    mix = rng.standard_normal((2, d))
    return latent @ mix + 0.1 * rng.standard_normal((n, d))


class TestInit:
    def test_shapes_and_scale(self, rng):
        model = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, 10, 6, rng)
        assert model.weights.shape == (6, 10)
        assert model.num_visible == 10 and model.num_hidden == 6
        assert np.abs(model.weights).max() < 0.1
        np.testing.assert_array_equal(model.visible_bias, 0.0)
        np.testing.assert_array_equal(model.hidden_bias, 0.0)


class TestUnits:
    def test_hidden_probabilities_in_unit_interval(self, rng):
        model = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, 8, 4, rng)
        p = hidden_probabilities(model, rng.standard_normal((20, 8)))
        assert p.shape == (20, 4)
        assert np.all((p > 0) & (p < 1))

    def test_gb_visible_mean_is_linear(self, rng):
        model = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, 8, 4, rng)
        h = rng.random((5, 4))
        np.testing.assert_allclose(visible_mean(model, h),
                                   h @ model.weights + model.visible_bias)

    def test_bb_visible_mean_is_sigmoid(self, rng):
        model = init_rbm(RbmKind.BERNOULLI_BERNOULLI, 8, 4, rng)
        h = rng.random((5, 4))
        pre = h @ model.weights + model.visible_bias
        np.testing.assert_allclose(visible_mean(model, h),
                                   1.0 / (1.0 + np.exp(-pre)))

    def test_dim_mismatch(self, rng):
        model = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, 8, 4, rng)
        with pytest.raises(DimensionMismatch):
            hidden_probabilities(model, rng.standard_normal((3, 9)))

    def test_leave_read_only_inputs_unwritten(self, rng):
        # each returns an array of its own: a write into the batch or the
        # model raises on these read-only arrays
        for kind in RbmKind:
            model = init_rbm(kind, 8, 4, rng)
            batch = rng.random((20, 8))
            hidden = rng.random((20, 4))
            want = (hidden_probabilities(model, batch), visible_mean(model, hidden),
                    reconstruction_error(model, batch))
            for arr in (batch, hidden, model.weights, model.visible_bias,
                        model.hidden_bias):
                arr.flags.writeable = False
            got = (hidden_probabilities(model, batch), visible_mean(model, hidden),
                   reconstruction_error(model, batch))
            for g, w in zip(got, want):
                np.testing.assert_array_equal(np.asarray(g).view(np.uint64),
                                              np.asarray(w).view(np.uint64))

    def test_hidden_probabilities_hold_one_temporary(self, rng, traced_peak_bytes):
        b, v, h = 1024, 128, 256
        model = init_rbm(RbmKind.BERNOULLI_BERNOULLI, v, h, rng)
        batch = rng.random((b, v))
        peak = traced_peak_bytes(lambda: hidden_probabilities(model, batch))
        # the B x H result, the sigmoid's 1 + e and its z >= 0 mask
        assert peak < 2.5 * b * h * 8

    def test_reconstruction_error_squares_in_place(self, rng, traced_peak_bytes):
        b, v, h = 1024, 256, 128
        model = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, v, h, rng)
        batch = rng.standard_normal((b, v))
        peak = traced_peak_bytes(lambda: reconstruction_error(model, batch))
        # the B x H hidden probabilities and the B x V reconstruction,
        # whose error is squared where it is
        assert peak < 2.0 * b * v * 8


class TestTraining:
    def test_cd1_updates_in_place(self, rng):
        model = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, 12, 6, rng)
        before = model.weights.copy()
        out = cd1_step(model, correlated_data(rng, n=64), lr=0.01, rng=rng)
        assert out is model
        assert not np.allclose(model.weights, before)

    def test_non_finite_update_leaves_the_rbm_unchanged(self, rng):
        model = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, 12, 6, rng)
        model.visible_bias[:] = rng.standard_normal(12)
        model.hidden_bias[:] = rng.standard_normal(6)
        kept = [a.copy() for a in (model.weights, model.visible_bias,
                                   model.hidden_bias)]
        batch = correlated_data(rng, n=64)
        batch[3, 5] = np.inf
        with np.errstate(all="ignore"), pytest.raises(NonFiniteUpdate):
            cd1_step(model, batch, lr=0.01, rng=rng)
        for got, want in zip((model.weights, model.visible_bias,
                              model.hidden_bias), kept):
            np.testing.assert_array_equal(got, want)

    def test_reconstruction_error_drops_on_structured_data(self, rng):
        data = correlated_data(rng)
        data = (data - data.mean(axis=0)) / data.std(axis=0)
        model = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, data.shape[1], 8, rng)
        before = reconstruction_error(model, data)
        history = train_rbm(model, data, lr=0.005, epochs=10, minibatch=64,
                            rng=rng)
        assert history[-1] < before

    def test_train_rbm_history_length(self, rng):
        data = correlated_data(rng, n=128)
        model = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, data.shape[1], 4, rng)
        history = train_rbm(model, data, lr=0.005, epochs=3, minibatch=32,
                            rng=rng)
        assert len(history) == 3

    def test_deterministic_given_seed(self, rng):
        data = correlated_data(rng, n=128)
        runs = []
        for _ in range(2):
            model = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, data.shape[1], 4,
                             np.random.default_rng(5))
            train_rbm(model, data, lr=0.005, epochs=2, minibatch=32,
                      rng=np.random.default_rng(6))
            runs.append(model.weights.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


    def test_train_rbm_matches_manual_cd1_loop(self, rng):
        # more rows than RECON_ERROR_ROWS, so the error is taken on a
        # subsample; evaluating it must draw nothing from the RNG
        data = correlated_data(rng, n=2500)
        trained = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, data.shape[1], 4,
                           np.random.default_rng(5))
        manual = init_rbm(RbmKind.GAUSSIAN_BERNOULLI, data.shape[1], 4,
                          np.random.default_rng(5))
        history = train_rbm(trained, data, lr=0.005, epochs=3, minibatch=64,
                            rng=np.random.default_rng(6))
        loop_rng = np.random.default_rng(6)
        for _ in range(3):
            order = loop_rng.permutation(len(data))
            for start in range(0, len(order), 64):
                cd1_step(manual, data[order[start:start + 64]], 0.005, loop_rng)
        np.testing.assert_array_equal(trained.weights, manual.weights)
        np.testing.assert_array_equal(trained.visible_bias, manual.visible_bias)
        np.testing.assert_array_equal(trained.hidden_bias, manual.hidden_bias)
        assert len(history) == 3
        stride = -(-len(data) // rbm.RECON_ERROR_ROWS)
        assert len(data[::stride]) <= rbm.RECON_ERROR_ROWS
        assert history[-1] == reconstruction_error(trained, data[::stride])


class TestPretrainStack:
    def test_layer_shapes_match_mlp_orientation(self, rng):
        data = correlated_data(rng, n=256, d=10)
        config = PretrainConfig(gb_epochs=1, bb_epochs=1, minibatch=64,
                                rng_seed=0)
        stack = pretrain_stack([6, 4], data, config)
        assert len(stack) == 2
        assert all(isinstance(layer, mlp.Layer) for layer in stack)
        assert stack[0].weights.shape == (6, 10) and stack[0].bias.shape == (6,)
        assert stack[1].weights.shape == (4, 6) and stack[1].bias.shape == (4,)

    def test_zero_epochs_keeps_init_scale(self, rng):
        data = correlated_data(rng, n=64, d=10)
        config = PretrainConfig(gb_epochs=0, bb_epochs=0, rng_seed=0)
        stack = pretrain_stack([5], data, config)
        assert np.abs(stack[0].weights).max() < 0.1

    @pytest.mark.parametrize("hidden_dims", [[16, 16, 8], [32, 8]])
    def test_equals_layer_by_layer_reference(self, rng, hidden_dims):
        # upper inputs 16 < 24 and 16 == 16 wide are written over the
        # input below; 32 > 24 is allocated
        data = correlated_data(rng, n=3000, d=24)
        config = PretrainConfig(gb_epochs=2, bb_epochs=2, minibatch=128,
                                rng_seed=3)
        want = []
        ref_rng = np.random.default_rng(config.rng_seed)
        layer_input = data.copy()
        for i, h in enumerate(hidden_dims):
            kind, lr, epochs = ((RbmKind.GAUSSIAN_BERNOULLI, rbm.GB_LR, config.gb_epochs)
                                if i == 0 else
                                (RbmKind.BERNOULLI_BERNOULLI, rbm.BB_LR, config.bb_epochs))
            model = init_rbm(kind, layer_input.shape[1], h, ref_rng)
            train_rbm(model, layer_input, lr, epochs, config.minibatch, ref_rng)
            want += [model.weights, model.hidden_bias]
            layer_input = hidden_probabilities(model, layer_input)
        got = [a for layer in pretrain_stack(hidden_dims, data, config)
               for a in (layer.weights, layer.bias)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))

    def test_read_only_data_is_left_unwritten(self, rng):
        data = correlated_data(rng, n=300, d=12)
        config = PretrainConfig(gb_epochs=1, bb_epochs=1, minibatch=64)
        want = pretrain_stack([8, 4], data.copy(), config)
        data.flags.writeable = False
        got = pretrain_stack([8, 4], data, config)
        for g, w in zip(got, want, strict=True):
            for a, b in ((g.weights, w.weights), (g.bias, w.bias)):
                np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_blocked_upper_input_equals_one_shot_pass(self, rng):
        # two full blocks and a remainder block
        n = 2 * rbm.UPPER_INPUT_ROW_BLOCK + 37
        # a new array, in place as wide, and over the prefix of a wider input
        for num_visible, in_place in ((24, False), (16, True), (24, True)):
            model = init_rbm(RbmKind.BERNOULLI_BERNOULLI, num_visible, 16, rng)
            model.weights *= 100.0  # sigmoid saturates both ways
            model.hidden_bias = rng.standard_normal(16)
            visible = rng.random((n, num_visible))
            want = hidden_probabilities(model, visible)
            out = visible.reshape(-1)[:n * 16].reshape(n, 16) if in_place else None
            blocked = rbm._blocked_hidden_probabilities(model, visible, out=out)
            assert (out is None or blocked is out) and \
                np.shares_memory(blocked, visible) == in_place
            assert blocked.shape == want.shape == (n, 16)
            np.testing.assert_array_equal(blocked.view(np.uint64), want.view(np.uint64))

    def test_upper_layer_inputs_live_in_the_data(self, rng, traced_peak_bytes):
        config = PretrainConfig(gb_epochs=1, bb_epochs=1, minibatch=256,
                                rng_seed=0)
        for hidden_dims in ([64, 64], [64, 64, 64], [64, 32, 16]):
            data = rng.standard_normal((20_000, 64))
            peak = traced_peak_bytes(lambda: pretrain_stack(hidden_dims, data, config))
            # every upper-layer input is written over the data, so only
            # temporaries of one row block or one minibatch remain (0.16-0.19
            # measured; 1.19-1.54 when each upper input was a new array)
            assert peak < 0.3 * data.nbytes

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PretrainConfig(gb_epochs=-1)
        with pytest.raises(ValueError):
            PretrainConfig(bb_epochs=-1)
        with pytest.raises(ValueError):
            PretrainConfig(minibatch=0)
