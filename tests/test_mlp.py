import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hdnn_audio import mlp
from hdnn_audio.errors import (DimensionMismatch, LabelOutOfRange,
                               NonFiniteGradient)
from hdnn_audio.mlp import (Layer, MlpModel, NewbobSchedule,
                            TrainSchedule, backprop_step, cross_entropy,
                            forward, init_random, loss_and_gradients,
                            predict_frames, sigmoid, train)


def small_model(rng, dims=(4, 6, 3)):
    return init_random(list(dims), rng)


class TestForward:
    def test_posterior_rows_on_simplex(self, rng):
        model = small_model(rng)
        _, post = forward(model, rng.standard_normal((10, 4)))
        assert post.shape == (10, 3)
        assert np.all(post >= 0)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, rtol=1e-12)

    def test_activations_include_input(self, rng):
        model = small_model(rng)
        batch = rng.standard_normal((5, 4))
        acts, post = forward(model, batch)
        assert len(acts) == 3
        np.testing.assert_allclose(acts[0], batch)
        np.testing.assert_allclose(acts[-1], post)

    def test_single_layer_closed_form(self):
        # identity-ish weights: softmax(Wx + b) computed by hand
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = MlpModel([Layer(weights=w, bias=np.zeros(2))])
        _, post = forward(model, np.array([[np.log(3.0), 0.0]]))
        np.testing.assert_allclose(post[0], [0.75, 0.25], rtol=1e-12)

    def test_dim_mismatch(self, rng):
        model = small_model(rng)
        with pytest.raises(DimensionMismatch):
            forward(model, rng.standard_normal((3, 5)))

    def test_leaves_read_only_inputs_unwritten(self, rng):
        # every array forward writes is its own: a write into the batch or
        # the model raises on these read-only arrays
        model = small_model(rng, dims=(4, 6, 5, 3))
        batch = rng.standard_normal((10, 4))
        want = forward(model, batch)[1]
        for arr in [batch] + [a for l in model.layers for a in (l.weights, l.bias)]:
            arr.flags.writeable = False
        acts, post = forward(model, batch)
        np.testing.assert_array_equal(post.view(np.uint64), want.view(np.uint64))
        assert acts[0] is batch and all(a.flags.writeable for a in acts[1:])

    def test_holds_one_array_per_layer_and_one_temporary(self, rng, traced_peak_bytes):
        b, h = 1024, 256
        model = init_random([64, h, h, 8], np.random.default_rng(0))
        batch = rng.standard_normal((b, 64))
        peak = traced_peak_bytes(lambda: forward(model, batch))
        # two B x H activations, the sigmoid's 1 + e and its z >= 0 mask
        assert peak < 3.5 * b * h * 8

    def test_extreme_logits_are_stable(self):
        w = np.array([[1000.0], [-1000.0]])
        model = MlpModel([Layer(weights=w, bias=np.zeros(2))])
        _, post = forward(model, np.array([[1.0]]))
        assert np.all(np.isfinite(post))
        np.testing.assert_allclose(post[0], [1.0, 0.0], atol=1e-12)


class TestModelValidation:
    def test_layers_must_chain(self, rng):
        layers = [Layer(rng.standard_normal((5, 4)), np.zeros(5)),
                  Layer(rng.standard_normal((3, 6)), np.zeros(3))]
        with pytest.raises(DimensionMismatch):
            MlpModel(layers)


class TestCrossEntropy:
    def test_closed_form(self):
        post = np.array([[0.5, 0.25, 0.25], [0.1, 0.8, 0.1]])
        labels = np.array([0, 1])
        expected = -(np.log(0.5) + np.log(0.8)) / 2.0
        assert cross_entropy(post, labels) == pytest.approx(expected, rel=1e-12)

    def test_clamped_at_floor(self):
        post = np.array([[1.0, 0.0]])
        assert cross_entropy(post, np.array([1])) == pytest.approx(-np.log(1e-12))

    def test_label_out_of_range(self):
        post = np.array([[0.5, 0.5]])
        with pytest.raises(LabelOutOfRange):
            cross_entropy(post, np.array([2]))
        with pytest.raises(LabelOutOfRange):
            cross_entropy(post, np.array([-1]))


class TestGradients:
    def finite_difference(self, model, batch, labels, h=1e-5):
        fd = []
        for layer in model.layers:
            gw = np.zeros_like(layer.weights)
            for idx in np.ndindex(layer.weights.shape):
                orig = layer.weights[idx]
                layer.weights[idx] = orig + h
                up = cross_entropy(forward(model, batch)[1], labels)
                layer.weights[idx] = orig - h
                dn = cross_entropy(forward(model, batch)[1], labels)
                layer.weights[idx] = orig
                gw[idx] = (up - dn) / (2 * h)
            gb = np.zeros_like(layer.bias)
            for i in range(len(layer.bias)):
                orig = layer.bias[i]
                layer.bias[i] = orig + h
                up = cross_entropy(forward(model, batch)[1], labels)
                layer.bias[i] = orig - h
                dn = cross_entropy(forward(model, batch)[1], labels)
                layer.bias[i] = orig
                gb[i] = (up - dn) / (2 * h)
            fd.append((gw, gb))
        return fd

    def test_matches_finite_differences(self, rng):
        model = init_random([3, 5, 4, 2], rng)
        batch = rng.standard_normal((6, 3))
        labels = rng.integers(0, 2, size=6)
        _, analytic = loss_and_gradients(model, batch, labels)
        numeric = self.finite_difference(model, batch, labels)
        for (aw, ab), (nw, nb) in zip(analytic, numeric):
            np.testing.assert_allclose(aw, nw, rtol=1e-4, atol=1e-7)
            np.testing.assert_allclose(ab, nb, rtol=1e-4, atol=1e-7)

    def test_backprop_step_applies_gradients(self, rng):
        model = small_model(rng)
        batch = rng.standard_normal((8, 4))
        labels = rng.integers(0, 3, size=8)
        _, grads = loss_and_gradients(model, batch, labels)
        before = [(l.weights.copy(), l.bias.copy()) for l in model.layers]
        loss = backprop_step(model, batch, labels, lr=0.1)
        assert loss == pytest.approx(
            cross_entropy(forward_from(before, batch), labels))
        for layer, (w0, b0), (gw, gb) in zip(model.layers, before, grads):
            np.testing.assert_allclose(layer.weights, w0 - 0.1 * gw, rtol=1e-12)
            np.testing.assert_allclose(layer.bias, b0 - 0.1 * gb, rtol=1e-12)

    def test_descends_on_average(self, rng):
        model = small_model(rng)
        batch = rng.standard_normal((64, 4))
        labels = rng.integers(0, 3, size=64)
        first = backprop_step(model, batch, labels, lr=0.5)
        for _ in range(50):
            last = backprop_step(model, batch, labels, lr=0.5)
        assert last < first

    def test_backprop_step_matches_two_branch_oracle(self, rng):
        model = init_random([7, 9, 8, 6, 4], rng)
        oracle = [(l.weights.copy(), l.bias.copy()) for l in model.layers]
        for _ in range(5):
            batch = rng.standard_normal((16, 7)) * 3.0
            labels = rng.integers(0, 4, size=16)
            loss = backprop_step(model, batch, labels, lr=0.4)
            assert loss == two_branch_backprop_step(oracle, batch, labels, 0.4)
        for layer, (w, b) in zip(model.layers, oracle):
            np.testing.assert_array_equal(layer.weights, w)
            np.testing.assert_array_equal(layer.bias, b)

    def test_non_finite_gradient_leaves_every_layer_unchanged(self, rng):
        # an infinite input saturates the first hidden layer to exact 0/1,
        # so the gradients above it stay finite and only layer 0's is not
        model = init_random([4, 6, 5, 3], rng)
        batch = rng.standard_normal((8, 4))
        batch[0, 0] = np.inf
        labels = rng.integers(0, 3, size=8)
        before = [(l.weights.copy(), l.bias.copy()) for l in model.layers]
        with np.errstate(all="ignore"):
            _, grads = loss_and_gradients(model, batch, labels)
            assert np.isfinite(grads[-1][0]).all()
            with pytest.raises(NonFiniteGradient):
                backprop_step(model, batch, labels, lr=0.1)
        for layer, (w0, b0) in zip(model.layers, before):
            np.testing.assert_array_equal(layer.weights, w0)
            np.testing.assert_array_equal(layer.bias, b0)


def two_branch_sigmoid(z):
    """Oracle: the masked two-branch logistic the package used to compute."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def two_branch_backprop_step(saved, batch, labels, lr):
    """Oracle: the one-hot SGD step the package used to compute, updating
    the (weights, bias) snapshot list in place; returns the batch loss."""
    activations = [batch]
    a = batch
    for i, (w, b) in enumerate(saved):
        z = a @ w.T + b
        if i == len(saved) - 1:
            ez = np.exp(z - z.max(axis=1, keepdims=True))
            a = ez / ez.sum(axis=1, keepdims=True)
        else:
            a = two_branch_sigmoid(z)
        activations.append(a)
    n = batch.shape[0]
    loss = float(-np.log(np.maximum(a[np.arange(n), labels], 1e-12)).mean())
    onehot = np.zeros_like(a)
    onehot[np.arange(n), labels] = 1.0
    delta = (a - onehot) / n
    for i in reversed(range(len(saved))):
        w, b = saved[i]
        grad_w = delta.T @ activations[i]
        grad_b = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ w) * (activations[i] * (1.0 - activations[i]))
        w -= lr * grad_w
        b -= lr * grad_b
    return loss


class TestSigmoid:
    EXTREMES = np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.0,
                         -709.0, 745.0, -745.0, 1e308, -1e308])

    @staticmethod
    def apply(z, in_place):
        """sigmoid(z) with out=None, which must leave z as it was, or
        with out=z, which must return z."""
        if in_place:
            got = sigmoid(z, out=z)
            assert got is z
            return got
        kept = z.copy()
        got = sigmoid(z)
        np.testing.assert_array_equal(z.view(np.uint64), kept.view(np.uint64))
        return got

    @pytest.mark.parametrize("shape, in_place", [
        pytest.param(shape, in_place, id=f"shape{i}" + ("-out_z" if in_place else ""))
        for in_place in (False, True)
        for i, shape in enumerate([(1, 1), (16, 256), (128, 686)])])
    def test_bitwise_equal_to_two_branch_form(self, rng, shape, in_place):
        z = rng.normal(0.0, 20.0, size=shape)
        want = two_branch_sigmoid(z)
        with np.errstate(all="raise"):
            got = self.apply(z, in_place)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_extremes_bitwise_equal_to_two_branch_form(self):
        # exp(-|z|) underflows for |z| >= 709 in both forms, which is
        # benign; overflow, invalid and divide-by-zero must not occur
        for in_place in (False, True):
            z = self.EXTREMES.copy()
            with np.errstate(all="raise", under="ignore"):
                want = two_branch_sigmoid(z)
                got = self.apply(z, in_place)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            assert got[-2] == 1.0 and got[-1] == 0.0

    def test_nan_stays_nan(self):
        assert np.isnan(sigmoid(np.array([np.nan, 1.0, np.nan]))[[0, 2]]).all()


def forward_from(saved, batch):
    """Posteriors of a snapshot (weights, bias) list with the standard
    sigmoid-hidden/softmax-output structure (oracle re-implementation)."""
    a = batch
    for i, (w, b) in enumerate(saved):
        z = a @ w.T + b
        if i == len(saved) - 1:
            ez = np.exp(z - z.max(axis=1, keepdims=True))
            a = ez / ez.sum(axis=1, keepdims=True)
        else:
            a = 1.0 / (1.0 + np.exp(-z))
    return a


class TestNewbob:
    def make(self, baseline=0.0):
        sched = TrainSchedule()
        return NewbobSchedule(sched, baseline)

    def test_scripted_trace(self):
        nb = self.make()
        trace = [10.0, 20.0, 30.0, 30.4, 30.45]
        lrs, stops = [], []
        for acc in trace:
            lrs.append(nb.lr)  # rate used for the epoch that produced acc
            stops.append(nb.update(acc))
        assert lrs == [0.002, 0.002, 0.002, 0.002, 0.001]
        assert stops == [False, False, False, False, True]

    def test_ramp_holds_rate(self):
        nb = self.make()
        for acc in (10.0, 20.0, 30.0):
            assert not nb.update(acc)
            assert nb.lr == 0.002

    def test_halving_continues(self):
        nb = self.make()
        nb.update(10.0)
        nb.update(10.3)  # ends ramp, continues (gain in (0.1, 0.5])
        assert nb.lr == 0.001
        nb.update(10.6)
        assert nb.lr == 0.0005

    def test_regression_stops(self):
        nb = self.make()
        nb.update(50.0)
        assert nb.update(49.0)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TrainSchedule(min_epochs=-1)
        with pytest.raises(ValueError):
            TrainSchedule(min_epochs=31, max_epochs=30)
        with pytest.raises(ValueError):
            TrainSchedule(minibatch_frames=0)
        for lr in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="initial_lr"):
                TrainSchedule(initial_lr=lr)
        TrainSchedule(min_epochs=30, max_epochs=30)


class TestTrain:
    def linearly_separable(self, rng, n=600):
        x = rng.standard_normal((n, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
        return x, y

    def schedule(self, **kw):
        base = dict(initial_lr=0.5, minibatch_frames=32, max_epochs=20, rng_seed=0)
        base.update(kw)
        return TrainSchedule(**base)

    def test_learns_separable_problem(self, rng):
        x, y = self.linearly_separable(rng)
        init = init_random([2, 8, 2], np.random.default_rng(0))
        model, history = train(init, (x, y), self.schedule())
        acc = np.mean(predict_frames(model, x) == y)
        assert acc > 0.9
        assert history[0].lr == 0.5

    def test_zero_epochs_returns_the_model_unchanged(self, rng):
        x, y = self.linearly_separable(rng, n=50)
        init = init_random([2, 4, 2], np.random.default_rng(0))
        want = init_random([2, 4, 2], np.random.default_rng(0))
        model, history = train(init, (x, y), self.schedule(max_epochs=0))
        assert history == []
        assert model is init
        for got, layer in zip(model.layers, want.layers, strict=True):
            np.testing.assert_array_equal(got.weights, layer.weights)
            np.testing.assert_array_equal(got.bias, layer.bias)

    def test_deterministic(self, rng):
        x, y = self.linearly_separable(rng)
        m1, h1 = train(init_random([2, 8, 2], np.random.default_rng(0)), (x, y),
                       self.schedule())
        m2, h2 = train(init_random([2, 8, 2], np.random.default_rng(0)), (x, y),
                       self.schedule())
        for l1, l2 in zip(m1.layers, m2.layers, strict=True):
            assert l1.weights.tobytes() == l2.weights.tobytes()
            assert l1.bias.tobytes() == l2.bias.tobytes()
        assert [r.cv_accuracy for r in h1] == [r.cv_accuracy for r in h2]

    def test_min_epochs_defers_stopping(self, rng):
        x, y = self.linearly_separable(rng)
        _, h_plain = train(init_random([2, 8, 2], np.random.default_rng(0)), (x, y),
                           self.schedule())
        _, h_warm = train(init_random([2, 8, 2], np.random.default_rng(0)), (x, y),
                          self.schedule(min_epochs=6))
        assert len(h_warm) >= 6
        # warmup holds the initial rate throughout
        assert all(r.lr == 0.5 for r in h_warm[:6])
        assert len(h_warm) >= len(h_plain)

    def test_does_not_copy_the_training_split(self, rng, traced_peak_bytes):
        x = rng.standard_normal((20_000, 64))
        y = rng.integers(0, 4, size=20_000)
        init = init_random([64, 32, 4], np.random.default_rng(0))
        schedule = self.schedule(minibatch_frames=1024, max_epochs=1)
        peak = traced_peak_bytes(lambda: train(init, (x, y), schedule))
        # the CV split's copy (a tenth of x) and minibatch-sized arrays
        assert peak < 0.5 * x.nbytes


class TestPredict:
    def test_matches_argmax(self, rng):
        model = small_model(rng)
        batch = rng.standard_normal((30, 4))
        _, post = forward(model, batch)
        np.testing.assert_array_equal(predict_frames(model, batch),
                                      post.argmax(axis=1))

    def test_tie_breaks_low_index(self):
        w = np.zeros((3, 2))
        model = MlpModel([Layer(weights=w, bias=np.zeros(3))])
        assert predict_frames(model, np.array([[1.0, 2.0]]))[0] == 0


class TestInit:
    @given(dims=st.lists(st.integers(1, 12), min_size=2, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_glorot_range_and_structure(self, dims):
        model = init_random(dims, np.random.default_rng(0))
        assert len(model.layers) == len(dims) - 1
        for layer in model.layers:
            r = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
            assert np.all(np.abs(layer.weights) <= r)
            np.testing.assert_array_equal(layer.bias, 0.0)
