import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from hdnn_audio import gmm
from hdnn_audio.errors import DataTooSmall, DimensionMismatch, EmptyInput
from hdnn_audio.gmm import (DiagGmm, GmmConceptBank, adapt_concept,
                            classify_frames, em_train, kmeans_pp_init,
                            log_likelihood_ratios, log_likelihoods, train_ubm,
                            ubm_global_variance)


def random_gmm(rng, k=3, d=4):
    w = rng.random(k) + 0.1
    return DiagGmm(weights=w / w.sum(),
                   means=rng.standard_normal((k, d)),
                   variances=rng.random((k, d)) + 0.5)


def two_cluster_data(rng, n=400, d=3):
    a = rng.normal(-3.0, 1.0, size=(n // 2, d))
    b = rng.normal(3.0, 1.0, size=(n // 2, d))
    return np.vstack([a, b])


def assert_bitwise_equal(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def special_rows(rng, k=16):
    """One row per case the log-sum-exp must match scipy on."""
    rows = rng.standard_normal((9, k)) * 40.0
    rows[1, [2, 7, 11]] = rows[1].max() + 3.0           # tied maxima
    rows[2, [0, 5, 9]] = -np.inf                         # scattered -inf
    rows[3] = -np.inf                                    # all -inf: -inf, not NaN
    rows[4, 6] = np.inf                                  # +inf
    rows[5, 3] = np.nan                                  # NaN
    rows[6, [1, 4]] = -np.inf                            # -inf and tied maxima
    rows[6, [8, 12]] = rows[6].max() + 1.0
    rows[7] = rows[7] * 30.0 + 800.0                     # exp(a) overflows
    rows[8] = 5.0                                        # all tied
    return rows


class TestLogsumexp:
    @pytest.mark.parametrize("row", range(9))
    def test_1d_matches_scipy(self, row, rng):
        a = special_rows(rng)[row]
        assert_bitwise_equal(gmm.logsumexp(a), logsumexp(a, axis=-1))

    def test_2d_matches_scipy(self, rng):
        a = np.vstack([special_rows(rng), rng.standard_normal((40, 16)) * 20.0])
        assert_bitwise_equal(gmm.logsumexp(a), logsumexp(a, axis=-1))

    def test_3d_matches_scipy(self, rng):
        rows = special_rows(rng, k=64)
        a = np.stack([rows, rows[::-1], rng.standard_normal(rows.shape) * 60.0])
        assert_bitwise_equal(gmm.logsumexp(a), logsumexp(a, axis=-1))

    def test_edge_values(self, rng):
        out = gmm.logsumexp(special_rows(rng))
        assert out[3] == -np.inf
        assert out[4] == np.inf
        assert np.isnan(out[5])
        assert out[8] == 5.0 + np.log(16.0)


def random_bank(rng, d, k=64, num_concepts=8):
    """A UBM and concepts perturbed from it, as adaptation leaves them."""
    ubm = random_gmm(rng, k=k, d=d)
    concepts = {}
    for c in range(num_concepts):
        w = ubm.weights * (rng.random(k) + 0.5)
        concepts[f"c{c}"] = DiagGmm(
            weights=w / w.sum(),
            means=ubm.means + 0.3 * rng.standard_normal((k, d)),
            variances=ubm.variances * (rng.random((k, d)) + 0.5))
    return GmmConceptBank(ubm=ubm, concept_models=concepts,
                          labels=list(concepts))


def per_concept_llrs(bank, frames):
    """The scorer before stacking: one scipy log-sum-exp per model."""
    ubm_ll = logsumexp(gmm._component_log_densities(bank.ubm, frames), axis=1)
    return np.stack([
        logsumexp(gmm._component_log_densities(bank.concept_models[l], frames),
                  axis=1) - ubm_ll
        for l in bank.labels], axis=1)


def check_stacked_scoring_matches_per_concept_loop():
    """D of the three GMM front-ends; one model's product over 17 rows
    takes OpenBLAS's small-matrix kernel, and SCORE_ROW_BLOCK + 1 rows
    are scored in two blocks."""
    rng = np.random.default_rng(5)
    for d in (42, 70, 294):
        bank = random_bank(rng, d)
        for n in (1, 17, 160, gmm.SCORE_ROW_BLOCK + 1):
            frames = rng.standard_normal((n, d)) * 2.0
            expected = per_concept_llrs(bank, frames)
            assert_bitwise_equal(log_likelihood_ratios(bank, frames), expected)
            np.testing.assert_array_equal(classify_frames(bank, frames),
                                          expected.argmax(axis=1))


class TestStackedScoring:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_matches_per_concept_loop_at_blas_threads(self, threads):
        here = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(here), str(Path(gmm.__file__)
                                                             .resolve().parents[1])]))
        proc = subprocess.run(
            [sys.executable, "-c", "import test_gmm; "
             "test_gmm.check_stacked_scoring_matches_per_concept_loop()"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            classify_frames(random_bank(rng, d=4, k=3), np.zeros((5, 3)))


class TestLogLikelihoods:
    def test_single_component_matches_scipy(self, rng):
        model = random_gmm(rng, k=1)
        x = rng.standard_normal((10, 4))
        expected = scipy.stats.multivariate_normal(
            mean=model.means[0], cov=np.diag(model.variances[0])).logpdf(x)
        np.testing.assert_allclose(log_likelihoods(model, x), expected,
                                   rtol=1e-10)

    def test_mixture_matches_brute_force(self, rng):
        model = random_gmm(rng)
        x = rng.standard_normal((10, 4))
        per_comp = np.stack([
            np.log(model.weights[k]) + scipy.stats.multivariate_normal(
                mean=model.means[k], cov=np.diag(model.variances[k])).logpdf(x)
            for k in range(3)], axis=1)
        np.testing.assert_allclose(log_likelihoods(model, x),
                                   logsumexp(per_comp, axis=1), rtol=1e-10)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            log_likelihoods(random_gmm(rng), rng.standard_normal((5, 3)))


class TestEm:
    def test_log_likelihood_never_decreases(self, rng):
        data = two_cluster_data(rng)
        init = kmeans_pp_init(data, 4, rng)
        _, history = em_train(init, data, iterations=15)
        gains = np.diff(history)
        assert np.all(gains >= -1e-6)

    def test_finds_two_clusters(self, rng):
        data = two_cluster_data(rng)
        init = kmeans_pp_init(data, 2, rng)
        model, _ = em_train(init, data, iterations=20)
        centers = np.sort(model.means[:, 0])
        assert centers[0] == pytest.approx(-3.0, abs=0.5)
        assert centers[1] == pytest.approx(3.0, abs=0.5)
        np.testing.assert_allclose(model.weights, [0.5, 0.5], atol=0.05)

    def test_weights_stay_on_simplex(self, rng):
        data = two_cluster_data(rng)
        model, _ = em_train(kmeans_pp_init(data, 5, rng), data, iterations=10)
        assert np.all(model.weights >= 0)
        assert model.weights.sum() == pytest.approx(1.0)

    def test_variance_floor_enforced(self, rng):
        # many duplicated points would otherwise collapse a variance to 0
        data = np.vstack([np.zeros((50, 2)), np.ones((50, 2))])
        init = kmeans_pp_init(data + 1e-3 * rng.standard_normal(data.shape), 2, rng)
        model, _ = em_train(init, data, iterations=10)
        assert np.all(model.variances > 0)

    def test_early_stop_on_small_gain(self, rng):
        data = two_cluster_data(rng)
        init = kmeans_pp_init(data, 2, rng)
        _, full = em_train(init, data, iterations=50)
        _, stopped = em_train(init, data, iterations=50, ll_gain_stop=1e-4)
        assert len(stopped) <= len(full)

    def test_empty_raises(self, rng):
        with pytest.raises(EmptyInput):
            em_train(random_gmm(rng), np.empty((0, 4)), iterations=1)


class TestKmeansInit:
    def test_requires_enough_frames(self, rng):
        with pytest.raises(DataTooSmall):
            kmeans_pp_init(rng.standard_normal((3, 2)), 4, rng)

    def test_deterministic_for_seed(self):
        data = two_cluster_data(np.random.default_rng(0))
        a = kmeans_pp_init(data, 3, np.random.default_rng(42))
        b = kmeans_pp_init(data, 3, np.random.default_rng(42))
        np.testing.assert_array_equal(a.means, b.means)

    def test_valid_gmm(self, rng):
        model = kmeans_pp_init(two_cluster_data(rng), 4, rng)
        assert model.weights.sum() == pytest.approx(1.0)
        assert np.all(model.variances > 0)


class TestUbmAdaptation:
    def test_ubm_global_variance_law_of_total_variance(self, rng):
        model = random_gmm(rng)
        samples = []
        comp_rng = np.random.default_rng(0)
        for _ in range(200000):
            k = comp_rng.choice(3, p=model.weights)
            samples.append(comp_rng.normal(model.means[k],
                                           np.sqrt(model.variances[k])))
        empirical = np.var(np.asarray(samples), axis=0)
        np.testing.assert_allclose(ubm_global_variance(model), empirical,
                                   rtol=0.05)

    def test_adaptation_raises_concept_likelihood(self, rng):
        data = two_cluster_data(rng)
        ubm = train_ubm(data, k=4, iterations=10, seed=0)
        concept = data[:200] + 0.5  # shifted subpopulation
        adapted = adapt_concept(ubm, concept, iterations=5)
        assert log_likelihoods(adapted, concept).mean() \
            > log_likelihoods(ubm, concept).mean()

    def test_means_only_path_for_tiny_concepts(self, rng):
        data = two_cluster_data(rng)
        ubm = train_ubm(data, k=8, iterations=5, seed=0)
        tiny = data[:4]
        adapted = adapt_concept(ubm, tiny, iterations=3)
        np.testing.assert_array_equal(adapted.weights, ubm.weights)
        np.testing.assert_array_equal(adapted.variances, ubm.variances)
        assert not np.allclose(adapted.means, ubm.means)

    def test_empty_concept_raises(self, rng):
        ubm = train_ubm(two_cluster_data(rng), k=2, iterations=3, seed=0)
        with pytest.raises(EmptyInput):
            adapt_concept(ubm, np.empty((0, 3)))


class TestScoring:
    def make_bank(self, rng):
        data = two_cluster_data(rng)
        ubm = train_ubm(data, k=2, iterations=5, seed=0)
        models = {"lo": adapt_concept(ubm, data[:200], iterations=3),
                  "hi": adapt_concept(ubm, data[200:], iterations=3)}
        return GmmConceptBank(ubm=ubm, concept_models=models,
                              labels=["lo", "hi"]), data

    def test_classify_matches_brute_force(self, rng):
        bank, data = self.make_bank(rng)
        frames = data[::7]
        pred = classify_frames(bank, frames)
        ubm_ll = log_likelihoods(bank.ubm, frames)
        brute = np.stack([log_likelihoods(bank.concept_models[l], frames) - ubm_ll
                          for l in bank.labels], axis=1).argmax(axis=1)
        np.testing.assert_array_equal(pred, brute)

    def test_separates_the_clusters(self, rng):
        bank, data = self.make_bank(rng)
        pred = classify_frames(bank, data)
        acc = np.mean(pred == np.repeat([0, 1], 200))
        assert acc > 0.95


class TestEmProperty:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_monotone_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 300))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(6, n // 4 + 1)))
        data = rng.standard_normal((n, d)) * rng.random(d) * 3
        init = kmeans_pp_init(data, k, rng)
        _, history = em_train(init, data, iterations=8)
        assert np.all(np.diff(history) >= -1e-6)
