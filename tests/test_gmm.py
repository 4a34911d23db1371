import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from hdnn_audio import gmm, systems
from hdnn_audio.errors import DataTooSmall, DimensionMismatch, EmptyInput
from hdnn_audio.gmm import (DiagGmm, GmmConceptBank, adapt_concept,
                            classify_frames, em_train, kmeans_pp_init,
                            log_likelihood_ratios, train_ubm,
                            ubm_global_variance)
from hdnn_audio.features import NormStats


def random_gmm(rng, k=3, d=4):
    w = rng.random(k) + 0.1
    return DiagGmm(weights=w / w.sum(),
                   means=rng.standard_normal((k, d)),
                   variances=rng.random((k, d)) + 0.5)


def component_log_densities(model, data):
    """N x K ln(w_k N(x | mu_k, diag sigma_k)), by the scoring routine."""
    return gmm._log_densities(gmm._density_terms(model), data, np.square(data))


def log_likelihoods(model, data):
    """Per-frame ln p(x): log-sum-exp of the per-component densities."""
    return gmm.logsumexp(component_log_densities(model, data))


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

    def test_work_array_takes_the_differences(self, rng):
        a = np.vstack([special_rows(rng), rng.standard_normal((40, 16)) * 20.0])
        work = np.empty_like(a)
        assert_bitwise_equal(gmm.logsumexp(a, work=work), logsumexp(a, axis=-1))
        assert not np.array_equal(work, a, equal_nan=True)

    def test_edge_values(self, rng):
        out = gmm.logsumexp(special_rows(rng))
        assert out[3] == -np.inf
        assert out[4] == np.inf
        assert np.isnan(out[5])
        assert out[8] == 5.0 + np.log(16.0)

    # each row's non-max terms sit within one nat below its gap from the
    # max, where exp gives normal (-700), subnormal (-708.5), subnormal and
    # zero (-745.0), and zero (-745.2 and below) terms; from -745.2 down
    # some or all of them are below EXP_ZERO_BELOW
    GAPS = (-700.0, -708.5, -745.0, -745.2, -746.0, -800.0)

    def gap_rows(self, rng, k=16):
        """Max 0, so log1p(s) = s and the result shows every bit of the
        sum s of the other terms."""
        rows = np.empty((len(self.GAPS), k))
        for row, gap in zip(rows, self.GAPS):
            row[:] = gap - rng.random(k)
            row[rng.integers(k)] = 0.0
        return rows

    def test_underflowing_terms_1d_match_scipy(self, rng):
        for a in self.gap_rows(rng):
            assert_bitwise_equal(gmm.logsumexp(a), logsumexp(a, axis=-1))

    def test_underflowing_terms_2d_3d_match_scipy(self, rng):
        rows = self.gap_rows(rng, k=64)
        assert_bitwise_equal(gmm.logsumexp(rows), logsumexp(rows, axis=-1))
        a = np.stack([rows, rows[::-1], rows + 1e3])
        assert_bitwise_equal(gmm.logsumexp(a), logsumexp(a, axis=-1))
        # the subnormal terms are kept
        assert gmm.logsumexp(rows[1]) > 0.0

    def test_mixed_special_rows_match_scipy(self, rng):
        k = 32
        rows = rng.standard_normal((7, k)) * 30.0
        rows[0, [1, 5]] = -np.inf                            # -inf, +inf and NaN
        rows[0, 9] = np.inf
        rows[0, 12] = np.nan
        rows[1, [1, 5]] = -np.inf                            # -inf and +inf
        rows[1, [9, 20]] = np.inf
        rows[2, [1, 5]] = -np.inf                            # -inf and NaN
        rows[2, 12] = np.nan
        rows[3, 9] = np.inf                                  # +inf and NaN
        rows[3, 12] = np.nan
        rows[4] = -np.inf                                    # all -inf
        rows[5, [0, 3, 8]] = rows[5].max() + 2.0             # repeated maxima
        rows[5, [4, 20]] = -np.inf                           # ... and -inf
        rows[6, [0, 3, 8]] = rows[6].max() + 2.0             # repeated maxima only
        for row in rows:
            assert_bitwise_equal(gmm.logsumexp(row), logsumexp(row, axis=-1))
        assert_bitwise_equal(gmm.logsumexp(rows), logsumexp(rows, axis=-1))
        a = np.stack([rows, rows[::-1]])
        assert_bitwise_equal(gmm.logsumexp(a), logsumexp(a, axis=-1))

    def test_subnormal_band_matches_scipy(self, rng):
        """Terms whose exp is subnormal, from the smallest one (-745.13)
        up to the smallest normal double (-708.40), with one or two maxima."""
        k = 64
        rows = np.empty((4, k))
        rows[0] = rng.uniform(-745.13, -708.40, k)
        rows[1, : k // 2] = -745.13
        rows[1, k // 2:] = -708.40
        rows[2] = rng.uniform(-745.13, -708.40, k)
        rows[2, [10, 40]] = -800.0                           # below the band too
        rows[3] = rng.uniform(-745.13, -708.40, k)
        rows[:, 7] = 0.0
        rows[3, 30] = 0.0                                    # a repeated maximum
        for row in rows:
            assert_bitwise_equal(gmm.logsumexp(row), logsumexp(row, axis=-1))
            assert gmm.logsumexp(row) > 0.0  # the subnormal terms are kept
        assert_bitwise_equal(gmm.logsumexp(rows), logsumexp(rows, axis=-1))
        shifted = rows + 300.0
        assert_bitwise_equal(gmm.logsumexp(shifted), logsumexp(shifted, axis=-1))

    def test_exp_is_zero_below_the_skip_threshold(self):
        # what makes leaving those arguments out of np.exp exact
        grid = np.linspace(gmm.EXP_ZERO_BELOW - 400.0, gmm.EXP_ZERO_BELOW, 200001)
        out = np.exp(grid)
        assert np.all(out == 0.0) and not np.signbit(out).any()
        assert np.exp(-745.13) > 0.0


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
    ubm_ll = logsumexp(component_log_densities(bank.ubm, frames), axis=1)
    return np.stack([
        logsumexp(component_log_densities(bank.concept_models[l], frames),
                  axis=1) - ubm_ll
        for l in bank.labels], axis=1)


def check_stacked_scoring_matches_per_concept_loop():
    """D of the three GMM front-ends; one model's product over 17 rows
    takes OpenBLAS's small-matrix kernel, and SCORE_ROW_BLOCK + 1 rows
    are scored in two blocks. A bank scored again, and the same bank
    saved and loaded as the front-end's system, give the same bits."""
    rng = np.random.default_rng(5)
    front_ends = {42: {"deltas": True}, 70: {"width": 5}, 294: {"width": 21}}
    with tempfile.TemporaryDirectory() as tmp:
        for d, front_end in front_ends.items():
            bank = random_bank(rng, d)
            path = Path(tmp) / f"d{d}.acsy"
            systems.save_system(systems.System(
                labels=bank.labels, mfcc_norm=NormStats(np.zeros(14), np.ones(14)),
                model=bank, **front_end), path)
            loaded = systems.load_system(path).model
            for n in (1, 17, 160, gmm.SCORE_ROW_BLOCK + 1):
                frames = rng.standard_normal((n, d)) * 2.0
                expected = per_concept_llrs(bank, frames)
                for scored in (bank, bank, loaded):
                    assert_bitwise_equal(log_likelihood_ratios(scored, frames),
                                         expected)
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
        bank = random_bank(rng, d=4, k=3)
        with pytest.raises(DimensionMismatch):
            classify_frames(bank, np.zeros((5, 3)))
        for shape in [(5, 3), (5, 5), (3,), (1, 1)]:
            with pytest.raises(DimensionMismatch):
                log_likelihood_ratios(bank, np.zeros(shape))

    def test_leaves_read_only_inputs_unwritten(self, rng):
        # a write into the frames, the models or the densities raises on
        # these read-only arrays
        bank = random_bank(rng, d=6, k=4, num_concepts=3)
        frames = rng.standard_normal((50, 6))
        dens = component_log_densities(bank.ubm, frames)
        want = log_likelihood_ratios(bank, frames), gmm.logsumexp(dens)
        bank = GmmConceptBank(bank.ubm.copy(), {l: m.copy() for l, m in
                                                bank.concept_models.items()},
                              bank.labels)
        for model in [bank.ubm, *bank.concept_models.values()]:
            for arr in (model.weights, model.means, model.variances):
                arr.flags.writeable = False
        for arr in (frames, dens):
            arr.flags.writeable = False
        assert_bitwise_equal(log_likelihood_ratios(bank, frames), want[0])
        assert_bitwise_equal(gmm.logsumexp(dens), want[1])

    def test_density_terms_built_once_per_bank(self, rng, monkeypatch):
        built = []
        density_terms = gmm._density_terms
        monkeypatch.setattr(gmm, "_density_terms",
                            lambda model: built.append(model) or density_terms(model))
        bank = random_bank(rng, d=6, k=4, num_concepts=3)
        models = [bank.ubm] + [bank.concept_models[l] for l in bank.labels]
        frames = rng.standard_normal((2 * gmm.SCORE_ROW_BLOCK + 5, 6))
        first = log_likelihood_ratios(bank, frames)  # three row blocks
        assert [id(m) for m in built] == [id(m) for m in models]
        classify_frames(bank, frames[:7])
        assert_bitwise_equal(log_likelihood_ratios(bank, frames), first)
        assert len(built) == len(models)
        # the terms are the bank's own, not part of its value
        assert bank == GmmConceptBank(bank.ubm, bank.concept_models, bank.labels)
        assert "terms" not in repr(bank)


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
        data = rng.standard_normal((5, 3))
        for k in (3, 8):  # adaptation by full EM, and of the means only
            ubm = random_gmm(rng, k=k, d=4)
            with pytest.raises(DimensionMismatch):
                em_train(ubm, data, iterations=1)
            with pytest.raises(DimensionMismatch):
                adapt_concept(ubm, data, iterations=1)


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


class TestEStep:
    """The E-step against the oracle densities, scipy's log-sum-exp and
    np.exp, with the subnormal responsibilities set to 0."""

    @pytest.mark.parametrize("n", [341, 2125])
    @pytest.mark.parametrize("d, spread", [(42, 3.0), (294, 1.5)])
    def test_matches_responsibilities_of_the_densities(self, n, d, spread):
        rng = np.random.default_rng(n + d)
        model = random_gmm(rng, k=64, d=d)
        model.means *= spread  # components far enough apart for 0 responsibilities
        data = model.means[rng.integers(64, size=n)] + rng.standard_normal((n, d))
        sq = np.square(data)
        want_dens = parent_component_log_densities(model, data)
        want_total = logsumexp(want_dens, axis=1)
        log_resp = want_dens - want_total[:, None]
        want_resp = np.exp(log_resp)
        want_resp[log_resp < gmm.RESP_LOG_FLOOR] = 0.0
        # the masks are exercised: dropped, subnormal-free and kept terms
        assert (want_resp == 0.0).any()
        assert ((want_resp > 0.0) & (want_resp < 1.0)).any()
        dens, resp = np.empty((2, n, 64))
        total = gmm._e_step(model, data, sq, dens, resp)
        assert_bitwise_equal(dens, want_dens)
        assert_bitwise_equal(resp, want_resp)
        assert_bitwise_equal(total, want_total)

    def test_holds_no_n_by_k_temporary(self, traced_peak_bytes):
        rng = np.random.default_rng(3)
        n, k, d = 4000, 64, 42
        model = random_gmm(rng, k=k, d=d)
        data = model.means[rng.integers(k, size=n)] + rng.standard_normal((n, d))
        sq = np.square(data)
        dens, resp = np.empty((2, n, k))
        peak = traced_peak_bytes(lambda: gmm._e_step(model, data, sq, dens, resp))
        # the log-sum-exp works in ``resp``; what is left are N x K masks
        # of one byte an entry
        assert peak < 0.5 * n * k * 8


class TestExpExcept:
    def test_no_skip_is_plain_exp(self):
        a = np.array([[0.0, -0.0, 1.5, -1000.0, np.nan],
                      [np.inf, -np.inf, 709.0, -745.2, -708.5]])
        got = gmm._exp_except(a.copy(), np.zeros(a.shape, dtype=bool))
        with np.errstate(over="ignore"):
            assert_bitwise_equal(got, np.exp(a))

    def test_skip_gives_positive_zero(self):
        a = np.array([1.0, -np.inf, np.nan, -2.0])
        skip = np.array([False, True, True, False])
        got = gmm._exp_except(a.copy(), skip)
        assert_bitwise_equal(got, [np.exp(1.0), 0.0, 0.0, np.exp(-2.0)])


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

    def test_matches_subtract_form_at_294_dims_subsampled(self):
        rng = np.random.default_rng(3)
        centers = rng.standard_normal((6, 294)) * 2.0
        data = (centers[rng.integers(6, size=3000)]
                + rng.standard_normal((3000, 294)) * (rng.random(294) + 0.5))
        for seed in (4, 5):
            assert_same_gmm(
                kmeans_pp_init(data, 16, np.random.default_rng(seed), subsample=2000),
                parent_kmeans_pp_init(data, 16, np.random.default_rng(seed),
                                      subsample=2000))

    def test_row_equal_to_a_center_has_distance_zero(self):
        rng = np.random.default_rng(5)
        # an offset far from the origin: |x|^2 and 2 x.c cancel to a few
        # ulps of 30 000, so only an explicit zero is exactly 0
        data = rng.standard_normal((500, 294)) * 3.0 + 10.0
        data[[17, 230, 411]] = data[99]
        sq_norms = np.square(data).sum(axis=1)
        for index in (99, 17, 5, 311, 499):
            d2 = gmm._sq_dists(data, sq_norms, index)
            same = (data == data[index]).all(axis=1)
            assert np.all(d2[same] == 0.0) and not np.signbit(d2).any()
            assert np.all(d2[~same] > 0.0)
            np.testing.assert_allclose(d2, ((data - data[index]) ** 2).sum(axis=1),
                                       rtol=1e-9)

    def test_picks_every_distinct_row_of_repeated_points(self):
        # a picked point's copies have distance 0, so they are never drawn
        points = np.random.default_rng(6).standard_normal((8, 70)) * 3.0 + 10.0
        data = np.repeat(points, 50, axis=0)
        for seed in range(5):
            model = kmeans_pp_init(data, 8, np.random.default_rng(seed))
            # (the Lloyd passes' means of 50 equal rows round by an ulp)
            np.testing.assert_allclose(sorted(map(tuple, model.means)),
                                       sorted(map(tuple, points)), rtol=1e-12)


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


# --- the loops before the subnormal-free E-step, as oracles ---

def parent_component_log_densities(model, data):
    const = -0.5 * (model.dim * np.log(2.0 * np.pi)
                    + np.log(model.variances).sum(axis=1))
    inv_var = 1.0 / model.variances
    quad = (data ** 2) @ inv_var.T
    quad -= 2.0 * data @ (model.means * inv_var).T
    quad += ((model.means ** 2) * inv_var).sum(axis=1)
    quad *= 0.5
    return np.subtract(np.log(model.weights) + const, quad, out=quad)


def parent_em_train(init, data, iterations, var_floor=None, ll_gain_stop=None):
    n = data.shape[0]
    model = init.copy()
    if var_floor is None:
        var_floor = np.maximum(gmm.VAR_FLOOR_FRACTION * data.var(axis=0), 1e-12)
    global_mean = data.mean(axis=0)
    global_var = np.maximum(data.var(axis=0), var_floor)
    history = []
    for _ in range(iterations):
        comp_ll = parent_component_log_densities(model, data)
        total = logsumexp(comp_ll, axis=1)
        history.append(float(total.sum()))
        resp = np.exp(comp_ll - total[:, None])
        nk = resp.sum(axis=0)
        degenerate = nk < gmm.RESP_MASS_FLOOR
        safe_nk = np.maximum(nk, gmm.RESP_MASS_FLOOR)
        model.means = (resp.T @ data) / safe_nk[:, None]
        second = (resp.T @ (data ** 2)) / safe_nk[:, None]
        model.variances = np.maximum(second - model.means ** 2, var_floor)
        model.weights = nk / n
        if degenerate.any():
            model.means[degenerate] = global_mean
            model.variances[degenerate] = global_var
            model.weights[degenerate] = 1.0 / n
        model.weights = model.weights / model.weights.sum()
        if ll_gain_stop is not None and len(history) >= 2:
            if (history[-1] - history[-2]) / n < ll_gain_stop:
                break
    return model, history


def parent_adapt_means_only(ubm, data, iterations):
    model = ubm.copy()
    for _ in range(iterations):
        comp_ll = parent_component_log_densities(model, data)
        resp = np.exp(comp_ll - logsumexp(comp_ll, axis=1)[:, None])
        nk = resp.sum(axis=0)
        updated = nk > gmm.RESP_MASS_FLOOR
        means = (resp.T @ data) / np.maximum(nk, gmm.RESP_MASS_FLOOR)[:, None]
        model.means[updated] = means[updated]
    return model


def parent_kmeans_pp_init(data, k, rng, subsample=10000, lloyd_iterations=10):
    n = data.shape[0]
    if n > subsample:
        data = data[rng.choice(n, size=subsample, replace=False)]
        n = subsample
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[j] = data[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((data - centers[j]) ** 2).sum(axis=1))
    assign = None
    for _ in range(lloyd_iterations):
        dist = (data ** 2).sum(axis=1)[:, None] - 2 * data @ centers.T \
            + (centers ** 2).sum(axis=1)
        new_assign = dist.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = data[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    floor = np.maximum(gmm.VAR_FLOOR_FRACTION * data.var(axis=0), 1e-12)
    weights = np.empty(k)
    variances = np.empty_like(centers)
    for j in range(k):
        members = data[assign == j] if assign is not None else data
        weights[j] = max(len(members), 1)
        variances[j] = np.maximum(members.var(axis=0), floor) if len(members) \
            else np.maximum(data.var(axis=0), floor)
    weights /= weights.sum()
    return DiagGmm(weights=weights, means=centers, variances=variances)


def assert_same_gmm(actual, expected):
    for field in ("weights", "means", "variances"):
        assert_bitwise_equal(getattr(actual, field), getattr(expected, field))


class TestSubnormalFreeEm:
    """Dropping the subnormal responsibilities keeps every bit of EM."""

    @pytest.fixture(scope="class")
    def clusters(self):
        rng = np.random.default_rng(0)
        return np.vstack([rng.normal(-2.3, 1.0, (600, 70)),
                          rng.normal(2.3, 1.0, (600, 70))])

    @pytest.fixture(scope="class")
    def init(self, clusters):
        return parent_kmeans_pp_init(clusters, 8, np.random.default_rng(0))

    def test_first_e_step_has_subnormal_responsibilities(self, clusters, init):
        comp_ll = parent_component_log_densities(init, clusters)
        resp = np.exp(comp_ll - logsumexp(comp_ll, axis=1)[:, None])
        subnormal = (resp > 0) & (resp < np.finfo(np.float64).tiny)
        assert subnormal.mean() > 0.05

    def test_component_log_densities_with_a_precomputed_square(self, clusters, init):
        sq = clusters ** 2
        for model in (init, random_gmm(np.random.default_rng(2), k=8, d=70)):
            want = parent_component_log_densities(model, clusters)
            assert_bitwise_equal(
                gmm._log_densities(gmm._density_terms(model), clusters, sq), want)
            assert_bitwise_equal(component_log_densities(model, clusters), want)

    def test_kmeans_pp_init(self, clusters, init):
        assert_same_gmm(kmeans_pp_init(clusters, 8, np.random.default_rng(0)), init)
        # the subsampled path
        big = np.vstack([clusters] * 3)
        assert_same_gmm(kmeans_pp_init(big, 8, np.random.default_rng(1), subsample=2000),
                        parent_kmeans_pp_init(big, 8, np.random.default_rng(1),
                                              subsample=2000))

    def test_em_train(self, clusters, init):
        model, history = em_train(init, clusters, 15, ll_gain_stop=1e-12)
        want, want_history = parent_em_train(init, clusters, 15, ll_gain_stop=1e-12)
        assert_same_gmm(model, want)
        assert_bitwise_equal(history, want_history)

    def test_adapt_concept(self, clusters, init):
        ubm, _ = parent_em_train(init, clusters, 5)
        concept = clusters[:300] + 0.4
        floor = np.maximum(gmm.VAR_FLOOR_FRACTION * ubm_global_variance(ubm), 1e-12)
        assert_same_gmm(adapt_concept(ubm, concept, iterations=5),
                        parent_em_train(ubm, concept, 5, var_floor=floor)[0])
        tiny = clusters[::240] + 0.4  # 5 frames < 8 components: means only
        want = parent_adapt_means_only(ubm, tiny, 5)
        assert_same_gmm(adapt_concept(ubm, tiny, iterations=5), want)
        assert_same_gmm(gmm._adapt_means_only(ubm, tiny, 5), want)


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
