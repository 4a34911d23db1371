import struct

import numpy as np
import pytest
import scipy.fft
import scipy.io.wavfile
from hypothesis import given, settings, strategies as st

from hdnn_audio import features
from hdnn_audio.errors import ClipTooShort, DataError, DimensionMismatch, EmptyInput
from hdnn_audio.features import (AudioClip, FeatureSequence,
                                 append_deltas, apply_norm, fit_norm_stats,
                                 invert_temporal_dct, load_wav, mel_filterbank,
                                 mfcc_sequence, periodic_hamming,
                                 stack_context, temporal_dct_reduce)


def expected_frames(n, win=400, hop=160):
    return (n - win) // hop + 1 if n >= win else 0


def index_gather_mfcc(clip):
    """mfcc_sequence with the frames gathered by a T x win index matrix,
    as an oracle for the strided framing."""
    x = clip.samples
    emphasized = np.append(x[0], x[1:] - features.PREEMPHASIS * x[:-1])
    win, hop = 400, 160
    num_frames = (len(emphasized) - win) // hop + 1
    raw_frames = emphasized[np.arange(win)[None, :]
                            + hop * np.arange(num_frames)[:, None]]
    raw_energy = np.sum(raw_frames ** 2, axis=1)
    windowed = raw_frames * periodic_hamming(win)[None, :]
    pspec = np.abs(np.fft.rfft(windowed, features.NFFT, axis=1)) ** 2
    log_mel = np.log(np.maximum(pspec @ mel_filterbank().T, 1e-10))
    ceps = scipy.fft.dct(log_mel, type=2, axis=1, norm="ortho")[:, :features.NUM_CEPS]
    return np.hstack([ceps, np.log(np.maximum(raw_energy, 1e-10))[:, None]])


class TestFraming:
    def test_one_second_frame_count(self, tone_clip):
        assert mfcc_sequence(tone_clip).num_frames == expected_frames(16000)

    def test_exact_single_frame(self):
        clip = AudioClip(samples=np.ones(400), sample_rate=16000)
        assert mfcc_sequence(clip).num_frames == 1

    @pytest.mark.parametrize("num_samples", [0, 399])
    def test_too_short_raises(self, num_samples):
        clip = AudioClip(samples=np.ones(num_samples), sample_rate=16000)
        with pytest.raises(ClipTooShort):
            mfcc_sequence(clip)

    def test_frames_start_at_hop_multiples(self):
        samples = np.arange(1000, dtype=np.float64)
        clip = AudioClip(samples=samples, sample_rate=16000)
        seq = mfcc_sequence(clip)
        emphasized = np.append(samples[0], samples[1:] - 0.97 * samples[:-1])
        # the energy term is taken before the window: frame 1 starts at
        # sample 160 of the pre-emphasized signal
        raw = emphasized[160:560]
        assert seq.frames[1, 13] == pytest.approx(np.log(np.sum(raw ** 2)))

    @given(n=st.integers(min_value=400, max_value=50000))
    @settings(max_examples=30, deadline=None)
    def test_frame_count_formula(self, n):
        clip = AudioClip(samples=np.zeros(n), sample_rate=16000)
        assert mfcc_sequence(clip).num_frames == expected_frames(n)

    @pytest.mark.parametrize("n", [400, 400 + 159, 400 + 160, 32000])
    def test_mfcc_equals_index_gather_framing(self, n):
        samples = np.random.default_rng(n).uniform(-0.5, 0.5, n)
        clip = AudioClip(samples=samples, sample_rate=16000)
        np.testing.assert_array_equal(
            mfcc_sequence(clip).frames.view(np.uint64),
            index_gather_mfcc(clip).view(np.uint64))

    def test_periodic_hamming_endpoints(self):
        w = periodic_hamming(400)
        assert w[0] == pytest.approx(0.08)
        # periodic window: w[n] would close the circle at 0.08 again
        assert w[200] == pytest.approx(1.0)
        assert len(w) == 400


class TestMelFilterbank:
    def test_shape(self):
        fbank = mel_filterbank()
        assert fbank.shape == (26, 257)

    def test_triangles_peak_at_one(self):
        fbank = mel_filterbank()
        peaks = fbank.max(axis=1)
        assert np.all(peaks > 0.99)

    def test_filters_are_nonnegative_and_local(self):
        fbank = mel_filterbank()
        assert np.all(fbank >= 0)
        # each filter's support is a contiguous run of bins
        for row in fbank:
            nz = np.flatnonzero(row)
            assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))

    def test_centers_increase(self):
        fbank = mel_filterbank()
        centers = fbank.argmax(axis=1)
        assert np.all(np.diff(centers) > 0)


class TestCachedArrays:
    @pytest.mark.parametrize("cached, fresh, arg", [
        (features._cached_fbank, mel_filterbank, 16000),
        (features._cached_hamming, periodic_hamming, 400),
    ])
    def test_one_read_only_array_per_argument(self, cached, fresh, arg):
        first = cached(arg)
        assert cached(arg) is first
        assert not first.flags.writeable
        np.testing.assert_array_equal(first, fresh(arg))


class TestMfcc:
    def test_vector_layout(self, tone_clip):
        seq = mfcc_sequence(tone_clip)
        assert seq.dim == 14
        assert seq.num_frames == expected_frames(16000)

    def test_energy_term_is_log_raw_energy(self):
        rng = np.random.default_rng(0)
        samples = 0.1 * rng.standard_normal(800)
        clip = AudioClip(samples=samples, sample_rate=16000)
        seq = mfcc_sequence(clip)
        emphasized = np.append(samples[0], samples[1:] - 0.97 * samples[:-1])
        raw = emphasized[:400]
        assert seq.frames[0, 13] == pytest.approx(np.log(np.sum(raw ** 2)))

    def test_c0_reflects_overall_level(self):
        t = np.arange(4800) / 16000.0
        loud = AudioClip(0.5 * np.sin(2 * np.pi * 440 * t), 16000)
        quiet = AudioClip(0.005 * np.sin(2 * np.pi * 440 * t), 16000)
        assert mfcc_sequence(loud).frames[:, 0].mean() \
            > mfcc_sequence(quiet).frames[:, 0].mean()

    def test_silence_hits_log_floor(self):
        clip = AudioClip(samples=np.zeros(800), sample_rate=16000)
        seq = mfcc_sequence(clip)
        # all mel energies floored: C0 = sqrt(26)*ln(1e-10), others 0
        assert seq.frames[0, 0] == pytest.approx(np.sqrt(26) * np.log(1e-10))
        np.testing.assert_allclose(seq.frames[0, 1:13], 0.0, atol=1e-9)
        assert seq.frames[0, 13] == pytest.approx(np.log(1e-10))


class TestDeltas:
    def test_delta_oracle_interior(self, small_seq):
        out = append_deltas(small_seq)
        x = small_seq.frames
        t = 7
        expected = ((x[t + 1] - x[t - 1]) + 2.0 * (x[t + 2] - x[t - 2])) / 10.0
        np.testing.assert_allclose(out.frames[t, 14:28], expected)

    def test_boundary_replication(self, small_seq):
        out = append_deltas(small_seq)
        x = small_seq.frames
        expected0 = ((x[1] - x[0]) + 2.0 * (x[2] - x[0])) / 10.0
        np.testing.assert_allclose(out.frames[0, 14:28], expected0)

    def test_dim_and_kind(self, small_seq):
        out = append_deltas(small_seq)
        assert out.dim == 42

    def test_constant_sequence_has_zero_deltas(self):
        seq = FeatureSequence(frames=np.ones((10, 14)) * 3.0)
        out = append_deltas(seq)
        np.testing.assert_allclose(out.frames[:, 14:], 0.0)


class TestNormalization:
    def test_fit_apply_round_trip(self, rng):
        seqs = [FeatureSequence(frames=rng.normal(5.0, 3.0, size=(50, 4)))
                for _ in range(3)]
        stats = fit_norm_stats(np.vstack([s.frames for s in seqs]))
        pooled = np.vstack([apply_norm(s, stats).frames for s in seqs])
        np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(pooled.std(axis=0), 1.0, atol=1e-10)

    def test_constant_dim_uses_std_floor(self):
        seq = FeatureSequence(frames=np.full((10, 2), 7.0))
        stats = fit_norm_stats(seq.frames)
        assert np.all(stats.std == features.STD_FLOOR)
        out = apply_norm(seq, stats)
        assert np.all(np.isfinite(out.frames))

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            fit_norm_stats(np.empty((0, 4)))

    @staticmethod
    def assert_fits_like_numpy(frames):
        stats = fit_norm_stats(frames)
        want_std = np.maximum(frames.std(axis=0), features.STD_FLOOR)
        np.testing.assert_array_equal(stats.mean.view(np.uint64),
                                      frames.mean(axis=0).view(np.uint64))
        np.testing.assert_array_equal(stats.std.view(np.uint64),
                                      want_std.view(np.uint64))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("shape", [
        (1, 3), (2, 2), (1023, 14), (1024, 14), (1025, 14), (2047, 14),
        (2048, 14), (2049, 14), (4097, 5), (5000, 1), (5000, 2), (777, 40),
        (3000, 70), (10000, 294), (16169, 42), (6495, 462)])
    def test_bitwise_equal_to_numpy(self, rng, shape, scale):
        # the blocked sum must keep NumPy's row-by-row order across blocks
        assert features.NORM_ROW_BLOCK == 1024
        offsets = rng.normal(0.0, 5.0, size=shape[1])
        self.assert_fits_like_numpy(scale * (rng.standard_normal(shape) + offsets))

    def test_other_layouts_bitwise_equal_to_numpy(self, rng):
        x = rng.standard_normal((3000, 70)) + rng.normal(0.0, 5.0, size=70)
        self.assert_fits_like_numpy(np.asfortranarray(x))
        self.assert_fits_like_numpy(x[::3, 1::2])

    def test_holds_no_copy_of_the_input(self, rng, traced_peak_bytes):
        x = rng.standard_normal((20000, 462))
        peak = traced_peak_bytes(lambda: fit_norm_stats(x))
        assert peak < 0.1 * x.nbytes

    def test_dim_mismatch_raises(self, small_seq, rng):
        other = FeatureSequence(frames=rng.standard_normal((5, 3)))
        stats = fit_norm_stats(other.frames)
        with pytest.raises(DimensionMismatch):
            apply_norm(small_seq, stats)


class TestStacking:
    def test_hand_enumerated_width3(self):
        frames = np.arange(8, dtype=np.float64).reshape(4, 2)
        seq = FeatureSequence(frames=frames)
        out = stack_context(seq, 3)
        assert out.frames.shape == (4, 6)
        # frame 0 clamps its left neighbor to itself
        np.testing.assert_allclose(out.frames[0], [0, 1, 0, 1, 2, 3])
        np.testing.assert_allclose(out.frames[1], [0, 1, 2, 3, 4, 5])
        # frame 3 clamps its right neighbor
        np.testing.assert_allclose(out.frames[3], [4, 5, 6, 7, 6, 7])

    def test_width_one_is_identity(self, small_seq):
        out = stack_context(small_seq, 1)
        np.testing.assert_allclose(out.frames, small_seq.frames)

    def test_even_width_rejected(self, small_seq):
        with pytest.raises(ValueError):
            stack_context(small_seq, 4)

    @given(width=st.sampled_from([1, 3, 5, 9]), t=st.integers(2, 30))
    @settings(max_examples=25, deadline=None)
    def test_center_slice_is_original(self, width, t):
        rng = np.random.default_rng(t)
        seq = FeatureSequence(frames=rng.standard_normal((t, 3)))
        out = stack_context(seq, width)
        assert out.num_frames == t
        half = (width - 1) // 2
        center = out.frames[:, half * 3:(half + 1) * 3]
        np.testing.assert_allclose(center, seq.frames)


class TestTemporalDct:
    def make_stacked(self, rng, t=6, width=5, bands=3):
        seq = FeatureSequence(frames=rng.standard_normal((t, bands)))
        return stack_context(seq, width)

    def test_full_round_trip(self, rng):
        stacked = self.make_stacked(rng)
        reduced = temporal_dct_reduce(stacked, 5, 5)
        back = invert_temporal_dct(reduced, 5, 5)
        np.testing.assert_allclose(back.frames, stacked.frames, rtol=1e-10,
                                   atol=1e-12)

    def test_constant_trajectory_single_coefficient(self):
        frames = np.tile([2.0, -1.0], (7, 1))
        stacked = stack_context(
            FeatureSequence(frames=frames), 5)
        reduced = temporal_dct_reduce(stacked, 5, 5)
        coeffs = reduced.frames.reshape(7, 2, 5)
        np.testing.assert_allclose(coeffs[:, :, 1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(coeffs[:, 0, 0], 2.0 * np.sqrt(5))
        np.testing.assert_allclose(coeffs[:, 1, 0], -1.0 * np.sqrt(5))

    def test_band_major_ordering(self, rng):
        stacked = self.make_stacked(rng, t=4, width=3, bands=2)
        reduced = temporal_dct_reduce(stacked, 3, 2)
        # band 0's trajectory for frame 0 sits on stride 2 of the stack
        traj0 = stacked.frames[0, 0::2]
        expected = scipy.fft.dct(traj0, type=2, norm="ortho")[:2]
        np.testing.assert_allclose(reduced.frames[0, :2], expected)

    def test_canonical_dimensions(self, rng):
        seq = FeatureSequence(frames=rng.standard_normal((3, 14)))
        reduced = temporal_dct_reduce(stack_context(seq, 49), 49, 33)
        assert reduced.dim == 462

    def test_indivisible_dim_rejected(self, rng):
        stacked = self.make_stacked(rng, width=5)
        with pytest.raises(DimensionMismatch):
            temporal_dct_reduce(stacked, 7, 3)

    @given(keep=st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_truncation_is_prefix(self, keep):
        rng = np.random.default_rng(keep)
        stacked = self.make_stacked(rng)
        full = temporal_dct_reduce(stacked, 5, 5).frames.reshape(-1, 3, 5)
        part = temporal_dct_reduce(stacked, 5, keep).frames.reshape(-1, 3, keep)
        np.testing.assert_allclose(part, full[:, :, :keep])


class TestWavIo:
    def test_pcm16_round_trip(self, tmp_path, tone_clip):
        path = tmp_path / "tone.wav"
        pcm = np.round(tone_clip.samples * 32767.0).astype(np.int16)
        scipy.io.wavfile.write(path, 16000, pcm)
        clip = load_wav(path)
        assert clip.sample_rate == 16000
        np.testing.assert_allclose(clip.samples, pcm / 32768.0)

    def test_stereo_averaged(self, tmp_path):
        left = np.full(1600, 0.5)
        right = np.full(1600, -0.5)
        pcm = np.round(np.stack([left, right], axis=1) * 32767).astype(np.int16)
        scipy.io.wavfile.write(tmp_path / "st.wav", 16000, pcm)
        clip = load_wav(tmp_path / "st.wav")
        assert clip.samples.ndim == 1
        np.testing.assert_allclose(clip.samples, 0.0, atol=1e-4)

    @pytest.mark.parametrize("blob", [
        b"hello, this is not audio at all",
        b"RIFF\x10\x00\x00\x00garbage after the chunk size",
        "truncated"], ids=["not_riff", "not_wave", "truncated"])
    def test_unreadable_file_is_a_data_error(self, tmp_path, blob):
        path = tmp_path / "bad.wav"
        if blob == "truncated":
            scipy.io.wavfile.write(path, 16000, np.zeros(800, dtype=np.int16))
            blob = path.read_bytes()[:20]  # cut inside the fmt chunk
        path.write_bytes(blob)
        with pytest.raises(DataError, match="bad.wav: unreadable WAV file"):
            load_wav(path)

    def test_truncated_data_chunk_is_a_data_error(self, tmp_path, tone_clip):
        path = tmp_path / "cut.wav"
        pcm = np.round(tone_clip.samples * 32767.0).astype(np.int16)
        scipy.io.wavfile.write(path, 16000, pcm)
        # 1 s at 16 kHz, cut to 5 000 samples of its data chunk
        path.write_bytes(path.read_bytes()[:10_044])
        with pytest.raises(DataError, match="cut.wav: unreadable WAV file: "
                                            "Reached EOF prematurely"):
            load_wav(path)

    def test_unknown_chunk_still_loads(self, tmp_path, tone_clip):
        plain = tmp_path / "plain.wav"
        pcm = np.round(tone_clip.samples * 32767.0).astype(np.int16)
        scipy.io.wavfile.write(plain, 16000, pcm)
        blob = plain.read_bytes()
        # a "junk" chunk (unknown to SciPy, which warns) after the fmt chunk
        blob = blob[:36] + b"junk" + struct.pack("<I", 8) + bytes(8) + blob[36:]
        blob = blob[:4] + struct.pack("<I", len(blob) - 8) + blob[8:]
        extra = tmp_path / "extra.wav"
        extra.write_bytes(blob)
        with pytest.warns(scipy.io.wavfile.WavFileWarning, match="not understood"):
            clip = load_wav(extra)
        np.testing.assert_array_equal(clip.samples, load_wav(plain).samples)

    def test_resampled_to_canonical_rate(self, tmp_path):
        t = np.arange(8000) / 8000.0
        pcm = np.round(0.5 * np.sin(2 * np.pi * 440 * t) * 32767).astype(np.int16)
        scipy.io.wavfile.write(tmp_path / "lo.wav", 8000, pcm)
        clip = load_wav(tmp_path / "lo.wav")
        assert clip.sample_rate == 16000
        assert len(clip.samples) == 16000
