"""MFCC front-end and context-window feature construction.

Pipeline: raw mono audio -> framed/windowed signal -> 14-dim MFCC
(C0-C12 + log energy) -> mean/variance normalization -> context
stacking -> per-band temporal DCT reduction.

Front-end conventions (fixed for every system in the package):
16 kHz audio, 25 ms frames every 10 ms, pre-emphasis 0.97, 512-point
FFT, 26 triangular mel filters over 0-8000 Hz, log floored at
ln(1e-10), orthonormal DCT-II, 13 cepstra.
"""

from __future__ import annotations

import functools
import struct
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.fft
import scipy.io.wavfile
import scipy.signal

from .errors import ClipTooShort, DataError, DimensionMismatch, EmptyInput

CANONICAL_SAMPLE_RATE = 16000
PREEMPHASIS = 0.97
NFFT = 512
NUM_MEL_FILTERS = 26
MEL_LOW_HZ = 0.0
MEL_HIGH_HZ = 8000.0
STD_FLOOR = 1e-8
NORM_ROW_BLOCK = 1024  # rows squared at once for the normalization std

FRAME_LENGTH_MS = 25.0
FRAME_SHIFT_MS = 10.0
NUM_CEPS = 13


@dataclass
class AudioClip:
    """Raw mono signal with its sample rate. Samples are floats in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")


@dataclass
class FeatureSequence:
    """T x D matrix of per-frame features, one row every 10 ms."""

    frames: np.ndarray
    frame_shift_ms: ClassVar[float] = FRAME_SHIFT_MS

    def __post_init__(self):
        self.frames = np.atleast_2d(np.asarray(self.frames, dtype=np.float64))

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass
class NormStats:
    """Per-dimension mean and (floored) standard deviation."""

    mean: np.ndarray
    std: np.ndarray


@dataclass
class ContextConfig:
    """Context window geometry for the NN input stream."""

    width: int = 49
    dct_enabled: bool = True
    dct_keep_per_band: int = 33

    def __post_init__(self):
        if self.width < 1 or self.width % 2 == 0:
            raise ValueError(f"context width must be odd and positive, got {self.width}")
        if self.dct_enabled and not 1 <= self.dct_keep_per_band <= self.width:
            raise ValueError("dct_keep_per_band must be in [1, width]")

    @property
    def dct_keep(self) -> int | None:
        """Coefficients kept per band, or None when the DCT is off."""
        return self.dct_keep_per_band if self.dct_enabled else None


def load_wav(path) -> AudioClip:
    """Load a PCM WAV file as a mono clip at the canonical 16 kHz rate.

    Stereo files are averaged to mono; other sample rates are resampled.
    A file SciPy cannot parse, or whose data chunk ends early, raises
    DataError naming ``path``.
    """
    with warnings.catch_warnings():
        # SciPy only warns when the data chunk ends before its header says
        warnings.filterwarnings("error", "Reached EOF prematurely",
                                scipy.io.wavfile.WavFileWarning)
        try:
            rate, data = scipy.io.wavfile.read(path)
        except (ValueError, struct.error, scipy.io.wavfile.WavFileWarning) as exc:
            raise DataError(f"{path}: unreadable WAV file: {exc}") from exc
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        samples = data.astype(np.float64)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if rate != CANONICAL_SAMPLE_RATE:
        g = np.gcd(int(rate), CANONICAL_SAMPLE_RATE)
        samples = scipy.signal.resample_poly(samples, CANONICAL_SAMPLE_RATE // g, rate // g)
        rate = CANONICAL_SAMPLE_RATE
    return AudioClip(samples=samples, sample_rate=int(rate))


def periodic_hamming(n: int) -> np.ndarray:
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / n)


def mel_filterbank(sample_rate: int = CANONICAL_SAMPLE_RATE) -> np.ndarray:
    """Triangular mel filterbank as a (NUM_MEL_FILTERS, NFFT//2 + 1) matrix."""

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    mel_points = np.linspace(hz_to_mel(MEL_LOW_HZ), hz_to_mel(MEL_HIGH_HZ),
                             NUM_MEL_FILTERS + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.floor((NFFT + 1) * hz_points / sample_rate).astype(int)
    fbank = np.zeros((NUM_MEL_FILTERS, NFFT // 2 + 1))
    for j in range(NUM_MEL_FILTERS):
        left, center, right = bins[j], bins[j + 1], bins[j + 2]
        for i in range(left, center):
            fbank[j, i] = (i - left) / max(center - left, 1)
        for i in range(center, right):
            fbank[j, i] = (right - i) / max(right - center, 1)
    return fbank


# read-only: each cached array is shared by every caller
@functools.cache
def _cached_fbank(sample_rate: int) -> np.ndarray:
    fbank = mel_filterbank(sample_rate)
    fbank.flags.writeable = False
    return fbank


@functools.cache
def _cached_hamming(n: int) -> np.ndarray:
    window = periodic_hamming(n)
    window.flags.writeable = False
    return window


def mfcc_sequence(clip: AudioClip) -> FeatureSequence:
    """Full front-end: pre-emphasis, framing, MFCC + log raw energy per frame.

    Frame t covers samples [t * hop, t * hop + win) of the pre-emphasized
    signal (25 ms windows every 10 ms); a trailing partial frame is
    discarded, and a clip shorter than one frame raises ClipTooShort.
    """
    win = int(round(FRAME_LENGTH_MS * clip.sample_rate / 1000.0))
    hop = int(round(FRAME_SHIFT_MS * clip.sample_rate / 1000.0))
    if len(clip.samples) < win:
        raise ClipTooShort(f"clip of {len(clip.samples)} samples cannot fit one "
                           f"{win}-sample frame")
    emphasized = np.append(clip.samples[0],
                           clip.samples[1:] - PREEMPHASIS * clip.samples[:-1])
    # a strided view of the signal; the products below copy it
    raw_frames = np.lib.stride_tricks.sliding_window_view(emphasized, win)[::hop]
    raw_energy = np.sum(raw_frames ** 2, axis=1)
    windowed = raw_frames * _cached_hamming(win)[None, :]
    pspec = np.abs(np.fft.rfft(windowed, NFFT, axis=1)) ** 2
    mel_energies = pspec @ _cached_fbank(clip.sample_rate).T
    log_mel = np.log(np.maximum(mel_energies, 1e-10))
    ceps = scipy.fft.dct(log_mel, type=2, axis=1, norm="ortho")[:, :NUM_CEPS]
    log_e = np.log(np.maximum(raw_energy, 1e-10))
    return FeatureSequence(np.hstack([ceps, log_e[:, None]]))


def clamped_rows(frames: np.ndarray, offsets) -> np.ndarray:
    """T x len(offsets) x D: rows t + offset of the T x D ``frames``, clamped
    to the clip's first and last frame; every context window's edge rule."""
    t = frames.shape[0]
    # np.minimum / np.maximum: np.clip costs more on these small index arrays
    idx = np.minimum(np.maximum(np.arange(t)[:, None] + np.asarray(offsets), 0), t - 1)
    return frames[idx]


def _delta(frames: np.ndarray) -> np.ndarray:
    # +/-2 frame linear regression with replicated boundaries:
    # d_t = (1*(x[t+1]-x[t-1]) + 2*(x[t+2]-x[t-2])) / 10
    m2, m1, p1, p2 = clamped_rows(frames, (-2, -1, 1, 2)).transpose(1, 0, 2)
    return ((p1 - m1) + 2.0 * (p2 - m2)) / 10.0


def append_deltas(seq: FeatureSequence) -> FeatureSequence:
    """42-dim stream: statics, deltas, and delta-deltas of the deltas."""
    d = _delta(seq.frames)
    dd = _delta(d)
    return FeatureSequence(np.hstack([seq.frames, d, dd]))


def fit_norm_stats(frames: np.ndarray) -> NormStats:
    """Per-dimension mean/std over the rows of a T x D frame matrix, with
    the bits of ``frames.mean(axis=0)`` and ``frames.std(axis=0)``."""
    if frames.shape[0] == 0:
        raise EmptyInput("no frames to fit normalization statistics on")
    mean = frames.mean(axis=0)
    return NormStats(mean=mean, std=np.maximum(_column_std(frames, mean), STD_FLOOR))


def _column_std(frames: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``frames.std(axis=0)``, squaring NORM_ROW_BLOCK rows at a time.

    NumPy sums a C-contiguous T x D array (D > 1) over axis 0 one row at
    a time, so adding the running sum into each block's first row keeps
    its exact sequence of additions. A single column, or a layout that is
    not C-contiguous, may be summed pairwise, and goes to ``np.std``.
    """
    n, dim = frames.shape
    if dim < 2 or not frames.flags.c_contiguous:
        return frames.std(axis=0)
    buf = np.empty((min(n, NORM_ROW_BLOCK), dim), dtype=mean.dtype)
    total = None
    for start in range(0, n, NORM_ROW_BLOCK):
        block = frames[start:start + NORM_ROW_BLOCK]
        d = np.subtract(block, mean, out=buf[:len(block)])
        d *= d
        if total is not None:
            d[0] += total
        total = d.sum(axis=0)
    return np.sqrt(total / n)


def apply_norm(seq: FeatureSequence, stats: NormStats) -> FeatureSequence:
    if seq.dim != len(stats.mean):
        raise DimensionMismatch(
            f"sequence dim {seq.dim} != stats dim {len(stats.mean)}")
    return FeatureSequence((seq.frames - stats.mean) / stats.std)


def stack_context(seq: FeatureSequence, width: int) -> FeatureSequence:
    """Concatenate ``width`` consecutive frames around each frame.

    Out-of-range neighbors are clamped to the first/last frame, so the
    frame count is preserved and every frame keeps its label.
    """
    if width < 1 or width % 2 == 0:
        raise ValueError(f"context width must be odd and positive, got {width}")
    rows = clamped_rows(seq.frames, np.arange(width) - width // 2)
    return FeatureSequence(rows.reshape(seq.num_frames, width * seq.dim))


def temporal_dct_reduce(stacked: FeatureSequence, width: int,
                        keep_per_band: int) -> FeatureSequence:
    """Per-band temporal DCT over the stacked window, truncated to
    ``keep_per_band`` coefficients per original feature dimension.

    Output ordering is band-major: all kept coefficients of band 0,
    then band 1, and so on.
    """
    if stacked.dim % width != 0:
        raise DimensionMismatch(
            f"stacked dim {stacked.dim} not divisible by width {width}")
    if keep_per_band < 1 or keep_per_band > width:
        raise ValueError("keep_per_band must be in [1, width]")
    t = stacked.num_frames
    num_bands = stacked.dim // width
    # rows are frame-major ([frame -h .. +h] x bands); band trajectory sits on stride num_bands
    traj = stacked.frames.reshape(t, width, num_bands).transpose(0, 2, 1)
    coeffs = scipy.fft.dct(traj, type=2, axis=2, norm="ortho")[:, :, :keep_per_band]
    return FeatureSequence(coeffs.reshape(t, num_bands * keep_per_band))


def invert_temporal_dct(reduced: FeatureSequence, width: int,
                        keep_per_band: int) -> FeatureSequence:
    """Inverse of temporal_dct_reduce (zero-padded when truncated)."""
    t = reduced.num_frames
    num_bands = reduced.dim // keep_per_band
    coeffs = reduced.frames.reshape(t, num_bands, keep_per_band)
    padded = np.zeros((t, num_bands, width))
    padded[:, :, :keep_per_band] = coeffs
    traj = scipy.fft.idct(padded, type=2, axis=2, norm="ortho")
    return FeatureSequence(traj.transpose(0, 2, 1).reshape(t, width * num_bands))

