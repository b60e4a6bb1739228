"""Signal analysis shared by losses, data, and metrics.

stft_magnitude and mel_spectrogram run through the autodiff tape: frames are
a strided view of the signal, and the DFT is a real FFT whose backward pass
is its analytic adjoint (tensor.windowed_rfft_magnitude). Cepstra and f0 are
plain numpy: they only feed evaluation metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft

from . import tensor as tt
from .tensor import Tensor


@dataclass(frozen=True)
class StftConfig:
    fft_size: int = 1024
    win_length: int = 1024
    hop: int = 256
    center_pad: bool = False

    def __post_init__(self):
        if self.win_length > self.fft_size:
            raise ValueError(f"win_length {self.win_length} > fft_size {self.fft_size}")
        if self.hop < 1:
            raise ValueError("hop must be >= 1")

    @property
    def n_bins(self):
        return self.fft_size // 2 + 1


def hann_window(n):
    """Periodic Hann window of length n."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


@lru_cache(maxsize=32)
def _cached_window(win_length):
    return hann_window(win_length)


def stft_magnitude(x, cfg: StftConfig):
    """Windowed DFT magnitudes: [..., T] -> [..., frames, fft_size//2+1]."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if cfg.center_pad:
        half = cfg.fft_size // 2
        x = tt.pad1d(x, half, half, mode="reflect")
    if x.shape[-1] < cfg.win_length:
        raise tt.ShapeError(
            f"stft_magnitude: signal length {x.shape[-1]} shorter than window {cfg.win_length}"
        )
    frames = tt.unfold(x, cfg.win_length, cfg.hop)
    return tt.windowed_rfft_magnitude(frames, _cached_window(cfg.win_length), cfg.fft_size)


@dataclass(frozen=True)
class MelFilterbank:
    n_mels: int
    sample_rate: float
    fmin: float
    fmax: float
    fft_size: int
    weights: np.ndarray  # [n_mels, fft_size//2 + 1]


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels=80, sample_rate=22050, fmin=0.0, fmax=None, fft_size=1024):
    """Triangular HTK-scale filters over the FFT bins."""
    if fmax is None:
        fmax = sample_rate / 2.0
    edges = _mel_to_hz(np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2))
    bin_freqs = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    weights = np.zeros((n_mels, fft_size // 2 + 1))
    for m in range(n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (bin_freqs - lo) / max(center - lo, 1e-12)
        down = (hi - bin_freqs) / max(hi - center, 1e-12)
        weights[m] = np.maximum(0.0, np.minimum(up, down))
    return MelFilterbank(n_mels, sample_rate, fmin, fmax, fft_size, weights)


LOG_MEL_FLOOR = 1e-5


def mel_spectrogram(x, fb: MelFilterbank, cfg: StftConfig):
    """Log mel energies: [..., T] -> [..., n_mels, frames]."""
    if fb.fft_size != cfg.fft_size:
        raise ValueError(f"filterbank fft_size {fb.fft_size} != config {cfg.fft_size}")
    mag = stft_magnitude(x, cfg)  # [..., F, bins]
    dtype = mag.dtype
    mel = tt.matmul(mag, Tensor(fb.weights.T.astype(dtype)))  # [..., F, n_mels]
    return tt.log(tt.clamp_min(tt.transpose_last2(mel), LOG_MEL_FLOOR))


def aligned_mel_spectrogram(x, fb: MelFilterbank, cfg: StftConfig):
    """Mel features whose frame count times hop equals the sample count.

    Reflect-pads (win_length - hop)/2 on each side so a segment of length L
    yields exactly L/hop frames; this is the single alignment mode used for
    generator conditioning (hop 256 matches the upsampling factor).
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.shape[-1] % cfg.hop:
        raise tt.ShapeError(f"aligned mel: length {x.shape[-1]} not divisible by hop {cfg.hop}")
    pad = cfg.win_length - cfg.hop
    left = pad // 2
    x = tt.pad1d(x, left, pad - left, mode="reflect")
    inner = StftConfig(cfg.fft_size, cfg.win_length, cfg.hop, center_pad=False)
    return mel_spectrogram(x, fb, inner)


def mel_cepstra(logmel, n_coeffs):
    """Orthonormal DCT-II along the mel axis: [n_mels, F] -> [n_coeffs, F]."""
    logmel = np.asarray(logmel, dtype=np.float64)
    if n_coeffs > logmel.shape[0]:
        raise ValueError(f"n_coeffs {n_coeffs} exceeds mel count {logmel.shape[0]}")
    return scipy.fft.dct(logmel, type=2, axis=0, norm="ortho")[:n_coeffs]


@dataclass(frozen=True)
class F0Config:
    sample_rate: float = 22050.0
    frame_length: int = 1024
    hop: int = 256
    fmin: float = 50.0
    fmax: float = 500.0
    voicing_threshold: float = 0.3
    rms_floor: float = 1e-3


def estimate_f0(x, cfg: F0Config = F0Config()):
    """Autocorrelation pitch tracker with a voicing gate.

    Returns (f0, voiced) per frame; f0 is 0 for unvoiced frames. Peak lag is
    refined by parabolic interpolation.
    """
    x = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64).ravel()
    fl, hop = cfg.frame_length, cfg.hop
    if x.size < fl:
        return np.zeros(0), np.zeros(0, dtype=bool)
    lag_min = max(2, int(np.floor(cfg.sample_rate / cfg.fmax)))
    lag_max = min(fl - 2, int(np.ceil(cfg.sample_rate / cfg.fmin)))
    n_frames = (x.size - fl) // hop + 1
    f0 = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    for i in range(n_frames):
        frame = x[i * hop : i * hop + fl]
        rms = np.sqrt(np.mean(frame**2))
        if rms < cfg.rms_floor:
            continue
        frame = frame - frame.mean()
        r = np.correlate(frame, frame, mode="full")[fl - 1 :]
        if r[0] <= 0:
            continue
        band = r[lag_min : lag_max + 1] / r[0]
        peak = int(np.argmax(band))
        if band[peak] < cfg.voicing_threshold:
            continue
        lag = lag_min + peak
        # parabolic refinement around the integer peak
        if 0 < peak < band.size - 1:
            y0, y1, y2 = band[peak - 1], band[peak], band[peak + 1]
            denom = y0 - 2 * y1 + y2
            if abs(denom) > 1e-12:
                lag = lag + 0.5 * (y0 - y2) / denom
        voiced[i] = True
        f0[i] = cfg.sample_rate / lag
    return f0, voiced
