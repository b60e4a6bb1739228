"""Spectral analysis: STFT, mel features, cepstra, and the pitch tracker."""

import numpy as np
import pytest
import scipy.fft

from voclab.dsp import (
    F0Config,
    StftConfig,
    aligned_mel_spectrogram,
    estimate_f0,
    hann_window,
    mel_cepstra,
    mel_filterbank,
    mel_spectrogram,
    stft_magnitude,
)
from voclab.tensor import ShapeError, Tensor


class TestStft:
    def test_matches_numpy_rfft_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        cfg = StftConfig(fft_size=128, win_length=64, hop=32)
        mag = stft_magnitude(Tensor(x), cfg).data
        w = hann_window(64)
        n_frames = (500 - 64) // 32 + 1
        frames = np.stack([x[i * 32 : i * 32 + 64] for i in range(n_frames)])
        ref = np.abs(np.fft.rfft(frames * w, n=128, axis=-1))
        assert mag.shape == (n_frames, 65)
        assert np.allclose(mag, ref, atol=1e-12)

    def test_frame_count_formula(self):
        cfg = StftConfig(fft_size=64, win_length=64, hop=16)
        for n in (64, 65, 96, 200):
            mag = stft_magnitude(Tensor(np.zeros(n)), cfg)
            assert mag.shape[0] == (n - 64) // 16 + 1

    def test_center_pad_adds_reflected_context(self):
        cfg = StftConfig(fft_size=64, win_length=64, hop=16, center_pad=True)
        mag = stft_magnitude(Tensor(np.ones(128)), cfg)
        assert mag.shape[0] == (128 + 64 - 64) // 16 + 1

    def test_too_short_signal_rejected(self):
        cfg = StftConfig(fft_size=64, win_length=64, hop=16)
        with pytest.raises(ShapeError):
            stft_magnitude(Tensor(np.zeros(63)), cfg)

    def test_window_longer_than_fft_rejected(self):
        with pytest.raises(ValueError):
            StftConfig(fft_size=32, win_length=64, hop=16)

    def test_pure_tone_peaks_at_bin(self):
        sr, f = 1024.0, 128.0
        t = np.arange(1024) / sr
        x = np.sin(2 * np.pi * f * t)
        cfg = StftConfig(fft_size=1024, win_length=1024, hop=1024)
        mag = stft_magnitude(Tensor(x), cfg).data[0]
        assert int(np.argmax(mag)) == 128

    def test_hann_window_endpoints_periodic(self):
        w = hann_window(8)
        assert w[0] == 0.0
        assert w.shape == (8,)
        # periodic form: w[n] = 0.5(1 - cos(2 pi n / N))
        assert np.allclose(w, 0.5 * (1 - np.cos(2 * np.pi * np.arange(8) / 8)))


class TestMel:
    def test_filterbank_shape_and_coverage(self):
        fb = mel_filterbank(80, 22050, 0.0, 11025.0, fft_size=1024)
        assert fb.weights.shape == (80, 513)
        assert np.all(fb.weights >= 0)
        # every filter has some mass and each interior bin is covered
        assert np.all(fb.weights.sum(axis=1) > 0)

    def test_mel_spectrogram_shape(self):
        cfg = StftConfig(fft_size=256, win_length=256, hop=64)
        fb = mel_filterbank(10, 22050, 0.0, 11025.0, fft_size=256)
        mel = mel_spectrogram(np.zeros(512), fb, cfg)
        assert mel.shape == (10, (512 - 256) // 64 + 1)

    def test_log_floor_applies(self):
        cfg = StftConfig(fft_size=256, win_length=256, hop=64)
        fb = mel_filterbank(10, 22050, 0.0, 11025.0, fft_size=256)
        mel = mel_spectrogram(np.zeros(512), fb, cfg)
        assert np.allclose(mel.data, np.log(1e-5))

    def test_aligned_mel_gives_length_over_hop_frames(self):
        cfg = StftConfig(fft_size=1024, win_length=1024, hop=256)
        fb = mel_filterbank(80, 22050, 0.0, 11025.0, fft_size=1024)
        for L in (4096, 8192):
            mel = aligned_mel_spectrogram(Tensor(np.random.default_rng(0).normal(size=L) * 0.1), fb, cfg)
            assert mel.shape == (80, L // 256)

    def test_aligned_mel_requires_divisible_length(self):
        cfg = StftConfig(fft_size=1024, win_length=1024, hop=256)
        fb = mel_filterbank(80, 22050, 0.0, 11025.0, fft_size=1024)
        with pytest.raises(ValueError):
            aligned_mel_spectrogram(Tensor(np.zeros(1000)), fb, cfg)

    def test_aligned_mel_rejects_mismatched_filterbank(self):
        cfg = StftConfig(fft_size=1024, win_length=1024, hop=256)
        fb = mel_filterbank(80, 22050, 0.0, 11025.0, fft_size=512)
        with pytest.raises(ValueError, match="fft_size"):
            aligned_mel_spectrogram(Tensor(np.zeros(4096)), fb, cfg)

    def test_cepstra_is_orthonormal_dct(self):
        rng = np.random.default_rng(1)
        logmel = rng.normal(size=(20, 7))
        c = mel_cepstra(logmel, 13)
        ref = scipy.fft.dct(logmel, type=2, axis=0, norm="ortho")[:13]
        assert np.allclose(c, ref, atol=1e-12)

    def test_cepstra_rejects_too_many_coeffs(self):
        with pytest.raises(ValueError):
            mel_cepstra(np.zeros((5, 3)), 6)


class TestPitchTracker:
    def _sine(self, f, seconds=1.0, sr=22050, amp=0.5):
        t = np.arange(int(seconds * sr)) / sr
        return amp * np.sin(2 * np.pi * f * t)

    @pytest.mark.parametrize("f", [110.0, 220.0, 330.0])
    def test_recovers_pure_tones(self, f):
        f0, voiced = estimate_f0(self._sine(f), F0Config())
        interior = slice(2, -2)
        v = voiced[interior]
        assert v.mean() >= 0.9
        err = np.abs(f0[interior][v] - f)
        assert (err <= 2.0).mean() >= 0.9

    def test_silence_is_unvoiced(self):
        f0, voiced = estimate_f0(np.zeros(22050), F0Config())
        assert not voiced.any()
        assert np.all(f0 == 0.0)

    def test_noise_is_mostly_unvoiced(self):
        x = 0.3 * np.random.default_rng(0).standard_normal(22050)
        _, voiced = estimate_f0(x, F0Config())
        assert voiced.mean() < 0.5

    def test_short_signal_gives_empty(self):
        f0, voiced = estimate_f0(np.zeros(100), F0Config())
        assert f0.size == 0 and voiced.size == 0
