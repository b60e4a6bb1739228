"""WAV I/O, synthetic corpus construction, and batch sampling."""

import struct
import wave

import numpy as np
import pytest

from voclab.data import (
    AudioClip,
    Corpus,
    WavFormatError,
    load_corpus,
    read_wav,
    sample_batch,
    save_corpus,
    synth_corpus,
    write_wav,
)
from voclab.dsp import StftConfig, mel_filterbank
from voclab.models import CONDITIONING


class TestAudioClip:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, 1.5]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, np.nan]))

    def test_len(self):
        assert len(AudioClip(np.zeros(10))) == 10


class TestWavIO:
    def test_round_trip_error_below_half_lsb(self, tmp_path):
        rng = np.random.default_rng(0)
        x = np.clip(rng.normal(0, 0.3, 4000), -1.0, 32767 / 32768)
        p = tmp_path / "x.wav"
        write_wav(p, AudioClip(x))
        back = read_wav(p)
        assert back.sample_rate == 22050
        assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768

    def test_pcm_fixture_decodes_to_expected_floats(self, tmp_path):
        # hand-assembled PCM payload: 0, +half scale, -half scale, max positive
        p = tmp_path / "fixture.wav"
        with wave.open(str(p), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(22050)
            wf.writeframes(struct.pack("<4h", 0, 16384, -16384, 32767))
        clip = read_wav(p)
        assert clip.samples.tolist() == [0.0, 0.5, -0.5, 32767 / 32768]

    def test_stereo_downmixes(self, tmp_path):
        p = tmp_path / "st.wav"
        with wave.open(str(p), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(22050)
            wf.writeframes(struct.pack("<4h", 16384, 0, -16384, -16384))
        clip = read_wav(p)
        assert clip.samples.tolist() == [0.25, -0.5]

    def test_rejects_wrong_bit_depth(self, tmp_path):
        p = tmp_path / "w8.wav"
        with wave.open(str(p), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(22050)
            wf.writeframes(b"\x80\x7f")
        with pytest.raises(WavFormatError):
            read_wav(p)

    def test_rejects_non_wav(self, tmp_path):
        p = tmp_path / "junk.wav"
        p.write_bytes(b"this is not RIFF data")
        with pytest.raises(WavFormatError):
            read_wav(p)

    def test_write_rounds_half_away_from_zero(self, tmp_path):
        # 0.5/32768 scaled is exactly 0.5 LSB: away-from-zero gives +/-1
        x = np.array([0.5 / 32768, -0.5 / 32768])
        p = tmp_path / "r.wav"
        write_wav(p, AudioClip(x))
        with wave.open(str(p), "rb") as wf:
            pcm = struct.unpack("<2h", wf.readframes(2))
        assert pcm == (1, -1)

    def test_zero_length_data_chunk_gives_empty_clip(self, tmp_path):
        p = tmp_path / "empty.wav"
        with wave.open(str(p), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(22050)
            wf.writeframes(b"")
        clip = read_wav(p)
        assert len(clip) == 0

    def test_write_clamps_full_scale(self, tmp_path):
        p = tmp_path / "c.wav"
        write_wav(p, AudioClip(np.array([1.0, -1.0])))
        with wave.open(str(p), "rb") as wf:
            pcm = struct.unpack("<2h", wf.readframes(2))
        assert pcm == (32767, -32768)


class TestCorpus:
    def test_split_must_be_disjoint(self):
        clips = [AudioClip(np.zeros(4), id=f"c{i}") for i in range(3)]
        with pytest.raises(ValueError):
            Corpus(clips, train_idx=[0, 1], test_idx=[1, 2])

    def test_split_must_be_exhaustive(self):
        clips = [AudioClip(np.zeros(4), id=f"c{i}") for i in range(3)]
        with pytest.raises(ValueError):
            Corpus(clips, train_idx=[0], test_idx=[2])

    def test_synth_corpus_deterministic(self):
        a = synth_corpus(5, n_clips=4, duration_s=0.3, n_test=1)
        b = synth_corpus(5, n_clips=4, duration_s=0.3, n_test=1)
        for ca, cb in zip(a.clips, b.clips):
            assert np.array_equal(ca.samples, cb.samples)
        c = synth_corpus(6, n_clips=4, duration_s=0.3, n_test=1)
        assert not np.array_equal(a.clips[0].samples, c.clips[0].samples)

    def test_synth_corpus_shape_and_level(self):
        corpus = synth_corpus(0, n_clips=3, duration_s=0.5, n_test=1)
        assert len(corpus.clips) == 3
        assert len(corpus.train_clips) == 2 and len(corpus.test_clips) == 1
        for clip in corpus.clips:
            assert len(clip) == int(0.5 * 22050)
            assert np.max(np.abs(clip.samples)) == pytest.approx(0.9, abs=1e-12)

    def test_pitch_tracker_recovers_clip_contours(self):
        # cross-check: the tracker should follow each clip's generating f0
        from voclab.dsp import F0Config, estimate_f0

        corpus = synth_corpus(4, n_clips=3, duration_s=1.0, n_test=1)
        for clip in corpus.clips:
            f0, voiced = estimate_f0(clip.samples, F0Config())
            assert voiced.mean() > 0.5
            # generated contours live in 110-330 Hz
            assert np.all(f0[voiced] > 110 * 0.95)
            assert np.all(f0[voiced] < 330 * 1.05)

    def test_save_load_round_trip(self, tmp_path):
        corpus = synth_corpus(1, n_clips=4, duration_s=0.2, n_test=1)
        save_corpus(corpus, tmp_path)
        assert (tmp_path / "manifest.json").exists()
        back = load_corpus(tmp_path)
        assert [c.id for c in back.train_clips] == [c.id for c in corpus.train_clips]
        assert [c.id for c in back.test_clips] == [c.id for c in corpus.test_clips]
        for ca, cb in zip(corpus.clips, back.clips):
            assert np.max(np.abs(ca.samples - cb.samples)) <= 1.0 / 32768

    def test_load_without_manifest_splits_by_name(self, tmp_path):
        for i in range(10):
            write_wav(tmp_path / f"c{i}.wav", AudioClip(np.zeros(100)))
        corpus = load_corpus(tmp_path)
        assert len(corpus.test_clips) == 1
        assert len(corpus.train_clips) == 9

    def test_load_empty_dir_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path)


class TestSampleBatch:
    FB = mel_filterbank(80, 22050, 0.0, 11025.0, fft_size=1024)
    CFG = CONDITIONING

    def _clips(self):
        return synth_corpus(0, n_clips=3, duration_s=0.3, n_test=1).train_clips

    def test_shapes_are_aligned(self):
        rng = np.random.default_rng(0)
        batch = sample_batch(self._clips(), 4096, 2, rng, self.FB, self.CFG)
        assert batch.wav.shape == (2, 1, 4096)
        assert batch.mel.shape == (2, 80, 16)
        assert batch.wav.dtype == np.float32
        assert len(batch.clip_ids) == len(batch.offsets) == 2

    def test_segments_come_from_source_clips(self):
        clips = self._clips()
        rng = np.random.default_rng(1)
        batch = sample_batch(clips, 1024, 4, rng, self.FB, self.CFG)
        by_id = {c.id: c for c in clips}
        for b, (cid, off) in enumerate(zip(batch.clip_ids, batch.offsets)):
            ref = by_id[cid].samples[off : off + 1024].astype(np.float32)
            assert np.array_equal(batch.wav.data[b, 0], ref)

    def test_non_divisible_segment_rejected(self):
        with pytest.raises(ValueError):
            sample_batch(self._clips(), 1000, 1, np.random.default_rng(0), self.FB, self.CFG)

    def test_segment_longer_than_clip_rejected(self):
        with pytest.raises(ValueError):
            sample_batch(self._clips(), 8192, 1, np.random.default_rng(0), self.FB, self.CFG)

    def test_stored_mel_matches_regeneration_bit_exactly(self):
        from voclab.dsp import aligned_mel_spectrogram
        from voclab.tensor import Tensor

        rng = np.random.default_rng(2)
        batch = sample_batch(self._clips(), 2048, 2, rng, self.FB, self.CFG)
        again = aligned_mel_spectrogram(
            Tensor(batch.wav.data[:, 0, :]), self.FB, self.CFG
        )
        assert np.array_equal(batch.mel.data, again.data)

    def test_deterministic_given_rng(self):
        a = sample_batch(self._clips(), 1024, 3, np.random.default_rng(9), self.FB, self.CFG)
        b = sample_batch(self._clips(), 1024, 3, np.random.default_rng(9), self.FB, self.CFG)
        assert np.array_equal(a.wav.data, b.wav.data)
        assert np.array_equal(a.mel.data, b.mel.data)
