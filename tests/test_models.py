"""Generator/discriminator specs, initialization, and forward-pass shapes."""

import numpy as np
import pytest

from voclab.models import (
    DiscriminatorSpec,
    MelganGeneratorSpec,
    ParameterSet,
    PwganGeneratorSpec,
    discriminate,
    init_params,
    melgan_generate,
    pwgan_generate,
)
from voclab.tensor import ShapeError, Tensor


class TestParameterSet:
    def test_duplicate_name_rejected(self):
        ps = ParameterSet()
        ps.add("w", np.zeros(3))
        with pytest.raises(ValueError):
            ps.add("w", np.zeros(3))

    def test_set_data_shape_mismatch_rejected(self):
        ps = ParameterSet()
        ps.add("w", np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            ps.set_data("w", np.zeros((3, 2)))

    def test_set_data_dtype_change_rejected(self):
        ps = ParameterSet()
        ps.add("w", np.zeros(3, dtype=np.float32))
        with pytest.raises(TypeError, match="float64"):
            ps.set_data("w", np.zeros(3, dtype=np.float64))
        assert ps["w"].dtype == np.float32

    def test_load_requires_exact_name_set(self):
        ps = ParameterSet()
        ps.add("a", np.zeros(2))
        with pytest.raises(ValueError):
            ps.load({"a": np.ones(2), "b": np.ones(2)})
        ps.load({"a": np.ones(2)})
        assert np.all(ps["a"].data == 1.0)

    def test_replaced_swaps_one_tensor(self):
        ps = ParameterSet()
        ps.add("a", np.zeros(2))
        ps.add("b", np.zeros(2))
        sub = Tensor(np.ones(2))
        clone = ps.replaced("a", sub)
        assert clone["a"] is sub
        assert clone["b"] is ps["b"]
        assert np.all(ps["a"].data == 0.0)

    def test_state_roundtrip(self):
        ps = init_params(MelganGeneratorSpec(), seed=0)
        other = init_params(MelganGeneratorSpec(), seed=1)
        other.load(ps.state())
        for name in ps.names():
            assert np.array_equal(other[name].data, ps[name].data)


class TestInit:
    def test_same_seed_identical(self):
        a = init_params(MelganGeneratorSpec(), seed=7)
        b = init_params(MelganGeneratorSpec(), seed=7)
        assert a.names() == b.names()
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)

    def test_different_seed_differs(self):
        a = init_params(MelganGeneratorSpec(), seed=7)
        b = init_params(MelganGeneratorSpec(), seed=8)
        assert any(
            not np.array_equal(a[n].data, b[n].data) for n in a.names() if n.endswith(".w")
        )

    def test_biases_zero_weights_scaled(self):
        ps = init_params(DiscriminatorSpec(kind="pwgan_single"), seed=0)
        for name in ps.names():
            if name.endswith(".b"):
                assert np.all(ps[name].data == 0.0)
            else:
                c_out, c_in, k = ps[name].shape
                std = ps[name].data.std()
                assert std == pytest.approx(1.0 / np.sqrt(c_in * k), rel=0.5)

    def test_dtype_control(self):
        ps32 = init_params(PwganGeneratorSpec(), seed=0, dtype=np.float32)
        ps64 = init_params(PwganGeneratorSpec(), seed=0, dtype=np.float64)
        assert ps32["in.w"].dtype == np.float32
        assert ps64["in.w"].dtype == np.float64

    def test_unknown_spec_rejected(self):
        with pytest.raises(TypeError):
            init_params(object(), seed=0)


class TestMelganGenerator:
    SPEC = MelganGeneratorSpec()

    def test_output_shape_and_range(self):
        params = init_params(self.SPEC, seed=0)
        for F in (1, 2, 5):
            mel = Tensor(np.random.default_rng(F).normal(size=(2, 80, F)).astype(np.float32))
            wav = melgan_generate(mel, self.SPEC, params)
            assert wav.shape == (2, 1, F * 256)
            assert np.all(np.abs(wav.data) < 1.0)  # tanh output

    def test_zero_mel_gives_zero_wave(self):
        # zero-initialized biases make the all-zero input a fixed point
        params = init_params(self.SPEC, seed=1)
        wav = melgan_generate(Tensor(np.zeros((1, 80, 3), dtype=np.float32)), self.SPEC, params)
        assert np.all(wav.data == 0.0)

    def test_wrong_mel_shape_rejected(self):
        params = init_params(self.SPEC, seed=0)
        with pytest.raises(ShapeError):
            melgan_generate(Tensor(np.zeros((1, 40, 3))), self.SPEC, params)
        with pytest.raises(ShapeError):
            melgan_generate(Tensor(np.zeros((80, 3))), self.SPEC, params)

    def test_strides_must_multiply_to_hop(self):
        with pytest.raises(ValueError):
            MelganGeneratorSpec(strides=(8, 8, 8))

    def test_channel_halving(self):
        assert self.SPEC.block_channels() == [32, 16, 8]


class TestPwganGenerator:
    SPEC = PwganGeneratorSpec()

    def test_output_shape_matches_noise(self):
        params = init_params(self.SPEC, seed=0)
        rng = np.random.default_rng(0)
        noise = Tensor(rng.normal(size=(2, 1, 512)).astype(np.float32))
        mel = Tensor(rng.normal(size=(2, 80, 2)).astype(np.float32))
        wav = pwgan_generate(noise, mel, self.SPEC, params)
        assert wav.shape == (2, 1, 512)
        assert np.all(np.abs(wav.data) < 1.0)

    def test_length_mismatch_rejected(self):
        params = init_params(self.SPEC, seed=0)
        with pytest.raises(ShapeError):
            pwgan_generate(
                Tensor(np.zeros((1, 1, 500))), Tensor(np.zeros((1, 80, 2))), self.SPEC, params
            )


class TestDiscriminator:
    def test_single_scale_map_shape(self):
        spec = DiscriminatorSpec(kind="pwgan_single")
        params = init_params(spec, seed=0)
        wav = Tensor(np.random.default_rng(0).normal(size=(2, 1, 4096)).astype(np.float32) * 0.1)
        (scores,) = discriminate(wav, spec, params)
        assert scores.shape == (2, 4096 // spec.score_stride)

    def test_multiscale_returns_three_pooled_maps(self):
        spec = DiscriminatorSpec(kind="melgan_multiscale")
        params = init_params(spec, seed=0)
        wav = Tensor(np.random.default_rng(1).normal(size=(1, 1, 4096)).astype(np.float32) * 0.1)
        maps = discriminate(wav, spec, params)
        assert len(maps) == spec.n_scales
        assert maps[0].shape == (1, 256)
        assert maps[1].shape == (1, 64)
        assert maps[2].shape == (1, 16)

    def test_receptive_field_consistent_with_layers(self):
        spec = DiscriminatorSpec()
        rf = spec.receptive_field()
        assert rf == 163
        # a unit impulse at the center influences the center score; one far
        # outside the receptive field of position 0 does not change score 0
        params = init_params(spec, seed=0)
        (base,) = discriminate(Tensor(np.zeros((1, 1, 4096), dtype=np.float64)), spec, params)
        x = np.zeros((1, 1, 4096))
        x[0, 0, 3000] = 1.0
        (poked,) = discriminate(Tensor(x), spec, params)
        assert poked.data[0, 0] == base.data[0, 0]
        assert not np.array_equal(poked.data, base.data)

    def test_zero_input_gives_zero_scores(self):
        spec = DiscriminatorSpec(kind="melgan_multiscale")
        params = init_params(spec, seed=0)
        maps = discriminate(Tensor(np.zeros((1, 1, 1024), dtype=np.float32)), spec, params)
        for m in maps:
            assert np.all(m.data == 0.0)

    def test_short_input_rejected(self):
        spec = DiscriminatorSpec()
        params = init_params(spec, seed=0)
        with pytest.raises(ShapeError):
            discriminate(Tensor(np.zeros((1, 1, spec.receptive_field() - 1))), spec, params)

    def test_wrong_rank_rejected(self):
        spec = DiscriminatorSpec()
        params = init_params(spec, seed=0)
        with pytest.raises(ShapeError):
            discriminate(Tensor(np.zeros((1, 2, 4096))), spec, params)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DiscriminatorSpec(kind="conformer")
