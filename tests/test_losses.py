"""Adversarial and spectral objectives: identities, oracles, reductions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voclab import losses
from voclab import tensor as tt
from voclab.dsp import StftConfig
from voclab.losses import (
    MultiStftConfig,
    PrlsConfig,
    lsgan_adv_loss,
    lsgan_d_loss,
    log_stft_magnitude,
    multi_resolution_stft,
    pointwise_relativistic_d,
    pointwise_relativistic_g,
    prls_adv_total,
    prls_d_total,
    spectral_convergence,
    topk_mean,
)
from voclab.tensor import ShapeError, Tensor

SMALL = MultiStftConfig(
    configs=(
        StftConfig(fft_size=64, win_length=32, hop=16),
        StftConfig(fft_size=128, win_length=64, hop=32),
    )
)


class TestLsgan:
    def test_adv_loss_value(self):
        # mean (1 - s)^2 over all positions
        s = Tensor(np.array([[0.0, 2.0], [1.0, 3.0]]))
        assert lsgan_adv_loss(s).item() == pytest.approx((1 + 1 + 0 + 4) / 4)

    def test_d_loss_value(self):
        real = Tensor(np.array([[1.0, 0.0]]))
        fake = Tensor(np.array([[0.0, 2.0]]))
        assert lsgan_d_loss(real, fake).item() == pytest.approx(0.5 + 2.0)

    def test_pair_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            lsgan_d_loss(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))))

    # adv_mode = lsgan: the PRLS objective with lambda_rls = lambda_topk = 0
    LSGAN = PrlsConfig(lambda_rls=0.0, lambda_topk=0.0)

    @pytest.fixture
    def no_relativistic_path(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("zero weights must not build a relativistic map or top-K")

        monkeypatch.setattr(losses, "pointwise_relativistic_d", fail)
        monkeypatch.setattr(losses, "pointwise_relativistic_g", fail)
        monkeypatch.setattr(tt, "topk_values", fail)

    def test_multiscale_sums_over_scales(self, no_relativistic_path):
        maps = [Tensor(np.full((1, 4), 2.0)), Tensor(np.full((1, 2), 3.0))]
        reals = [Tensor(np.ones((1, 4))), Tensor(np.ones((1, 2)))]
        assert prls_adv_total(maps, reals, self.LSGAN).item() == 4.0 * (1.0 + 4.0)
        assert prls_d_total(reals, maps, self.LSGAN).item() == 4.0 + 9.0

    def test_zero_weights_equal_per_scale_sums_exactly(self, no_relativistic_path):
        rng = np.random.default_rng(5)
        reals = [Tensor(rng.normal(size=(2, n)).astype(np.float32)) for n in (64, 16, 4)]
        fakes = [Tensor(rng.normal(size=(2, n)).astype(np.float32)) for n in (64, 16, 4)]
        d_sum = lsgan_d_loss(reals[0], fakes[0])
        adv_sum = lsgan_adv_loss(fakes[0])
        for r, f in zip(reals[1:], fakes[1:]):
            d_sum = d_sum + lsgan_d_loss(r, f)
            adv_sum = adv_sum + lsgan_adv_loss(f)
        assert prls_d_total(reals, fakes, self.LSGAN).item() == d_sum.item()
        assert prls_adv_total(fakes, reals, self.LSGAN).item() == (4.0 * adv_sum).item()
        # a single-scale map may be passed bare
        one = prls_d_total(reals[0], fakes[0], self.LSGAN)
        assert one.item() == lsgan_d_loss(reals[0], fakes[0]).item()


class TestSpectral:
    def test_identical_signals_give_zero(self):
        x = np.random.default_rng(0).normal(size=300)
        assert multi_resolution_stft(Tensor(x), Tensor(x.copy()), SMALL).item() <= 1e-9

    def test_convergence_against_zero_estimate_is_one(self):
        x = np.random.default_rng(1).normal(size=200)
        got = spectral_convergence(Tensor(x), Tensor(np.zeros(200)), SMALL.configs[0])
        assert got.item() == 1.0

    def test_log_magnitude_of_scaled_signal(self):
        # scaling by e shifts every log magnitude by exactly 1
        x = np.random.default_rng(2).normal(size=400) * 4.0
        got = log_stft_magnitude(Tensor(x), Tensor(math.e * x), SMALL.configs[0])
        assert got.item() == pytest.approx(1.0, abs=1e-6)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            spectral_convergence(
                Tensor(np.zeros(100)), Tensor(np.ones(100)), SMALL.configs[0]
            )

    def test_multi_resolution_averages(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=300), rng.normal(size=300)
        total = multi_resolution_stft(Tensor(x), Tensor(y), SMALL).item()
        parts = [
            spectral_convergence(Tensor(x), Tensor(y), c).item()
            + log_stft_magnitude(Tensor(x), Tensor(y), c).item()
            for c in SMALL.configs
        ]
        assert total == pytest.approx(sum(parts) / len(parts), rel=1e-12)

    def test_each_magnitude_computed_once(self, monkeypatch):
        calls = []
        rfft_magnitude = tt.windowed_rfft_magnitude

        def counted(*args):
            calls.append(args)
            return rfft_magnitude(*args)

        monkeypatch.setattr(tt, "windowed_rfft_magnitude", counted)
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(2, 300)), rng.normal(size=(2, 300))
        multi_resolution_stft(Tensor(x), Tensor(y), SMALL)
        assert len(calls) == 2 * len(SMALL.configs)

    def test_gradient_matches_public_terms(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 300)), rng.normal(size=(2, 300))

        def grad(loss_fn):
            tape = tt.Tape()
            y_hat = Tensor(y, tape=tape, requires_grad=True)
            return tt.backward(loss_fn(Tensor(x), y_hat), tape)[y_hat].data

        def public(x, y_hat):
            total = None
            for c in SMALL.configs:
                term = spectral_convergence(x, y_hat, c) + log_stft_magnitude(x, y_hat, c)
                total = term if total is None else total + term
            return total * (1.0 / len(SMALL.configs))

        got = grad(lambda x, y_hat: multi_resolution_stft(x, y_hat, SMALL))
        want = grad(public)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestPointwiseRelativistic:
    def test_d_map_is_unreduced(self):
        real = Tensor(np.array([[1.0, 2.0]]))
        fake = Tensor(np.array([[0.5, 0.0]]))
        out = pointwise_relativistic_d(real, fake, 1.0)
        assert out.shape == (1, 2)
        assert np.allclose(out.data, [[0.25, 1.0]])

    def test_g_map_mirrors_with_margin(self):
        real = Tensor(np.array([[0.0]]))
        fake = Tensor(np.array([[2.0]]))
        out = pointwise_relativistic_g(fake, real, 1.0)
        assert np.allclose(out.data, [[1.0]])

    def test_equal_mean_maps_separated_by_relativistic_term(self):
        # two fake maps with identical mean square error against target 1
        # but different pointwise gaps against the real map
        real = Tensor(np.array([[1.0, 1.0]]))
        flat = Tensor(np.array([[0.5, 0.5]]))
        skew = Tensor(np.array([[0.9, 0.3]]))
        assert lsgan_adv_loss(flat).item() == 0.25
        # 0.9 and 0.3 are not exactly representable, so the second mean lands
        # one ulp below 0.25
        assert lsgan_adv_loss(skew).item() == pytest.approx(0.25, abs=1e-15)
        g_flat = tt.mean(pointwise_relativistic_g(flat, real, 1.0)).item()
        g_skew = tt.mean(pointwise_relativistic_g(skew, real, 1.0)).item()
        assert g_flat == 2.25
        assert g_skew == 2.05
        assert g_flat != g_skew


class TestTopK:
    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal(size=(3, 20))
            for frac in (0.1, 0.5, 1.0):
                k = math.ceil(frac * 20)
                ref = float(np.mean(-np.sort(-x, axis=-1)[:, :k]))
                assert topk_mean(Tensor(x), frac).item() == pytest.approx(ref, rel=1e-15)

    def test_full_fraction_is_plain_mean_exact(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 33))
        assert topk_mean(Tensor(x), 1.0).item() == float(np.mean(x))

    def test_k_is_ceiling_of_fraction(self):
        x = Tensor(np.arange(10.0)[None, :])
        # 0.25 * 10 -> K = 3: mean of {9, 8, 7}
        assert topk_mean(x, 0.25).item() == pytest.approx(8.0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            topk_mean(Tensor(np.ones((1, 4))), 0.0)


class TestTotals:
    def test_d_total_composition(self):
        rng = np.random.default_rng(0)
        real = Tensor(rng.normal(size=(2, 10)))
        fake = Tensor(rng.normal(size=(2, 10)))
        cfg = PrlsConfig(lambda_rls=0.4, margin=1.0, lambda_topk=0.01, k_fraction=0.1)
        rel = pointwise_relativistic_d(real, fake, 1.0)
        expected = (
            lsgan_d_loss(real, fake).item()
            + 0.4 * tt.mean(rel).item()
            + 0.01 * topk_mean(rel, 0.1).item()
        )
        assert prls_d_total(real, fake, cfg).item() == pytest.approx(expected, rel=1e-12)

    def test_adv_total_composition(self):
        rng = np.random.default_rng(1)
        real = Tensor(rng.normal(size=(2, 10)))
        fake = Tensor(rng.normal(size=(2, 10)))
        cfg = PrlsConfig()
        rel = pointwise_relativistic_g(fake, real, cfg.margin)
        expected = (
            cfg.lambda_adv * lsgan_adv_loss(fake).item()
            + cfg.lambda_rls * tt.mean(rel).item()
            + cfg.lambda_topk * topk_mean(rel, cfg.k_fraction).item()
        )
        assert prls_adv_total(fake, real, cfg).item() == pytest.approx(expected, rel=1e-12)

    def test_totals_reduce_to_lsgan_when_disabled(self):
        rng = np.random.default_rng(2)
        real = Tensor(rng.normal(size=(2, 16)))
        fake = Tensor(rng.normal(size=(2, 16)))
        off = PrlsConfig(lambda_rls=0.0, lambda_adv=1.0, lambda_topk=0.0)
        assert abs(prls_d_total(real, fake, off).item() - lsgan_d_loss(real, fake).item()) <= 1e-12
        assert abs(prls_adv_total(fake, real, off).item() - lsgan_adv_loss(fake).item()) <= 1e-12

    def test_multiscale_totals_sum_per_scale(self):
        rng = np.random.default_rng(3)
        reals = [Tensor(rng.normal(size=(1, 12))), Tensor(rng.normal(size=(1, 3)))]
        fakes = [Tensor(rng.normal(size=(1, 12))), Tensor(rng.normal(size=(1, 3)))]
        cfg = PrlsConfig()
        per_scale = sum(
            prls_d_total(r, f, cfg).item() for r, f in zip(reals, fakes)
        )
        assert prls_d_total(reals, fakes, cfg).item() == pytest.approx(per_scale, rel=1e-12)

    def test_scale_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            prls_d_total([Tensor(np.ones((1, 2)))], [], PrlsConfig())


class TestConfigValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PrlsConfig(lambda_rls=-0.1)

    def test_bad_k_fraction_rejected(self):
        with pytest.raises(ValueError):
            PrlsConfig(k_fraction=1.5)

    def test_empty_multi_stft_rejected(self):
        with pytest.raises(ValueError):
            MultiStftConfig(configs=())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 1.0))
def test_topk_mean_bounded_by_extremes(seed, frac):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 17))
    got = topk_mean(Tensor(x), frac).item()
    assert got >= np.mean(x) - 1e-12
    assert got <= np.max(x) + 1e-12
