"""Autodiff core: op semantics, tape discipline, and gradient checks."""

import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voclab import tensor as tt
from voclab.tensor import ShapeError, Tape, TapeError, Tensor, backward, grad_check


def _attach(arr, tape):
    t = Tensor(arr, tape=tape, requires_grad=True)
    return t


def _grad(loss_fn, arr):
    tape = Tape()
    x = _attach(np.asarray(arr, dtype=np.float64), tape)
    loss = loss_fn(x)
    return backward(loss, tape)[x].data


class TestElementwise:
    def test_add_mul_forward(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        assert np.array_equal((a + b).data, [4.0, 6.0])
        assert np.array_equal((a * b).data, [3.0, 8.0])
        assert np.array_equal((a - b).data, [-2.0, -2.0])

    def test_scalar_operands_promote(self):
        a = Tensor([1.0, 2.0])
        assert np.array_equal((1.0 - a).data, [0.0, -1.0])
        assert np.array_equal((2.0 * a).data, [2.0, 4.0])

    def test_scalar_keeps_float32(self):
        a = Tensor(np.ones(3, np.float32))
        assert (a + 1.0).dtype == np.float32
        assert (0.5 * a).dtype == np.float32
        assert tt.leaky_relu(a - 2.0).dtype == np.float32

    def test_broadcast_mismatch_raises(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((2, 4)))

    def test_div_self_is_exactly_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=50) + 3.0)
        assert np.all(tt.div(x, x).data == 1.0)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tt.log(Tensor([1.0, 0.0]))

    def test_clamp_min_values(self):
        out = tt.clamp_min(Tensor([-1.0, 0.5, 2.0]), 1.0)
        assert np.array_equal(out.data, [1.0, 1.0, 2.0])

    def test_leaky_relu_values(self):
        out = tt.leaky_relu(Tensor([-2.0, 0.0, 3.0]), 0.2)
        assert np.allclose(out.data, [-0.4, 0.0, 3.0])

    def test_abs_square_sqrt(self):
        x = Tensor([-3.0, 4.0])
        assert np.array_equal(tt.absval(x).data, [3.0, 4.0])
        assert np.array_equal(tt.square(x).data, [9.0, 16.0])
        assert np.array_equal(tt.sqrt(tt.square(x)).data, [3.0, 4.0])


class TestReductionsAndShapes:
    def test_mean_sum_frobenius_l1(self):
        x = Tensor([[1.0, -2.0], [3.0, -4.0]])
        assert tt.sumall(x).item() == -2.0
        assert tt.mean(x).item() == -0.5
        assert tt.l1_norm(x).item() == 10.0
        assert np.isclose(tt.frobenius_norm(x).item(), np.sqrt(30.0))

    def test_reshape_transpose_concat_narrow(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert tt.reshape(x, (3, 2)).shape == (3, 2)
        assert tt.transpose_last2(x).shape == (3, 2)
        assert tt.concat([x, x], axis=0).shape == (4, 3)
        assert np.array_equal(tt.narrow(x, 1, 2, axis=-1).data, [[1.0, 2.0], [4.0, 5.0]])

    def test_pad1d_constant_and_reflect(self):
        x = Tensor([[1.0, 2.0, 3.0]])
        assert np.array_equal(tt.pad1d(x, 1, 2).data, [[0, 1, 2, 3, 0, 0]])
        assert np.array_equal(
            tt.pad1d(x, 2, 2, mode="reflect").data, [[3, 2, 1, 2, 3, 2, 1]]
        )

    def test_pad1d_reflect_needs_short_pad(self):
        with pytest.raises(ShapeError):
            tt.pad1d(Tensor([[1.0, 2.0]]), 2, 0, mode="reflect")

    def test_unfold_frames(self):
        x = Tensor(np.arange(10.0))
        frames = tt.unfold(x, 4, 2)
        assert frames.shape == (4, 4)
        assert np.array_equal(frames.data[1], [2, 3, 4, 5])

    def test_upsample_zero_and_repeat(self):
        x = Tensor(np.array([[[1.0, 2.0]]]))
        up = tt.upsample_zero(x, 3)
        assert np.array_equal(up.data, [[[1, 0, 0, 2]]])
        rep = tt.repeat_interleave(x, 2)
        assert np.array_equal(rep.data, [[[1, 1, 2, 2]]])

    def test_avg_pool(self):
        x = Tensor(np.array([[[1.0, 3.0, 5.0, 7.0]]]))
        assert np.array_equal(tt.avg_pool1d(x, 2).data, [[[2.0, 6.0]]])

    def test_topk_values_selects_largest(self):
        x = Tensor(np.array([[3.0, 1.0, 2.0], [0.0, -1.0, 5.0]]))
        top = tt.topk_values(x, 2)
        assert np.array_equal(top.data, [[3.0, 2.0], [5.0, 0.0]])


class TestTapeDiscipline:
    def test_backward_returns_leaf_grads(self):
        g = _grad(lambda x: tt.sumall(tt.square(x)), [1.0, -2.0])
        assert np.array_equal(g, [2.0, -4.0])

    def test_grad_accumulates_over_reuse(self):
        g = _grad(lambda x: tt.sumall(x * x + x), [3.0])
        assert np.array_equal(g, [7.0])

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = _attach(np.ones(3), tape)
        with pytest.raises(TapeError):
            backward(x + 1.0, tape)

    def test_tape_single_use(self):
        tape = Tape()
        x = _attach(np.ones(2), tape)
        loss = tt.sumall(x)
        backward(loss, tape)
        with pytest.raises(TapeError):
            tape.record(loss, lambda g: [])

    def test_mixed_tapes_rejected(self):
        a = _attach(np.ones(2), Tape())
        b = _attach(np.ones(2), Tape())
        with pytest.raises(TapeError):
            a + b

    def test_detached_loss_rejected(self):
        tape = Tape()
        loss = tt.sumall(Tensor(np.ones(2)))
        with pytest.raises(TapeError):
            backward(loss, tape)


class TestGradientsOfPrimitives:
    @pytest.mark.parametrize(
        "name,fn",
        [
            ("mul", lambda x: tt.sumall(x * Tensor([2.0, -1.0, 0.5]))),
            ("div", lambda x: tt.sumall(tt.div(Tensor([1.0, 2.0, 3.0]), x))),
            ("sqrt", lambda x: tt.sumall(tt.sqrt(tt.square(x) + 1.0))),
            ("tanh", lambda x: tt.sumall(tt.tanh(x))),
            ("mean", tt.mean),
            ("frobenius", tt.frobenius_norm),
            ("reflect_pad", lambda x: tt.sumall(tt.square(tt.pad1d(tt.reshape(x, (1, 3)), 2, 2, mode="reflect")))),
            ("unfold", lambda x: tt.sumall(tt.square(tt.unfold(x, 2, 1)))),
        ],
    )
    def test_primitive_gradients(self, name, fn):
        x = Tensor(np.array([0.7, -1.3, 2.1]))
        report = grad_check(fn, x, eps=1e-5, tol=1e-6)
        assert report.passed, f"{name}: {report.max_rel_err}"

    def test_conv1d_matches_brute_force(self):
        rng = np.random.default_rng(0)
        cases = [(1, 1, 1, 3), (2, 2, 1, 5), (1, 2, 2, 3), (1, 7, 1, 15), (1, 0, 1, 1)]
        for stride, padding, dilation, k in cases:
            x = rng.normal(size=(2, 3, 20))
            w = rng.normal(size=(4, 3, k))
            b = rng.normal(size=4)
            out = tt.conv1d(Tensor(x), Tensor(w), Tensor(b), stride, padding, dilation).data
            span = (k - 1) * dilation + 1
            xp = np.zeros((2, 3, 20 + 2 * padding))
            xp[:, :, padding : padding + 20] = x
            L_out = (xp.shape[-1] - span) // stride + 1
            ref = np.zeros((2, 4, L_out))
            for bi in range(2):
                for o in range(4):
                    for t in range(L_out):
                        acc = b[o]
                        for c in range(3):
                            for i in range(k):
                                acc += w[o, c, i] * xp[bi, c, t * stride + i * dilation]
                        ref[bi, o, t] = acc
            assert np.allclose(out, ref, atol=1e-12)

    def test_conv_transpose_matches_zero_stuffed_conv(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5))
        w = rng.normal(size=(4, 3, 16))
        b = rng.normal(size=4)
        got = tt.conv_transpose1d(Tensor(x), Tensor(w), Tensor(b), stride=8, padding=4).data
        up = np.zeros((2, 3, 4 * 8 + 1))
        up[:, :, ::8] = x
        ref = tt.conv1d(Tensor(up), Tensor(w), Tensor(b), stride=1, padding=15 - 4).data
        assert np.allclose(got, ref, atol=1e-12)

    def test_conv_gradients(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 2, 12)))
        w = Tensor(rng.normal(size=(3, 2, 3)))
        r = grad_check(
            lambda xx: tt.mean(tt.square(tt.conv1d(xx, w, None, stride=1, padding=1))),
            x, eps=1e-5, tol=1e-6,
        )
        assert r.passed
        r = grad_check(
            lambda ww: tt.mean(tt.square(tt.conv1d(x, ww, None, stride=2, padding=2, dilation=2))),
            w, eps=1e-5, tol=1e-6,
        )
        assert r.passed

    def test_conv1d_strided_input_and_bias_gradients(self):
        # the discriminator's down-sampling conv: stride 4, padding 2, k 5
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 17)))
        w = Tensor(rng.normal(size=(4, 3, 5)))
        b = Tensor(rng.normal(size=4))

        def loss(xx, bb):
            return tt.mean(tt.square(tt.conv1d(xx, w, bb, stride=4, padding=2)))

        assert grad_check(lambda xx: loss(xx, b), x, eps=1e-5, tol=1e-6).passed
        assert grad_check(lambda bb: loss(x, bb), b, eps=1e-5, tol=1e-6).passed

    @pytest.mark.parametrize("wrt", ["x", "w", "b"])
    def test_conv_transpose_gradients(self, wrt):
        # the MelGAN up-sampling conv: stride 8, padding 4, k 16
        rng = np.random.default_rng(6)
        args = {
            "x": Tensor(rng.normal(size=(2, 3, 4))),
            "w": Tensor(rng.normal(size=(2, 3, 16))),
            "b": Tensor(rng.normal(size=2)),
        }

        def loss(v):
            a = dict(args, **{wrt: v})
            out = tt.conv_transpose1d(a["x"], a["w"], a["b"], stride=8, padding=4)
            return tt.mean(tt.square(out))

        report = grad_check(loss, args[wrt], eps=1e-5, tol=1e-6)
        assert report.passed, report.failures[:3]

    def test_windowed_rfft_magnitude_oracle(self):
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(4, 32))
        window = np.hanning(32)
        mag = tt.windowed_rfft_magnitude(Tensor(frames), window, 64).data
        ref = np.abs(np.fft.rfft(frames * window, n=64, axis=-1))
        assert np.allclose(mag, ref, atol=1e-12)

    def test_windowed_rfft_magnitude_gradient(self):
        rng = np.random.default_rng(4)
        frames = Tensor(4.0 + rng.normal(size=(2, 16)))
        r = grad_check(
            lambda f: tt.mean(tt.windowed_rfft_magnitude(f, np.hanning(16), 32)),
            frames, eps=1e-5, tol=1e-6,
        )
        assert r.passed


class TestGradCheckMachinery:
    def test_skips_kink_straddling_coordinates(self):
        # |x| at 0: the finite-difference interval straddles the kink, so the
        # coordinate must be excluded rather than reported as a failure
        x = Tensor(np.array([0.0, 1.0, -2.0]))
        r = grad_check(lambda v: tt.sumall(tt.absval(v)), x, eps=1e-3, tol=1e-6)
        assert r.passed
        assert r.n_skipped >= 1

    def test_reports_wrong_gradient(self):
        def bad(v):
            # deliberately corrupt: value of square, gradient of identity
            out = tt.sumall(v)
            return out + (tt.sumall(tt.square(v)) - tt.sumall(tt.square(v)))

        x = Tensor(np.array([1.0, 2.0]))
        ok = grad_check(lambda v: tt.sumall(tt.square(v)), x, eps=1e-5, tol=1e-7)
        assert ok.passed


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=30))
def test_sum_matches_numpy(values):
    x = np.array(values)
    assert tt.sumall(Tensor(x)).item() == pytest.approx(x.sum(), rel=1e-12, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 8),
    st.integers(0, 1000),
)
def test_topk_matches_sort_oracle(rows, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, n))
    for k in range(1, n + 1):
        got = tt.topk_values(Tensor(x), k).data
        ref = -np.sort(-x, axis=-1)[:, :k]
        assert np.array_equal(got, ref)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_leaky_relu_gradient_everywhere_nonzero(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=8) + 1e-6)
    r = grad_check(lambda v: tt.sumall(tt.leaky_relu(v, 0.2)), x, eps=1e-6, tol=1e-5)
    assert r.passed


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator policy")
def test_freed_step_memory_is_reused_without_page_faults():
    import resource  # POSIX only

    # voclab.tensor is imported above, so its allocator policy is in force
    def allocate_and_free():
        arrays = [np.ones(1 << 19, dtype=np.float32) for _ in range(32)]  # 32 x 2 MiB
        del arrays

    allocate_and_free()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    allocate_and_free()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # returning the 64 MiB to the OS would fault in about 16k pages again
    assert faults < 1000, faults
