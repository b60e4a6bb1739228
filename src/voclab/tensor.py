"""Dense tensors with reverse-mode automatic differentiation on an explicit tape.

Values are numpy arrays (float32 for training, float64 for verification).
A Tape records op closures in creation order; backward() replays them in
exact reverse order, accumulating gradients additively.

Every convolution is one matmul over the tap columns that _im2col gathers
(a view for 1x1 convs); _col2im, its adjoint, scatters them back, and
conv_transpose1d is conv1d's adjoint. Importing the module sets glibc's
allocator policy for the process (_keep_freed_memory_mapped).
"""

from __future__ import annotations

import ctypes
import platform
from dataclasses import dataclass, field

import numpy as np

_TINY = 1e-300  # guards 0.5/sqrt at exact zeros


def _keep_freed_memory_mapped():
    """On glibc, serve arrays under 32 MiB (its maximum) from the heap and
    trim the heap only above 1 GiB, so the memory one training step frees is
    reused by the next instead of being unmapped and faulted in again.
    Setting either value stops glibc adjusting both, so both are set."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


_keep_freed_memory_mapped()


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for an op."""


class TapeError(RuntimeError):
    """Raised on tape misuse: detached loss, reused tape, mixed tapes."""


_BRANCH_TRACE = None


class branch_trace:
    """Context collecting the branch pattern of non-smooth ops (relu signs,
    abs signs, clamp masks, top-k selections) during enclosed forwards.
    Used by grad_check to reject finite-difference intervals that straddle
    a kink or tie."""

    def __enter__(self):
        global _BRANCH_TRACE
        self._prev = _BRANCH_TRACE
        _BRANCH_TRACE = []
        return self

    def __exit__(self, *exc):
        global _BRANCH_TRACE
        self.signature = b"".join(_BRANCH_TRACE)
        _BRANCH_TRACE = self._prev
        return False


def _trace_branch(arr):
    if _BRANCH_TRACE is not None:
        _BRANCH_TRACE.append(np.asarray(arr).tobytes())


class Tape:
    """Ordered record of differentiable ops; single-use per backward pass."""

    def __init__(self):
        self._records = []  # (out_tensor, backward_fn)
        self.consumed = False

    def record(self, out, fn):
        if self.consumed:
            raise TapeError("tape already consumed by backward()")
        self._records.append((out, fn))

    def __len__(self):
        return len(self._records)


class Tensor:
    """Immutable n-dimensional array, optionally attached to a tape.

    ``tape`` is mutable only through ParameterSet attach/detach cycles; the
    value buffer is never written after construction.
    """

    __slots__ = ("data", "requires_grad", "tape", "_is_leaf")

    def __init__(self, data, dtype=None, tape=None, requires_grad=False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.tape = tape
        self._is_leaf = True

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"

    # arithmetic sugar; scalars are python floats/ints
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else np.float64
    return Tensor(np.asarray(x, dtype=dtype))


def _result_tape(*tensors):
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise TapeError("operands recorded on different tapes")
            tape = t.tape
    return tape


def _make(data, tape, fn):
    out = Tensor(data)
    if tape is not None:
        out.tape = tape
        out._is_leaf = False
        tape.record(out, fn)
    return out


def _needs_grad(t):
    """True when a gradient for t would be used: either t is an interior
    node (grad must keep flowing) or a leaf marked gradient-required."""
    return t.requires_grad or not t._is_leaf


def _unbroadcast(grad, shape):
    """Sum grad over axes that were broadcast to reach its shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise ops


def _ew(a, b, fwd, bwd_a, bwd_b, name):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    try:
        data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from exc
    tape = _result_tape(a, b)

    def fn(g):
        outs = []
        if _needs_grad(a):
            outs.append((a, _unbroadcast(bwd_a(g, a.data, b.data), a.shape)))
        if _needs_grad(b):
            outs.append((b, _unbroadcast(bwd_b(g, a.data, b.data), b.shape)))
        return outs

    return _make(data, tape, fn)


def add(a, b):
    return _ew(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g, "add")


def sub(a, b):
    return _ew(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g, "sub")


def mul(a, b):
    return _ew(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def div(a, b):
    return _ew(
        a,
        b,
        lambda x, y: x / y,
        lambda g, x, y: g / y,
        lambda g, x, y: -g * x / (y * y),
        "div",
    )


def square(x):
    tape = _result_tape(x)
    data = x.data * x.data

    def fn(g):
        return [(x, 2.0 * x.data * g)]

    return _make(data, tape, fn)


def sqrt(x):
    tape = _result_tape(x)
    data = np.sqrt(x.data)

    def fn(g):
        return [(x, 0.5 / np.sqrt(np.maximum(x.data, _TINY)) * g)]

    return _make(data, tape, fn)


def absval(x):
    tape = _result_tape(x)
    data = np.abs(x.data)
    if _BRANCH_TRACE is not None:
        _trace_branch(np.sign(x.data))

    def fn(g):
        return [(x, np.sign(x.data) * g)]

    return _make(data, tape, fn)


def log(x):
    if np.any(x.data <= 0):
        raise ValueError("log: non-positive input; epsilon-floor before taking log")
    tape = _result_tape(x)
    data = np.log(x.data)

    def fn(g):
        return [(x, g / x.data)]

    return _make(data, tape, fn)


def clamp_min(x, floor):
    """max(x, floor); gradient passes only where x > floor."""
    tape = _result_tape(x)
    data = np.maximum(x.data, floor)
    mask = x.data > floor
    if _BRANCH_TRACE is not None:
        _trace_branch(mask)

    def fn(g):
        return [(x, g * mask)]

    return _make(data, tape, fn)


def tanh(x):
    tape = _result_tape(x)
    data = np.tanh(x.data)

    def fn(g):
        return [(x, (1.0 - data * data) * g)]

    return _make(data, tape, fn)


def leaky_relu(x, slope=0.2):
    tape = _result_tape(x)
    # arithmetic on the sign mask, in x's dtype, beats np.where by a wide
    # margin and keeps float32 graphs from upcasting
    pos = x.data >= 0
    factor = pos.astype(x.dtype)
    factor *= 1.0 - slope
    factor += slope
    if _BRANCH_TRACE is not None:
        _trace_branch(pos)

    def fn(g):
        return [(x, g * factor)]

    return _make(x.data * factor, tape, fn)


# ---------------------------------------------------------------------------
# reductions


def sumall(x):
    tape = _result_tape(x)
    data = x.data.sum()

    def fn(g):
        return [(x, np.full(x.shape, g, dtype=x.dtype))]

    return _make(data, tape, fn)


def mean(x):
    if x.data.size == 0:
        raise ShapeError("mean: empty tensor")
    n = x.data.size
    tape = _result_tape(x)
    data = x.data.mean()

    def fn(g):
        return [(x, np.full(x.shape, g / n, dtype=x.dtype))]

    return _make(data, tape, fn)


def frobenius_norm(x):
    return sqrt(sumall(square(x)))


def topk_values(x, k, axis=-1):
    """Values of the k largest entries along the last axis, descending.

    Ties break toward the lowest index. Gradient routes 1 to the selected
    positions, 0 elsewhere.
    """
    if k < 1:
        raise ValueError(f"topk_values: k must be >= 1, got {k}")
    if axis not in (-1, x.ndim - 1):
        raise ValueError("topk_values: only the last axis is supported")
    n = x.shape[-1]
    if k > n:
        raise ShapeError(f"topk_values: k={k} exceeds axis length {n}")
    order = np.argsort(-x.data, axis=-1, kind="stable")[..., :k]
    data = np.take_along_axis(x.data, order, axis=-1)
    if _BRANCH_TRACE is not None:
        _trace_branch(np.sort(order, axis=-1))
    tape = _result_tape(x)

    def fn(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, order, g, axis=-1)
        return [(x, gx)]

    return _make(data, tape, fn)


# ---------------------------------------------------------------------------
# shape ops


def reshape(x, shape):
    tape = _result_tape(x)
    data = x.data.reshape(shape)
    old = x.shape

    def fn(g):
        return [(x, g.reshape(old))]

    return _make(data, tape, fn)


def transpose_last2(x):
    tape = _result_tape(x)
    data = np.swapaxes(x.data, -1, -2)

    def fn(g):
        return [(x, np.swapaxes(g, -1, -2))]

    return _make(data, tape, fn)


def pad1d(x, left, right, mode="constant"):
    """Pad the last axis. mode 'constant' (zeros) or 'reflect'."""
    if mode not in ("constant", "reflect"):
        raise ValueError(f"pad1d: unknown mode {mode!r}")
    tape = _result_tape(x)
    width = [(0, 0)] * (x.ndim - 1) + [(left, right)]
    data = np.pad(x.data, width, mode=mode)
    n = x.shape[-1]

    if mode == "reflect" and (left >= n or right >= n):
        raise ShapeError(f"pad1d: reflect pad ({left}, {right}) must be < axis length {n}")

    def fn(g):
        core = g[..., left : left + n].copy()
        if mode == "reflect":
            # out[j] = x[left - j] on the left edge, x[n - 2 - j] on the right
            if left:
                core[..., 1 : left + 1] += g[..., :left][..., ::-1]
            if right:
                core[..., n - 1 - right : n - 1] += g[..., left + n :][..., ::-1]
        return [(x, core)]

    return _make(data, tape, fn)


def unfold(x, size, step):
    """Sliding windows over the last axis: [..., T] -> [..., F, size], a
    read-only strided view of x (no frame is copied)."""
    T = x.shape[-1]
    if size > T:
        raise ShapeError(f"unfold: window {size} longer than axis {T}")
    if step < 1:
        raise ValueError("unfold: step must be >= 1")
    F = (T - size) // step + 1
    tape = _result_tape(x)
    data = np.lib.stride_tricks.sliding_window_view(x.data, size, axis=-1)[..., ::step, :]

    def fn(g):
        gx = np.zeros_like(x.data)
        for f in range(F):
            gx[..., f * step : f * step + size] += g[..., f, :]
        return [(x, gx)]

    return _make(data, tape, fn)


def repeat_interleave(x, r):
    """Repeat every element of the last axis r times (nearest upsampling)."""
    tape = _result_tape(x)
    data = np.repeat(x.data, r, axis=-1)

    def fn(g):
        return [(x, g.reshape(g.shape[:-1] + (x.shape[-1], r)).sum(axis=-1))]

    return _make(data, tape, fn)


def avg_pool1d(x, k):
    """Non-overlapping average pooling; last-axis length must divide by k."""
    L = x.shape[-1]
    if L % k:
        raise ShapeError(f"avg_pool1d: length {L} not divisible by {k}")
    tape = _result_tape(x)
    data = x.data.reshape(x.shape[:-1] + (L // k, k)).mean(axis=-1)

    def fn(g):
        return [(x, np.repeat(g, k, axis=-1) / k)]

    return _make(data, tape, fn)


def windowed_rfft_magnitude(frames, window, fft_size):
    """Spectral magnitudes of windowed frames: [..., F, n] -> [..., F, fft_size//2+1].

    ``window`` is a plain 1-D array of length n (not differentiated). The
    backward pass is the analytic adjoint of the real FFT, so the whole STFT
    costs two FFTs instead of dense DFT matmuls.
    """
    from scipy import fft as sfft

    n = frames.shape[-1]
    if window.shape != (n,):
        raise ShapeError(f"windowed_rfft_magnitude: window length {window.shape} != frame {n}")
    if fft_size < n:
        raise ShapeError(f"windowed_rfft_magnitude: fft_size {fft_size} < frame length {n}")
    win = window.astype(frames.dtype, copy=False)
    wf = frames.data * win
    spec = sfft.rfft(wf, n=fft_size, axis=-1)
    re, im = spec.real, spec.imag
    mag = np.sqrt(re * re + im * im)
    tape = _result_tape(frames)

    def fn(g):
        grad_spec = spec * (g / np.maximum(mag, np.finfo(mag.dtype).tiny))
        # adjoint of rfft: interior bins appear twice in the full spectrum
        grad_spec[..., 1:-1] *= 0.5
        gwf = sfft.irfft(grad_spec, n=fft_size, axis=-1) * fft_size
        return [(frames, gwf[..., :n] * win)]

    return _make(mag, tape, fn)


# ---------------------------------------------------------------------------
# matmul and convolutions


def matmul(a, b):
    """(..., n, k) @ (k, m). The right operand must be 2-D."""
    if b.ndim != 2:
        raise ShapeError(f"matmul: right operand must be 2-D, got {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    tape = _result_tape(a, b)
    data = a.data @ b.data

    def fn(g):
        outs = []
        if _needs_grad(a):
            outs.append((a, g @ b.data.T))
        if _needs_grad(b):
            gb = np.tensordot(
                a.data, g, axes=(tuple(range(a.ndim - 1)), tuple(range(g.ndim - 1)))
            )
            outs.append((b, gb))
        return outs

    return _make(data, tape, fn)


def _zero_pad(a, padding):
    """a [B, C, L] with `padding` zeros on both ends of the last axis."""
    if not padding:
        return a
    out = np.zeros(a.shape[:2] + (a.shape[-1] + 2 * padding,), dtype=a.dtype)
    out[:, :, padding:-padding] = a
    return out


def _im2col(xp, k, dilation, stride, L_out):
    """Tap columns of xp [B, C, Lp]: [B, C*k, L_out], row c*k + i holding
    tap i of channel c. A 1-tap, stride-1 call returns a view of xp."""
    if k == 1 and stride == 1:
        return xp[:, :, :L_out]
    B, C = xp.shape[:2]
    cols = np.empty((B, C, k, L_out), dtype=xp.dtype)
    last = (L_out - 1) * stride + 1
    for i in range(k):
        cols[:, :, i] = xp[:, :, i * dilation : i * dilation + last : stride]
    return cols.reshape(B, C * k, L_out)


def _col2im(cols, k, dilation, stride, length):
    """Adjoint of _im2col: scatter-add [B, C*k, L_out] into [B, C, length]."""
    B, Ck, L_out = cols.shape
    if k == 1 and stride == 1 and L_out == length:
        return cols
    out = np.zeros((B, Ck // k, length), dtype=cols.dtype)
    cols = cols.reshape(B, Ck // k, k, L_out)
    last = (L_out - 1) * stride + 1
    for i in range(k):
        out[:, :, i * dilation : i * dilation + last : stride] += cols[:, :, i]
    return out


def _weight_grad(g, cols):
    """sum_b g[b] @ cols[b].T without copying either operand."""
    return np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)


def conv1d(x, w, b=None, stride=1, padding=0, dilation=1):
    """1-D convolution (cross-correlation), x [B, C_in, L], w [C_out, C_in, k].

    One matmul over the im2col columns; the backward pass rebuilds the
    columns rather than keeping them on the tape.
    """
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d: expected 3-D x and w, got {x.shape}, {w.shape}")
    B, C_in, L = x.shape
    C_out, C_in_w, k = w.shape
    if C_in != C_in_w:
        raise ShapeError(f"conv1d: channel mismatch, x {x.shape}, w {w.shape}")
    span = (k - 1) * dilation + 1
    L_out = (L + 2 * padding - span) // stride + 1
    if L_out < 1:
        raise ShapeError(f"conv1d: input length {L} too short for kernel span {span}")
    if b is not None and b.shape != (C_out,):
        raise ShapeError(f"conv1d: bias shape {b.shape}, expected ({C_out},)")
    xp = _zero_pad(x.data, padding)
    wf = w.data.reshape(C_out, C_in * k)
    out = np.matmul(wf, _im2col(xp, k, dilation, stride, L_out))
    if b is not None:
        out += b.data[None, :, None]
    tape = _result_tape(x, w) if b is None else _result_tape(x, w, b)

    def fn(g):
        outs = []
        if _needs_grad(w):
            cols = _im2col(xp, k, dilation, stride, L_out)
            outs.append((w, _weight_grad(g, cols).reshape(w.shape)))
        if _needs_grad(x):
            gxp = _col2im(np.matmul(wf.T, g), k, dilation, stride, xp.shape[-1])
            outs.append((x, gxp[:, :, padding : padding + L] if padding else gxp))
        if b is not None and _needs_grad(b):
            outs.append((b, g.sum(axis=(0, 2))))
        return outs

    return _make(out, tape, fn)


def conv_transpose1d(x, w, b=None, stride=1, padding=0):
    """Transposed 1-D convolution; w stored in conv layout [C_out, C_in, k].

    Output length is (L-1)*stride + k - 2*padding. It is the adjoint of a
    strided conv1d with flipped taps, so no work is spent on stuffed zeros:
    forward is a matmul and _col2im, backward is _im2col and matmuls.
    """
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv_transpose1d: expected 3-D x and w, got {x.shape}, {w.shape}")
    B, C_in, L = x.shape
    C_out, C_in_w, k = w.shape
    if C_in != C_in_w:
        raise ShapeError(f"conv_transpose1d: channel mismatch, x {x.shape}, w {w.shape}")
    if k - 1 - padding < 0:
        raise ShapeError(f"conv_transpose1d: padding {padding} exceeds kernel-1 ({k - 1})")
    if b is not None and b.shape != (C_out,):
        raise ShapeError(f"conv_transpose1d: bias shape {b.shape}, expected ({C_out},)")
    L_out = (L - 1) * stride + k - 2 * padding
    if L_out < 1:
        raise ShapeError(f"conv_transpose1d: empty output for input length {L}")
    full_len = (L - 1) * stride + k
    # row o*k + i of wf holds tap k-1-i: output stride*l + i takes that tap
    wf = np.ascontiguousarray(w.data[:, :, ::-1].transpose(0, 2, 1)).reshape(C_out * k, C_in)
    full = _col2im(np.matmul(wf, x.data), k, 1, stride, full_len)
    out = np.ascontiguousarray(full[:, :, padding : padding + L_out]) if padding else full
    if b is not None:
        out += b.data[None, :, None]
    tape = _result_tape(x, w) if b is None else _result_tape(x, w, b)

    def fn(g):
        gcols = _im2col(_zero_pad(g, padding), k, 1, stride, L)  # [B, C_out*k, L]
        outs = []
        if _needs_grad(w):
            gwf = _weight_grad(gcols, x.data).reshape(C_out, k, C_in)
            outs.append((w, np.ascontiguousarray(gwf.transpose(0, 2, 1)[:, :, ::-1])))
        if _needs_grad(x):
            outs.append((x, np.matmul(wf.T, gcols)))
        if b is not None and _needs_grad(b):
            outs.append((b, g.sum(axis=(0, 2))))
        return outs

    return _make(out, tape, fn)


# ---------------------------------------------------------------------------
# non-differentiable utilities


def randn(rng, shape, dtype=np.float64):
    """Seeded standard-normal tensor; never tape-attached."""
    return Tensor(rng.standard_normal(shape).astype(dtype, copy=False))


# ---------------------------------------------------------------------------
# backward pass and gradient checking


def backward(loss, tape):
    """Replay the tape in reverse; returns {leaf Tensor: gradient Tensor}.

    The loss must be a scalar recorded on this tape. The tape is consumed.
    """
    if loss.shape != ():
        raise TapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss.tape is not tape or tape is None:
        raise TapeError("backward: loss is not attached to this tape")
    if tape.consumed:
        raise TapeError("backward: tape already consumed")
    grads = {loss: np.ones((), dtype=loss.dtype)}
    for out, fn in reversed(tape._records):
        g = grads.pop(out, None)
        if g is None:
            continue
        for t, gt in fn(g):
            acc = grads.get(t)
            grads[t] = gt if acc is None else acc + gt
    tape.consumed = True
    # drop the records: they close over activations and form tensor<->tape
    # reference cycles that would otherwise live until a gc pass
    tape._records = []
    return {t: Tensor(g) for t, g in grads.items() if t.requires_grad and t._is_leaf}


def _check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"{what}: non-finite values")


@dataclass
class GradCheckReport:
    """Outcome of one finite-difference comparison."""

    max_rel_err: float
    tol: float
    n_checked: int
    n_skipped: int = 0
    worst_index: tuple = ()
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return self.max_rel_err < self.tol


def grad_check(f, x, eps=1e-3, tol=1e-4, coords=None, rng=None):
    """Compare reverse-mode gradients of scalar f(x) to central differences.

    f receives a tape-attached 64-bit Tensor and must return a scalar Tensor
    recorded on the same tape. ``coords`` limits checking to that many
    randomly chosen coordinates (all coordinates when None).
    """
    x64 = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    tape = Tape()
    leaf = Tensor(x64, tape=tape, requires_grad=True)
    out = f(leaf)
    analytic = backward(out, tape)[leaf].data

    flat = x64.ravel()
    n = flat.size
    if coords is None or coords >= n:
        idxs = np.arange(n)
    else:
        rng = rng or np.random.default_rng(0)
        idxs = rng.choice(n, size=coords, replace=False)

    max_err, worst = 0.0, ()
    failures = []
    n_skipped = 0
    n_checked = 0
    for i in idxs:
        sides = []
        for sgn in (+1, -1):
            pert = flat.copy()
            pert[i] += sgn * eps
            with branch_trace() as trace:
                val = f(Tensor(pert.reshape(x64.shape))).item()
            sides.append((val, trace.signature))
        (hi, sig_hi), (lo, sig_lo) = sides
        if sig_hi != sig_lo:
            # interval straddles a kink or tie; the central difference is
            # not a derivative estimate there
            n_skipped += 1
            continue
        n_checked += 1
        fd = (hi - lo) / (2 * eps)
        an = analytic.ravel()[i]
        err = abs(an - fd) / max(abs(an), abs(fd), 1e-2)
        if err > max_err:
            max_err, worst = err, np.unravel_index(i, x64.shape)
        if err > tol:
            failures.append((np.unravel_index(i, x64.shape), an, fd, err))
    return GradCheckReport(
        max_rel_err=max_err,
        tol=tol,
        n_checked=n_checked,
        n_skipped=n_skipped,
        worst_index=worst,
        failures=failures,
    )
