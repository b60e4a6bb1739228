"""Adam / rectified-Adam updates and global gradient-norm clipping.

Optimizers operate on name-keyed gradient arrays and mutate a ParameterSet
through set_data, keeping parameter tensors themselves immutable.

Updates keep the parameters' dtype: every scalar coefficient (learning rate,
bias corrections, the rectification factor) is a Python float, which NumPy
treats as a weak scalar, so float32 parameters and moments stay float32.
A NumPy scalar such as ``np.sqrt(2.0)`` is a strong float64 and would promote
them; set_data refuses the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class OptimState:
    kind: str  # "adam" | "radam"
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    def __post_init__(self):
        if self.kind not in ("adam", "radam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")


def _moments(state, name, g, betas):
    b1, b2 = betas
    m = state.m.get(name)
    if m is None:
        m = np.zeros_like(g)
        v = np.zeros_like(g)
    else:
        v = state.v[name]
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * (g * g)
    state.m[name] = m
    state.v[name] = v
    return m, v


def adam_step(params, grads, state: OptimState, lr, betas=(0.9, 0.999), eps=1e-8):
    """Bias-corrected Adam update over every parameter with a gradient."""
    state.step += 1
    t = state.step
    b1, b2 = betas
    for name in params.names():
        g = grads.get(name)
        if g is None:
            continue
        m, v = _moments(state, name, g, betas)
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        params.set_data(name, params[name].data - lr * m_hat / (np.sqrt(v_hat) + eps))


def radam_step(params, grads, state: OptimState, lr, betas=(0.9, 0.999), eps=1e-8):
    """Rectified Adam: variance rectification once the average length allows.

    While rho_t <= 4 the update falls back to plain bias-corrected momentum
    (no variance adaptation).
    """
    state.step += 1
    t = state.step
    b1, b2 = betas
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    b2t = b2**t
    rho_t = rho_inf - 2.0 * t * b2t / (1.0 - b2t)
    if rho_t > 4.0:
        r_t = math.sqrt(
            ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
            / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
        )
    else:
        r_t = None
    for name in params.names():
        g = grads.get(name)
        if g is None:
            continue
        m, v = _moments(state, name, g, betas)
        m_hat = m / (1 - b1**t)
        if r_t is None:
            update = lr * m_hat
        else:
            v_hat = np.sqrt(v / (1 - b2t))
            update = lr * r_t * m_hat / (v_hat + eps)
        params.set_data(name, params[name].data - update)


def optimizer_step(kind, params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8):
    if kind == "adam":
        adam_step(params, grads, state, lr, betas, eps)
    elif kind == "radam":
        radam_step(params, grads, state, lr, betas, eps)
    else:
        raise ValueError(f"unknown optimizer kind {kind!r}")


def clip_global_norm(grads, max_norm):
    """Scale all gradients so the joint L2 norm is at most max_norm.

    Returns (grads, pre_clip_norm). max_norm None disables clipping.
    """
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if max_norm is not None and total > max_norm and total > 0:
        scale = max_norm / total
        grads = {name: g * scale for name, g in grads.items()}
    return grads, total
