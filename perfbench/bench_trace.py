"""Spans recorded from outside voclab, by wrapping its public functions.

Every wrapper is installed where its caller looks the function up: a module
attribute for calls written ``tt.conv1d`` or ``models.discriminate``, and the
importing module's own global for names imported with ``from .x import y``
(``voclab.trainer.sample_batch``, ``voclab.metrics.read_wav``, ...).
``Tape.record`` is wrapped so every backward closure is timed under the op,
and the model role, that recorded it.

Spans live in memory as ``[name, role, start, end, parent]`` lists and are
written out when the run ends. A span's self time is its duration minus the
durations of its children.
"""

from __future__ import annotations

import functools
import gzip
import json
import time

# tensor op -> the group it is reported under (tensor.<group>.fwd_ms/.bwd_ms)
TENSOR_OPS = {
    "conv1d": "conv1d",
    "conv_transpose1d": "conv_transpose1d",
    "unfold": "stft",
    "windowed_rfft_magnitude": "stft",
    "topk_values": "topk",
    **{
        op: "elementwise"
        for op in (
            "add", "sub", "mul", "div", "square", "sqrt", "absval", "log",
            "clamp_min", "tanh", "leaky_relu",
        )
    },
    **{
        op: "other"
        for op in (
            "sumall", "mean", "reshape", "transpose_last2", "narrow", "concat",
            "pad1d", "repeat_interleave", "upsample_zero", "avg_pool1d", "matmul",
        )
    },
}
CONV_OPS = ("tensor.conv1d", "tensor.conv_transpose1d")

# (module, function, span name), patched where the caller looks the name up
FULL_WRAPS = [
    ("trainer", "load_checkpoint", "trainer.checkpoint_load"),
    ("trainer", "sample_batch", "data.sample_batch"),
    ("trainer", "clip_global_norm", "optim.clip"),
    ("models", "melgan_generate", "models.generate"),
    ("models", "pwgan_generate", "models.generate"),
    ("models", "discriminate", "models.discriminate"),
    ("losses", "multi_resolution_stft", "losses.stft"),
    ("losses", "prls_d_total", "losses.adv"),
    ("losses", "prls_adv_total", "losses.adv"),
    ("data", "aligned_mel_spectrogram", "dsp.aligned_mel"),  # in sample_batch
    ("dsp", "aligned_mel_spectrogram", "dsp.aligned_mel"),  # cli imports it per call
    ("cli", "read_wav", "data.read_wav"),
    ("cli", "write_wav", "data.write_wav"),
    ("metrics", "read_wav", "data.read_wav"),
    ("metrics", "mel_spectrogram", "dsp.mel_spectrogram"),
    ("metrics", "mel_cepstra", "dsp.mel_cepstra"),
    ("metrics", "estimate_f0", "dsp.estimate_f0"),
    ("metrics", "mcd", "metrics.mcd"),
    ("metrics", "ffe", "metrics.ffe"),
    ("tensor", "backward", "tensor.backward"),
]


def param_role(name):
    """Model role of a parameter name: ``block0.res1.c1.w`` -> ``G.res_c1``."""
    parts = name.split(".")[:-1]  # drop .w / .b
    head = parts[0]
    if head.startswith("scale"):
        li = int(parts[1][len("layer"):])
        return "D." + ("layer0" if li == 0 else "down" if li <= 3 else f"layer{li}")
    if head.startswith("block"):
        return "G." + ("up" if parts[1] == "up" else f"res_{parts[2]}")
    if head.startswith("layer"):
        return "G." + parts[1]
    return "G." + ("post" if head.startswith("post") else head)


class Tracer:
    """In-memory span recorder.

    ``full`` False records only the coarse spans (training step, held-out
    evaluation, checkpoint save, CLI calls) that the end-to-end metrics need.
    """

    def __init__(self, full):
        self.full = full
        self.spans = []
        self._stack = []
        self.steps = []  # (span index, log record, tape records in the step)
        self.work = {}  # conv span index -> (flop, bytes)
        self.records = 0
        self.roles = {}  # id(parameter tensor) -> role
        self.trainer = None
        self.clock = time.perf_counter

    def open(self, name, role=None):
        idx = len(self.spans)
        self.spans.append([name, role, self.clock(), 0.0, self.top()])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][3] = self.clock()
        self._stack.pop()

    def top(self):
        return self._stack[-1] if self._stack else -1

    def rebuild_roles(self):
        # set_data replaces parameter tensors, so identities go stale after
        # every optimizer update
        tr = self.trainer
        self.roles = {
            id(t): param_role(n)
            for ps in (tr.g_params, tr.d_params)
            for n, t in ps.items()
        }

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


def _spanned(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _conv_work(op, x, w, out, groups):
    B, C_in, L_in = x.shape
    C_out, _, k = w.shape
    if op == "tensor.conv1d":
        flop = 2 * B * C_out * (C_in // groups) * k * out.shape[-1]
    else:  # transposed: every input sample meets every tap
        flop = 2 * B * C_out * C_in * k * L_in
    return flop, x.data.nbytes + w.data.nbytes + out.data.nbytes


def _tensor_op(tracer, name, fn):
    if name not in CONV_OPS:
        return _spanned(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(x, w, *args, **kwargs):
        idx = tracer.open(name, tracer.roles.get(id(w)))
        try:
            out = fn(x, w, *args, **kwargs)
            tracer.work[idx] = _conv_work(name, x, w, out, kwargs.get("groups", 1))
            return out
        finally:
            tracer.close(idx)

    return wrapper


def install(tracer, voclab):
    """Wrap voclab's public calls for ``tracer``; returns the Patches to undo."""
    tr, tt = voclab.trainer, voclab.tensor
    p = Patches()
    orig_step = tr.Trainer.step

    def step(self):
        before = tracer.records
        idx = tracer.open("trainer.step")
        tracer.trainer = self
        try:
            if tracer.full:
                tracer.rebuild_roles()
            record = orig_step(self)
        finally:
            tracer.close(idx)
        tracer.steps.append((idx, record, tracer.records - before))
        return record

    p.set(tr.Trainer, "step", step)
    p.set(tr.Trainer, "heldout_stft_loss",
          _spanned(tracer, "trainer.heldout_eval", tr.Trainer.heldout_stft_loss))
    p.set(tr, "save_checkpoint", _spanned(tracer, "trainer.checkpoint_save", tr.save_checkpoint))
    if not tracer.full:
        return p

    for mod, attr, name in FULL_WRAPS:
        owner = getattr(voclab, mod)
        if hasattr(owner, attr):  # a later voclab may have dropped a function
            p.set(owner, attr, _spanned(tracer, name, getattr(owner, attr)))
    orig_opt = tr.optimizer_step

    def optimizer_step(*args, **kwargs):
        idx = tracer.open("optim.step")
        try:
            return orig_opt(*args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.rebuild_roles()

    p.set(tr, "optimizer_step", optimizer_step)
    for op, group in TENSOR_OPS.items():
        if hasattr(tt, op):
            p.set(tt, op, _tensor_op(tracer, f"tensor.{group}", getattr(tt, op)))
    orig_record = tt.Tape.record

    def record(tape, out, fn):
        tracer.records += 1
        top = tracer.top()
        name, role = (tracer.spans[top][0], tracer.spans[top][1]) if top >= 0 else ("?", None)
        name = name if name.startswith("tensor.") else "tensor.other"
        work = tracer.work.get(top)

        def timed(g):
            idx = tracer.open(name + ".bwd", role)
            if work is not None:
                flop, nbytes = work
                # grad in, x and w read again, grad x and grad w written
                tracer.work[idx] = (2 * flop, 2 * nbytes - out.data.nbytes)
            try:
                return fn(g)
            finally:
                tracer.close(idx)

        return orig_record(tape, out, timed)

    p.set(tt.Tape, "record", record)
    return p


def self_times(spans):
    """Per-span self time in seconds: duration minus the children's durations."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def step_roots(spans):
    """Index of the enclosing ``trainer.step`` span of every span, or -1.

    Parents always precede children, so one forward pass suffices.
    """
    root = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s[0] == "trainer.step":
            root[i] = i
        elif s[4] >= 0:
            root[i] = root[s[4]]
    return root
