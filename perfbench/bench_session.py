"""One benchmark session: set-up, closed-loop training, synthesis, evaluation.

A session drives voclab only through its public API. Training is the real
``voclab.trainer.train`` loop in two chains that take turns, one chunk at a
time; each chunk is a ``train()`` call that resumes from its chain's last
checkpoint. The warm chain runs the spectral warm start. The adversarial
chain forks from the warm chain's first checkpoint and runs the adversarial
phase. The host's speed drifts in slow and fast spells of a few seconds, so
this spreads both phases' timed steps over the whole run. Copy-synthesis and evaluation go
through ``voclab synth`` and ``voclab eval`` in-process, on both desk
generators, from seeded untrained checkpoints.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import click
import numpy as np
import scipy

import bench_trace
from bench_spec import D_ROLES, G_ROLES, STEP_LAYERS, TENSOR_GROUPS, THREAD_VARS

VOCODERS = ("melgan", "pwgan")
WORKLOAD_VOCODER = {"melgan_train": "melgan", "pwgan_train": "pwgan"}
SAMPLE_RATE = 22050
# RAdam's rectification switches on at optimizer step 5 and, under NumPy 2,
# promotes every updated parameter to float64 (a known defect this benchmark
# measures rather than avoids). D's optimizer starts with the adversarial
# chain, so each chain starts with 6 untimed steps and its timed steps are
# steady.
WARMUP_STEPS = 6
# load_checkpoint casts the parameters back to the configured dtype, so
# PWGAN's first step after a resume runs before the upcast and is not timed;
# MelGAN's Adam keeps float32
REWARM_STEPS = {"melgan": 0, "pwgan": 1}
# train() calls per chain. The host has slow and fast spells of a few
# seconds; a chunk shorter than the tail's 10 samples cannot set the tail
# alone, and more turns sample more spells. Each turn costs PWGAN two
# untimed steps of over half a second, so it takes few.
CHUNKS = {"melgan": 16, "pwgan": 3}
# the tail percentile needs at least 10 samples beyond it; a traced run
# reports no tail
MIN_TIMED_STEPS = {0: 25, 1: 10}
REPS = 3  # rounds of set-up, and of synthesis and evaluation when untraced
# a MelGAN synth call lasts about 0.3 s, short enough for the host's
# jitter to show, so each round synthesizes and evaluates twice
CALLS_PER_ROUND = 2
# Wall times on the reference machine, used only to size the fixed step
# schedule from --seconds: median step (warm, adversarial, held-out
# evaluations included), the held-out evaluation, checkpoint save and load
# of one train() call, start-up with imports, one set-up, one synth and
# eval call of both generators, and a traced training pass relative to an
# untraced one.
NOMINAL_STEP_MS = {"melgan": (125.0, 285.0), "pwgan": (560.0, 800.0)}
CALL_MS = 150.0
START_S = 1.0
SETUP_S = 0.8
SYNTH_EVAL_S = 2.4
TRACE_COST = 1.1


@dataclass(frozen=True)
class Plan:
    """Fixed step schedule; the same --seconds always gives the same work.

    Both phases time the same number of steps, so their tails are the same
    percentile.
    """

    warmup: int  # untimed steps at the start of each chain
    rewarm: int  # untimed steps after each resume
    chunks: tuple  # timed steps of each chain's train() calls, in turn
    reps: int


def make_plan(vocoder, seconds, trace, smoke=False):
    """Schedule for a run of about ``seconds`` on the reference machine.

    A traced run trains twice, untraced and traced, and synthesizes once.
    Each phase keeps its minimum of timed steps, so a short --seconds can
    give a longer run.
    """
    if smoke:
        return Plan(warmup=1, rewarm=1, chunks=(1, 1), reps=1)
    other_s = START_S + REPS * SETUP_S + (1 if trace else REPS * CALLS_PER_ROUND) * SYNTH_EVAL_S
    train_ms = max(0.0, seconds - other_s) * 1000.0 / (1 + TRACE_COST if trace else 1)
    pair_ms = sum(NOMINAL_STEP_MS[vocoder])
    k, rewarm = CHUNKS[vocoder], REWARM_STEPS[vocoder]
    untimed_ms = (WARMUP_STEPS + (k - 1) * rewarm) * pair_ms + 2 * k * CALL_MS
    timed = max(MIN_TIMED_STEPS[trace], round((train_ms - untimed_ms) / pair_ms))
    return Plan(
        warmup=WARMUP_STEPS,
        rewarm=rewarm,
        chunks=tuple(timed // k + (i < timed % k) for i in range(k)),
        reps=REPS,
    )


class Tally:
    """Operations attempted and failed; a failed check counts as a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok


def tail(values):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    i = len(v) - 11
    return v[i], 100.0 * (i + 1) / len(v)


def _dur(span):
    return span[3] - span[2]


# ---------------------------------------------------------------------------
# set-up


def set_up(vl, seed, work):
    """Corpus, reference WAVs and seeded checkpoints; returns timings too."""
    t0 = time.perf_counter()
    corpus = vl.data.synth_corpus(seed)
    corpus_s = time.perf_counter() - t0
    refs = work / "refs"
    refs.mkdir(parents=True, exist_ok=True)
    for clip in corpus.test_clips:
        vl.data.write_wav(refs / f"{clip.id}.wav", clip)
    ckpts = {}
    for v in VOCODERS:
        trainer = vl.trainer.Trainer(vl.trainer.desk_config(v, seed=seed), corpus, work / f"init_{v}")
        ckpts[v] = vl.trainer.save_checkpoint(work / f"init_{v}.npz", trainer)
    return corpus, refs, ckpts, time.perf_counter() - t0, corpus_s


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainPass:
    tracer: object
    wall_s: float  # all train() calls, without what runs between them
    timed: dict  # phase -> indices into tracer.steps of its timed steps
    first_adv: list  # log records of the adversarial chain's first two steps
    warm_heldout: float  # held-out STFT loss at the end of the warm chain
    checkpoint: Path
    losses: list  # [iteration, stft, g, d] of every step, then [iteration, held-out]
    digest: str


def train_pass(vl, vocoder, seed, corpus, plan, out, tracer, tally, between=None):
    """The real train() loop, as a warm chain and an adversarial chain in turns.

    Each turn runs one chunk of the warm chain, then one of the adversarial
    chain. A chain's first chunk starts with ``plan.warmup`` untimed steps,
    each later one resumes from the chain's last checkpoint and starts with
    ``plan.rewarm``. The adversarial chain forks from the warm chain's first
    checkpoint. ``between(turn)`` runs before every turn but the first, with
    the wrappers removed and the clock stopped.
    """
    cfg = vl.trainer.desk_config(vocoder, seed=seed, log_interval=10)
    timed = {"warm": [], "adv": []}
    ckpt, end, records = {}, {}, []
    wall = 0.0
    fork = plan.warmup + plan.chunks[0]  # the warm chain's first checkpoint
    patches = bench_trace.install(tracer, vl)
    try:
        for turn, chunk in enumerate(plan.chunks):
            if turn and between is not None:
                patches.restore()
                between(turn)
                patches = bench_trace.install(tracer, vl)
            for phase in ("warm", "adv"):
                untimed = plan.rewarm if phase in ckpt else plan.warmup
                start = end.get(phase, 0 if phase == "warm" else fork)
                total = start + untimed + chunk
                first = len(tracer.steps)
                t0 = time.perf_counter()
                result = vl.trainer.train(
                    replace(cfg, total_iterations=total,
                            d_start_iteration=total if phase == "warm" else fork),
                    corpus,
                    out / phase,
                    resume_from=ckpt.get(phase, ckpt.get("warm")),
                )
                wall += time.perf_counter() - t0
                timed[phase] += range(first + untimed, len(tracer.steps))
                ckpt[phase], end[phase] = result.checkpoint_paths[-1], total
                records += [(phase, r) for r in result.records]
    finally:
        patches.restore()
    losses = [
        [r["iteration"], r["stft_loss"], r["g_loss"], r.get("d_loss")]
        for _, r, _ in tracer.steps
    ] + [[r["iteration"], r["heldout_stft"]] for _, r in records]
    for row in losses:
        tally.check(
            all(math.isfinite(x) for x in row[1:] if x is not None),
            f"non-finite loss at iteration {row[0]}",
        )
    digest = hashlib.sha256(json.dumps(losses).encode()).hexdigest()
    first_adv = [r for _, r, _ in tracer.steps if r["phase"] == "adversarial"][:2]
    warm_heldout = [r["heldout_stft"] for phase, r in records if phase == "warm"][-1]
    return TrainPass(tracer, wall, timed, first_adv, warm_heldout, ckpt["adv"], losses, digest)


def step_ms(train):
    """Timed step wall times in ms, by phase."""
    steps, spans = train.tracer.steps, train.tracer.spans
    return {
        phase: [_dur(spans[steps[i][0]]) * 1e3 for i in idx]
        for phase, idx in train.timed.items()
    }


def span_ms(tracer, name):
    return [_dur(s) * 1e3 for s in tracer.spans if s[0] == name]


def dtype_report(vl, trainer):
    """Parameters off the configured dtype, and the generator output's bit width."""
    want = np.dtype(trainer.config.dtype)
    off = sum(
        1 for ps in (trainer.g_params, trainer.d_params) for _, t in ps.items() if t.dtype != want
    )
    spec, Tensor = trainer.g_spec, vl.tensor.Tensor
    mel = Tensor(np.zeros((1, spec.n_mels, 4), dtype=want))
    if trainer.config.vocoder == "melgan":
        y = vl.models.melgan_generate(mel, spec, trainer.g_params)
    else:
        noise = Tensor(np.zeros((1, 1, 4 * spec.hop), dtype=want))
        y = vl.models.pwgan_generate(noise, mel, spec, trainer.g_params)
    return off, y.dtype.itemsize * 8


# ---------------------------------------------------------------------------
# synthesis and evaluation through the CLI


def cli_call(vl, tracer, name, args):
    """Run one ``voclab`` command in-process; returns (exit code, seconds)."""
    sink = io.StringIO()
    idx = tracer.open(name)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            vl.cli.main.main(args=[str(a) for a in args], standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        code = exc.exit_code
    finally:
        tracer.close(idx)
    return code, _dur(tracer.spans[idx])


def synth_and_eval(vl, tracer, work, refs, ckpts, tally):
    """Copy-synthesis with both generators, then MCD/FFE of each output directory."""
    ref_len = {p.name: len(vl.data.read_wav(p)) // 256 * 256 for p in sorted(refs.glob("*.wav"))}
    x_realtime = {v: [] for v in VOCODERS}
    pairs_per_s = []
    for v in VOCODERS:
        out = work / f"synth_{v}"
        shutil.rmtree(out, ignore_errors=True)
        code, secs = cli_call(
            vl, tracer, "cli.synth",
            ["synth", "--checkpoint", ckpts[v], "--mel-from", refs, "--out", out],
        )
        got = {p.name: len(vl.data.read_wav(p)) for p in sorted(out.glob("*.wav"))}
        if tally.check(code == 0 and got == ref_len, f"voclab synth ({v}): exit {code}, "
                       f"{len(got)} of {len(ref_len)} files of the right length"):
            x_realtime[v].append(sum(got.values()) / SAMPLE_RATE / secs)
    for v in VOCODERS:
        report = work / f"eval_{v}"
        report.with_suffix(".json").unlink(missing_ok=True)
        code, secs = cli_call(
            vl, tracer, "cli.eval",
            ["eval", "--ref", refs, "--syn", work / f"synth_{v}", "--out", report],
        )
        pairs = []
        if code == 0:
            pairs = json.loads(report.with_suffix(".json").read_text())["pairs"]
        finite = all(math.isfinite(p["mcd"]) and math.isfinite(p["ffe"]) for p in pairs)
        if tally.check(code == 0 and len(pairs) == len(ref_len) and finite,
                       f"voclab eval ({v}): exit {code}, {len(pairs)} finite pairs"):
            pairs_per_s.append(len(pairs) / secs)
    return x_realtime, pairs_per_s


# ---------------------------------------------------------------------------
# metrics


def _metric(value, unit, samples, **extra):
    return {"value": value, "unit": unit, "samples": samples, **extra}


def end_to_end(setup_s, train, x_realtime, pairs_per_s, batch_audio_s):
    steps = step_ms(train)
    heldout = span_ms(train.tracer, "trainer.heldout_eval")
    saves = span_ms(train.tracer, "trainer.checkpoint_save")
    m = {"setup_s": _metric(statistics.median(setup_s), "s", len(setup_s))}
    for phase in ("warm", "adv"):
        ms = steps[phase]
        m[f"{phase}_step_ms_p50"] = _metric(statistics.median(ms), "ms", len(ms))
        value, pct = tail(ms)
        m[f"{phase}_step_ms_tail"] = _metric(value, "ms", len(ms), percentile=pct)
    n_steps = len(train.tracer.steps)
    m["train_audio_s_per_s"] = _metric(n_steps * batch_audio_s / train.wall_s, "audio_s/s", n_steps)
    projected = (
        2000 * m["warm_step_ms_p50"]["value"]
        + 1000 * m["adv_step_ms_p50"]["value"]
        + 300 * statistics.median(heldout)
        + 3 * statistics.median(saves)
    ) / 1000.0
    m["desk_run_s_projected"] = _metric(projected, "s", len(steps["warm"]) + len(steps["adv"]))
    m["heldout_stft_final"] = _metric(train.warm_heldout, "loss", 1)
    # D's losses at the first two adversarial steps guard that path: the
    # first covers D and prls_d_total; the second follows D's first backward
    # pass and update and G's first update through prls_adv_total. Later
    # losses, and PWGAN's G losses, vary too much across seeds to bound.
    first, second = train.first_adv
    m["adv_d_loss_first"] = _metric(first["d_loss"], "loss", 1)
    m["adv_d_loss_second"] = _metric(second["d_loss"], "loss", 1)
    for v in VOCODERS:
        m[f"synth_x_realtime.{v}"] = _metric(
            statistics.median(x_realtime[v]), "audio_s/s", len(x_realtime[v])
        )
    m["eval_pairs_per_s"] = _metric(statistics.median(pairs_per_s), "pairs/s", len(pairs_per_s))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["peak_rss_mb"] = _metric(rss_mb, "MB", 1)
    return m


def per_layer(train):
    """Layer metrics from a traced run.

    Inside the training step (the timed steps of both phases) every value is
    per step: ms per step, records per step, GFLOP and bytes per step.
    Functions of synthesis, evaluation and checkpointing are ms per call
    (per pair for metrics.mcd/ffe, which run once per pair).
    """
    tracer = train.tracer
    spans = tracer.spans
    own = bench_trace.self_times(spans)
    root = bench_trace.step_roots(spans)
    timed = {tracer.steps[i][0] for idx in train.timed.values() for i in idx}
    n = len(timed)
    tot, slf = defaultdict(float), defaultdict(float)  # within timed steps
    call_tot, call_self, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    flop = nbytes = conv_s = 0.0
    for i, s in enumerate(spans):
        name, role, dur = s[0], s[1], _dur(s)
        call_tot[name] += dur
        call_self[name] += own[i]
        calls[name] += 1
        if root[i] not in timed:
            continue
        tot[name] += dur
        slf[name] += own[i]
        if role is not None:
            tot[f"models.{role}.{'bwd' if name.endswith('.bwd') else 'fwd'}_ms"] += dur
        work = tracer.work.get(i)
        if work is not None:
            flop += work[0]
            nbytes += work[1]
            conv_s += dur

    m = {}

    def step(name, seconds):
        m[name] = _metric(seconds * 1e3 / n, "ms", n)

    def per_call(name, span, self_only=False):
        k = calls[span]
        total = (call_self if self_only else call_tot)[span]
        m[name] = _metric(total * 1e3 / k if k else 0.0, "ms", k)

    step("trainer.step.self_ms", slf["trainer.step"])
    per_call("trainer.heldout_eval.ms", "trainer.heldout_eval")
    per_call("trainer.checkpoint_save.ms", "trainer.checkpoint_save")
    per_call("trainer.checkpoint_load.ms", "trainer.checkpoint_load")
    step("data.sample_batch.ms", tot["data.sample_batch"])
    per_call("data.read_wav.ms", "data.read_wav")
    per_call("data.write_wav.ms", "data.write_wav")
    step("models.generate.ms", tot["models.generate"])
    step("models.discriminate.ms", tot["models.discriminate"])
    for net, roles in (("G", G_ROLES), ("D", D_ROLES)):
        for role in roles:
            for d in ("fwd", "bwd"):
                key = f"models.{net}.{role}.{d}_ms"
                step(key, tot[key])
    step("tensor.backward.ms", tot["tensor.backward"])
    step("tensor.tape.self_ms", slf["tensor.backward"])
    records = sum(r for idx, _, r in tracer.steps if idx in timed)
    m["tensor.tape.records"] = _metric(records / n, "count", n)
    for group in TENSOR_GROUPS:
        step(f"tensor.{group}.fwd_ms", tot[f"tensor.{group}"])
        step(f"tensor.{group}.bwd_ms", tot[f"tensor.{group}.bwd"])
    m["tensor.conv.gflop"] = _metric(flop / 1e9 / n, "GFLOP", n)
    m["tensor.conv.bytes"] = _metric(nbytes / n, "bytes", n)
    m["tensor.conv.gflops"] = _metric(flop / 1e9 / conv_s if conv_s else 0.0, "GFLOP/s", n)
    step("losses.stft.ms", tot["losses.stft"])
    step("losses.adv.ms", tot["losses.adv"])
    step("optim.step.ms", tot["optim.step"])
    step("optim.clip.ms", tot["optim.clip"])
    per_call("dsp.aligned_mel.ms", "dsp.aligned_mel")
    for fn in ("mel_spectrogram", "mel_cepstra", "estimate_f0"):
        per_call(f"dsp.{fn}.ms", f"dsp.{fn}")
    per_call("metrics.mcd.ms", "metrics.mcd")
    per_call("metrics.ffe.ms", "metrics.ffe")
    per_call("cli.synth.self_ms", "cli.synth", self_only=True)
    per_call("cli.eval.self_ms", "cli.eval", self_only=True)
    # the named layers' share of the step; the rest is trainer.step.self_ms
    accounted = 0.0
    for layer in STEP_LAYERS:
        seconds = sum(v for k, v in slf.items() if k.split(".")[0] == layer)
        step(f"{layer}.self_ms", seconds)
        accounted += seconds
    step("trace.step_ms_mean", tot["trainer.step"])
    m["trace.accounted_share"] = _metric(accounted / tot["trainer.step"], "fraction", n)
    return m


# ---------------------------------------------------------------------------
# provenance


def _git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _blas(config):
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def provenance(root):
    src = root / "src"
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))
        ),
    }


# ---------------------------------------------------------------------------
# the session


def run(vl, root, workload, seed, plan, work, trace, import_s):
    """Run one session; returns the full report (see run.py for the printout).

    The host's speed drifts, so the ``plan.reps``
    rounds of set-up (and, untraced, of synthesis and evaluation) are spread
    over the run: one before training and the rest between the turns of
    the training chains, evenly (a plan has at least as many turns as
    rounds).
    """
    vocoder = WORKLOAD_VOCODER[workload]
    tally = Tally()
    setup_s, corpus_s = [], []
    x_rt, pairs = {v: [] for v in VOCODERS}, []
    coarse = bench_trace.Tracer(full=False)
    inputs = {}

    def round_():
        corpus, refs, ckpts, total_s, c_s = set_up(vl, seed, work)
        setup_s.append(import_s + total_s)
        corpus_s.append(c_s)
        inputs.update(corpus=corpus, refs=refs, ckpts=ckpts)
        for _ in range(0 if trace else CALLS_PER_ROUND):
            x, p = synth_and_eval(vl, coarse, work, refs, ckpts, tally)
            for v in VOCODERS:
                x_rt[v] += x[v]
            pairs.extend(p)

    def between(turn):
        if turn * plan.reps // len(plan.chunks) >= len(setup_s):
            round_()

    round_()
    untraced = train_pass(
        vl, vocoder, seed, inputs["corpus"], plan, work / "train",
        bench_trace.Tracer(full=False), tally, between,
    )
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "plan": asdict(plan),
        "provenance": provenance(root),
    }
    f64, bits = dtype_report(vl, untraced.tracer.trainer)
    steps_u = step_ms(untraced)

    if not trace:
        cfg = vl.trainer.desk_config(vocoder)
        batch_audio_s = cfg.batch_size * cfg.segment_length / SAMPLE_RATE
        report["end_to_end"] = end_to_end(setup_s, untraced, x_rt, pairs, batch_audio_s)
        report["synth_x_realtime"] = x_rt
        report["eval_pairs_per_s"] = pairs
    else:
        tracer = bench_trace.Tracer(full=True)
        traced = train_pass(
            vl, vocoder, seed, inputs["corpus"], plan, work / "train_traced", tracer, tally
        )
        tally.check(
            traced.digest == untraced.digest,
            "traced and untraced runs of one seed gave different loss traces",
        )
        patches = bench_trace.install(tracer, vl)
        try:
            synth_and_eval(vl, tracer, work, inputs["refs"], inputs["ckpts"], tally)
        finally:
            patches.restore()
        layers = per_layer(traced)
        steps_t = step_ms(traced)
        for phase in ("warm", "adv"):
            p50_t = statistics.median(steps_t[phase])
            p50_u = statistics.median(steps_u[phase])
            n = len(steps_t[phase])
            layers[f"trace.{phase}_step_ms_p50"] = _metric(p50_t, "ms", n)
            layers[f"trace.{phase}_step_overhead_ms"] = _metric(p50_t - p50_u, "ms", n)
        layers["data.synth_corpus.s"] = _metric(statistics.median(corpus_s), "s", len(corpus_s))
        layers["trainer.checkpoint.bytes"] = _metric(traced.checkpoint.stat().st_size, "bytes", 1)
        layers["optim.float64_params"] = _metric(f64, "count", 1)
        layers["models.generate.output_bits"] = _metric(bits, "bits", 1)
        report["per_layer"] = layers
        report["traced_loss_digest"] = traced.digest
        tracer.write(work / "spans.jsonl.gz")

    report["step_ms"] = steps_u
    report["losses"] = untraced.losses
    report["loss_digest"] = untraced.digest
    report["dtypes"] = {"optim.float64_params": f64, "generator_output_bits": bits}
    report["checks"] = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
    }
    error_rate = tally.failed / max(tally.attempted, 1)
    if trace:
        report["per_layer"]["error_rate"] = _metric(error_rate, "fraction", tally.attempted)
    report["error_rate"] = error_rate
    return report
