"""The benchmark's spec: BENCHMARK.json, and the layer groupings behind its per-layer names.

BENCHMARK.json at the checkout root is the single source of the workload and
metric lists; run.py reports exactly the names it lists, with its units.
"""

from __future__ import annotations

import json
from pathlib import Path

# pinned to 1 before NumPy loads, as the paper's single core
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

G_ROLES = ("in", "up", "res_c1", "res_c2", "out", "cond", "dil", "res", "skip", "post")
D_ROLES = ("layer0", "down", "layer4", "layer5")
TENSOR_GROUPS = ("conv1d", "conv_transpose1d", "stft", "elementwise", "topk", "other")
# layers whose self times, with trainer.step.self_ms, partition a training step
STEP_LAYERS = ("data", "dsp", "models", "tensor", "losses", "optim")


def load(root):
    """BENCHMARK.json of the checkout at ``root``, as a dict."""
    return json.loads((Path(root) / "BENCHMARK.json").read_text())
