"""Seeded input generation for the benchmark workloads.

Runs in its own process (``python3 perfbench/inputs.py WORKLOAD SEED
SCALE OUTDIR``) so that generating inputs — scipy filters over 8 MB
grids — never counts toward the measured process's set-up time or
peak memory.  It writes ``.npy`` / ``.bin`` files plus ``inputs.json``
describing them; the program under test only ever sees these arrays
and bytes.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

#: fields_ctr: the ROADMAP headline fields, 8.4 / 8.6 / 9.3 MB float32.
FIELDS_CTR_DATASETS = ("nyx", "t", "cloudf48")
#: archive_cbc and served_jobs use every dataset at the small preset.
ALL_DATASETS = ("cloudf48", "wf48", "nyx", "q2", "height", "qi", "t")
#: Per-scale presets: the real run and the self-test's tiny run.
PRESETS = {
    "full": {"fields": "medium", "small": "small", "log_lines": 30_000},
    "tiny": {"fields": "tiny", "small": "tiny", "log_lines": 1_500},
}

_WORDS = ("checkpoint", "halo-exchange", "io-flush", "solver", "restart",
          "regrid", "diagnostics", "barrier")


def text_logs(seed: int, n_lines: int) -> tuple[bytes, bytes]:
    """Two simulation logs (~60 B/line) that share most of their content.

    The second log is the first with a few dozen edited stretches and a
    fresh tail, the shape of consecutive runs of one job.
    """
    rng = np.random.default_rng([seed, 17])
    ranks = rng.integers(0, 512, n_lines)
    words = rng.integers(0, len(_WORDS), n_lines)
    loss = rng.random(n_lines)
    lines = [
        f"t={i * 0.25:012.2f} rank={ranks[i]:03d} step={i // 8} "
        f"{_WORDS[words[i]]} loss={loss[i]:.6f}\n"
        for i in range(n_lines)
    ]
    first = "".join(lines).encode()
    second = bytearray(first)
    for at in rng.integers(0, len(second) - 64, max(4, n_lines // 1000)):
        second[at:at + 48] = rng.integers(65, 91, 48, dtype=np.uint8).tobytes()
    tail = "".join(lines[: n_lines // 10]).replace("rank=", "node=").encode()
    return first, bytes(second) + tail


def _field(name: str, size: str, seed: int) -> np.ndarray:
    """The dataset's default instance, circularly shifted along every
    axis by amounts drawn from ``seed``.

    Each seed gives different bytes but the same values, so every seed
    does the same work.  A generator seed would not: nyx at ``small``
    and eb = 1e-3 compresses to anywhere from 180 to 278 KB depending
    on it, and the sequential CBC work of ``archive_cbc`` follows.
    """
    from repro.datasets import generate

    arr = np.asarray(generate(name, size=size), dtype=np.float32)
    rng = np.random.default_rng([seed, 31])
    shift = tuple(int(rng.integers(n)) for n in arr.shape)
    rolled = np.roll(arr, shift, axis=tuple(range(arr.ndim)))
    return np.ascontiguousarray(rolled)


def generate_inputs(workload: str, seed: int, scale: str, out: str) -> dict:
    """Write ``workload``'s inputs for ``seed`` into ``out``; returns
    the ``inputs.json`` description."""
    preset = PRESETS[scale]
    desc: dict = {"workload": workload, "seed": seed, "scale": scale,
                  "fields": [], "blobs": []}

    def save_field(label: str, dataset: str, size: str) -> None:
        arr = _field(dataset, size, seed)
        path = os.path.join(out, f"{label}.npy")
        np.save(path, arr)
        desc["fields"].append({"label": label, "dataset": dataset,
                               "path": path, "nbytes": int(arr.nbytes)})

    if workload == "fields_ctr":
        for name in FIELDS_CTR_DATASETS:
            save_field(name, name, preset["fields"])
    elif workload in ("archive_cbc", "served_jobs"):
        for name in ALL_DATASETS:
            save_field(name, name, preset["small"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "archive_cbc":
        for i, blob in enumerate(text_logs(seed, preset["log_lines"])):
            path = os.path.join(out, f"log{i}.bin")
            with open(path, "wb") as fh:
                fh.write(blob)
            desc["blobs"].append({"label": f"log{i}", "path": path,
                                  "nbytes": len(blob)})
    # The cold first operation of the set-up probes.
    warm = _field("nyx", "tiny", seed)
    desc["warmup"] = os.path.join(out, "warmup.npy")
    np.save(desc["warmup"], warm)
    with open(os.path.join(out, "inputs.json"), "w") as fh:
        json.dump(desc, fh)
    return desc


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    workload_arg, seed_arg, scale_arg, out_arg = sys.argv[1:5]
    generate_inputs(workload_arg, int(seed_arg), scale_arg, out_arg)
