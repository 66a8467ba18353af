"""Self-test of the benchmark at tiny dims.

    python3 -m pytest perfbench -q

Checks that BENCHMARK.json matches the declarations and the manifest
limits, that every workload runs end to end in both modes and emits
every declared metric with its unit, that a corrupted read-back counts
as a failed operation, and that the command refuses to run without the
program beside it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import inputs, manifest, spans, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_declarations():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert doc == manifest.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    assert len(json.dumps(doc)) <= 64 * 1024


def test_readme_maps_every_layer_metric():
    with open(os.path.join(ROOT, "perfbench", "README.md")) as fh:
        text = fh.read()
    missing = [m.name for m in manifest.PER_LAYER if f"`{m.name}`" not in text]
    assert missing == []


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", manifest.WORKLOAD_NAMES)
def test_workload_runs_end_to_end(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = manifest.PER_LAYER if trace == "1" else manifest.END_TO_END
    assert result["metrics"] == {
        m.name: {"value": result["metrics"][m.name]["value"], "unit": m.unit}
        for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, float) for v in values)
    if trace == "0":
        assert all(v > 0 for v in values)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "fields_ctr", "--seed", "1", "--seconds",
                   "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _tiny_context(workload: str, tmp_path) -> workloads.Context:
    desc = inputs.generate_inputs(workload, 5, "tiny", str(tmp_path))
    return workloads.Context(workload, 5, 0.0, ROOT, str(tmp_path), desc)


def test_corrupted_read_back_counts_as_failed(tmp_path, monkeypatch):
    from repro.core.pipeline import SecureCompressor

    real = SecureCompressor.decompress
    calls = []

    def corrupt_first(self, blob, *, tracer=None):
        out = real(self, blob, tracer=tracer)
        calls.append(1)
        if len(calls) == 1:
            out = out + np.float32(10 * workloads.EB_FIELDS)
        return out

    monkeypatch.setattr(SecureCompressor, "decompress", corrupt_first)
    ctx = _tiny_context("fields_ctr", tmp_path)
    workloads.fields_ctr(ctx, trace=True)
    tally = ctx.tally
    assert tally.failed == 1
    assert tally.attempted == 2 * len(ctx.inputs["fields"]) * 4
    assert "output check failed" in tally.errors[0]


def test_archive_digests_read_from_the_index(tmp_path):
    from repro.archive import ArchiveStore

    path = str(tmp_path / "a.secb")
    store = ArchiveStore.create(path, key=workloads.KEY)
    store.add_field("f", np.zeros((8, 8), np.float32))
    store.add_bytes("raw", b"abc" * 100)
    digests = workloads.secb_v2_field_digests(path)
    assert list(digests) == ["f"] and len(digests["f"]) == 64


def test_self_time_subtracts_covered_children():
    sp = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 5.0},
        {"id": 4, "parent": 2, "start": 1.5, "end": 2.0},
    ]
    own = spans.self_times(sp)
    assert own == {1: 6.0, 2: 2.5, 3: 2.0, 4: 0.5}
