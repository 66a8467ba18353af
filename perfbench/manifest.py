"""Declarations of the benchmark: workloads and metrics.

This module is the single source for ``BENCHMARK.json`` (written by
``python3 perfbench/run.py --write-manifest``) and for the metric names
the runner emits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

#: (name, one-line why) — loop type and client count included.
WORKLOADS = (
    ("fields_ctr",
     "closed loop, 1 in-process caller: nyx/t/cloudf48 medium (8.4-9.3 MB) "
     "x 4 schemes, CTR eb=1e-4 compress+decompress; SZ stages + deflate "
     "carry the time"),
    ("archive_cbc",
     "closed loop, 1 in-process caller: SECB v2 archive, seeded CBC, 7 small "
     "fields x 2 schemes + 2 shared text logs, extract, deep verify, gc; "
     "CBC + chunk/dedup/index"),
    ("served_jobs",
     "closed loop, 2 clients from 1 load generator vs a secz serve daemon "
     "(CTR, 2 workers): ~1 MB small fields from a fixed pool, encr_huffman "
     "+ cmpr_encr; protocol/store/queue"),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only


END_TO_END = (
    Metric("compress_mbps", "MB/s", "higher", 0.25),
    Metric("decompress_mbps", "MB/s", "higher", 0.25),
    Metric("compression_ratio", "ratio", "higher", 0.10),
    Metric("jobs_per_s", "1/s", "higher", 0.25),
    Metric("job_latency_p50_ms", "ms", "lower", 0.25),
    Metric("job_latency_p90_ms", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
)

#: Grouped by layer; perfbench/README.md maps each to the end-to-end
#: metric and workload it should move.
PER_LAYER = tuple(Metric(name, unit, better) for name, unit, better in (
    # repro.sz
    ("sz.quantize_ms", "ms", "lower"),
    ("sz.predict_ms", "ms", "lower"),
    ("sz.huffman_build_ms", "ms", "lower"),
    ("sz.huffman_build_share_nyx_pct", "%", "lower"),
    ("sz.huffman.n_symbols", "count", "lower"),
    ("sz.huffman_encode_ms", "ms", "lower"),
    ("huffman.packed_words", "count", "lower"),
    ("sz.huffman_decode_v3_ms", "ms", "lower"),
    ("fastdecode.segments", "count", "lower"),
    ("sz.reconstruct_ms", "ms", "lower"),
    ("sz.huffman_decode_v2_ms", "ms", "lower"),
    ("sz.lossless.deflate_ms", "ms", "lower"),
    ("sz.lossless.deflate_saving", "ratio", "higher"),
    ("sz.lossless.inflate_ms", "ms", "lower"),
    ("huffman.codec_cache_hit_ratio", "ratio", "higher"),
    # repro.crypto
    ("crypto.encrypt_ms", "ms", "lower"),
    ("aes.blocks_encrypted", "count", "lower"),
    ("crypto.decrypt_ms", "ms", "lower"),
    ("crypto.decrypt_share_cmpr_encr_pct", "%", "lower"),
    ("aes.blocks_decrypted", "count", "lower"),
    ("aes.blocks_keystream", "count", "lower"),
    ("crypto.keystream_overlap_ms", "ms", "lower"),
    ("crypto.keystream_wait_ms", "ms", "lower"),
    ("crypto.keystream_use_ratio", "ratio", "higher"),
    # repro.core
    ("core.protect_ms", "ms", "lower"),
    ("core.unprotect_ms", "ms", "lower"),
    ("core.encrypted_bytes", "bytes", "lower"),
    ("core.scheme_overhead_pct.cmpr_encr", "%", "lower"),
    ("core.scheme_overhead_pct.encr_quant", "%", "lower"),
    ("core.scheme_overhead_pct.encr_huffman", "%", "lower"),
    ("core.trace_overhead_pct", "%", "lower"),
    # repro.service
    ("service.submit_ack_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.run_ms", "ms", "lower"),
    ("service.batch_reuse_ratio", "ratio", "higher"),
    ("service.jobs_failed", "count", "lower"),
    # repro.archive
    ("archive.add_field_ms", "ms", "lower"),
    ("archive.add_bytes_ms", "ms", "lower"),
    ("archive.chunk_ms", "ms", "lower"),
    ("archive.gc_ms", "ms", "lower"),
    ("archive.extract_ms", "ms", "lower"),
    ("archive.verify_deep_ms", "ms", "lower"),
    ("archive.dedup_ratio", "ratio", "higher"),
))


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document (its key set is fixed)."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def render() -> str:
    """``BENCHMARK.json`` text as written to disk."""
    return json.dumps(benchmark_json(), indent=2) + "\n"
