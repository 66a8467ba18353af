"""The benchmark's own span recorder and the per-layer summary.

A traced pass records spans around calls into each layer's public
functions: every span has a name, start, end, parent span and the run
id shared by one operation.  :func:`instrumented` installs the
wrappers for the duration of a traced pass only, so untraced passes
run the program unmodified.  Wrapping ``SecureCompressor.compress`` /
``decompress`` also hands each call a fresh ``repro-trace/1``
:class:`~repro.core.trace.Tracer` through the public ``tracer=``
argument — including the calls ``ArchiveStore`` makes internally — and
keeps the exported document (stage spans and counter deltas) on the
benchmark span.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
from time import perf_counter


class Recorder:
    """In-memory span list; spans nest per thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._epoch = perf_counter()

    def set_run(self, run_id: str) -> None:
        """Tag the calling thread's next spans with ``run_id``."""
        self._tls.run = run_id

    def _stack(self) -> list[dict]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sp = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "run": getattr(self._tls, "run", None),
            "start": perf_counter() - self._epoch,
            "end": None,
            "attrs": attrs,
        }
        stack.append(sp)
        try:
            yield sp
        finally:
            sp["end"] = perf_counter() - self._epoch
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def export(self) -> list[dict]:
        """Spans sorted by start, JSON-ready."""
        with self._lock:
            return sorted(self.spans, key=lambda s: s["start"])


def duration(sp: dict) -> float:
    return sp["end"] - sp["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(
                (sp["start"], sp["end"]))
    out = {}
    for sp in spans:
        covered, reach = 0.0, sp["start"]
        for lo, hi in sorted(children.get(sp["id"], ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp["id"]] = duration(sp) - covered
    return out


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Wrap the layers' public entry points with ``rec`` spans."""
    from repro.archive import chunker
    from repro.core import trace
    from repro.core.pipeline import SecureCompressor
    from repro.crypto.aes import AES128

    def core_wrapper(orig, name):
        @functools.wraps(orig)
        def wrapper(self, data, *, tracer=None):
            tr = tracer if tracer is not None else trace.Tracer()
            with rec.span(name, scheme=self.scheme) as sp:
                out = orig(self, data, tracer=tr)
            sp["program"] = tr.export()
            return out
        return wrapper

    def timed_wrapper(orig, name):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                return orig(*args, **kwargs)
        return wrapper

    patches = [
        (SecureCompressor, "compress", core_wrapper, "core.compress"),
        (SecureCompressor, "decompress", core_wrapper, "core.decompress"),
        (AES128, "encrypt", timed_wrapper, "crypto.encrypt"),
        (AES128, "decrypt", timed_wrapper, "crypto.decrypt"),
        (chunker, "split", timed_wrapper, "archive.chunk"),
    ]
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _, _ in patches]
    try:
        for owner, attr, make, name in patches:
            setattr(owner, attr, make(getattr(owner, attr), name))
        yield rec
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)


# ----------------------------------------------------------------------
# Per-layer summary of one traced pass
# ----------------------------------------------------------------------


def _walk(span: dict, parent: dict | None = None):
    yield span, parent
    for child in span["children"]:
        yield from _walk(child, span)


def _ancestor_attr(sp: dict, by_id: dict[int, dict], key: str):
    while sp is not None:
        if key in sp["attrs"]:
            return sp["attrs"][key]
        sp = by_id.get(sp["parent"])
    return None


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was counted (den == 0)."""
    return num / den if den else 0.0


def summarize(spans: list[dict], counters: dict[str, int]) -> dict:
    """Per-layer metrics of one traced pass.

    ``counters`` is the process-wide counter delta over the whole pass.
    Millisecond metrics are totals over the pass; ``archive.*_ms`` are
    self times (the archive span minus its compress, crypto and chunk
    children).
    """
    ms: dict[str, float] = {}

    def add(name: str, seconds: float) -> None:
        ms[name] = ms.get(name, 0.0) + seconds * 1e3

    by_id = {sp["id"]: sp for sp in spans}
    own = self_times(spans)
    n_symbols = 0
    deflate_in = deflate_out = 0
    ks_used = ks_made = 0
    encrypted = 0
    nyx_build = nyx_total = 0.0
    ce_decrypt = ce_total = 0.0
    for sp in spans:
        name = sp["name"]
        if name.startswith("archive."):
            metric = {
                "archive.add_field": "archive.add_field_ms",
                "archive.add_bytes": "archive.add_bytes_ms",
                "archive.extract_field": "archive.extract_ms",
                "archive.extract_bytes": "archive.extract_ms",
                "archive.verify_deep": "archive.verify_deep_ms",
                "archive.gc": "archive.gc_ms",
                "archive.chunk": "archive.chunk_ms",
            }.get(name)
            if metric is not None:
                add(metric, own[sp["id"]])
        elif name in ("crypto.encrypt", "crypto.decrypt"):
            add(name + "_ms", duration(sp))
        elif name == "core.compress":
            doc = sp["program"]
            root = doc["roots"][0]
            counters_c = doc["counters"]
            deflate_in += counters_c.get("zlib.deflate_in_bytes", 0)
            deflate_out += counters_c.get("zlib.deflate_out_bytes", 0)
            ks_made += 16 * counters_c.get("aes.blocks_keystream", 0)
            for key in ("keystream_overlap_ms", "keystream_wait_ms"):
                add(f"crypto.{key}", root["attrs"].get(key, 0.0) / 1e3)
            for node, parent in _walk(root):
                stage = node["name"]
                if stage in ("quantize", "predict", "huffman_build",
                             "huffman_encode"):
                    add(f"sz.{stage}_ms", node["seconds"])
                if stage == "huffman_build":
                    n_symbols += int(node["attrs"].get("n_symbols", 0))
                elif stage == "protect":
                    add("core.protect_ms", node["seconds"])
                elif stage == "lossless" and parent["name"] == "protect":
                    add("sz.lossless.deflate_ms", node["seconds"])
                elif stage == "encrypt":
                    encrypted += node["bytes_in"] or 0
                    if node["attrs"].get("mode") == "ctr":
                        ks_used += node["bytes_in"] or 0
            if (_ancestor_attr(sp, by_id, "dataset") == "nyx"
                    and sp["attrs"]["scheme"] == "encr_huffman"):
                nyx_total += root["seconds"]
                nyx_build += sum(
                    n["seconds"] for n, _ in _walk(root)
                    if n["name"] == "huffman_build")
        elif name == "core.decompress":
            root = sp["program"]["roots"][0]
            for node, parent in _walk(root):
                stage = node["name"]
                if stage == "unprotect":
                    add("core.unprotect_ms", node["seconds"])
                elif stage == "lossless" and parent["name"] == "unprotect":
                    add("sz.lossless.inflate_ms", node["seconds"])
                elif stage == "huffman_decode":
                    version = parent["attrs"].get("frame_version")
                    add(f"sz.huffman_decode_v{version}_ms", node["seconds"])
                elif stage == "reconstruct":
                    add("sz.reconstruct_ms", node["seconds"])
            if sp["attrs"]["scheme"] == "cmpr_encr":
                ce_total += root["seconds"]
                ce_decrypt += sum(
                    n["seconds"] for n, _ in _walk(root)
                    if n["name"] == "decrypt")

    if not deflate_in:  # compression ran out of process (served_jobs)
        deflate_in = counters.get("zlib.deflate_in_bytes", 0)
        deflate_out = counters.get("zlib.deflate_out_bytes", 0)
    hits = counters.get("huffman.codec_cache_hits", 0)
    misses = counters.get("huffman.codec_cache_misses", 0)
    added = counters.get("archive.chunks_added", 0)
    deduped = counters.get("archive.chunks_deduped", 0)
    out = dict(ms)
    out.update({
        "sz.huffman.n_symbols": n_symbols,
        "sz.huffman_build_share_nyx_pct": 100 * ratio(nyx_build, nyx_total),
        "huffman.packed_words": counters.get("huffman.packed_words", 0),
        "fastdecode.segments": counters.get("fastdecode.segments", 0),
        "sz.lossless.deflate_saving":
            1 - ratio(deflate_out, deflate_in) if deflate_in else 0.0,
        "huffman.codec_cache_hit_ratio": ratio(hits, hits + misses),
        "aes.blocks_encrypted": counters.get("aes.blocks_encrypted", 0),
        "aes.blocks_decrypted": counters.get("aes.blocks_decrypted", 0),
        "aes.blocks_keystream": counters.get("aes.blocks_keystream", 0),
        "crypto.keystream_use_ratio": ratio(ks_used, ks_made),
        "crypto.decrypt_share_cmpr_encr_pct":
            100 * ratio(ce_decrypt, ce_total),
        "core.encrypted_bytes": encrypted,
        "archive.dedup_ratio": ratio(deduped, added + deduped),
    })
    return out


def findings(spans: list[dict]) -> list[str]:
    """ROADMAP item 1's findings, per dataset, from one traced pass."""
    by_id = {sp["id"]: sp for sp in spans}
    lines = []
    for sp in spans:
        if sp["name"] not in ("core.compress", "core.decompress"):
            continue
        dataset = _ancestor_attr(sp, by_id, "dataset")
        scheme = sp["attrs"]["scheme"]
        doc = sp["program"]
        root = doc["roots"][0]
        nodes = list(_walk(root))
        total = root["seconds"]

        def stage_ms(name: str) -> float:
            return 1e3 * sum(n["seconds"] for n, _ in nodes
                             if n["name"] == name)

        if sp["name"] == "core.compress" and scheme == "encr_huffman":
            final = max((n for n, p in nodes if n["name"] == "lossless"
                         and p["name"] == "protect"),
                        key=lambda n: n["bytes_in"] or 0)
            saving = 1 - final["bytes_out"] / final["bytes_in"]
            lines.append(
                f"{dataset} encr_huffman compress {1e3 * total:.0f} ms: "
                f"huffman_build {stage_ms('huffman_build'):.0f} ms "
                f"({100 * stage_ms('huffman_build') / 1e3 / total:.1f}%), "
                f"final deflate {1e3 * final['seconds']:.0f} ms saving "
                f"{100 * saving:.2f}% of {final['bytes_in']} B")
        elif sp["name"] == "core.compress" and scheme == "cmpr_encr":
            made = 16 * doc["counters"].get("aes.blocks_keystream", 0)
            used = sum(n["bytes_in"] or 0 for n, _ in nodes
                       if n["name"] == "encrypt")
            if made:
                lines.append(
                    f"{dataset} cmpr_encr compress: keystream use "
                    f"{used} / {made} B = {100 * used / made:.1f}%")
        elif sp["name"] == "core.decompress" and scheme == "cmpr_encr":
            lines.append(
                f"{dataset} cmpr_encr decompress {1e3 * total:.0f} ms: "
                f"decrypt {stage_ms('decrypt'):.0f} ms "
                f"({100 * stage_ms('decrypt') / 1e3 / total:.1f}%)")
    return lines
