"""One fresh-process set-up for an in-process workload.

``python3 perfbench/setup_probe.py WORKLOAD WARMUP.npy DIR`` times the
program's import, the construction of the workload's compressors or
archive, and the first (cold-cache) operation on a tiny field, then
prints ``{"setup_s": ..., "ok": ...}``.  Loading the warm-up input is
not timed.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(workload: str, warmup_path: str, work: str) -> dict:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.workloads import (EB_FIELDS, EB_SMALL, KEY, SCHEMES_CTR,
                                     within_bound)

    warm = np.load(warmup_path)
    t0 = perf_counter()
    if workload == "fields_ctr":
        from repro.core import SecureCompressor

        comps = {s: SecureCompressor(s, EB_FIELDS, key=KEY, cipher_mode="ctr")
                 for s in SCHEMES_CTR}
        sc = comps["encr_huffman"]
        out = sc.decompress(sc.compress(warm).container)
        eb = EB_FIELDS
    elif workload == "archive_cbc":
        from repro.archive import ArchiveStore

        store = ArchiveStore.create(
            os.path.join(work, "setup.secb"), key=KEY, cipher_mode="cbc",
            random_state=np.random.default_rng(0))
        store.add_field("warm", warm, scheme="encr_huffman",
                        error_bound=EB_SMALL)
        out = store.extract_field("warm")
        eb = EB_SMALL
    else:
        raise SystemExit(f"no in-process set-up for {workload!r}")
    setup_s = perf_counter() - t0
    return {"setup_s": setup_s, "ok": within_bound(warm, out, eb)}


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:4])))
