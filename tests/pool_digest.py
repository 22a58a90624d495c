"""SHA-256 digests of ``segment(...).to_dict()`` over the benchmark's input pools.

For every workload of ``bench/workloads.py`` and every norm, the workload's
pool at seed 0 is segmented under its stop rule, in pool order, and the
JSON documents are hashed together: one line per workload and norm. Two
trees that print the same lines give byte-identical results on every pool
series. Each tree imports its own ``src/`` and ``bench/``; nothing is
written. pytest does not collect this file. Run from a checkout::

    python3 tests/pool_digest.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leaves no __pycache__ under bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import rankseg  # noqa: E402
from workloads import WORKLOADS, build_pool  # noqa: E402

if __name__ == "__main__":
    for name, workload in WORKLOADS.items():
        pool = build_pool(rankseg, workload, 0)
        for norm in ("linf", "l1", "l2"):
            config = rankseg.DetectorConfig(stop=workload.stop, norm=norm)
            digest, count = hashlib.sha256(), 0
            for items in pool:
                for item in items:
                    document = rankseg.segment(item.values, config).to_dict()
                    digest.update(json.dumps(document, sort_keys=True).encode() + b"\n")
                    count += 1
            print(f"{name} {norm} {count} {digest.hexdigest()}", flush=True)
