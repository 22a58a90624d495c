"""SHA-256 digests of ``segment(...).to_dict()`` over the benchmark's input pools.

For every workload of ``bench/workloads.py`` and every norm, the workload's
pool at seed 0 is segmented under its stop rule, in pool order, and the
JSON documents are hashed together: one line per workload and norm. A tied
pool follows, ``NOCHANGE_POIS`` at rates 3 and 20 and lengths 60, 100, 400
and 1000 (seeds 0-4), under both stop rules and every norm, so the lines
cover count data on either side of the scan bound's gates. Two trees that
print the same lines give byte-identical results on every pool series. Each
tree imports its own ``src/`` and ``bench/``; nothing is written. pytest
does not collect this file. Run from a checkout::

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

NORMS = ("linf", "l1", "l2")


def digest_line(name: str, series: list, config) -> str:
    """``name``, the norm, the series count and the digest of their documents."""
    digest = hashlib.sha256()
    for values in series:
        document = rankseg.segment(values, config).to_dict()
        digest.update(json.dumps(document, sort_keys=True).encode() + b"\n")
    return f"{name} {config.norm.value} {len(series)} {digest.hexdigest()}"


def tied_pool() -> list:
    """``NOCHANGE_POIS`` series: rates 3 and 20, T = 60, 100, 400 and 1000, seeds 0-4."""
    return [
        rankseg.generate(rankseg.ModelSpec("NOCHANGE_POIS", seed, length=T, rate=rate)).values
        for rate in (3.0, 20.0)
        for T in (60, 100, 400, 1000)
        for seed in range(5)
    ]


if __name__ == "__main__":
    for name, workload in WORKLOADS.items():
        pool = [item.values for items in build_pool(rankseg, workload, 0) for item in items]
        for norm in NORMS:
            config = rankseg.DetectorConfig(stop=workload.stop, norm=norm)
            print(digest_line(name, pool, config), flush=True)
    pool = tied_pool()
    for stop in ("threshold", "bic"):
        for norm in NORMS:
            config = rankseg.DetectorConfig(stop=stop, norm=norm)
            print(digest_line(f"tied-pois-{stop}", pool, config), flush=True)
