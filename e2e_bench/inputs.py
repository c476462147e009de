"""Seeded inputs: the serve request streams and the synthetic run index.

Everything a run sends to the program is derived here from ``--seed``
and the session number, so the same seed always produces the same
requests and the same index file, and :func:`input_digest` fingerprints
them.  The composition of every session is fixed (each registered
workload x platform x size once, with alpha grids of fixed lengths);
the seed only chooses the order, the alpha values and the noise seeds
that make every request's cache key distinct.  That keeps the cost of a
session independent of the seed, so the seed moves the inputs but not
the size of the work.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

PROTOCOL_VERSION = 1

#: Registered workload id -> sizes (each a power of two >= its min_n).
WORKLOAD_SIZES: Dict[str, Tuple[int, ...]] = {
    "mergesort": (1 << 12, 1 << 16, 1 << 20),
    "quicksort": (1 << 12, 1 << 16, 1 << 20),
    "closest_pair": (1 << 12, 1 << 16, 1 << 20),
    "fft": (1 << 12, 1 << 16, 1 << 20),
    "matmul": (64, 128, 256),
    "strassen": (32, 64, 128),
}
PLATFORMS = ("HPU1", "HPU2")

#: Alpha grid lengths, alternating over each workload's sizes.
GRID_LENGTHS = (3, 6)
_ALPHA_CHOICES = tuple(round(0.02 * k, 2) for k in range(1, 25))

#: Synthetic index size for the ``serve_big_index`` workload.
BIG_INDEX_LINES = 4000

#: Sessions covered by the input digest (more than any run reaches).
DIGEST_SESSIONS = 16


def _alphas(rng: random.Random, length: int) -> List[float]:
    return sorted(rng.sample(_ALPHA_CHOICES, length))


def sweep_request(
    workload: str, platform: str, n: int, alphas: List[float], noise_seed: int
) -> dict:
    """One ``sweep`` job request as a client sends it."""
    return {
        "protocol": PROTOCOL_VERSION,
        "kind": "sweep",
        "fast": True,
        "platform": platform,
        "n": [n],
        "alphas": alphas,
        "workload": workload,
        "seed": noise_seed,
    }


def session_inputs(seed: int, session: int) -> dict:
    """The requests of one serve session.

    ``first``: the first miss of a fresh daemon; ``warmup``: one miss
    per pool worker (default concurrency 2); ``stream``: client A's
    distinct misses (every workload x platform x size once);
    ``hits``: the requests client B resubmits, which are planned hits.
    """
    rng = random.Random(f"e2e-bench/{seed}/{session}")
    combos = [
        (workload, platform, n, GRID_LENGTHS[i % len(GRID_LENGTHS)])
        for workload, sizes in WORKLOAD_SIZES.items()
        for platform in PLATFORMS
        for i, n in enumerate(sizes)
    ]
    rng.shuffle(combos)
    noise_seeds = rng.sample(range(1, 1 << 30), len(combos) + 3)
    stream = [
        sweep_request(workload, platform, n, _alphas(rng, length), noise_seeds[i])
        for i, (workload, platform, n, length) in enumerate(combos)
    ]
    # The cold requests are small and fixed in shape, so the first-miss
    # figure measures the cold pool rather than the request.
    cold = [
        sweep_request("mergesort", platform, 1 << 12, _alphas(rng, 3), s)
        for platform, s in zip(("HPU1", "HPU2", "HPU1"), noise_seeds[-3:])
    ]
    return {
        "first": cold[0],
        "warmup": cold[1:],
        "stream": stream,
        "hits": cold,
    }


def synthetic_index_lines(seed: int, count: int = BIG_INDEX_LINES) -> List[str]:
    """``count`` schema-valid ``index.jsonl`` lines whose keys never match.

    Lines have the shape the run index writes (key-sorted compact JSON
    with every field of ``repro.obs.index.index_line``).  Their cache
    keys are 32 hex digits prefixed ``ff00``, drawn from the seed; a
    real key is a blake2b digest, so a collision is as unlikely as a
    hash collision, and the benchmark checks that no hit names one.
    """
    rng = random.Random(f"e2e-bench-index/{seed}")
    lines = []
    for i in range(count):
        entry = {
            "cache_key": "ff00" + "%028x" % rng.getrandbits(112),
            "conformance": "",
            "created_unix": 1_700_000_000 + i,
            "experiments": ["sweep"],
            "fast": True,
            "jobs": 1,
            "manifest": f"synthetic-{i:06d}/manifest.json",
            "recovery_actions": 0,
            "run_id": f"synthetic-{i:06d}",
            "schema_version": 5,
            "seed": 42,
        }
        lines.append(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    return lines


def input_digest(seed: int, big_index: bool) -> str:
    """Fingerprint of every input a run with this seed can send."""
    h = hashlib.sha256()
    for session in range(DIGEST_SESSIONS):
        h.update(
            json.dumps(session_inputs(seed, session), sort_keys=True).encode()
        )
    if big_index:
        for line in synthetic_index_lines(seed):
            h.update(line.encode())
    return h.hexdigest()[:16]
