"""Summaries of latency samples: median, a trustworthy tail, the count.

A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it; otherwise it is one or two samples and jumps
from run to run.  Failed or refused operations are counted by the
caller as failures and never enter a sample list.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAILS = (99, 95, 90, 75)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50)


def beyond(count: int, pct: float) -> float:
    """How many of ``count`` samples lie beyond percentile ``pct``."""
    return count * (100.0 - pct) / 100.0


def tail_pct(count: int) -> Optional[int]:
    """The highest percentile in :data:`TAILS` with enough samples
    beyond it, or ``None``."""
    for pct in TAILS:
        if beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """``{"count", "p50", "tail_pct", "tail"}`` of one sample list."""
    count = len(samples)
    pct = tail_pct(count)
    return {
        "count": count,
        "p50": median(samples) if count else None,
        "tail_pct": pct,
        "tail": percentile(samples, pct) if pct is not None else None,
    }


def pct_if_supported(samples: Sequence[float], pct: int) -> Optional[float]:
    """Percentile ``pct`` when at least :data:`MIN_BEYOND` samples lie
    beyond it, else ``None``."""
    if beyond(len(samples), pct) < MIN_BEYOND:
        return None
    return percentile(samples, pct)
