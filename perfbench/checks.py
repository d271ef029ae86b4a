"""Output checks, rerun digests and the tail-percentile rule."""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Stated here rather than imported from rampnet, so the checks do not move
# when the program does.
RATE_MIN_VPH = 200.0
RATE_MAX_VPH = 1800.0
RECORDED_WINDOWS = 120  # 1 h at 30 s control steps on the benchmark corridor
SINDYC_COLUMNS = 153  # 8 sensors, 8 meters, quadratic library

PERCENTILE_LADDER = (90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the ``pct`` percentile of ``n`` distinct samples,
    with numpy's default (linear) interpolation."""
    if n < 1:
        return 0
    return n - 1 - math.floor((n - 1) * pct / 100.0 + 1e-9)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond
    it, or None when even the lowest has fewer."""
    allowed = [p for p in PERCENTILE_LADDER if samples_beyond(n, p) >= MIN_BEYOND]
    return allowed[-1] if allowed else None


def check_record(record, label: str) -> list[str]:
    """Problems with one recorded episode; empty when it is sound."""
    problems = []
    if len(record) != RECORDED_WINDOWS:
        problems.append(f"{label}: {len(record)} recorded windows, "
                        f"expected {RECORDED_WINDOWS}")
    for name in ("occupancy", "flow", "rates"):
        if not np.all(np.isfinite(getattr(record, name))):
            problems.append(f"{label}: non-finite {name}")
    rates = np.asarray(record.rates, dtype=float)
    finite = rates[np.isfinite(rates)]
    if finite.size and (finite.min() < RATE_MIN_VPH or finite.max() > RATE_MAX_VPH):
        problems.append(f"{label}: applied rate outside "
                        f"[{RATE_MIN_VPH:g}, {RATE_MAX_VPH:g}] veh/h")
    return problems


def check_sindyc(model) -> list[str]:
    problems = []
    if model.n_columns != SINDYC_COLUMNS:
        problems.append(f"sindyc model has {model.n_columns} columns, "
                        f"expected {SINDYC_COLUMNS}")
    if not np.all(np.isfinite(model.coefficients)):
        problems.append("sindyc model has non-finite coefficients")
    return problems


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def record_digest(record) -> str:
    return _digest(record.times, record.occupancy, record.flow, record.speed,
                   record.rates)


def model_digest(model) -> str:
    return _digest(model.coefficients)


class DigestBook:
    """First digest seen per key; later digests for the key must match it."""

    def __init__(self):
        self.first: dict[str, str] = {}
        self.repeats = 0
        self.mismatches: list[str] = []

    def note(self, key: str, digest: str) -> bool:
        """Record a digest; return True the first time ``key`` is seen."""
        if key not in self.first:
            self.first[key] = digest
            return True
        self.repeats += 1
        if self.first[key] != digest:
            self.mismatches.append(
                f"{key}: rerun digest {digest[:16]} != first {self.first[key][:16]}")
        return False
