"""Seeded input files for the detect workloads.

Both files hold white noise plus planted truncated-Gaussian peaks whose
amplitudes are drawn log-uniformly across the detection threshold, so a
run rejects some planted peaks and keeps others. The same seed writes
byte-identical files.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

NUM_SAMPLES = 1_000_000

# detect-dense: plain format, unit spacing, gamma = 3 samples.
DENSE_PEAKS = 200
DENSE_PEAK_SCALE = 3.0
DENSE_AMPLITUDES = (4.0, 60.0)  # smoothed centre ~ a / 10.6; threshold near a = 17

# detect-wide: time,value CSV, spacing 1e-3, gamma = 100 samples.
WIDE_SPACING = 1e-3
WIDE_PEAKS = 100
WIDE_PEAK_SCALE = 100.0  # in samples
WIDE_AMPLITUDES = (25.0, 300.0)  # smoothed centre ~ a / 354; threshold near a = 90


def _signal(rng, num_peaks: int, scale: float, amplitudes) -> tuple[np.ndarray, list]:
    """Planted peaks, one per equal slot, jittered inside the slot."""
    values = np.zeros(NUM_SAMPLES)
    slot = NUM_SAMPLES // num_peaks
    half = int(2 * scale)
    lo, hi = amplitudes
    peaks = []
    for j in range(num_peaks):
        centre = j * slot + int(rng.integers(half + 1, slot - half - 1))
        amp = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        k = np.arange(centre - half, centre + half + 1)
        values[k] += amp / scale * np.exp(-0.5 * ((k - centre) / scale) ** 2) / math.sqrt(
            2.0 * math.pi
        )
        peaks.append((centre, amp))
    return values, peaks


def _write(path: Path, text: str) -> dict:
    data = text.encode("ascii")
    path.write_bytes(data)
    return {
        "path": str(path),
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "samples": NUM_SAMPLES,
    }


def write_dense(path: Path, seed: int) -> tuple[dict, np.ndarray]:
    """One value per line, unit spacing."""
    rng = np.random.default_rng([seed, 1])
    signal, peaks = _signal(rng, DENSE_PEAKS, DENSE_PEAK_SCALE, DENSE_AMPLITUDES)
    values = signal + rng.standard_normal(NUM_SAMPLES)
    info = _write(path, "\n".join(map(repr, values.tolist())) + "\n")
    info["planted_peaks"] = len(peaks)
    return info, values


def write_wide(path: Path, seed: int) -> tuple[dict, np.ndarray]:
    """``time,value`` rows on a relative axis: origin 0, spacing 1e-3."""
    rng = np.random.default_rng([seed, 2])
    signal, peaks = _signal(rng, WIDE_PEAKS, WIDE_PEAK_SCALE, WIDE_AMPLITUDES)
    values = signal + rng.standard_normal(NUM_SAMPLES)
    times = (WIDE_SPACING * np.arange(NUM_SAMPLES)).tolist()
    rows = [f"{t!r},{v!r}" for t, v in zip(times, values.tolist())]
    info = _write(path, "\n".join(rows) + "\n")
    info["planted_peaks"] = len(peaks)
    return info, values
