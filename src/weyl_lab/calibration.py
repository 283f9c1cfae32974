"""Calibrated empirical constants.

The rescaling identity and the product-approximation inequality hold with
absolute constants that the theory does not quantify.  Each constant is
measured once by a seeded oracle sweep and frozen into data/calibration.json;
acceptance gates assert against those recorded figures (with the slack
stated per gate), never against invented numbers.

Regenerate with `python -m weyl_lab.calibration` (rewrites the packaged
file in place; sweeps are counter-seeded so the values are reproducible).
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from ._rng import counter_unit
from .exactangle import GOLDEN, Angle, angle_from_float
from .experiments import approx_ratio, growth_report
from .renorm import fe_residual

FE_SWEEP_SEED = 5
FE_SWEEP_SAMPLES = 1000
FE_K_DECADES = (2, 5)  # k log-uniform in [10^2, 10^5]

APPROX_SWEEP_SEED = 11
APPROX_SWEEP_SAMPLES = 1000

GROWTH_SCHEDULE = (100, 1000, 10000, 100000)
GROWTH_GRID = 512


def fe_sweep_instance(seed: int, i: int) -> tuple[Angle, Angle, int]:
    """The i-th (theta, x, k) of the rescaling-residual sweep."""
    lo, hi = FE_K_DECADES
    theta = angle_from_float(0.05 + 0.9 * counter_unit(seed, i, "fe-theta"))
    x = angle_from_float(counter_unit(seed, i, "fe-x"))
    k = max(2, round(10 ** (lo + (hi - lo) * counter_unit(seed, i, "fe-k"))))
    return theta, x, k


def run_fe_sweep(seed: int = FE_SWEEP_SEED) -> dict:
    """Max rescaling residual, per-decade maxima, and the decade-max slope."""
    resids = np.empty(FE_SWEEP_SAMPLES)
    ks = np.empty(FE_SWEEP_SAMPLES, dtype=np.int64)
    for i in range(FE_SWEEP_SAMPLES):
        theta, x, k = fe_sweep_instance(seed, i)
        resids[i] = fe_residual(theta, x, k)
        ks[i] = k
    lo, hi = FE_K_DECADES
    centers, maxima = [], []
    for d in range(lo, hi):
        mask = (ks >= 10 ** d) & (ks < 10 ** (d + 1))
        if np.any(mask):
            centers.append(d + 0.5)
            maxima.append(float(resids[mask].max()))
    slope = float(np.polyfit(centers, maxima, 1)[0]) if len(centers) > 1 else 0.0
    return {
        "max_residual": float(resids.max()),
        "decade_maxima": maxima,
        "decade_slope": slope,
        "samples": FE_SWEEP_SAMPLES,
        "seed": seed,
    }


def approx_sweep_instance(seed: int, i: int) -> tuple[Angle, int, int, Angle]:
    """The i-th (theta, l, m, x) of the product-approximation sweep."""
    theta = angle_from_float(counter_unit(seed, i, "ap-theta"))
    x = angle_from_float(counter_unit(seed, i, "ap-x"))
    l = 1 + int(counter_unit(seed, i, "ap-l") * 1000)
    m = 1 + int(counter_unit(seed, i, "ap-m") * 30)
    return theta, l, m, x


def run_approx_sweep(
    seed: int = APPROX_SWEEP_SEED, samples: int = APPROX_SWEEP_SAMPLES
) -> dict:
    """Max empirical constant of the product-approximation inequality."""
    worst = 0.0
    skipped = 0
    for i in range(samples):
        theta, l, m, x = approx_sweep_instance(seed, i)
        try:
            worst = max(worst, approx_ratio(theta, l, m, x))
        except ValueError:
            skipped += 1
    return {
        "max_ratio": worst,
        "samples": samples,
        "skipped": skipped,
        "seed": seed,
    }


def run_growth_calibration() -> dict:
    """Golden-angle growth statistics over the standard schedule."""
    rep = growth_report(GOLDEN, list(GROWTH_SCHEDULE), GROWTH_GRID)
    return {
        "sup_sqrt_max": max(rep.sup_ratio_sqrt),
        "a0_peak_1e4": rep.a0_peak_ratio[GROWTH_SCHEDULE.index(10000)],
        "schedule": list(GROWTH_SCHEDULE),
        "grid": GROWTH_GRID,
    }


def _data_path() -> Path:
    return Path(str(resources.files("weyl_lab") / "data" / "calibration.json"))


def load_calibration() -> dict:
    with open(_data_path(), "r", encoding="utf-8") as fh:
        return json.load(fh)


def regenerate() -> dict:
    data = {
        "fe_residual": run_fe_sweep(),
        "approx_ratio": run_approx_sweep(),
        "growth_golden": run_growth_calibration(),
    }
    with open(_data_path(), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return data


if __name__ == "__main__":
    out = regenerate()
    print(json.dumps(out, indent=2, sort_keys=True))
