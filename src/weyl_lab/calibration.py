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

from ._rng import counter_units
from .exactangle import GOLDEN, Angle, angle_from_float
from .experiments import approx_ratio, growth_report
from .renorm import renorm_chains
from .weylsum import weyl_sums

FE_SWEEP_SEED = 5
FE_SWEEP_SAMPLES = 1000
FE_K_DECADES = (2, 5)  # k log-uniform in [10^2, 10^5]

APPROX_SWEEP_SEED = 11
APPROX_SWEEP_SAMPLES = 1000

GROWTH_SCHEDULE = (100, 1000, 10000, 100000)
GROWTH_GRID = 512


def _fe_starts(seed: int) -> list[tuple[Angle, Angle, int]]:
    """The (theta, x, k) of the rescaling-residual sweep, one per sample."""
    lo, hi = FE_K_DECADES
    draws = (counter_units(seed, FE_SWEEP_SAMPLES, s).tolist() for s in ("fe-theta", "fe-x", "fe-k"))
    return [
        (angle_from_float(0.05 + 0.9 * t), angle_from_float(x), max(2, round(10 ** (lo + (hi - lo) * u))))
        for t, x, u in zip(*draws)
    ]


def run_fe_sweep(seed: int = FE_SWEEP_SEED) -> dict:
    """Max rescaling residual, per-decade maxima, and the decade-max slope.
    Each residual is fe_residual's, the level-1 residual of a one-step
    chain; every instance's two levels take their psi from one psis call
    (renorm_chains)."""
    starts = _fe_starts(seed)
    resids = np.array([chain.residuals[1] for chain in renorm_chains(starts, 1)])
    ks = np.array([k for _, _, k in starts], dtype=np.int64)
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


def _approx_instances(seed: int, samples: int) -> list[tuple[Angle, int, int, Angle]]:
    """The (theta, l, m, x) of the product-approximation sweep, one per sample."""
    draws = (counter_units(seed, samples, s).tolist() for s in ("ap-theta", "ap-x", "ap-l", "ap-m"))
    return [
        (angle_from_float(t), 1 + int(l * 1000), 1 + int(m * 30), angle_from_float(x))
        for t, x, l, m in zip(*draws)
    ]


def run_approx_sweep(
    seed: int = APPROX_SWEEP_SEED, samples: int = APPROX_SWEEP_SAMPLES
) -> dict:
    """Max empirical constant of the product-approximation inequality;
    every instance's a(x, l) and a(x, ml) from one weyl_sums call."""
    instances = _approx_instances(seed, samples)
    sums = weyl_sums((theta, x, n) for theta, l, m, x in instances for n in (l, m * l)).tolist()
    worst = 0.0
    skipped = 0
    for instance, a_l, a_ml in zip(instances, sums[::2], sums[1::2]):
        try:
            worst = max(worst, approx_ratio(*instance, (a_l, a_ml)))
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
