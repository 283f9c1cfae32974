"""Per-sample box audit on exact Fractions and single draws: the test
oracle for the array form of experiments.box_experiment."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from weyl_lab._rng import counter_unit
from weyl_lab.exactangle import MODULUS, Angle, angle_from_fraction, scale_mod1
from weyl_lab.experiments import DEFAULT_NU, BoxReport, ResumeWitness, modulus_on_interval


def box_experiment_loop(
    theta: Angle,
    witness: ResumeWitness,
    j_interval: tuple[float, float] = (0.25, 0.75),
    nu: float = DEFAULT_NU,
    samples: int = 100_000,
    seed: int = 7,
) -> BoxReport:
    """box_experiment one sample at a time: two draws, a Fraction snap of
    the x-offset and the full T^-M image of the sampled point per sample."""
    j_lo, j_hi = j_interval
    x0 = witness.x
    r = witness.r_n
    big_m = witness.M_n
    r_num = angle_from_fraction(Fraction(r)).numerator
    lo_a = angle_from_fraction(Fraction(j_lo))
    len_num = angle_from_fraction(Fraction((j_hi - j_lo) % 1.0)).numerator
    if len_num == 0:
        len_num = MODULUS  # full circle
    shift_x = scale_mod1(theta, -big_m).numerator
    m2_theta = scale_mod1(theta, big_m * big_m).numerator

    offsets = np.empty(samples)
    left = 0
    for i in range(samples):
        u1 = counter_unit(seed, i, "box-x")
        u2 = counter_unit(seed, i, "box-y")
        off = (2.0 * u1 - 1.0) * r
        offsets[i] = off
        xs_num = (x0.numerator + angle_from_fraction(Fraction(off)).numerator) % MODULUS
        ys_num = (lo_a.numerator + int(u2 * len_num)) % MODULUS
        # T^-M: x - M theta, y - 2Mx + M^2 theta
        xi_num = (xs_num + shift_x) % MODULUS
        yi_num = (ys_num - 2 * big_m * xs_num + m2_theta) % MODULUS
        dx = (xi_num - x0.numerator) % MODULUS
        in_x = min(dx, MODULUS - dx) <= r_num
        in_y = (yi_num - lo_a.numerator) % MODULUS < len_num
        if not (in_x and in_y):
            left += 1
    left_fraction = left / samples
    mods, tail = modulus_on_interval(theta, x0, big_m, offsets)
    return BoxReport(
        x0=x0,
        r=r,
        j_lo=j_lo,
        j_hi=j_hi,
        M_n=big_m,
        nu=nu,
        samples=samples,
        seed=seed,
        symdiff_ratio=2.0 * left_fraction,
        modulus_fraction=float(np.mean(np.abs(mods - 0.5) <= nu)),
        left_fraction=left_fraction,
        taylor_degree=4,
        taylor_tail=tail,
    )
