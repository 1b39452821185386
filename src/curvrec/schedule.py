"""Piecewise mapping from surface variation to a patch-radius scale.

Five phases split by the field percentiles: dilated radius (s_max) below
p10, a power ramp down to the nominal radius between p10 and p40, a unit
plateau through p60, a second power taper to s_min at p90, and s_min
beyond. The scale multiplies the base radius r0.
"""

from dataclasses import dataclass

import numpy as np

S_MAX_DEFAULT = 1.35
S_MIN_DEFAULT = 2.0 / 3.0
ALPHA_DEFAULT = 0.5
BETA_DEFAULT = 1.5
R0_DEFAULT = 0.018


@dataclass
class RadiusSchedule:
    p10: float
    p40: float
    p60: float
    p90: float
    s_max: float = S_MAX_DEFAULT
    s_min: float = S_MIN_DEFAULT
    alpha: float = ALPHA_DEFAULT
    beta: float = BETA_DEFAULT
    r0: float = R0_DEFAULT

    def __post_init__(self):
        if not (self.p10 <= self.p40 <= self.p60 <= self.p90):
            raise ValueError("breakpoints must be non-decreasing")
        if not (self.s_min < 1.0 < self.s_max):
            raise ValueError("need s_min < 1 < s_max")
        if not np.isfinite(self.s_max):  # an infinite radius takes in the whole cloud
            raise ValueError(f"s_max must be finite, not {self.s_max}")
        if not (self.alpha > 0 and self.beta > 0 and self.r0 > 0):
            raise ValueError("alpha, beta, r0 must be positive")
        if self.r0 * self.s_max > 1.0:  # a ball wider than the normalized cloud
            raise ValueError(f"r0 * s_max must be at most 1, the longest side of the "
                             f"normalized cloud, not {self.r0 * self.s_max:g}")

    @classmethod
    def from_field(cls, field, **overrides):
        """Breakpoints from a CurvatureField's percentile summary."""
        return cls(**field.percentiles, **overrides)


def scale_factor(sched: RadiusSchedule, sigma):
    """Radius scale for one or many variation values (case order matters:
    ties at a breakpoint resolve to the earlier case, and collapsed ramps
    degrade to steps)."""
    sig = np.asarray(sigma, dtype=np.float64)
    scalar = sig.ndim == 0
    sig = np.atleast_1d(sig)
    if np.any(sig < 0):
        raise ValueError("surface variation must be nonnegative")

    # Both ramps are computed everywhere. A subnormal ramp width overflows
    # to inf, which the clip caps at 1; a collapsed ramp (p10 == p40 or
    # p60 == p90) divides by zero, but its case is never selected.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g1 = np.power(np.clip((sig - sched.p10) / (sched.p40 - sched.p10), 0, 1), sched.alpha)
        g2 = np.power(np.clip((sig - sched.p60) / (sched.p90 - sched.p60), 0, 1), sched.beta)
    out = np.select([sig <= sched.p10, sig < sched.p40, sig < sched.p60, sig < sched.p90],
                    [sched.s_max, (1.0 - g1) * sched.s_max + g1, 1.0,
                     1.0 - (1.0 - sched.s_min) * g2],
                    sched.s_min)
    return float(out[0]) if scalar else out


def radius(sched: RadiusSchedule, sigma):
    """Modulated patch radius r0 * scale_factor(sigma)."""
    s = scale_factor(sched, sigma)
    return sched.r0 * s
