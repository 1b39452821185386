import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvrec.schedule import RadiusSchedule, radius, scale_factor

DEFAULTS = dict(s_max=1.35, s_min=2.0 / 3.0, alpha=0.5, beta=1.5, r0=0.018)


def default_sched():
    return RadiusSchedule(p10=0.01, p40=0.04, p60=0.09, p90=0.20, **DEFAULTS)


def test_phase_values():
    s = default_sched()
    assert scale_factor(s, 0.0) == 1.35
    assert scale_factor(s, 0.01) == 1.35          # boundary goes to the first case
    assert scale_factor(s, 0.05) == 1.0
    assert scale_factor(s, 0.04) == 1.0           # plateau is closed on the left
    assert scale_factor(s, 0.20) == 2.0 / 3.0
    assert scale_factor(s, 0.5) == 2.0 / 3.0


def test_first_ramp_example():
    s = default_sched()
    sig = s.p10 + 0.25 * (s.p40 - s.p10)
    # g1 = 0.25**0.5 = 0.5 -> 0.5*1.35 + 0.5
    assert scale_factor(s, sig) == pytest.approx(1.175, abs=1e-12)


def test_second_ramp_example():
    s = default_sched()
    sig = s.p60 + 0.5 * (s.p90 - s.p60)
    expected = 1.0 - (1.0 / 3.0) * 0.5 ** 1.5
    assert scale_factor(s, sig) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.88215, abs=5e-6)


def test_radius_values():
    s = default_sched()
    assert radius(s, 0.0) == pytest.approx(0.0243, abs=1e-15)
    assert radius(s, 1.0) == pytest.approx(0.012, abs=1e-15)
    assert radius(s, 0.05) == pytest.approx(0.018, abs=1e-15)


def test_continuity_at_breakpoints():
    # The first ramp rises like sqrt (alpha = 0.5), so its continuity modulus
    # at p10 is (s_max - 1) * (eps / (p40 - p10))**0.5: a probe must shrink
    # eps accordingly. 1e-13 puts every breakpoint jump below 1e-6.
    s = default_sched()
    eps = 1e-13
    for b in (s.p10, s.p40, s.p60, s.p90):
        assert abs(scale_factor(s, b - eps) - scale_factor(s, b + eps)) < 1e-6


def test_continuity_modulus_at_sqrt_ramp():
    s = default_sched()
    for eps in (1e-7, 1e-9, 1e-11):
        jump = abs(scale_factor(s, s.p10 - eps) - scale_factor(s, s.p10 + eps))
        holder_bound = (s.s_max - 1.0) * (eps / (s.p40 - s.p10)) ** s.alpha
        # small relative margin: (sigma - p10) suffers cancellation near p10
        assert jump <= holder_bound * (1.0 + 1e-5)


def test_monotone_non_increasing():
    rng = np.random.default_rng(0)
    s = default_sched()
    pairs = np.sort(rng.uniform(0, 1.0 / 3.0, size=(5000, 2)), axis=1)
    lo = scale_factor(s, pairs[:, 0])
    hi = scale_factor(s, pairs[:, 1])
    assert np.all(lo >= hi)


def test_range():
    rng = np.random.default_rng(1)
    s = default_sched()
    vals = scale_factor(s, rng.uniform(0, 2.0, size=10000))
    assert vals.min() >= s.s_min and vals.max() <= s.s_max


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(2)
    s = default_sched()
    sig = rng.uniform(0, 0.4, size=200)
    vec = scale_factor(s, sig)
    assert np.array_equal(vec, np.array([scale_factor(s, x) for x in sig]))


def test_degenerate_breakpoints_collapse_to_steps():
    # planar field: every percentile is zero
    flat = RadiusSchedule(p10=0.0, p40=0.0, p60=0.0, p90=0.0, **DEFAULTS)
    assert scale_factor(flat, 0.0) == 1.35
    assert scale_factor(flat, 1e-12) == 2.0 / 3.0
    # only the taper collapsed
    half = RadiusSchedule(p10=0.01, p40=0.04, p60=0.1, p90=0.1, **DEFAULTS)
    assert scale_factor(half, 0.05) == 1.0
    assert scale_factor(half, 0.1) == 2.0 / 3.0
    # only the dilation ramp collapsed
    other = RadiusSchedule(p10=0.02, p40=0.02, p60=0.1, p90=0.2, **DEFAULTS)
    assert scale_factor(other, 0.02) == 1.35
    assert scale_factor(other, 0.0200001) == 1.0


def test_validation():
    with pytest.raises(ValueError):
        RadiusSchedule(p10=0.2, p40=0.1, p60=0.3, p90=0.4)
    with pytest.raises(ValueError):
        RadiusSchedule(p10=0.0, p40=0.1, p60=0.2, p90=0.3, s_min=1.5)
    with pytest.raises(ValueError, match="s_max must be finite, not inf"):
        RadiusSchedule(p10=0.0, p40=0.1, p60=0.2, p90=0.3, s_max=float("inf"))
    # the widest ball may span the normalized cloud's longest side, no more
    RadiusSchedule(p10=0.0, p40=0.1, p60=0.2, p90=0.3, s_max=2.0, r0=0.5)
    with pytest.raises(ValueError, match=r"r0 \* s_max must be at most 1"):
        RadiusSchedule(p10=0.0, p40=0.1, p60=0.2, p90=0.3, s_max=2.0, r0=0.5000001)
    with pytest.raises(ValueError):
        scale_factor(default_sched(), -0.1)


_unit = st.floats(0.0, 1.0 / 3.0)
_shape = dict(s_max=st.floats(1.01, 2.0), s_min=st.floats(0.2, 0.99),
              alpha=st.floats(0.1, 3.0), beta=st.floats(0.1, 3.0))


def _modulus(gamma, t):
    """Continuity modulus of t**gamma on [0, 1]."""
    return min(t, 1.0) ** gamma if gamma < 1 else min(gamma * t, 1.0)


@settings(max_examples=300, deadline=None)
@given(ps=st.lists(_unit, min_size=4, max_size=4), sig=st.lists(_unit, min_size=2, max_size=2),
       **_shape)
def test_monotone_over_random_percentiles(ps, sig, s_max, s_min, alpha, beta):
    p10, p40, p60, p90 = sorted(ps)
    s = RadiusSchedule(p10=p10, p40=p40, p60=p60, p90=p90, s_max=s_max, s_min=s_min,
                       alpha=alpha, beta=beta)
    lo, hi = sorted(sig)
    assert s_max >= scale_factor(s, lo) >= scale_factor(s, hi) >= s_min


@settings(max_examples=300, deadline=None)
@given(ps=st.lists(_unit, min_size=4, max_size=4, unique=True), x=_unit,
       eps=st.floats(0.0, 1e-3), **_shape)
@example(ps=[0.0, 5e-324, 0.125, 0.25], x=0.25, eps=0.0,  # subnormal gap: ramp overflows
         s_max=2.0, s_min=0.5, alpha=1.0, beta=1.0)
# x + eps rounds up to the next float: the step is 5.55e-17, not 5.33e-17
@example(ps=[0.25, 0.3125, 0.28125, 0.328125], x=0.25, eps=5.327342366651203e-17,
         s_max=2.0, s_min=0.5, alpha=0.25, beta=1.0)
def test_continuous_over_random_percentiles(ps, x, eps, s_max, s_min, alpha, beta):
    # With no collapsed ramp the scale is continuous: a step moves it by
    # at most the moduli of the two power ramps. The step is the rounded
    # x + eps minus x, which can exceed eps.
    p10, p40, p60, p90 = sorted(ps)
    s = RadiusSchedule(p10=p10, p40=p40, p60=p60, p90=p90, s_max=s_max, s_min=s_min,
                       alpha=alpha, beta=beta)
    y = x + eps
    step = y - x
    bound = ((s_max - 1.0) * _modulus(alpha, step / (p40 - p10))
             + (1.0 - s_min) * _modulus(beta, step / (p90 - p60)))
    assert abs(scale_factor(s, y) - scale_factor(s, x)) <= bound + 1e-9
