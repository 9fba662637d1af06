"""Quintic smoothstep polynomial and friends.

s(u) = 6u^5 - 15u^4 + 10u^3 rises from 0 to 1 on [0, 1] with zero first and
second derivatives at both ends, so any piecewise construction using it as a
transition profile is C^2.  Values are clamped outside [0, 1].
"""

from __future__ import annotations

import numpy as np


def smoothstep(u):
    """s(u), clamped to 0 below u=0 and 1 above u=1.

    The Horner evaluation can overshoot 1 by ~1 ulp just below u = 1, so the
    result is clipped to keep the advertised [0, 1] range exact.
    """
    u = np.clip(u, 0.0, 1.0)
    return np.clip(u * u * u * (10.0 + u * (-15.0 + 6.0 * u)), 0.0, 1.0)


def smoothstep_d1(u):
    """First derivative s'(u) (0 outside [0, 1])."""
    u = np.asarray(u, dtype=float)
    inside = (u >= 0.0) & (u <= 1.0)
    uc = np.clip(u, 0.0, 1.0)
    d = 30.0 * uc * uc * (1.0 + uc * (-2.0 + uc))
    return np.where(inside, d, 0.0)


def smoothstep_d2(u):
    """Second derivative s''(u) (0 outside [0, 1])."""
    u = np.asarray(u, dtype=float)
    inside = (u >= 0.0) & (u <= 1.0)
    uc = np.clip(u, 0.0, 1.0)
    d = 60.0 * uc * (1.0 + uc * (-3.0 + 2.0 * uc))
    return np.where(inside, d, 0.0)


def smoothstep_antideriv(u):
    """S(u) = int_0^u s, equal to u^6 - 3u^5 + 2.5u^4 on [0, 1].

    For u > 1 returns S(1) + (u - 1) = u - 0.5, matching s == 1 beyond the
    transition; negative arguments return 0.  The fourth power is a product
    of squares (u**4 would take np.power, whose bits follow SIMD dispatch).
    """
    u = np.asarray(u, dtype=float)
    uc = np.clip(u, 0.0, 1.0)
    u2 = uc * uc
    core = u2 * u2 * (2.5 + uc * (-3.0 + uc))
    return core + np.where(u > 1.0, u - 1.0, 0.0)
