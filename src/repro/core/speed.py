"""Speed-ratio computation — Equations (1)–(3) and Theorem 1 of the paper.

When the active task τ_i alone is eligible (run queue empty), LPFPS stretches
its remaining worst-case work ``R_i = C_i − E_i`` over the window
``t_I = t_a − t_c`` (current time to next arrival).  Two solutions:

**Optimal (Eq. 2).**  The processor keeps executing while its speed ramps
linearly at rate ``rho`` (ring-oscillator clocking), and it must be back at
full speed when the next request arrives at ``t_a``.  The paper's work
balance (Eq. 1, as printed) is::

    t_I * r_opt + (1 - r_opt)^2 / rho = R_i

whose meaningful root is::

    r_opt = [ (2 - rho*t_I) + sqrt(rho^2 t_I^2 - 4 rho (t_I - R_i)) ] / 2

(the paper's Eq. 2; the leading minus sign on ``rho (t_a - t_c)`` is lost in
some printings but is required for the ``rho → ∞`` limit to recover
``R_i / t_I``).  When the discriminant is negative even the slowest ramp
schedule finishes early — every speed is safe, so the minimum is returned.

**Heuristic (Eq. 3).**  Ignore the transition delay entirely::

    r_heu = R_i / t_I

**Theorem 1 (safeness).**  ``r_heu >= r_opt`` whenever ``t_a > t_c`` and
``t_I > R_i`` — so using the cheap heuristic never under-provisions the
task.  :func:`heuristic_is_safe` re-checks the claim numerically and backs
the property-based test of the theorem.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import ConfigurationError


def heuristic_speed_ratio(remaining: float, window: float) -> float:
    """Equation (3): ``r_heu = (C_i - E_i) / (t_a - t_c)``.

    Parameters
    ----------
    remaining:
        Remaining worst-case work ``C_i − E_i`` in full-speed µs (>= 0).
    window:
        Time to the next arrival ``t_a − t_c`` in µs (> 0).

    Returns the raw ratio, clamped to 1.0 when the window is insufficient.
    """
    _check_inputs(remaining, window)
    if remaining <= 0.0:
        return 0.0
    return min(1.0, remaining / window)


def optimal_speed_ratio(
    remaining: float, window: float, rho: Optional[float]
) -> float:
    """Equation (2): the exact ratio accounting for the final speed ramp.

    Parameters
    ----------
    remaining:
        ``C_i − E_i`` in full-speed µs.
    window:
        ``t_a − t_c`` in µs.
    rho:
        Speed-ratio slew rate (1/µs); ``None`` or ``inf`` degenerates to
        the heuristic (no transition delay).

    Returns the ratio clamped into ``[0, 1]``; 0 means "any supported speed
    finishes in time — run as slowly as the hardware allows".
    """
    _check_inputs(remaining, window)
    if remaining <= 0.0:
        return 0.0
    if rho is None or math.isinf(rho):
        return heuristic_speed_ratio(remaining, window)
    if rho <= 0:
        raise ConfigurationError(f"rho must be positive, got {rho}")
    if remaining >= window:
        return 1.0
    disc = (rho * window) ** 2 - 4.0 * rho * (window - remaining)
    if disc < 0.0:
        # Even ramping down as far as possible and back cannot make the job
        # late: the work balance overshoots R_i for every r in [0, 1].
        return 0.0
    # The textbook root ((2 - rho*t) + sqrt(disc)) / 2 cancels
    # catastrophically for rho*t >> 1; rationalising the sqrt gives the
    # stable equivalent  1 - 2*rho*(t - R) / (sqrt(disc) + rho*t).
    r = 1.0 - 2.0 * rho * (window - remaining) / (math.sqrt(disc) + rho * window)
    return min(1.0, max(0.0, r))


def work_balance_residual(
    ratio: float, remaining: float, window: float, rho: float
) -> float:
    """Equation (1) residual: ``t_I*r + (1-r)^2/rho - R_i``.

    Zero (to float precision) exactly at :func:`optimal_speed_ratio`'s
    return value when the discriminant is non-negative — the invariant the
    unit tests assert.
    """
    _check_inputs(remaining, window)
    if rho <= 0:
        raise ConfigurationError(f"rho must be positive, got {rho}")
    return window * ratio + (1.0 - ratio) ** 2 / rho - remaining


def heuristic_is_safe(
    remaining: float, window: float, rho: Optional[float]
) -> bool:
    """Numerically verify Theorem 1 for one parameter point.

    True iff ``r_heu >= r_opt`` (within float tolerance) on the theorem's
    domain ``window > 0`` and ``window > remaining``.
    """
    if window <= 0 or window <= remaining:
        raise ConfigurationError(
            "Theorem 1 requires t_a > t_c and t_a - t_c > C_i - E_i"
        )
    r_heu = heuristic_speed_ratio(remaining, window)
    r_opt = optimal_speed_ratio(remaining, window, rho)
    return r_heu >= r_opt - 1e-12


def slowdown_window(
    now: float,
    next_arrival: Optional[float],
    own_next_release: float,
    own_deadline: float,
) -> float:
    """The time frame available exclusively to the active task.

    The paper's ``t_a`` is "the next arrival time of the task at the head
    of the delay queue"; the active task's own next request and its
    absolute deadline bound the frame as well (with implicit deadlines the
    two coincide).  Returns ``t_a_effective − now`` (may be <= 0 when no
    slack exists).
    """
    end = own_deadline if own_deadline < own_next_release else own_next_release
    if next_arrival is not None and next_arrival < end:
        end = next_arrival
    return end - now


def _check_inputs(remaining: float, window: float) -> None:
    if remaining < 0:
        raise ConfigurationError(f"remaining work must be >= 0, got {remaining}")
    if window <= 0:
        raise ConfigurationError(f"window must be > 0, got {window}")
