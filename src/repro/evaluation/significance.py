"""The significance test used by the reproduction.

Fig. 8's claim is that a truncated dustbathing template classifies "with an
accuracy that is not statistically significantly different" from the full
template.  The two templates' match decisions are two independent sets of
successes, so the test is the two-proportion z-test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = ["SignificanceResult", "two_proportion_z_test"]


@dataclass(frozen=True)
class SignificanceResult:
    """Outcome of a hypothesis test.

    Attributes
    ----------
    statistic:
        The test statistic (z).
    p_value:
        Two-sided p-value.
    significant:
        Whether the null hypothesis is rejected at the requested alpha.
    alpha:
        The significance level the decision was made at.
    """

    statistic: float
    p_value: float
    significant: bool
    alpha: float


def two_proportion_z_test(
    successes_a: int,
    total_a: int,
    successes_b: int,
    total_b: int,
    alpha: float = 0.05,
) -> SignificanceResult:
    """Two-sided two-proportion z-test (pooled standard error).

    Parameters
    ----------
    successes_a, total_a:
        Successes and trials of the first condition (e.g. correct
        classifications with the full template).
    successes_b, total_b:
        Successes and trials of the second condition (e.g. the truncated
        template).
    alpha:
        Significance level.
    """
    if total_a <= 0 or total_b <= 0:
        raise ValueError("totals must be positive")
    if not 0 <= successes_a <= total_a or not 0 <= successes_b <= total_b:
        raise ValueError("successes must be between 0 and the corresponding total")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")

    p_a = successes_a / total_a
    p_b = successes_b / total_b
    pooled = (successes_a + successes_b) / (total_a + total_b)
    variance = pooled * (1.0 - pooled) * (1.0 / total_a + 1.0 / total_b)
    if variance == 0.0:
        # Identical degenerate proportions (all successes or all failures):
        # there is no evidence of a difference.
        return SignificanceResult(statistic=0.0, p_value=1.0, significant=False, alpha=alpha)
    z = (p_a - p_b) / np.sqrt(variance)
    p_value = 2.0 * (1.0 - ndtr(abs(z)))
    return SignificanceResult(
        statistic=float(z),
        p_value=float(p_value),
        significant=bool(p_value < alpha),
        alpha=alpha,
    )

