"""Feedback scenarios mapped to a single real gain.

The corrective Rabi rotation is applied instantaneously within the same
measurement step: no feedback = 0, compensation = 1, inversion = 2, and a
continuous custom gain interpolates between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bloch import SimParams

MAX_CUSTOM_GAIN = 10.0


@dataclass(frozen=True)
class FeedbackPolicy:
    kind: str  # "none" | "compensate" | "invert" | "custom"
    custom_gain: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "compensate", "invert", "custom"):
            raise ValueError(f"unknown feedback kind {self.kind!r}")
        if self.kind == "custom":
            g = self.custom_gain
            if not math.isfinite(g) or abs(g) > MAX_CUSTOM_GAIN:
                raise ValueError(
                    f"custom gain must be finite with |g| <= {MAX_CUSTOM_GAIN}, got {g}"
                )

    @classmethod
    def none(cls) -> "FeedbackPolicy":
        return cls("none")

    @classmethod
    def compensation(cls) -> "FeedbackPolicy":
        return cls("compensate")

    @classmethod
    def inversion(cls) -> "FeedbackPolicy":
        return cls("invert")

    @classmethod
    def custom(cls, g: float) -> "FeedbackPolicy":
        return cls("custom", float(g))


NO_FEEDBACK = FeedbackPolicy.none()
COMPENSATION = FeedbackPolicy.compensation()
INVERSION = FeedbackPolicy.inversion()

_BASE_GAIN = {"none": 0.0, "compensate": 1.0, "invert": 2.0}


def gain(policy: FeedbackPolicy) -> float:
    """Real gain for a policy: none -> 0, compensation -> 1, inversion -> 2."""
    if policy.kind == "custom":
        return policy.custom_gain
    return _BASE_GAIN[policy.kind]


def feedback_rotation(delta_n, params: SimParams, g: float):
    """Extra Rabi rotation -g * sqrt(gamma*tau) * delta_n / alpha.

    Satisfies rotation_angle(s_z, dn, params, g) ==
    rotation_angle(s_z, dn, params, 0) + feedback_rotation(dn, params, g)
    up to rounding.
    """
    return -g * math.sqrt(params.gamma_tau) * delta_n / params.alpha
