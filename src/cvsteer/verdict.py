"""Shared verdict type for the steering criteria."""

from dataclasses import dataclass, field

# Margins within this band of zero count as non-steerable: detection claims
# are conservative at criterion boundaries.
MARGIN_TOL = 1e-10

B_TO_A = "BtoA"
A_TO_B = "AtoB"
DIRECTIONS = (B_TO_A, A_TO_B)
# Names of the directions on the command line and in sweep output.
DIRECTION_LABELS = {B_TO_A: "b-to-a", A_TO_B: "a-to-b"}


@dataclass(frozen=True)
class SteeringVerdict:
    """Outcome of one steering test.

    margin is signed: positive means the criterion certifies steering in the
    given direction, and steerable is exactly margin > MARGIN_TOL.  detail
    carries criterion-specific diagnostics.
    """

    criterion: str
    direction: str
    steerable: bool
    margin: float
    detail: dict = field(default_factory=dict)

    @classmethod
    def from_margin(cls, criterion: str, direction: str, margin: float, **detail) -> "SteeringVerdict":
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
        margin = float(margin)
        if abs(margin) <= MARGIN_TOL:
            detail.setdefault("boundary", True)
        return cls(criterion, direction, margin > MARGIN_TOL, margin, detail)
