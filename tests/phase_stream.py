"""Per-term phase stream on exact Angles: the test oracle for the phase
recurrence that the vectorized engine evaluates in blocks."""

from __future__ import annotations

from weyl_lab.exactangle import Angle, scale_mod1, wrap_add


class PhaseStream:
    """Streaming iterator of phases phi_k = k^2*theta + 2kx + y as Angles.

    Runs on the second-difference recurrence
        phi_{k+1} = phi_k + d_k,   d_{k+1} = d_k + 2*theta,
    which is exact on the grid, so phi_{k+1} - 2 phi_k + phi_{k-1} = 2*theta
    holds as an identity of numerators at every index.
    """

    __slots__ = ("theta", "phase", "diff", "second_diff", "index")

    def __init__(self, theta: Angle, x: Angle, y: Angle) -> None:
        self.theta = theta
        self.phase = y
        self.diff = wrap_add(theta, scale_mod1(x, 2))
        self.second_diff = scale_mod1(theta, 2)
        self.index = 0

    def __iter__(self) -> "PhaseStream":
        return self

    def __next__(self) -> Angle:
        out = self.phase
        self.phase = wrap_add(self.phase, self.diff)
        self.diff = wrap_add(self.diff, self.second_diff)
        self.index += 1
        return out


def quad_phase_stream(theta: Angle, x: Angle, y: Angle) -> PhaseStream:
    """Phases of the quadratic sum, phi_k = (k^2*theta + 2kx + y) mod 1."""
    return PhaseStream(theta, x, y)
