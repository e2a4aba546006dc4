"""Base class of the numerical failures.

A failure caused by the numbers (spectrum on the imaginary axis, a singular
block or trace system, an unreliable eigenbasis, a sign iteration that does
not converge, a sign that is not an involution, a vector outside the subspace
it must lie in, a non-accretive operator, a singular variational form) rather
than by the configuration is a NumericalError; the CLI exits with code 3 on it.
"""

from __future__ import annotations

__all__ = ["NumericalError"]


class NumericalError(RuntimeError):
    """A computation refused or failed for numerical reasons."""
