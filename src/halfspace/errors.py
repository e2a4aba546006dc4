"""Base class of the numerical failures.

A failure caused by the numbers (spectrum on the imaginary axis, a singular
block or trace system, an unreliable eigenbasis, a sign iteration that does
not converge, a vector outside the subspace it must lie in, a non-accretive
operator) rather than by the configuration is a NumericalError; the CLI
exits with code 3 on it.
"""

from __future__ import annotations

__all__ = ["NumericalError"]


class NumericalError(RuntimeError):
    """A computation refused or failed for numerical reasons."""
