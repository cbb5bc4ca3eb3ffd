"""Drift matrix of the replication model linearized about a fixed point."""

from __future__ import annotations

from .model_core import Equilibrium, ModelParams, basic_reproduction_number
from .serialize import Record

__all__ = [
    "LinearizationReport",
    "linearize",
    "matrix_invariants",
    "det_closed_form",
]


class LinearizationReport(Record):
    """2x2 drift-matrix entries and scalar invariants at an equilibrium.

    A1 and A2 are the determinant-augmented squares det + a11^2 and
    det + a22^2 consumed by the noise-bound machinery in `stability`.
    """

    a11: float
    a12: float
    a21: float
    a22: float
    trace: float
    det: float
    A1: float
    A2: float
    equilibrium: Equilibrium


def _invariants(a11: float, a12: float, a21: float, a22: float) -> tuple[float, float, float, float]:
    trace = a11 + a22
    det = a11 * a22 - a12 * a21
    return trace, det, det + a11 * a11, det + a22 * a22


def linearize(params: ModelParams, eq: Equilibrium) -> LinearizationReport:
    """Jacobian of the replication field at eq, from the closed-form entries.

    At the origin the capacity terms vanish and the matrix reduces to
    ((-delta, r), (alpha*r, -sigma)).
    """
    b, r, alpha = params.b, params.r, params.alpha
    p, m = eq.p_star, eq.m_star
    a11 = -(b * r * m + params.delta)
    a12 = r * (1.0 - b * (p + 2.0 * m))
    a21 = alpha * r * (1.0 - b * (2.0 * p + m))
    a22 = -(alpha * b * r * p + params.sigma)
    trace, det, big_a1, big_a2 = _invariants(a11, a12, a21, a22)
    return LinearizationReport(a11, a12, a21, a22, trace, det, big_a1, big_a2, eq)


def matrix_invariants(rep: LinearizationReport) -> tuple[float, float, float, float]:
    """(trace, det, A1, A2) recomputed from the four matrix entries."""
    return _invariants(rep.a11, rep.a12, rep.a21, rep.a22)


def det_closed_form(params: ModelParams) -> float:
    """Determinant of the drift matrix at the coexistence equilibrium.

    The full expression collapses to 2*delta*sigma*(R0 - 1), so the
    determinant is positive exactly when the coexistence point exists.
    """
    return 2.0 * params.delta * params.sigma * (basic_reproduction_number(params) - 1.0)
