"""Descending power series at the regular singular point r = infinity.

For a second-order linear ODE

    y'' + P(r) y' + Q(r) y = 0,
    P(r) = p1/r + p2/r^2 + ...,      Q(r) = q2/r^2 + q3/r^3 + ...,

there is a power solution y = r**alpha * (1 + a1/r + a2/r^2 + ...) for each
root alpha of the indicial polynomial F(b) = b*(b-1) + p1*b + q2, with the
coefficients a_m determined by a linear recurrence. Because the series
descends, it is the LARGER root whose recurrence can hit a zero divisor when
the roots differ by an integer (the mirror image of the usual convention at
a finite singular point). When that happens and the accompanying obstruction
also vanishes, the series continues with a zero coefficient; otherwise a
logarithmic term would be required and the computation stops early with
resonance_flag set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "FrobeniusSolution",
    "InfinitySingularODE",
    "series_coefficients",
]

_RESONANCE_ATOL = 1e-9


@dataclass(frozen=True)
class InfinitySingularODE:
    """Coefficient data of y'' + P(r) y' + Q(r) y = 0 expanded at infinity.

    p_coeffs lists (p1, p2, ...) and q_coeffs lists (q2, q3, ...). Orders
    not listed are zero; p_order / q_order give the highest power of 1/r
    that is trusted (None means the listed expansion is exact, so missing
    entries are literal zeros at every order). Truncated expansions limit
    how many series coefficients can be computed.
    """

    p_coeffs: tuple[float, ...]
    q_coeffs: tuple[float, ...] = ()
    p_order: int | None = None
    q_order: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_coeffs", tuple(float(c) for c in self.p_coeffs))
        object.__setattr__(self, "q_coeffs", tuple(float(c) for c in self.q_coeffs))
        if not self.p_coeffs:
            raise ValueError("need at least p1 to form the indicial polynomial")
        if self.p_order is not None and self.p_order < len(self.p_coeffs):
            raise ValueError("p_order is smaller than the listed expansion")
        if self.q_order is not None and self.q_order < len(self.q_coeffs) + 1:
            raise ValueError("q_order is smaller than the listed expansion")

    def p_at(self, j: int) -> float:
        """Coefficient of r**-j in P (j >= 1)."""
        if j < 1:
            raise ValueError("P starts at order 1/r")
        return self.p_coeffs[j - 1] if j <= len(self.p_coeffs) else 0.0

    def q_at(self, j: int) -> float:
        """Coefficient of r**-j in Q (j >= 2)."""
        if j < 2:
            raise ValueError("Q starts at order 1/r^2")
        return self.q_coeffs[j - 2] if j <= len(self.q_coeffs) + 1 else 0.0

    def max_series_order(self) -> float:
        """Largest series order the trusted expansion determines.

        Coefficient a_m needs P through order m+1 and Q through order m+2;
        the result is math.inf when both expansions are exact.
        """
        limit = math.inf
        if self.p_order is not None:
            limit = min(limit, self.p_order - 1)
        if self.q_order is not None:
            limit = min(limit, self.q_order - 2)
        return limit

    def indicial_value(self, b: float) -> float:
        """F(b) = b(b-1) + p1*b + q2."""
        return b * (b - 1.0) + self.p_at(1) * b + self.q_at(2)


@dataclass(frozen=True)
class FrobeniusSolution:
    """Truncated descending series y = r**root * (1 + sum a_k r**-k).

    coefficients holds (a_1, ..., a_N). resonance_flag records that the
    recurrence denominator vanished at some index; when the obstruction
    vanished too the series continued with a zero coefficient, otherwise it
    was truncated just below the resonant index.
    """

    root: float
    coefficients: tuple[float, ...] = field(default=())
    resonance_flag: bool = False


def series_coefficients(
    ode: InfinitySingularODE,
    root: float,
    n: int = 3,
) -> FrobeniusSolution:
    """First n descending-series coefficients at the given indicial root.

    root must solve the indicial polynomial. n may not exceed what the
    trusted expansion of P and Q determines. At a resonant index m (where
    F(root - m) = 0, possible only when the root gap is an integer and only
    for the larger root) the solution continues with a_m = 0 if the
    obstruction vanishes identically, and otherwise stops there with
    resonance_flag set.
    """
    if n < 0:
        raise ValueError("series order must be nonnegative")
    if n > ode.max_series_order():
        raise ValueError(
            f"series order {n} exceeds what the trusted expansion determines "
            f"({ode.max_series_order():g})"
        )
    f_root = ode.indicial_value(root)
    scale = 1.0 + abs(root) + abs(ode.p_at(1)) + abs(ode.q_at(2))
    if abs(f_root) > _RESONANCE_ATOL * scale:
        raise ValueError(f"{root} is not an indicial root (F(root) = {f_root:g})")

    coeffs = [1.0]  # a_0
    flag = False
    for m in range(1, n + 1):
        rhs = 0.0
        for j in range(2, m + 2):
            rhs -= ode.p_at(j) * (root - m - 1.0 + j) * coeffs[m + 1 - j]
        for j in range(3, m + 3):
            rhs -= ode.q_at(j) * coeffs[m + 2 - j]
        den = ode.indicial_value(root - m)
        if abs(den) <= _RESONANCE_ATOL * max(1.0, float(m * m)):
            flag = True
            if rhs == 0.0:
                # Vanishing obstruction: the power series goes through with a
                # free coefficient, fixed to zero here.
                coeffs.append(0.0)
                continue
            break
        coeffs.append(rhs / den)
    return FrobeniusSolution(root=float(root), coefficients=tuple(coeffs[1:]), resonance_flag=flag)
