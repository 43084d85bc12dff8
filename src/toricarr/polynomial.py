"""Univariate polynomials in t with nonnegative integer coefficients."""

from __future__ import annotations

from .lattice import Frozen


class Polynomial(Frozen):
    """Poincare polynomial: coefficients[k] is the coefficient of t^k."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        coeffs = tuple(int(c) for c in coefficients)
        if any(c < 0 for c in coeffs):
            raise ValueError("Poincare polynomials have nonnegative coefficients")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0,)
        Frozen.__init__(self, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> int:
        return self.coefficients[k] if 0 <= k < len(self.coefficients) else 0

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(tuple(c * other for c in self.coefficients))
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, x in enumerate(self.coefficients):
            for j, y in enumerate(other.coefficients):
                out[i + j] += x * y
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coefficients):
            if c == 0 and len(self.coefficients) > 1:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}t" if c != 1 else "t")
            else:
                terms.append(f"{c}t^{k}" if c != 1 else f"t^{k}")
        return " + ".join(terms)
