"""Positive weight functions along a component, with exact derivatives.

Weights are functions of the arclength parameter s with exact derivatives
up to third order, all read from one jet; the focal, singular-set and
collapse tests use mu, mu' and mu''. Kinds mirror the curve bases:
constant, polynomial, cosine, Fourier and Chebyshev series, plus the
piecewise blend used by the stadium scene and an additive-offset wrapper
for weight families. `validate_on` rejects a weight that is not finite
and positive on the curve's domain.
"""

import numpy as np
from numpy.polynomial import polynomial as nppoly

from .curves import _chebyshev_derivatives, _FourierSeries
from .errors import NonpositiveWeightError


class WeightFunction:
    """Scalar weight mu(s) > 0 with derivatives up to third order.

    Subclasses implement `jet(s, order)`, the tuple (mu, mu', ...,
    mu^(order)) at s for order <= 3 from one pass over s; the named
    derivatives read one jet each.
    """

    def jet(self, s, order):
        raise NotImplementedError

    def mu(self, s):
        return self.jet(s, 0)[0]

    def d1(self, s):
        return self.jet(s, 1)[1]

    def d2(self, s):
        return self.jet(s, 2)[2]

    def validate_on(self, curve):
        """Reject weights that are not finite and positive on 4096 samples
        of the curve's domain."""
        sg = curve.grid(4096)
        vals = np.asarray(self.mu(sg), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonpositiveWeightError("weight is not finite on the domain")
        if np.min(vals) <= 0.0:
            smin = float(sg[int(np.argmin(vals))])
            raise NonpositiveWeightError(
                f"weight must be positive; min {float(np.min(vals))} near s={smin}"
            )
        return self


class ConstantWeight(WeightFunction):
    def __init__(self, value):
        if value <= 0:
            raise NonpositiveWeightError("constant weight must be positive")
        self.value = float(value)

    def jet(self, s, order):
        if not np.ndim(s):
            return (self.value,) + (0.0,) * order
        return (np.full(np.shape(s), self.value, dtype=float),) + tuple(
            np.zeros(np.shape(s)) for _ in range(order)
        )


class PolynomialWeight(WeightFunction):
    """mu(s) = sum_k c_k s^k."""

    def __init__(self, coefficients):
        c = np.asarray(coefficients, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise NonpositiveWeightError("polynomial weight needs [c0, c1, ...]")
        self._p = [c] + [nppoly.polyder(c, m) for m in range(1, 4)]

    def jet(self, s, order):
        return tuple(nppoly.polyval(s, p) for p in self._p[:order + 1])


class CosineWeight(WeightFunction):
    """mu(s) = amplitude * cos(frequency * s + phase) + offset."""

    def __init__(self, amplitude=1.0, frequency=0.5, phase=0.0, offset=0.0):
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.phase = float(phase)
        self.offset = float(offset)
        # The jet scales the amplitude by the frequency up to its cube.
        with np.errstate(over="ignore", invalid="ignore"):
            cube = np.float64(self.frequency) ** 3
            top = self.amplitude * cube
        if not np.isfinite([cube, top]).all():
            raise NonpositiveWeightError("cosine weight needs a finite amplitude * frequency^3")

    def jet(self, s, order):
        ph = self.frequency * np.asarray(s, dtype=float) + self.phase
        cos, sin = np.cos(ph), np.sin(ph)
        return (
            self.amplitude * cos + self.offset,
            -self.amplitude * self.frequency * sin,
            -self.amplitude * self.frequency**2 * cos,
            self.amplitude * self.frequency**3 * sin,
        )[:order + 1]


class FourierWeight(WeightFunction):
    """Periodic series a0 + sum a_k cos(k w s) + b_k sin(k w s), w = 2 pi / period:
    a one-coordinate Fourier series of the curves."""

    def __init__(self, coefficients, period):
        c = np.asarray(coefficients, dtype=float)
        if c.ndim != 1 or c.size % 2 == 0:
            raise NonpositiveWeightError("Fourier weight needs [a0, a1, b1, ...]")
        self._series = _FourierSeries([c], period)

    def jet(self, s, order):
        rows = self._series.orders(s, range(order + 1))
        return tuple(x[..., 0] if np.ndim(s) else x[0, 0] for x in rows)


class ChebyshevWeight(WeightFunction):
    def __init__(self, coefficients, domain):
        self._p = _chebyshev_derivatives(coefficients, domain)

    def jet(self, s, order):
        s = np.asarray(s, dtype=float)
        return tuple(p(s) for p in self._p[:order + 1])


class OffsetWeight(WeightFunction):
    """mu_t = base + t; derivatives are the base's (weight families)."""

    def __init__(self, base, t):
        self.base = base
        self.t = float(t)

    def jet(self, s, order):
        base = self.base.jet(s, order)
        return (base[0] + self.t,) + tuple(base[1:])


class SymmetricPiecewiseWeight(WeightFunction):
    """Even, L-periodic weight: cos(s/2) near s = 0, a controlled two-stage
    polynomial fade of the slope, then a constant plateau to the far side.

    On the folded coordinate u = |s| (reflected into [0, L/2]) the weight is

        cos(u/2)            on [0, cos_end],
        recovery stage      on [cos_end, cos_end + stage_a]   (mu'' fades
                            from the cosine's value back to 0, C^1 shape),
        braking stage       on the next stage_b units (mu'' is a flat-topped
                            C^1 bump scaled so mu' lands exactly at 0),
        plateau constant    out to L/2.

    All pieces are polynomials, so derivatives are exact; the fold points at
    u = 0 and u = L/2 have vanishing odd derivatives, making the periodic
    weight C^3 overall. The braking stage keeps mu * mu'' + mu'^2 small,
    which is what bounds the focal-radius profile away from the curve's
    circle section.
    """

    def __init__(self, period, cos_end=0.4, stage_a=0.8, stage_b=6.0, shoulder=0.2):
        self.period = float(period)
        self.u1 = float(cos_end)
        ta, tb, r = float(stage_a), float(stage_b), float(shoulder)
        if not (0.0 < self.u1 and ta > 0 and tb > 0 and 0 < r < 0.5):
            raise NonpositiveWeightError("blend stage parameters must be positive")
        self.u2 = self.u1 + ta + tb
        if self.u2 >= self.period / 2.0:
            raise NonpositiveWeightError("blend must finish before the far side")
        rb = r * tb
        # The stage polynomials divide by ta^3 and rb^5: both finite and nonzero.
        with np.errstate(over="ignore", under="ignore"):
            powers = np.float64([ta, rb]) ** [3, 5]
        if not (np.isfinite(powers).all() and powers.all()):
            raise NonpositiveWeightError("blend stages are too narrow or too wide")
        v = np.cos(self.u1 / 2.0)
        v1 = -np.sin(self.u1 / 2.0) / 2.0
        v2 = -np.cos(self.u1 / 2.0) / 4.0
        v3 = np.sin(self.u1 / 2.0) / 8.0
        # Recovery: mu''(x) = v2 * psi(x/ta), cubic psi with psi(0)=1,
        # psi'(0) matching mu''' continuity, psi(1)=psi'(1)=0.
        # Solving 1 + p + a + b = 0 and p + 2a + 3b = 0:
        p = v3 * ta / v2
        a = -3.0 - 2.0 * p
        b = 2.0 + p
        int_psi = 1.0 + p / 2.0 + a / 3.0 + b / 4.0
        # Braking: mu''(x) = P * phi(x/tb); phi = smoothstep shoulders of
        # relative width r around a unit plateau, integral 1 - r.
        va1 = v1 + v2 * ta * int_psi
        scale = -va1 / (tb * (1.0 - r))
        pieces = []  # (u_lo, u_hi, mu-coeffs in local x)
        d2a = v2 * np.array([1.0, p / ta, a / ta**2, b / ta**3])
        pieces.append(self._integrate_piece(self.u1, ta, d2a, v, v1))
        va = pieces[-1][3]
        # smoothstep S(y) = 10y^3 - 15y^4 + 6y^5 on the shoulders
        s_up = scale * np.array([0.0, 0.0, 0.0, 10.0 / rb**3, -15.0 / rb**4, 6.0 / rb**5])
        pieces.append(self._integrate_piece(self.u1 + ta, rb, s_up, va, va1))
        vb, vb1 = pieces[-1][3], pieces[-1][4]
        flat = np.array([scale])
        pieces.append(self._integrate_piece(self.u1 + ta + rb, tb - 2 * rb, flat, vb, vb1))
        vc, vc1 = pieces[-1][3], pieces[-1][4]
        s_down = scale * np.array(
            [1.0, 0.0, 0.0, -10.0 / rb**3, 15.0 / rb**4, -6.0 / rb**5]
        )
        pieces.append(self._integrate_piece(self.u2 - rb, rb, s_down, vc, vc1))
        self.plateau = float(pieces[-1][3])
        if self.plateau <= 0:
            raise NonpositiveWeightError("blend plateau is non-positive; widen the stages")
        # Coefficients of mu and its first three derivatives, per piece.
        self._pieces = [
            (lo, hi, [coeffs] + [nppoly.polyder(coeffs, m) for m in range(1, 4)])
            for lo, hi, coeffs, _, _ in pieces
        ]
        self._starts = np.array([lo for lo, _, _ in self._pieces])

    @staticmethod
    def _integrate_piece(u_lo, width, d2_coeffs, value0, slope0):
        """Integrate mu'' coefficients twice on local x in [0, width]."""
        d1 = nppoly.polyint(d2_coeffs, 1, k=[slope0])
        mu = nppoly.polyint(d1, 1, k=[value0])
        end_val = float(nppoly.polyval(width, mu))
        end_slope = float(nppoly.polyval(width, d1))
        return (u_lo, u_lo + width, mu, end_val, end_slope)

    def _fold(self, s):
        s = np.mod(np.asarray(s, dtype=float), self.period)
        half = self.period / 2.0
        hi = s > half
        u = np.where(hi, self.period - s, s)
        sign = np.where(hi, -1.0, 1.0)  # du/ds
        return u, sign

    def jet(self, s, order):
        u, sign = self._fold(s)
        outs = [np.empty_like(u) for _ in range(order + 1)]
        m_cos = u <= self.u1
        m_flat = u >= self.u2
        if np.any(m_cos):
            ph = u[m_cos] / 2.0
            cos, sin = np.cos(ph), np.sin(ph)
            for n, val in enumerate((cos, -sin, -cos, sin)[:order + 1]):
                outs[n][m_cos] = 0.5**n * val
        for n, out in enumerate(outs):
            out[m_flat] = self.plateau if n == 0 else 0.0
        # A foot between the cosine and the plateau belongs to the last piece
        # starting at or below it, so a foot on a piece start is evaluated too.
        piece = np.where(m_cos | m_flat, -1, np.searchsorted(self._starts, u, side="right") - 1)
        for j, (lo, _, coeffs) in enumerate(self._pieces):
            m = piece == j
            if not np.any(m):
                continue
            for n, out in enumerate(outs):
                out[m] = nppoly.polyval(u[m] - lo, coeffs[n])
        # Odd derivatives change sign under the fold.
        return tuple(out * sign if n % 2 == 1 else out for n, out in enumerate(outs))


# Each kind's constructor owns its parameters and their defaults.
WEIGHT_KINDS = {
    "constant": ConstantWeight,
    "polynomial": PolynomialWeight,
    "cosine": CosineWeight,
    "fourier": FourierWeight,
    "chebyshev": ChebyshevWeight,
    "stadium_blend": SymmetricPiecewiseWeight,
}


def build_weight(kind, curve=None, **params):
    """Weight factory used by the scene loader: `WEIGHT_KINDS[kind](**params)`.

    Given a curve, a missing `period` (fourier, stadium_blend) is its length
    and a missing `domain` (chebyshev) its [s_min, s_max].
    """
    if kind not in WEIGHT_KINDS:
        raise NonpositiveWeightError(f"unknown weight kind {kind!r}")
    if curve is not None and kind in ("fourier", "stadium_blend"):
        params.setdefault("period", curve.length)
    if curve is not None and kind == "chebyshev":
        params.setdefault("domain", [curve.s_min, curve.s_max])
    return WEIGHT_KINDS[kind](**params)
