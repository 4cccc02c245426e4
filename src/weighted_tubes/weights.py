"""Positive weight functions along a component, with exact derivatives.

Weights are functions of the arclength parameter s with exact derivatives
up to third order, all read from one jet; the focal, singular-set and
collapse tests use mu, mu' and mu''. Kinds mirror the curve bases:
constant, polynomial, cosine, Fourier and Chebyshev series, plus the
piecewise blend used by the stadium scene and an additive-offset wrapper
for weight families. `validate_on` rejects a weight that is not finite
and positive on the curve's domain, whose square underflows there, or that
is not periodic on a closed curve.
"""

import numpy as np
from numpy.polynomial import polynomial as nppoly

from .curves import _ChebyshevSeries, _finite_pair, _FourierSeries, _padded, _shaped_jet
from .errors import NonpositiveWeightError


def _horner(x, c):
    """The polynomials sum_i c[i] x^i (c's first axis; the rest broadcast
    against x) by `nppoly.polyval`'s own operations and so with its bits: at
    finite x, high-order zero rows change nothing."""
    acc = c[-1] + x * 0
    for ci in c[-2::-1]:
        acc = ci + acc * x
    return acc


# The relative jump of mu, mu' or mu'' across a closed curve's seam that
# validate_on allows. The bundled closed scenes and 120 generated benchmark
# scenes read at most 4.2e-15.
_SEAM_BAND = 2.0**-30

def _cos_sin(ph, orders):
    """[cos(ph), sin(ph)], each only where an order of its parity (cos for
    even, sin for odd) is asked for, else None."""
    return [np.cos(ph) if any(k % 2 == 0 for k in orders) else None,
            np.sin(ph) if any(k % 2 for k in orders) else None]


# The least weight validate_on accepts: below it mu^2 is subnormal or 0, and
# the radii divide by it (sigma = e / (mu1 + mu2)^2 reads inf or nan).
_MU_FLOOR = 2.0**-511


class WeightFunction:
    """Scalar weight mu(s) > 0 with derivatives up to third order.

    Subclasses implement `_jet(s, orders)` on 1-D float arrays: one array
    per given order (each in 0..3, ascending), computed for those orders
    only and each by the same operations, so with the same bits, whatever
    else is asked for, as `_FourierSeries.orders` does.
    `jet(s, order)`, (mu, mu', ..., mu^(order)) for order <= 3, takes feet
    of any shape as `ArclengthCurve.jet` does and returns float64 arrays
    shaped like s (np.float64 values for a scalar s); the named derivatives
    ask for their one order.
    """

    def jet(self, s, order):
        if order > 3:
            raise ValueError(f"order {order}")
        return _shaped_jet(self._jet, s, range(order + 1))

    def mu(self, s):
        return _shaped_jet(self._jet, s, (0,))[0]

    def d1(self, s):
        return _shaped_jet(self._jet, s, (1,))[0]

    def d2(self, s):
        return _shaped_jet(self._jet, s, (2,))[0]

    def validate_on(self, curve):
        """Reject weights that are not finite and positive on 4096 samples
        of the curve's domain, or whose least sample is below _MU_FLOOR,
        where its square underflows. On a closed curve the weight must also be
        periodic: mu, mu' and mu'' at s_min and at s_min + L may differ by
        at most _SEAM_BAND times their order's largest size on the samples."""
        sg = curve.grid(4096)
        if curve.closed:
            jet = self.jet(np.append(sg, curve.s_max), 2)
            vals = jet[0][:-1]
        else:
            jet, vals = (), self.mu(sg)
        if not np.all(np.isfinite(vals)):
            raise NonpositiveWeightError("weight is not finite on the domain")
        k = int(np.argmin(vals))
        if vals[k] <= 0.0:
            raise NonpositiveWeightError(f"weight must be positive; min {float(vals[k])} near s={float(sg[k])}")
        if vals[k] < _MU_FLOOR:
            raise NonpositiveWeightError(
                f"weight's square underflows; min {float(vals[k])} near s={float(sg[k])} is below 2^-511"
            )
        for name, x in zip(("mu", "mu'", "mu''"), jet):
            if not abs(x[-1] - x[0]) <= _SEAM_BAND * np.max(np.abs(x[:-1])):
                raise NonpositiveWeightError(
                    f"weight is not periodic on the closed curve: {name} is "
                    f"{float(x[0])} at s={curve.s_min} and {float(x[-1])} at s={curve.s_max}"
                )
        return self


class ConstantWeight(WeightFunction):
    def __init__(self, value):
        if value <= 0:
            raise NonpositiveWeightError("constant weight must be positive")
        self.value = float(value)

    def _jet(self, s, orders):
        return tuple(np.zeros(s.shape) if k else np.full(s.shape, self.value) for k in orders)


class PolynomialWeight(WeightFunction):
    """mu(s) = sum_k c_k s^k."""

    def __init__(self, coefficients):
        c = np.asarray(coefficients, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise NonpositiveWeightError("polynomial weight needs [c0, c1, ...]")
        self._p = [c] + [nppoly.polyder(c, m) for m in range(1, 4)]

    def _jet(self, s, orders):
        return tuple(_horner(s, self._p[k]) for k in orders)


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
        # Order k is scale[k] times cos (k even) or sin (k odd) of the phase.
        a, w = self.amplitude, self.frequency
        self._scale = (a, -a * w, -a * w**2, a * w**3)

    def _jet(self, s, orders):
        ph = self.frequency * s + self.phase
        trig = _cos_sin(ph, orders)
        rows = tuple(self._scale[k] * trig[k % 2] for k in orders)
        return tuple(x + self.offset if k == 0 else x for k, x in zip(orders, rows))


class _SeriesWeight(WeightFunction):
    """A one-coordinate series of the curves' bases, evaluated in s."""

    def _jet(self, s, orders):
        return tuple(x[:, 0] for x in self._series.orders(s, orders))


class FourierWeight(_SeriesWeight):
    """Periodic series a0 + sum a_k cos(k w s) + b_k sin(k w s), w = 2 pi / period."""

    def __init__(self, coefficients, period):
        c = np.asarray(coefficients, dtype=float)
        if c.ndim != 1 or c.size % 2 == 0:
            raise NonpositiveWeightError("Fourier weight needs [a0, a1, b1, ...]")
        self._series = _FourierSeries([c], period)


class ChebyshevWeight(_SeriesWeight):
    """Chebyshev series sum c_k T_k on domain [s0, s1]."""

    def __init__(self, coefficients, domain):
        c = np.asarray(coefficients, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise NonpositiveWeightError("Chebyshev weight needs [c0, c1, ...]")
        self._series = _ChebyshevSeries([c], _finite_pair(domain, "domain"))


class OffsetWeight(WeightFunction):
    """mu_t = base + t; derivatives are the base's (weight families)."""

    def __init__(self, base, t):
        self.base = base
        self.t = float(t)

    def _jet(self, s, orders):
        return tuple(x + self.t if k == 0 else x for k, x in zip(orders, self.base._jet(s, orders)))


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
        # Per order, every piece's coefficients in one table, a column per
        # piece padded with high-order zeros; a piece's own are its column.
        mu = _padded([c for _, _, c, _, _ in pieces])
        self._tables = [mu] + [nppoly.polyder(mu, m) for m in range(1, 4)]
        self._starts = np.array([lo for lo, *_ in pieces])
        self._pieces = [(lo, hi, [c[:, j] for c in self._tables]) for j, (lo, hi, *_) in enumerate(pieces)]

    @staticmethod
    def _integrate_piece(u_lo, width, d2_coeffs, value0, slope0):
        """Integrate mu'' coefficients twice on local x in [0, width]."""
        d1 = nppoly.polyint(d2_coeffs, 1, k=[slope0])
        mu = nppoly.polyint(d1, 1, k=[value0])
        return (u_lo, u_lo + width, mu, float(_horner(width, mu)), float(_horner(width, d1)))

    def _fold(self, s):
        s = np.mod(s, self.period)
        half = self.period / 2.0
        hi = s > half
        u = np.where(hi, self.period - s, s)
        sign = np.where(hi, -1.0, 1.0)  # du/ds
        return u, sign

    def _jet(self, s, orders):
        u, sign = self._fold(s)
        outs = [np.empty_like(u) for _ in orders]
        m_cos = u <= self.u1
        m_flat = u >= self.u2
        if np.any(m_cos):
            ph = u[m_cos] / 2.0
            # Order k is 2^-k times cos, -sin, -cos, sin (k = 0..3) of u / 2.
            trig = _cos_sin(ph, orders)
            for k, out in zip(orders, outs):
                val = trig[k % 2]
                out[m_cos] = 0.5**k * (-val if k in (1, 2) else val)
        for k, out in zip(orders, outs):
            out[m_flat] = self.plateau if k == 0 else 0.0
        # A foot between the cosine and the plateau belongs to the last piece
        # starting at or below it, so a foot on a piece start is evaluated
        # too; it gathers that piece's coefficients once per order.
        feet = np.flatnonzero(~(m_cos | m_flat))
        if len(feet):
            piece = np.searchsorted(self._starts, u[feet], side="right") - 1
            x = u[feet] - self._starts[piece]
            for k, out in zip(orders, outs):
                out[feet] = _horner(x, self._tables[k][:, piece])
        # Odd derivatives change sign under the fold.
        return tuple(out * sign if k % 2 == 1 else out for k, out in zip(orders, outs))


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
