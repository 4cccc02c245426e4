"""Curves in R^n reparametrized by arclength, with exact first three derivatives.

Closed components use truncated Fourier series in the raw parameter,
open arcs use Chebyshev series, and a few analytic presets (unit circle,
circle arcs, ellipses, and a smoothed stadium built from a curvature
profile) are evaluated in closed form. All derivatives come from series
or closed-form differentiation, never finite differences, so curvature
and the third derivative are trustworthy at machine precision.
"""

from itertools import zip_longest
from types import SimpleNamespace

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polyutils as pu

from .errors import NonRegularCurveError, OutOfDomainError, QuadratureFailureError
from .util import (
    _coord_norm,
    _coord_sum,
    brent_rows,
    gauss_legendre,
    quintic_smoothstep,
    quintic_smoothstep_d1,
    quintic_smoothstep_int,
)


def _shaped_jet(evaluate, s, orders):
    """`evaluate(feet, orders)` on s flattened to 1-D floats, each output
    given back the shape of s: a scalar s gives rows with no leading axis
    (np.float64 values for a weight). orders is what the evaluator reads:
    a curve's top order, or a weight's sequence of orders."""
    s = np.asarray(s, dtype=float)
    out = evaluate(s.reshape(-1), orders)
    if s.ndim == 0:
        return tuple(x[0] for x in out)
    return out if s.ndim == 1 else tuple(x.reshape(s.shape + x.shape[1:]) for x in out)


class ArclengthCurve:
    """A single C^3 component parametrized by arclength.

    Subclasses implement `_jet(s, order)` on 1-D float arrays of in-domain,
    already-wrapped arclength values. `jet` accepts feet of any shape,
    wraps closed components periodically and rejects out-of-domain values
    on open arcs; the named evaluators read one jet each.
    """

    def __init__(self, ambient_dim, length, closed, s_min):
        self.ambient_dim = int(ambient_dim)
        self.length = float(length)
        self.closed = bool(closed)
        self.s_min = float(s_min)
        if not (np.isfinite(self.s_min) and 0.0 < self.length < np.inf):
            raise NonRegularCurveError(f"domain needs a finite start and a finite length > 0, "
                                       f"got s_min={self.s_min}, length={self.length}")
        self.s_max = self.s_min + self.length
        self.kappa_tol = 1e-9 / self.length

    # -- domain handling ---------------------------------------------------

    def wrap(self, s):
        """Map s into the fundamental domain (periodically for closed curves)."""
        s = np.asarray(s, dtype=float)
        if self.closed:
            return self.s_min + np.mod(s - self.s_min, self.length)
        lo, hi = self.s_min, self.s_max
        tol = 1e-9 * self.length
        if np.any(s < lo - tol) or np.any(s > hi + tol):
            raise OutOfDomainError(
                f"s outside [{lo}, {hi}] for open arc (got range "
                f"[{float(np.min(s))}, {float(np.max(s))}])"
            )
        return np.clip(s, lo, hi)

    def grid(self, n):
        """n arclength samples: uniform without endpoint duplication when closed,
        endpoints included for open arcs."""
        if self.closed:
            return self.s_min + self.length * np.arange(n) / n
        return np.linspace(self.s_min, self.s_max, n)

    def periodic_distance(self, s1, s2):
        d = np.abs(np.asarray(s1, dtype=float) - np.asarray(s2, dtype=float))
        if self.closed:
            d = np.minimum(d, self.length - np.mod(d, self.length))
            d = np.abs(d)
        return d

    # -- evaluation --------------------------------------------------------

    def jet(self, s, order):
        """(gamma, gamma', ..., gamma^(order)) at s, for order <= 3.

        s is wrapped once and every order comes from one pass over it (one
        arclength inversion, one piece lookup). Each order is an array of
        shape s.shape + (ambient_dim,); a scalar s gives rows.
        """
        s = self.wrap(s)
        if order > 3:
            raise ValueError(f"order {order}")
        return _shaped_jet(self._jet, s, order)

    def _jet(self, s, order):
        raise NotImplementedError

    def point(self, s):
        return self.jet(s, 0)[0]

    def tangent(self, s):
        return self.jet(s, 1)[1]

    def second_derivative(self, s):
        return self.jet(s, 2)[2]

    def curvature(self, s):
        return _coord_norm(self.jet(s, 2)[2])


def _kappa_rate(jet, kappa_tol):
    """d(kappa)/ds from a jet of order 3; 0 where kappa <= kappa_tol."""
    d2, d3 = jet[2], jet[3]
    kap = _coord_norm(d2)
    dot = _coord_sum(d2 * d3)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(kap > kappa_tol, dot / np.where(kap > 0, kap, 1.0), 0.0)


def collapse_ode_residual(jet):
    """|gamma''' + kappa^2 gamma'| from a jet of order 3 (`curve.jet(s, 3)`);
    zero exactly on circular arcs."""
    _, t, d2, d3 = jet
    kap = _coord_norm(d2)
    res = d3 + (np.asarray(kap)[..., None] ** 2) * t
    return _coord_norm(res)


# ---------------------------------------------------------------------------
# Analytic presets
# ---------------------------------------------------------------------------


class CircleArcCurve(ArclengthCurve):
    """Arc (or full loop) of the unit circle in the x1-x2 plane of R^n.

    Already arclength-parametrized, so all derivatives are exact trig.
    """

    def __init__(self, s_start=0.0, s_end=2.0 * np.pi, ambient_dim=2, closed=None):
        length = float(s_end) - float(s_start)
        if closed is None:
            closed = abs(length - 2.0 * np.pi) < 1e-12
        super().__init__(ambient_dim, length, closed, s_start)

    def _jet(self, s, order):
        c, si = np.cos(s), np.sin(s)
        outs = []
        for x, y in ((c, si), (-si, c), (-c, -si), (si, -c))[:order + 1]:
            out = np.zeros(s.shape + (self.ambient_dim,))
            out[..., 0], out[..., 1] = x, y
            outs.append(out)
        return tuple(outs)


class SegmentCurve(ArclengthCurve):
    """Straight segment from a to b, arclength parametrized on [0, |b-a|]."""

    def __init__(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        length = float(np.linalg.norm(b - a))
        super().__init__(a.size, length, False, 0.0)
        self._a = a
        self._dir = (b - a) / length

    def _jet(self, s, order):
        outs = [np.zeros(s.shape + (self.ambient_dim,)) for _ in range(order + 1)]
        outs[0][:] = self._a + s[..., None] * self._dir
        if order >= 1:
            outs[1][:] = self._dir
        return tuple(outs)


# ---------------------------------------------------------------------------
# Series curves in a raw parameter, reparametrized by arclength
# ---------------------------------------------------------------------------


class _RawCurve(ArclengthCurve):
    """Curve given by a series in a raw parameter t (`_FourierSeries` or
    `_ChebyshevSeries`, read through `orders`), reparametrized to arclength.

    The map s -> t is tabulated on a uniform raw grid: 16 Gauss-Legendre
    nodes per cell give the cumulative arclength at the knots. A foot is
    inverted from a monotone PCHIP start (`_pchip_coefficients`) by Newton
    to the roundoff floor. Each residual integrates the speed over the
    partial cell with the curve's own node count: the smallest n in
    {4, 6, 8} whose full-cell sums match every 16-node cell integral of
    the table to within 2 ulp of L, or 16 when none does (a speed that
    varies fast within a cell, as near a cusp). A match certifies the table,
    as two Gauss-Legendre rules that agree on a cell have converged there,
    so L is the sum of its cells; a 16-node table has L checked by the
    doubling rule of `_length_refined` instead. `_s_of_t` evaluates the
    chosen nodes and t itself in one pass and returns the speed at t with
    s(t), so a full Newton pass costs _cell_n + 1 raw values per foot; the
    step it gives is checked by one more raw value, read with the jet's
    orders (`_invert`).
    """

    _GL_N = 16
    _TABLE_N = 1024
    _CELL_NS = (4, 6, 8)
    _CHECK_N = 2048  # cells of the first length check, doubled up to 6 times
    _LENGTH_TOL = 1e-10  # relative agreement of two successive length checks
    _NEWTON_BLOCK = 1 << 15  # most feet one `_s_of_t` pass evaluates at once
    _STEP_GUARD = 2.0**-16  # longest step, in table cells, checked by the trapezoid rule

    def __init__(self, series, closed, raw_domain):
        self._series = series
        self._t0, self._t1 = raw_domain
        if self._t1 <= self._t0:
            raise NonRegularCurveError("raw domain is empty")
        tg = np.linspace(self._t0, self._t1, self._TABLE_N + 1)
        velocity = self._raw(tg, 1)
        speeds = _coord_norm(velocity)
        if np.min(speeds) <= 0 or not np.all(np.isfinite(speeds)):
            raise NonRegularCurveError("raw parametrization has vanishing speed")
        cell = self._cell_sums(tg, self._GL_N)
        cum = np.concatenate([[0.0], np.cumsum(cell)])
        length = float(cell.sum())
        ulps = 2.0 * np.spacing(length)
        self._cell_n = next(
            (m for m in self._CELL_NS if np.max(np.abs(self._cell_sums(tg, m) - cell)) <= ulps),
            self._GL_N,
        )
        if self._cell_n == self._GL_N:
            length = self._length_refined(float(cum[-1]))
        cum *= length / cum[-1] if cum[-1] > 0 else 1.0
        super().__init__(velocity.shape[-1], length, closed, 0.0)
        self._t_grid = tg
        self._s_grid = cum
        self._pchip = _pchip_coefficients(cum, tg)

    def _cell_sums(self, tg, n):
        """Speed integrals over the cells of the knots tg, n Gauss-Legendre
        nodes each."""
        nodes, wts = gauss_legendre(n)
        h = tg[1:] - tg[:-1]
        tt = tg[:-1, None] + h[:, None] * nodes[None, :]
        sp = _coord_norm(self._raw(tt.ravel(), 1)).reshape(tt.shape)
        if np.min(sp) <= 0:
            raise NonRegularCurveError("raw parametrization has vanishing speed")
        return _coord_sum(sp * wts[None, :]) * h

    def _length_refined(self, prev, max_doublings=6):
        """The total length from _CHECK_N cells, doubled until two successive
        sums, the first against prev, agree to _LENGTH_TOL; raises
        QuadratureFailureError when they never do."""
        m = self._CHECK_N
        for _ in range(max_doublings):
            val = float(self._cell_sums(np.linspace(self._t0, self._t1, m + 1), self._GL_N).sum())
            if abs(val - prev) <= self._LENGTH_TOL * max(1.0, abs(val)):
                return val
            prev, m = val, 2 * m
        raise QuadratureFailureError("arclength quadrature did not stabilize")

    def _raw(self, t, order):
        return self._series.orders(t, (order,))[0]

    def _s_of_t(self, t):
        """(arclength from the table start, raw speed) at 1-D t: the partial cell
        by `_cell_n`-node Gauss-Legendre, its nodes and t in one raw pass."""
        idx = _cell(self._t_grid, t)
        a = self._t_grid[idx]
        nodes, wts = gauss_legendre(self._cell_n)
        tt = np.concatenate([a[:, None] + (t - a)[:, None] * nodes[None, :], t[:, None]], axis=1)
        sp = _coord_norm(self._raw(tt.ravel(), 1)).reshape(tt.shape)
        return self._s_grid[idx] + _coord_sum(sp[:, :-1] * wts[None, :]) * (t - a), sp[:, -1]

    def t_of_s(self, s):
        """The raw parameters of the arclength feet s (1-D, from the table start)."""
        return self._invert(s, 0)[0]

    def _invert(self, s, order):
        """(t, g): the raw parameters of the arclength feet s (1-D, from the
        table start) and the series' orders 0..max(order, 1) at them.

        Newton is pushed to the roundoff floor: second differences of
        downstream quantities divide by h^2 and would amplify any slack.
        Each foot stops on its own residual r = s(t) - s, |r| <= 4e-16 L, so
        its value does not depend on the other feet of the call, and blocks
        of _NEWTON_BLOCK feet bound a raw pass of `_s_of_t` without changing
        a bit. From the PCHIP start, one full pass gives r0 and the speed
        sp0 at t0, and Newton steps to t1. A step of at most _STEP_GUARD of
        a cell is checked by the trapezoid rule over it, r1 = r0 + (t1 - t0)
        (sp0 + sp1) / 2, with sp1 the speed in g: its error, |t1 - t0|^3
        max|sp''| / 12, lies far below the stop tolerance (the tests bound
        it on the bundled and seeded series curves), so it accepts the t1
        that a second full pass would. A longer step, or a foot the check
        leaves going, takes full passes from t1 as before.
        """
        t = _pchip_eval(self._s_grid, self._pchip, np.clip(s, 0.0, self.length))
        tol = 4e-16 * self.length
        resid, speed = self._residual(t, s)
        going = ~(np.abs(resid) <= tol)
        t1 = t.copy()
        t1[going] = np.clip(t[going] - resid[going] / speed[going], self._t0, self._t1)
        orders = range(max(order, 1) + 1)
        g = self._series.orders(t1, orders)
        step = t1 - t
        guard = self._STEP_GUARD * (self._t_grid[1] - self._t_grid[0])
        checked = (np.abs(step) <= guard) & (np.abs(resid + step * (speed + _coord_norm(g[1])) * 0.5) <= tol)
        rest = np.flatnonzero(going & ~checked)
        if len(rest):
            k = rest
            for _ in range(5):
                resid, speed = self._residual(t1[k], s[k])
                going = ~(np.abs(resid) <= tol)
                k, resid, speed = k[going], resid[going], speed[going]
                if not len(k):
                    break
                t1[k] = np.clip(t1[k] - resid / speed, self._t0, self._t1)
            for x, y in zip(g, self._series.orders(t1[rest], orders)):
                x[rest] = y
        return t1, g

    def _residual(self, t, s):
        """(s(t) - s, the raw speed at t): one full Newton pass, `_s_of_t`
        on blocks of at most _NEWTON_BLOCK feet."""
        resid, speed = np.empty_like(t), np.empty_like(t)
        for start in range(0, len(t), self._NEWTON_BLOCK):
            k = slice(start, start + self._NEWTON_BLOCK)
            s_k, speed[k] = self._s_of_t(t[k])
            resid[k] = s_k - s[k]
        return resid, speed

    def _jet(self, s, order):
        _, g = self._invert(s - self.s_min, order)
        out = [g[0]]
        if order >= 1:
            inv = 1.0 / _coord_norm(g[1])  # 1 / speed
            out.append(g[1] * inv[..., None])
        if order >= 2:
            sp1 = _coord_sum(g[1] * g[2]) * inv  # d(speed)/dt
            t1, t2 = inv, -sp1 * inv**3
            out.append(g[2] * (t1**2)[..., None] + g[1] * t2[..., None])
        if order >= 3:
            sp2 = (_coord_sum(g[2] * g[2]) + _coord_sum(g[1] * g[3])) * inv - sp1**2 * inv
            t3 = -sp2 * inv**4 + 3.0 * sp1**2 * inv**5
            out.append(
                g[3] * (t1**3)[..., None] + 3.0 * g[2] * (t1 * t2)[..., None] + g[1] * t3[..., None]
            )
        return tuple(out)


def _pchip_coefficients(x, y):
    """Cubic Hermite coefficients (4, n - 1) of the monotone PCHIP
    interpolant through the knots (x, y), row j multiplying (x - x_i)^(3 - j).

    The standard construction, operation for operation: harmonic-mean slopes
    at interior knots (Fritsch and Butland), zero where the secants change
    sign or vanish, shape-preserving one-sided slopes at the ends (Moler,
    Numerical Computing with MATLAB, 3.6), and a line through two knots.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    if len(x) == 2:
        d = np.array([m[0], m[0]])
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d = np.concatenate([[0.0], np.where(flat, 0.0, 1.0 / whmean), [0.0]])
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _cell(x, s):
    """The index i of the knot cell [x_i, x_i+1] that holds each s, clamped
    to the end cells. np.minimum(np.maximum()) rather than np.clip, whose
    Python wrapper costs about three times as much on every call."""
    return np.minimum(np.maximum(np.searchsorted(x, s, side="right") - 1, 0), len(x) - 2)


def _pchip_eval(x, c, s):
    """The Hermite cubics c on knots x at s, summed lowest power first with
    the powers of z = s - x_i built by repeated multiplication; values
    beyond the ends extend the end cubics."""
    i = _cell(x, s)
    z = s - x[i]
    z2 = z * z
    return c[3, i] + c[2, i] * z + c[1, i] * z2 + c[0, i] * (z2 * z)


def _padded(coeffs):
    """The coefficient rows as one (terms, coordinates) table, each column
    padded with high-order zeros. Both series bases read one, and share one
    contract: `orders(t, orders)` gives the derivatives of the given orders
    at 1-D t, one C-contiguous (len(t), d) array each. A padded term adds +-0
    to an accumulator that starts at +0, which changes no bit."""
    return np.array(list(zip_longest(*coeffs, fillvalue=0.0)))


def _finite_pair(values, name):
    """values as two finite, distinct floats, else a ValueError naming the parameter."""
    pair = np.asarray(values, dtype=float)
    if pair.shape != (2,) or not np.all(np.isfinite(pair)) or pair[0] == pair[1]:
        raise ValueError(f"{name} needs two finite, distinct numbers, got {values!r}")
    return float(pair[0]), float(pair[1])


class _FourierSeries:
    """Real Fourier series x_i(t) = a0 + sum_k a_k cos(k w t) + b_k sin(k w t),
    w = 2 pi / period, one per coordinate (coeffs[i] = [a0, a1, b1, ...]);
    a weight is the one-coordinate case."""

    def __init__(self, coeffs, period):
        table = _padded(coeffs)
        self._const = table[0][:, None]
        self._modes = [(table[2 * k - 1][:, None], table[2 * k][:, None]) for k in range(1, len(table) // 2 + 1)]
        # The jet scales the top mode's coefficients by (k w)^3; a period of 0
        # makes it inf, or nan without modes.
        period, top = float(period), len(self._modes)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            cube = (top * (2.0 * np.pi / np.float64(period))) ** 3
        if not (np.isfinite(period) and np.isfinite(cube)):
            raise ValueError(f"Fourier period must be finite and nonzero with (k w)^3 finite at the top mode "
                             f"k = {top}, got {period}")
        self.omega = 2.0 * np.pi / period

    def orders(self, t, orders):
        # Per mode, one cos/sin pass and the two combinations every order
        # reads, even = a cos + b sin and odd = b cos - a sin: d/dt rotates
        # (cos, sin) a quarter period per order, so order n adds even, odd,
        # -even, -odd (n mod 4 = 0, 1, 2, 3) times (k w)^n. Each mode updates
        # all coordinates at once in (d, N) order.
        accs = [np.zeros((len(self._const), t.size)) for _ in orders]
        for order, acc in zip(orders, accs):
            if order == 0:
                acc += self._const
        parities = {order % 2 for order in orders}
        for k, (ak, bk) in enumerate(self._modes, 1):
            w = k * self.omega
            ph = w * t
            cos, sin = np.cos(ph), np.sin(ph)
            if 0 in parities:
                even = ak * cos
                even += bk * sin
            if 1 in parities:
                odd = bk * cos
                odd -= ak * sin
            for order, acc in zip(orders, accs):
                x = even if order % 2 == 0 else odd
                if order:
                    # The sign rides on the factor: -(x w^n) rounds as x (-w^n).
                    x = x * (w**order if order % 4 < 2 else -(w**order))
                acc += x
        # C-contiguous (N, d) arrays: `util._coord_sum` adds the same bits in
        # any layout, but `expmap._rowdot`'s matmul rows take another kernel
        # on strided rows (d >= 4) and round differently.
        return [np.ascontiguousarray(acc.T) for acc in accs]


class _ChebyshevSeries:
    """Chebyshev series x_i(t) = sum_k c_ik T_k(off + scl t), one per
    coordinate, where off + scl t maps the domain onto [-1, 1] as numpy's
    `Chebyshev` class does; the derivative tables are its `deriv` tables."""

    def __init__(self, coeffs, domain):
        table = _padded(coeffs)
        self._off, self._scl = pu.mapparms(np.array(domain, dtype=float), npcheb.chebdomain)
        self._tables = [table] + [npcheb.chebder(table, m, self._scl) for m in range(1, 4)]

    def orders(self, t, orders):
        # chebval's Clenshaw recurrence runs on every column of a table at
        # once, with the operations it does on one column alone.
        x = self._off + self._scl * t
        return [np.ascontiguousarray(npcheb.chebval(x, self._tables[order]).T) for order in orders]


def _series_rows(coefficients, basis):
    """A series curve's coefficient rows as 1-D float arrays: two or more, all finite."""
    coeffs = [np.asarray(c, dtype=float) for c in coefficients]
    if len(coeffs) < 2:
        raise NonRegularCurveError("need at least 2 coordinates")
    if any(c.ndim != 1 for c in coeffs):
        raise NonRegularCurveError(f"each {basis} coordinate needs a flat list of coefficients")
    if not all(np.all(np.isfinite(c)) for c in coeffs):
        raise NonRegularCurveError(f"non-finite {basis} coefficients")
    return coeffs


class FourierCurve(_RawCurve):
    """Closed curve with one real Fourier series per coordinate.

    coefficients[i] = [a0, a1, b1, a2, b2, ...] meaning
    x_i(t) = a0 + sum_k a_k cos(k w t) + b_k sin(k w t), w = 2 pi / period.
    """

    def __init__(self, coefficients, period=2.0 * np.pi):
        coeffs = _series_rows(coefficients, "Fourier")
        if any(c.size < 3 or c.size % 2 == 0 for c in coeffs):
            raise NonRegularCurveError("each coordinate needs [a0, a1, b1, ...]")
        super().__init__(_FourierSeries(coeffs, period), True, (0.0, float(period)))


class ChebyshevCurve(_RawCurve):
    """Open arc with one Chebyshev series per coordinate on [t0, t1]."""

    def __init__(self, coefficients, raw_domain):
        coeffs = _series_rows(coefficients, "Chebyshev")
        if any(c.size < 2 for c in coeffs):
            raise NonRegularCurveError("truncation order must be >= 1")
        dom = _finite_pair(raw_domain, "raw_domain")
        super().__init__(_ChebyshevSeries(coeffs, dom), False, dom)


class EllipseCurve(FourierCurve):
    """Ellipse (a cos t, b sin t), reparametrized by arclength."""

    _TABLE_N = 2048
    _LENGTH_TOL = 1e-12

    def __init__(self, a=2.0, b=1.0):
        if a <= 0 or b <= 0:
            raise NonRegularCurveError("ellipse semi-axes must be positive")
        self.a, self.b = float(a), float(b)
        super().__init__([[0.0, a, 0.0], [0.0, 0.0, b]], period=2.0 * np.pi)


# ---------------------------------------------------------------------------
# Curvature-profile curves (planar): used for the stadium preset
# ---------------------------------------------------------------------------


class _Piece:
    """One maximal piece of a curvature profile on [s0, s1].

    kind 'const': kappa = k0, of shape 'line' where k0 = 0 and 'arc' otherwise.
    kind 'step':  kappa = k0 + (k1 - k0) * S((s - s0) / (s1 - s0)) with the
    quintic smoothstep S, so the profile is C^2 and the curve C^4.
    The walk sets the start state theta0, x0, y0 and cos0, sin0 of theta0.
    """

    FIELDS = ("s0", "s1", "k0", "k1", "theta0", "x0", "y0", "cos0", "sin0")
    __slots__ = ("kind", "shape") + FIELDS

    def __init__(self, s0, s1, kind, k0, k1):
        self.s0, self.s1, self.kind, self.k0, self.k1 = s0, s1, kind, k0, k1
        self.shape = "step" if kind == "step" else "arc" if k0 != 0.0 else "line"


class CurvatureProfileCurve(ArclengthCurve):
    """Planar closed arclength-native curve defined by a piecewise curvature
    profile over its first half, symmetric about the x-axis.

    The half starts at (1, 0) heading along +y. The tangent angle is the
    exact integral of kappa (piecewise polynomial), positions use closed
    forms on constant pieces and Gauss-Legendre on the short smoothstep
    transitions. Only [0, L/2] is stored; s in [L/2, L] is evaluated by
    mirror symmetry about the x-axis. The walked pieces' constants form one
    table, a column per piece, that the jets gather per foot.
    """

    _GL_N = 24
    _SHAPES = ("arc", "line", "step")

    def __init__(self, pieces):
        self._pieces = pieces
        self._walk(pieces, (1.0, 0.0, np.pi / 2.0))
        super().__init__(2, 2.0 * pieces[-1].s1, True, 0.0)
        self._table = np.array([[getattr(p, f) for p in pieces] for f in _Piece.FIELDS])
        self._shapes = np.array([self._SHAPES.index(p.shape) for p in pieces])
        self._ends = np.array([p.s1 for p in pieces[:-1]])  # past them all: the last piece

    def _walk(self, pieces, state):
        """Set the pieces' start states from `state` = (x, y, theta) on; returns the end state."""
        if any(p.s1 <= p.s0 for p in pieces):
            raise NonRegularCurveError("a curvature-profile piece has zero width")
        x, y, th = state
        for p in pieces:
            p.theta0, p.x0, p.y0, p.cos0, p.sin0 = th, x, y, np.cos(th), np.sin(th)
            th, x, y = self._piece_jet(p.shape, p, p.s1, 0)[:3]
        return x, y, th

    def _piece_jet(self, shape, p, s, order):
        """(theta, x, y, cos theta, sin theta, kappa, kappa') at the feet s of
        pieces of one shape (a transition leaves those above `order` None); p
        holds the pieces' constants (see _Piece), scalars or one per foot.
        Positions are closed forms on lines and arcs, where the position's cos
        and sin of theta (theta0 on a line) serve the tangent, and
        Gauss-Legendre over [s0, s] on transitions. The walk and the jets
        share it."""
        ds = s - p.s0
        if shape == "line":
            return p.theta0 + p.k0 * ds, p.x0 + ds * p.cos0, p.y0 + ds * p.sin0, p.cos0, p.sin0, p.k0, 0.0
        if shape == "arc":
            th = p.theta0 + p.k0 * ds
            cos, sin = np.cos(th), np.sin(th)
            return th, p.x0 + (sin - p.sin0) / p.k0, p.y0 + (-cos + p.cos0) / p.k0, cos, sin, p.k0, 0.0
        w, dk = p.s1 - p.s0, p.k1 - p.k0

        def turn(d, k0, dkw, w):  # theta - theta0 at d = s - s0
            return k0 * d + dkw * quintic_smoothstep_int(d / w)

        # The nodes on [s0, s] run along a last axis, so the constants get one.
        nodes, wts = gauss_legendre(self._GL_N)
        s0, th0, k0, dkw, wc = (np.asarray(a)[..., None] for a in (p.s0, p.theta0, p.k0, dk * w, w))
        tt = th0 + turn(s0 + np.asarray(ds)[..., None] * nodes - s0, k0, dkw, wc)
        th = p.theta0 + turn(ds, p.k0, dk * w, w)
        x = p.x0 + (np.cos(tt) * wts).sum(axis=-1) * ds
        y = p.y0 + (np.sin(tt) * wts).sum(axis=-1) * ds
        cos, sin = (np.cos(th), np.sin(th)) if order >= 1 else (None, None)
        k = p.k0 + dk * quintic_smoothstep(ds / w) if order >= 2 else None
        kr = dk / w * quintic_smoothstep_d1(ds / w) if order >= 3 else None
        return th, x, y, cos, sin, k, kr

    def _jet(self, s, order):
        """The feet of each piece shape at once, each with its own piece's
        constants, on the stored half [0, L/2]; mirrored beyond it."""
        hi = s > self.length / 2.0
        s = np.where(hi, self.length - s, s)
        j = np.searchsorted(self._ends, s, side="left")
        shapes = self._shapes[j]
        outs = [np.empty(s.shape + (2,)) for _ in range(order + 1)]
        for code, shape in enumerate(self._SHAPES):
            feet = np.flatnonzero(shapes == code)
            if not len(feet):
                continue
            p = SimpleNamespace(**dict(zip(_Piece.FIELDS, np.take(self._table, j[feet], axis=1))))
            _, x, y, cos, sin, k, kr = self._piece_jet(shape, p, s[feet], order)
            outs[0][feet, 0], outs[0][feet, 1] = x, y
            if order >= 1:
                outs[1][feet, 0], outs[1][feet, 1] = cos, sin
            if order >= 2:
                outs[2][feet, 0], outs[2][feet, 1] = -k * sin, k * cos
            if order >= 3:
                outs[3][feet, 0], outs[3][feet, 1] = -kr * sin - k * k * cos, kr * cos - k * k * sin
        # Mirror about the x-axis: gamma(L-s) = M gamma(s), M = diag(1,-1);
        # odd derivative orders pick up an extra overall sign, so y changes
        # sign on even orders and x on odd ones.
        sign = np.where(hi, -1.0, 1.0)
        for n, out in enumerate(outs):
            out[:, (n + 1) % 2] *= sign
        return tuple(outs)


def make_stadium(circle_turn=0.3, transition=0.05, line_length=7.0):
    """Smoothed stadium: exact unit-circle arc |s| <= circle_turn, straight
    sides, and a far cap whose curvature is solved so the curve closes."""
    p1 = float(circle_turn)
    d2 = 2.0 * float(transition)
    ell = float(line_length)
    if p1 <= 0 or transition <= 0 or ell <= 0:
        raise NonRegularCurveError("stadium parameters must be positive")
    s1, s2 = p1, p1 + d2
    s3, s4 = s2 + ell, s2 + ell + d2
    turn_fixed = p1 + 0.5 * d2  # circle + down-transition turning

    def cap(kappa2):  # the pieces kappa2 sets: the up-transition and the cap
        cap_turn = np.pi - turn_fixed - kappa2 * 0.5 * d2
        if cap_turn <= 0:
            raise NonRegularCurveError("stadium cap turn is non-positive")
        s5 = s4 + cap_turn / kappa2
        return [_Piece(s3, s4, "step", 0.0, kappa2), _Piece(s4, s5, "const", kappa2, kappa2)]

    def build(kappa2):
        return CurvatureProfileCurve([
            _Piece(0.0, s1, "const", 1.0, 1.0), _Piece(s1, s2, "step", 1.0, 0.0),
            _Piece(s2, s3, "const", 0.0, 0.0)] + cap(kappa2))

    # The root finder's first trial, the bracket's lower end, is built whole: it
    # raises what any build would. Each trial then walks only the cap pieces.
    first = build(1e-3)
    start = (first._pieces[3].x0, first._pieces[3].y0, first._pieces[3].theta0)

    def end_y(kappa2):
        return np.array([first._walk(cap(float(k)), start)[1] for k in kappa2])

    try:
        kappa2 = float(brent_rows(end_y, 1e-3, 0.9, 1e-14, 1e-15)[0])
    except (ValueError, RuntimeError) as exc:  # no sign change, nan, or no convergence
        raise NonRegularCurveError(f"stadium cap curvature not solved on [0.001, 0.9]: {exc}") from exc
    return build(kappa2)


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


# The circle kinds pin `closed`: a full loop, or an open arc of any length.
def _unit_circle(ambient_dim=2):
    return CircleArcCurve(0.0, 2.0 * np.pi, ambient_dim, closed=True)


def _circle_arc(s_start, s_end, ambient_dim=2):
    return CircleArcCurve(s_start, s_end, ambient_dim, closed=False)


# Each kind's constructor owns its parameters and their defaults.
CURVE_KINDS = {
    "fourier": FourierCurve,
    "chebyshev": ChebyshevCurve,
    "unit_circle": _unit_circle,
    "circle_arc": _circle_arc,
    "ellipse": EllipseCurve,
    "stadium": make_stadium,
    "segment": SegmentCurve,
}


def build_arclength_curve(kind, **params):
    """Build a component by kind: `CURVE_KINDS[kind](**params)`, so a
    parameter the kind does not take raises TypeError.

    Raises NonRegularCurveError / QuadratureFailureError per the contracts.
    """
    if kind not in CURVE_KINDS:
        raise NonRegularCurveError(f"unknown curve kind {kind!r}")
    return CURVE_KINDS[kind](**params)
