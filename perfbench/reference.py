"""Both sides of a certificate's inequality, recomputed in mpmath at 50 digits.

This route shares no code with polybound's kernels: real roots come from
mpmath's polyroots, integrals from the exact antiderivative, and sups from
the endpoints and the critical points. The side formulas are the
inequalities each certificate kind states (see the polybound README).
"""

from __future__ import annotations

import math

import mpmath

DPS = 50
# Roots with an imaginary part below this are kept as candidate split and
# critical points. A spurious candidate never changes an integral of |p| or
# raises a sup, so the threshold only has to be generous.
IMAG_TOL = 1e-8


def _trim(coeffs):
    c = [mpmath.mpf(x) for x in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _real_roots(c, lo, hi):
    """Real roots of the ascending coefficient list c strictly inside (lo, hi)."""
    if len(c) <= 1:
        return []
    if len(c) == 2:
        roots = [-c[0] / c[1]]
    else:
        roots = mpmath.polyroots(c[::-1], maxsteps=400, extraprec=4 * DPS)
    out = []
    for r in roots:
        re, im = mpmath.re(r), mpmath.im(r)
        if abs(im) <= IMAG_TOL * (1 + abs(re)) and lo < re < hi:
            out.append(re)
    return sorted(out)


def _derivative(c, order):
    for _ in range(order):
        if len(c) <= 1:
            return [mpmath.mpf(0)]
        c = [c[i] * i for i in range(1, len(c))]
    return c


def _abs_integral(c, lo, hi):
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    if hi <= lo:
        return mpmath.mpf(0)
    anti = [mpmath.mpf(0)] + [c[i] / (i + 1) for i in range(len(c))]
    pts = [lo] + _real_roots(c, lo, hi) + [hi]
    vals = [mpmath.polyval(anti[::-1], x) for x in pts]
    return sum(abs(b - a) for a, b in zip(vals, vals[1:]))


def _sup_abs(c, lo, hi):
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    pts = [lo, hi] + _real_roots(_derivative(c, 1), lo, hi)
    return max(abs(mpmath.polyval(c[::-1], x)) for x in pts)


def _integral_dmu(c, mu_json):
    if "uniform" in mu_json:
        parts = mu_json["uniform"]["parts"]
        total = sum(mpmath.mpf(hi) - mpmath.mpf(lo) for lo, hi in parts)
        return sum(_abs_integral(c, lo, hi) for lo, hi in parts) / total
    return sum(
        mpmath.mpf(w) * abs(mpmath.polyval(c[::-1], mpmath.mpf(x)))
        for x, w in mu_json["atoms"]
    )


def sides(cert_json: dict, coeffs) -> tuple[float, list[float]]:
    """(lhs, [rhs for each j of the certificate]) for one t-basis coefficient row."""
    with mpmath.workdps(DPS):
        c = _trim(coeffs)
        kind = cert_json["kind"]
        const = mpmath.mpf(cert_json["constant"])
        region = cert_json["region"]["parts"]
        lhs = _integral_dmu(c, cert_json["mu"])
        if kind == "theorem0":
            ksz = sum(mpmath.mpf(hi) - mpmath.mpf(lo) for lo, hi in cert_json["K"]["parts"])
            lhs = ksz * lhs
            rhs = [
                const * ksz ** (j + 1)
                * max(_sup_abs(_derivative(c, j), lo, hi) for lo, hi in region)
                for j in cert_json["j"]
            ]
        elif kind == "theorem2":
            rhs = [const * max(_sup_abs(c, lo, hi) for lo, hi in region)]
        elif kind == "corollary":
            (lo, hi), = region
            length = mpmath.mpf(hi) - mpmath.mpf(lo)
            lnorm = cert_json.get("lnorm")
            scale = length if lnorm is None else min(length, mpmath.mpf(lnorm))
            rhs = [
                const * scale**j * _sup_abs(_derivative(c, j), lo, hi)
                for j in cert_json["j"]
            ]
        elif kind == "theorem1":
            n = cert_json["n"]
            lead = abs(c[n]) if len(c) > n else mpmath.mpf(0)
            rhs = [const * mpmath.mpf(cert_json["ell"]) ** n * math.factorial(n) * lead]
        else:
            raise ValueError(f"unknown certificate kind {kind!r}")
        return float(lhs), [float(r) for r in rhs]
