"""Writes the erfcx coefficient table of ``rateorank.models`` (``_ERFCX``).

Following Shepherd & Laframboise (*Math. Comp.* 36, 1981), (1 + 2x) erfcx(x),
with erfcx(x) = exp(x^2) erfc(x), is smooth in t = (x - K) / (x + K), K = 3.75,
which maps x in [0, inf) onto t in [-1, 1).  The table interpolates it at the
28 Chebyshev points of [-1, 1] and rewrites the interpolant in powers of t:
one polynomial of degree 27, whose Chebyshev coefficients have fallen to 2e-20
by then.  The reference values come from ``decimal`` at 60 digits: for x < 2.5
the series erfcx(x) = exp(x^2) - (2 / sqrt pi) sum_n x (2x^2)^n / (2n + 1)!!,
and beyond it the continued fraction
erfcx(x) = 1 / (sqrt pi (x + (1/2) / (x + 1 / (x + (3/2) / (x + ...))))).

Stdlib only.  ``python tests/erfcx_table.py`` prints the table, one row of
seven coefficients (t^(7k) ... t^(7k + 6)) per line.
"""

from decimal import Decimal, localcontext

K = Decimal("3.75")
DEGREE = 27
DIGITS = 60
# Below this x the series; at and above it the continued fraction, cut after this many terms.
SERIES_BELOW = Decimal("2.5")
FRACTION_TERMS = 4000


def _pi() -> Decimal:
    """pi to the context precision (the ``decimal`` documentation's recipe)."""
    with localcontext() as ctx:
        ctx.prec += 2
        last, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != last:
            last = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _cos(x: Decimal) -> Decimal:
    """cos x to the context precision by its Taylor series (the ``decimal`` documentation's recipe)."""
    with localcontext() as ctx:
        ctx.prec += 2
        i, last, s, fact, num, sign = 0, 0, 1, 1, 1, 1
        while s != last:
            last = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            s += num / fact * sign
    return +s


def erfcx(x: Decimal, sqrt_pi: Decimal) -> Decimal:
    """exp(x^2) erfc(x) for x >= 0 to about ``DIGITS`` digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 20  # the series cancels about log10(exp(x^2)) digits
        if x < SERIES_BELOW:
            term = total = x
            n = 0
            while term > Decimal(10) ** -(DIGITS + 15):
                n += 1
                term = term * 2 * x * x / (2 * n + 1)
                total += term
            result = (x * x).exp() - 2 * total / sqrt_pi
        else:
            tail = x
            for k in range(FRACTION_TERMS, 0, -1):
                tail = x + (Decimal(k) / 2) / tail
            result = 1 / (sqrt_pi * tail)
    return +result


def coefficients() -> list[float]:
    """The 28 coefficients of t^0 ... t^27, rounded to floats."""
    n = DEGREE + 1
    with localcontext() as ctx:
        ctx.prec = DIGITS
        pi = _pi()
        sqrt_pi = pi.sqrt()
        angles = [pi * (2 * j + 1) / (2 * n) for j in range(n)]
        nodes = [_cos(a) for a in angles]
        values = [(1 + 2 * x) * erfcx(x, sqrt_pi) for x in (K * (1 + t) / (1 - t) for t in nodes)]
        # Chebyshev coefficients of the interpolant, then the sum of c_k T_k(t) in powers of t.
        cheb = [2 * sum(v * _cos(k * a) for v, a in zip(values, angles)) / n for k in range(n)]
        cheb[0] /= 2
        powers = [Decimal(0)] * n
        before, current = [Decimal(1)] + [Decimal(0)] * (n - 1), [Decimal(0), Decimal(1)] + [Decimal(0)] * (n - 2)
        for k, c in enumerate(cheb):
            if k >= 2:  # T_k = 2t T_(k-1) - T_(k-2)
                before, current = current, [2 * (current[i - 1] if i else 0) - before[i] for i in range(n)]
            chebyshev_k = before if k == 0 else current
            powers = [p + c * b for p, b in zip(powers, chebyshev_k)]
    return [float(p) for p in powers]


if __name__ == "__main__":
    table = coefficients()
    for row in range(0, len(table), 7):
        print(", ".join(repr(c) for c in table[row:row + 7]))
