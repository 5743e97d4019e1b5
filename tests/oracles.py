"""Independent brute-force oracles used to freeze expected test values.

Everything here is plain Python over itertools, math and fractions,
deliberately avoiding the library's numpy internals: products of holding
period returns, log series via explicit loops, expectations by full path
enumeration, exact rationals where a sign must not depend on rounding.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def dot(row, phi):
    return sum(a * b for a, b in zip(row, phi))


def hprs(returns, phi):
    return [1.0 + dot(row, phi) for row in returns]


def log_twr(returns, phi, omega):
    """Sum of log holding period returns along a 1-based path (-inf on a wipeout)."""
    total = 0.0
    for i in omega:
        h = 1.0 + dot(returns[i - 1], phi)
        if h <= 0.0:
            return -math.inf
        total += math.log(h)
    return total


def prefix_logs(returns, phi, omega):
    out = []
    total = 0.0
    for i in omega:
        h = 1.0 + dot(returns[i - 1], phi)
        if h <= 0.0:
            total = -math.inf
        else:
            total += math.log(h)
        out.append(total)
    return out


def downtrade(returns, phi, omega):
    return min(0.0, log_twr(returns, phi, omega))


def uptrade(returns, phi, omega):
    return max(0.0, log_twr(returns, phi, omega))


def current_drawdown(returns, phi, omega):
    """Running-maximum form: terminal log wealth minus the clipped peak."""
    prefix = prefix_logs(returns, phi, omega)
    if prefix[-1] == -math.inf:
        return -math.inf
    return prefix[-1] - max(0.0, max(prefix))


def runup(returns, phi, omega):
    return max(0.0, max(prefix_logs(returns, phi, omega)))


def all_paths(n, draws):
    return itertools.product(range(1, n + 1), repeat=draws)


def path_prob(probs, omega):
    out = 1.0
    for i in omega:
        out *= probs[i - 1]
    return out


def expectation(returns, probs, phi, draws, path_fn):
    total = 0.0
    for omega in all_paths(len(returns), draws):
        total += path_prob(probs, omega) * path_fn(returns, phi, omega)
    return total


def log_gamma(returns, probs, phi):
    return sum(p * math.log(h) for p, h in zip(probs, hprs(returns, phi)))


def topping_point(values):
    """First 1-based index of the strictly positive maximum of prefix values."""
    best = max(values)
    if best <= 0.0:
        return 0
    for j, v in enumerate(values, start=1):
        if v == best:
            return j
    raise AssertionError("unreachable")


def linear_prefix(returns, theta, omega):
    """Vector-first prefix sums: accumulate the row vectors exactly (fsum per
    component), then project onto theta, so cancelling row combinations give
    exact ties."""
    m = len(returns[0])
    out = []
    for j in range(1, len(omega) + 1):
        vec = [math.fsum(returns[i - 1][c] for i in omega[:j]) for c in range(m)]
        out.append(dot(vec, theta))
    return out


def exact_topping_flag(returns, phi, theta, draws):
    """Whether the compounded and linear topping points agree on every path, exactly.

    The holding period returns 1 + <t_i, phi> and the linear steps
    <t_i, theta> are the exact rationals of the float inputs.  A path's
    compounded topping point is the first index of the maximum of its HPR
    products when that exceeds 1, else 0; its linear one is that of the exact
    prefix sums.  False when some HPR is <= 0.
    """
    hprs = [1 + sum(Fraction(t) * Fraction(v) for t, v in zip(row, phi)) for row in returns]
    if min(hprs) <= 0:
        return False
    steps = [sum(Fraction(t) * Fraction(v) for t, v in zip(row, theta)) for row in returns]
    for omega in all_paths(len(returns), draws):
        wealth = itertools.accumulate((hprs[i - 1] for i in omega), lambda a, b: a * b)
        linear = itertools.accumulate(steps[i - 1] for i in omega)
        if topping_point([w - 1 for w in wealth]) != topping_point(list(linear)):
            return False
    return True


def linear_current_drawdown(returns, phi, omega):
    """Running-maximum form of the linearized current drawdown along a path."""
    prefix = []
    total = 0.0
    for i in omega:
        total += dot(returns[i - 1], phi)
        prefix.append(total)
    return prefix[-1] - max(0.0, max(prefix))


def compositions_colex(total, parts):
    """Count vectors of ``parts`` entries summing to ``total``, in colex order."""
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for head in compositions_colex(total - last, parts - 1):
            yield head + (last,)


def exact_coefficient_totals(returns, probs, theta, draws):
    """U, D, Upsilon and Lambda totals in exact rational arithmetic, path by path.

    The linear steps <t_i, theta> are the exact rationals of the float inputs.
    A path's symbols count towards D when its terminal linear outcome is <= 0
    and towards U otherwise; they count towards Upsilon up to and including
    the topping point (the first index of the strictly positive maximum of the
    linear prefix sums, 0 when none is positive) and towards Lambda after it.
    Each total is rounded to a float once, at the end.
    """
    n = len(returns)
    steps = [sum(Fraction(t) * Fraction(v) for t, v in zip(row, theta)) for row in returns]
    up, down, ups, lam = ([Fraction(0)] * n for _ in range(4))
    for omega in all_paths(n, draws):
        prob = math.prod((Fraction(probs[i - 1]) for i in omega), start=Fraction(1))
        top, best, level = 0, Fraction(0), Fraction(0)
        for j, i in enumerate(omega, start=1):
            level += steps[i - 1]
            if level > best:
                top, best = j, level
        terminal = down if level <= 0 else up
        for pos, i in enumerate(omega, start=1):
            terminal[i - 1] += prob
            (ups if pos <= top else lam)[i - 1] += prob
    return tuple([float(v) for v in vec] for vec in (up, down, ups, lam))


def exact_drawdown_tables(returns, probs, theta, draws):
    """Lambda and Upsilon by topping point in exact rational arithmetic, path by path.

    The linear steps <t_i, theta> and the probabilities are the exact
    rationals of the float inputs.  A path with topping point l (the first
    index of the strictly positive maximum of its linear prefix sums, 0 when
    none is positive) adds its probability to Upsilon[l][i] for each step up
    to and including l with symbol i, and to Lambda[l][i] for each step after
    it.  Each entry is rounded to a float once, at the end.
    """
    n = len(returns)
    steps = [sum(Fraction(t) * Fraction(v) for t, v in zip(row, theta)) for row in returns]
    ups, lam = ([[Fraction(0)] * n for _ in range(draws + 1)] for _ in range(2))
    for omega in all_paths(n, draws):
        prob = math.prod((Fraction(probs[i - 1]) for i in omega), start=Fraction(1))
        top, best, level = 0, Fraction(0), Fraction(0)
        for j, i in enumerate(omega, start=1):
            level += steps[i - 1]
            if level > best:
                top, best = j, level
        for pos, i in enumerate(omega, start=1):
            (ups if pos <= top else lam)[top][i - 1] += prob
    return tuple([[float(v) for v in row] for row in table] for table in (lam, ups))


def coefficient_log_form(coef, returns, theta, s):
    """Sum of coef_i * log(1 + s * <t_i, theta>) over the rows with a nonzero coefficient."""
    return sum(c * math.log1p(s * dot(row, theta)) for c, row in zip(coef, returns) if c)
