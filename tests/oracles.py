"""Independent brute-force oracles used to freeze expected test values.

Everything here is plain Python over itertools and math, deliberately
avoiding the library's numpy internals: products of holding period returns,
log series via explicit loops, expectations by full path enumeration.
"""

from __future__ import annotations

import itertools
import math


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
