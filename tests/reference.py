"""The 50-digit mpmath references that the reference tests share.

Nothing here imports groverlab: the references share no code with the
library they check.
"""

import numpy as np
from mpmath import mp, mpc, mpf


def reflections(beta, delta, n, alpha1=None):
    """G1 and G2 as mpmath matrices; call inside mp.workdps(50).  With
    ``alpha1`` the superposition is |u> = (alpha1, sqrt(1 - alpha1^2)) and n
    is not used."""
    alpha = gamma = mpc(-1)
    u = ((1 / mp.sqrt(n), mp.sqrt(mpf(n - 1) / n)) if alpha1 is None
         else (mpf(alpha1), mp.sqrt(1 - mpf(alpha1) ** 2)))
    g1 = mp.matrix([[alpha, 0], [0, beta]])
    g2 = mp.matrix([[delta * (i == j) + (gamma - delta) * u[i] * u[j] for j in range(2)]
                    for i in range(2)])
    return g1, g2


def _matmul(p, q):
    return [[p[i][0] * q[0][j] + p[i][1] * q[1][j] for j in range(2)] for i in range(2)]


def power(k, start, steps):
    """P(m) for every m of the ascending ``steps``, each reached from the one
    before by the repeated squares of the 2x2 mpmath kernel k, from the plane
    coordinates ``start`` (of any norm), and the kernel's folded rotation
    angle; call inside mp.workdps(50)."""
    k = [[k[i, j] for j in range(2)] for i in range(2)]
    lam = mp.arg(k[0][0] * k[1][1] - k[0][1] * k[1][0]) / 2
    angle = mp.acos(abs(mp.re((k[0][0] + k[1][1]) * mp.expj(-lam))) / 2)
    squares = [k]
    while 2 ** len(squares) <= max(steps):
        squares.append(_matmul(squares[-1], squares[-1]))
    v, at, probs = [mpc(start[0]), mpc(start[1])], 0, []
    for m in steps:
        for bit, sq in enumerate(squares):
            if (m - at) >> bit & 1:
                v = [sq[0][0] * v[0] + sq[0][1] * v[1], sq[1][0] * v[0] + sq[1][1] * v[1]]
        at = m
        probs.append(float(abs(v[0]) ** 2))
    return np.array(probs), float(angle)


def momentum_plane_start(n, y0, a, b):
    """The plane coordinates (v[0], <f|v>) of the start v = (a, b, ..., b) /
    sqrt(n) for the momentum direction k0[x] = e^{2 pi i x y0 / n} / sqrt(n)
    with the marked element at 0, where f is k0 off 0 over its norm
    c = sqrt((n - 1)/n): summed over all n entries, not taken from the
    geometric series; call inside mp.workdps(50)."""
    tail = sum((mp.expj(-2 * mp.pi * x * y0 / n) for x in range(1, n)), mpc(0))
    return mpc(a) / mp.sqrt(n), mpc(b) * tail / (n * mp.sqrt(mpf(n - 1) / n))
