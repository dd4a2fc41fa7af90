"""The 50-digit mpmath references that the reference tests share.

Nothing here imports groverlab: the references share no code with the
library they check.
"""

import functools
from types import SimpleNamespace

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


def spectrum(beta_phase, delta_phase, n, alpha1=None):
    """The spectrum of the kernel G2 G1 of phase angles (beta_phase,
    delta_phase), from 50 digits, as floats: det, trace, the eigenphases
    ``eigphases`` (a pair, in no particular order) and their eigenvectors
    ``eigvecs`` (``_eigvec``'s, None where degenerate), the gap between
    them, floor(pi / gap) as ``steps`` (None where the gap is 0), the period
    pi / gap as an mpf, and n (K00 - K11) as ``diag_gap`` (None with
    ``alpha1``).  The eigenvalues come from the quadratic formula, whose
    cancellation the 50 digits absorb; ``degenerate`` is |z1 - z2| <= 1e-12."""
    with mp.workdps(50):
        g1, g2 = reflections(mp.expj(mpf(beta_phase)), mp.expj(mpf(delta_phase)), n, alpha1)
        k = g2 * g1
        tr = k[0, 0] + k[1, 1]
        det = k[0, 0] * k[1, 1] - k[0, 1] * k[1, 0]
        root = mp.sqrt(tr * tr - 4 * det)
        z1, z2 = (tr - root) / 2, (tr + root) / 2
        gap = abs(mp.arg(z2 / z1))
        period = mp.pi / gap if gap else None
        degenerate = abs(z1 - z2) <= mpf("1e-12")
        return SimpleNamespace(
            det=complex(det), trace=complex(tr), eigphases=(float(mp.arg(z1)), float(mp.arg(z2))),
            eigvecs=None if degenerate else (_eigvec(k, z1), _eigvec(k, z2)),
            gap=float(gap), period=period, steps=None if not gap else int(mp.floor(period)),
            degenerate=degenerate,
            diag_gap=None if alpha1 is not None else complex(n * (k[0, 0] - k[1, 1])))


def _eigvec(k, z):
    """The unit eigenvector of the 2x2 mpmath kernel k for its eigenvalue z,
    as complex floats, rotated so that its second component is real positive
    (its first, where the second is below 1e-14): the longer of the columns
    (K01, z - K00) and (z - K11, K10) of the null space of k - z I."""
    cols = [(k[0, 1], z - k[0, 0]), (z - k[1, 1], k[1, 0])]
    v = max(cols, key=lambda c: abs(c[0]) ** 2 + abs(c[1]) ** 2)
    norm = mp.sqrt(abs(v[0]) ** 2 + abs(v[1]) ** 2)
    ref = v[1] if abs(v[1]) / norm > mpf("1e-14") else v[0]
    return np.array([complex(x * abs(ref) / ref / norm) for x in v])


def rotation(t, g):
    """cos t + i sin t g for a reflection g; call inside mp.workdps(50)."""
    c, s = mp.cos(mpf(t)), mp.sin(mpf(t))
    return [[c * (i == j) + 1j * s * g[i, j] for j in range(2)] for i in range(2)]


def manifold_reference(r1, r2):
    """(global phase, rotation angle, sin(angle), sin(angle) n) of -r2 r1."""
    return su2_form([[-(r2[i][0] * r1[0][j] + r2[i][1] * r1[1][j]) for j in range(2)]
                     for i in range(2)])


def su2_form(k):
    """(global phase lam, rotation angle in [0, pi], sin(angle), sin(angle) n)
    of a 2x2 unitary k = e^{i lam} (cos(angle) I + i sin(angle) n.sigma),
    given as nested lists; call inside mp.workdps(50)."""
    lam = mp.arg(k[0][0] * k[1][1] - k[0][1] * k[1][0]) / 2
    u = mp.expj(-lam)
    (a, b), (c, d) = ([x * u for x in row] for row in k)
    # Tr(W) = 2 cos(angle) and Tr(sigma_j W) = 2i sin(angle) n_j, W = e^{-i lam} K.
    sin_axis = [mp.re(t / 2j) for t in (b + c, 1j * (b - c), a - d)]
    sin = mp.sqrt(sum(x * x for x in sin_axis))
    return lam, mp.atan2(sin, mp.re(a + d) / 2), sin, sin_axis


@functools.lru_cache(maxsize=None)
def half_cos(phi):
    """cos(phi/2) at 50 digits for the printed phi."""
    with mp.workdps(50):
        return mp.cos(mpf(phi) / 2)


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
