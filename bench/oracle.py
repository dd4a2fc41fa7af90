"""Independent high-precision check of groverlab CSV output.

Every expected value is computed with mpmath at 50 digits from the kernel's
definition, not from the library's formulas: the reduced kernel is the
product G2 G1 of the two reflections written in the (|x0>, |xp>) basis, with
G1 = diag(alpha, beta) and G2 = delta + (gamma - delta) |u><u|, alpha = gamma
= -1 and |u> = (1/sqrt(N), sqrt((N-1)/N)).  The oracle takes its inputs
from the cells the program printed (17 significant digits, so they are the
program's own doubles) and checks the printed grid coordinates separately.

Tolerances are the ones README.md documents for composed quantities: 1e-10
(absolute for probabilities and angles, relative for phase gaps); step
counts must match exactly, and a peak step passes when the oracle
probability at that step is within 1e-12 of the oracle peak, so exact ties
are not counted.  A cell beyond its tolerance is a mismatch.  A cell that is
wrong by more than 1e-6 (relative to the value when that exceeds 1) is a
gross error and makes the output incorrect; step counts floored from a
computed quantity carry no gross check, because flooring turns any error in
that quantity into a whole step, and the quantity itself is checked.
"""

from __future__ import annotations

import math

from mpmath import mp, mpc, mpf

mp.dps = 50

TOL = 1e-10
PEAK_TIE_TOL = 1e-12
GROSS_TOL = 1e-6
DEGENERACY_TOL = 1e-12  # groverlab.spectral: closer eigenvalues are one level

HEADERS = {
    "trace": "m,prob",
    "sweep": "beta_phase,delta_phase,g_abs,peak_prob,peak_step,pred_M",
    "spectrum": "beta_phase,delta_phase,det_re,det_im,trace_re,trace_im,"
                "eigphase1,eigphase2,phase_gap,diag_gap_re,diag_gap_im,"
                "m_exact,m_asymptotic,m_stability,degenerate",
    "manifold": "angle1,angle2,kernel_angle,axis_x,axis_y,axis_z,"
                "global_phase,grover_point,equal_angles",
}

# Rows checked per output.  A sweep row costs m_max oracle steps.
SAMPLE = {"trace": 400, "sweep": 64, "spectrum": 400, "manifold": 400}


class Tally:
    """Checked, mismatched and grossly wrong cells per output column."""

    def __init__(self):
        self.columns: dict[str, list] = {}  # column -> [checked, bad, gross, worst]
        self.malformed: list[str] = []

    @property
    def checked(self) -> int:
        return sum(c[0] for c in self.columns.values())

    @property
    def mismatched(self) -> int:
        return sum(c[1] for c in self.columns.values())

    @property
    def gross(self) -> int:
        return sum(c[2] for c in self.columns.values())

    @property
    def correct(self) -> bool:
        return not self.malformed and self.gross == 0

    def _count(self, column, err, tol, gross_err):
        c = self.columns.setdefault(column, [0, 0, 0, 0.0])
        c[0] += 1
        if not err <= tol:
            c[1] += 1
        if gross_err is not None and not gross_err <= GROSS_TOL:
            c[2] += 1
        c[3] = max(c[3], err) if err == err else math.inf

    def real(self, column, text, want, relative=False, angle=False):
        """A float cell; ``angle`` compares on the circle."""
        try:
            got = float(text)
        except ValueError:
            self._count(column, math.inf, TOL, math.inf)
            return
        diff = got - want
        if angle:
            diff -= 2 * mp.pi * mp.nint(diff / (2 * mp.pi))
        err = abs(diff)
        scale = max(abs(want), 1)
        rel_err = err / abs(want) if relative and want != 0 else err
        self._count(column, float(rel_err), TOL, float(err / scale))

    def exact(self, column, text, want: str, gross=False):
        """A cell that must read exactly ``want``; the error of two integers
        is their difference, of anything else 0 or infinite."""
        try:
            err = float(abs(int(text) - int(want)))
        except ValueError:
            err = 0.0 if text == want else math.inf
        self._count(column, err, 0.0, err if gross else None)

    def peak_step(self, column, text, probs, peak):
        """Tie-aware: the oracle P at the printed step is within 1e-12 of the peak."""
        try:
            step = int(text)
            err = float(peak - probs[step]) if 0 <= step < len(probs) else math.inf
        except ValueError:
            err = math.inf
        self._count(column, err, PEAK_TIE_TOL, err)


def _wrap(t):
    """Principal angle in (-pi, pi]."""
    w = t - 2 * mp.pi * mp.floor((t + mp.pi) / (2 * mp.pi))
    return w + 2 * mp.pi if w <= -mp.pi else w


def _circle_dist(a, b) -> float:
    return abs(math.remainder(float(a - b), 2 * math.pi))


def _phase(t):
    return mp.expj(mpf(t))


def reduced_kernel(beta, delta, n):
    """G2 G1 on the search plane, as a 2x2 nested list of mpc."""
    u0, u1 = 1 / mp.sqrt(n), mp.sqrt(mpf(n - 1) / n)
    alpha = gamma = mpc(-1)
    g2 = [[delta + (gamma - delta) * u0 * u0, (gamma - delta) * u0 * u1],
          [(gamma - delta) * u1 * u0, delta + (gamma - delta) * u1 * u1]]
    return [[g2[0][0] * alpha, g2[0][1] * beta],
            [g2[1][0] * alpha, g2[1][1] * beta]]


def check_trace(opts, rows, picks, tally, label):
    """Textbook kernel from the uniform start: P(m) = sin^2((2m+1) theta), sin theta = 1/sqrt(N)."""
    theta = mp.asin(1 / mp.sqrt(int(opts["n"])))
    for r in picks:
        cells = rows[r].split(",")
        tally.exact(f"{label}.m", cells[0], str(r), gross=True)
        tally.real(f"{label}.prob", cells[1], mp.sin((2 * r + 1) * theta) ** 2)


def check_sweep(opts, rows, picks, tally, label):
    p, q = (int(x) for x in opts["grid"].split("x"))
    n, m_max = int(opts["n"]), int(opts["m-max"])
    b0, d0 = mpf(opts["beta-phase"]), mpf(opts["delta-phase"])
    for r in picks:
        i, j = divmod(r, q)
        cells = rows[r].split(",")
        want_b, want_d = _wrap(b0 + 2 * mp.pi * i / p), _wrap(d0 + 2 * mp.pi * j / q)
        tally.real(f"{label}.beta_phase", cells[0], want_b, angle=True)
        tally.real(f"{label}.delta_phase", cells[1], want_d, angle=True)
        bp, dp = float(cells[0]), float(cells[1])
        beta, delta = _phase(bp), _phase(dp)
        tally.real(f"{label}.g_abs", cells[2], abs(beta - delta))
        k = reduced_kernel(beta, delta, n)
        v0, v1 = 1 / mp.sqrt(n), mp.sqrt(mpf(n - 1) / n)  # the uniform start
        probs = [abs(v0) ** 2]
        for _ in range(m_max):
            v0, v1 = k[0][0] * v0 + k[0][1] * v1, k[1][0] * v0 + k[1][1] * v1
            probs.append(abs(v0) ** 2)
        peak = max(probs)
        tally.real(f"{label}.peak_prob", cells[3], peak)
        tally.peak_step(f"{label}.peak_step", cells[4], probs, peak)
        pred = ""
        on_diagonal = abs(_wrap(want_b - want_d)) < mpf(10) ** -40
        if on_diagonal and abs(mpf(dp)) < mp.pi:
            pred = str(int(mp.floor(mp.pi * mp.sqrt(n) / (4 * mp.cos(mpf(dp) / 2)))))
        tally.exact(f"{label}.pred_M", cells[5], pred)


def check_spectrum(opts, rows, picks, tally, label):
    p, n = int(opts["grid"]), int(opts["n"])
    for r in picks:
        cells = rows[r].split(",")
        t = _wrap(-mp.pi + 2 * mp.pi * r / (p - 1))
        tally.real(f"{label}.beta_phase", cells[0], t, angle=True)
        tally.real(f"{label}.delta_phase", cells[1], t, angle=True)
        k = reduced_kernel(_phase(float(cells[0])), _phase(float(cells[1])), n)
        tr = k[0][0] + k[1][1]
        det = k[0][0] * k[1][1] - k[0][1] * k[1][0]
        root = mp.sqrt(tr * tr - 4 * det)
        z1, z2 = (tr - root) / 2, (tr + root) / 2
        w1, w2 = mp.arg(z1), mp.arg(z2)
        degenerate = abs(z1 - z2) <= DEGENERACY_TOL
        gap = 0 if degenerate else min(abs(w2 - w1), 2 * mp.pi - abs(w2 - w1))
        # The program orders the pair by eigenvector character; compare the
        # pair in whichever order matches better.
        got1 = float(cells[6])
        if _circle_dist(got1, w1) > _circle_dist(got1, w2):
            w1, w2 = w2, w1
        tally.real(f"{label}.eigphase1", cells[6], w1, angle=True)
        tally.real(f"{label}.eigphase2", cells[7], w2, angle=True)
        tally.real(f"{label}.phase_gap", cells[8], gap, relative=True)
        tally.exact(f"{label}.m_exact", cells[11],
                    "" if degenerate else str(int(mp.floor(mp.pi / gap))))


def check_manifold(opts, rows, picks, tally, label):
    """Kernel -R(t2, a2) R(t1, a1): its rotation angle is acos of minus the half
    trace of R(t2, a2) R(t1, a1), which is cos t1 cos t2 - a1.a2 sin t1 sin t2;
    the reflection axes a1, a2 are the Bloch vectors of |x0> and |u>, so
    a1.a2 = 2/n - 1."""
    p, q = (int(x) for x in opts["grid"].split("x"))
    n = int(opts.get("n", 10))
    for r in picks:
        i, j = divmod(r, q)
        cells = rows[r].split(",")
        tally.real(f"{label}.angle1", cells[0], mp.pi / 2 + 2 * mp.pi * i / p, angle=True)
        tally.real(f"{label}.angle2", cells[1], mp.pi / 2 + 2 * mp.pi * j / q, angle=True)
        t1, t2 = mpf(float(cells[0])), mpf(float(cells[1]))
        dot = mpf(2) / n - 1
        half_trace = mp.cos(t1) * mp.cos(t2) - dot * mp.sin(t1) * mp.sin(t2)
        tally.real(f"{label}.kernel_angle", cells[2], mp.acos(-half_trace))


CHECKS = {"trace": check_trace, "sweep": check_sweep,
          "spectrum": check_spectrum, "manifold": check_manifold}


def expected_rows(command, opts) -> int:
    if command == "trace":
        return int(opts["m-max"]) + 1
    if command == "spectrum":
        return int(opts["grid"])
    p, q = (int(x) for x in opts["grid"].split("x"))
    return p * q


def check_output(label, command, opts, path, rng, tally) -> None:
    """Check the header, the row count and a seeded sample of rows of one CSV."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except OSError as exc:
        tally.malformed.append(f"{label}: cannot read output ({exc})")
        return
    lines = text.split("\n")
    if lines[-1] != "":
        tally.malformed.append(f"{label}: output does not end with a newline")
        return
    header, rows = lines[0], lines[1:-1]
    if header != HEADERS[command]:
        tally.malformed.append(f"{label}: header {header!r}")
        return
    want = expected_rows(command, opts)
    if len(rows) != want:
        tally.malformed.append(f"{label}: {len(rows)} rows, expected {want}")
        return
    width = header.count(",") + 1
    picks = sorted(rng.sample(range(want), min(SAMPLE[command], want)))
    if any(rows[r].count(",") + 1 != width for r in picks):
        tally.malformed.append(f"{label}: a sampled row does not have {width} cells")
        return
    CHECKS[command](opts, rows, picks, tally, label)
