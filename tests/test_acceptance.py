"""Acceptance suite: the headline numerical claims, one test per criterion.

Each test prints a single ``criterion NN <name>: PASS/FAIL`` line with the
measured quantity (run pytest with ``-s`` to see the lines for passing
tests; ``-v`` already gives one PASSED/FAILED line per criterion via the
test names).  Tolerances and runtime budgets are asserted, not just
reported.
"""

import math
import time

import numpy as np

from groverlab import checks
from groverlab.evolution import (InitialState, perturbed_peak_estimate, probability_trace,
                                 uniform_initial)
from groverlab.kernel import extended_reduced_kernel, reduced_kernel
from groverlab.spectral import (
    delta_omega_asymptotic,
    eigensystem,
    optimal_steps_asymptotic,
)


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {tag}{suffix}")
    return ok


def _random_phase(r):
    t = r.uniform(-np.pi, np.pi)
    return complex(np.cos(t), np.sin(t))


def test_criterion_01_maxima_counts():
    start = time.perf_counter()
    quarter = probability_trace(reduced_kernel(1j, 1j, 1000),
                                uniform_initial(1000), 1000)
    textbook = probability_trace(reduced_kernel(1.0, 1.0, 1000),
                                 uniform_initial(1000), 1000)
    elapsed = time.perf_counter() - start
    ok = (quarter.maxima_count == 14 and textbook.maxima_count == 20
          and elapsed < 1.0)
    assert _report(1, "maxima-counts", ok,
                   f"quarter={quarter.maxima_count} textbook={textbook.maxima_count} "
                   f"elapsed={elapsed:.3f}s")


def test_criterion_02_suppressed_peak_bounds():
    start = time.perf_counter()
    t1 = probability_trace(reduced_kernel(1j, 1j * np.exp(1.25j), 1000),
                           uniform_initial(1000), 1000)
    t2 = probability_trace(reduced_kernel(1j, 1j * np.exp(3j), 1000),
                           uniform_initial(1000), 1000)
    elapsed = time.perf_counter() - start
    ok = (t1.peak_prob <= 0.0021923 and t2.peak_prob <= 0.001864
          and elapsed < 1.0)
    assert _report(2, "suppressed-peak-bounds", ok,
                   f"peaks={t1.peak_prob:.7e},{t2.peak_prob:.7e} "
                   f"elapsed={elapsed:.3f}s")


def test_criterion_03_optimal_step_prediction():
    m0 = optimal_steps_asymptotic(0.0, 1000)
    t0 = probability_trace(reduced_kernel(1.0, 1.0, 1000), uniform_initial(1000), 60)
    mq = optimal_steps_asymptotic(np.pi / 2, 1000)
    tq = probability_trace(reduced_kernel(1j, 1j, 1000), uniform_initial(1000), 80)
    ok = (m0 == 24 and t0.peak_step in (24, 25) and t0.peak_prob >= 0.999
          and mq == 35 and abs(tq.peak_step - 35) <= 2)
    assert _report(3, "optimal-step-prediction", ok,
                   f"M(0)={m0} peak={t0.peak_step} P={t0.peak_prob:.6f} "
                   f"M(pi/2)={mq} peak={tq.peak_step}")


def test_criterion_04_asymptotic_gap_accuracy():
    worst = 0.0
    for phi in (0.0, np.pi / 4, -np.pi / 4, np.pi / 2, -np.pi / 2,
                3 * np.pi / 4, -3 * np.pi / 4):
        d = complex(np.cos(phi), np.sin(phi))
        for n in (10**4, 10**5):
            exact = eigensystem(reduced_kernel(d, d, n)).phase_gap
            approx = delta_omega_asymptotic(d, n)
            worst = max(worst, abs(approx - exact) / exact)
    ok = worst <= 0.02
    assert _report(4, "asymptotic-gap-accuracy", ok, f"worst rel err={worst:.5f}")


def test_criterion_05_exact_identity_suite():
    # momentum projectors must be exact DFT conjugates of coordinate ones,
    # for every wavenumber, and the DFT itself unitary
    worst_dft = checks.dft_identity((2, 4, 8, 16, 64))

    # determinant and trace closed forms over random draws
    r = np.random.default_rng(101)
    worst_dt = 0.0
    for _ in range(100):
        b, d = _random_phase(r), _random_phase(r)
        n = int(r.integers(2, 10**6))
        s = eigensystem(reduced_kernel(b, d, n))
        worst_dt = max(worst_dt, abs(s.det - b * d),
                       abs(s.trace - ((1 + b) * (1 + d) / n - (b + d))))

    # every constructor must emit a unitary to near machine precision: 20
    # reduced and extended kernels at random sizes, and full kernels with
    # uniform, momentum and random directions
    sizes = [int(n) for n in r.integers(2, 10**6, size=20)]
    worst_u = checks.unitarity(r, sizes, 1, (2, 8, 64, 256), overlaps=(0.01, 0.99))

    ok = worst_dft <= 1e-12 and worst_dt <= 1e-10 and worst_u <= 1e-12
    assert _report(5, "exact-identity-suite", ok,
                   f"dft={worst_dft:.2e} det/tr={worst_dt:.2e} "
                   f"unitarity={worst_u:.2e}")


def test_criterion_06_reduced_equals_full():
    r = np.random.default_rng(202)
    worst = checks.reduced_vs_full(r, (2, 4, 8, 16, 32, 64, 128, 256), 200)
    ok = worst <= 1e-10
    assert _report(6, "reduced-equals-full", ok, f"worst diff={worst:.2e}")


def test_criterion_07_closed_form_vs_iteration():
    r = np.random.default_rng(303)
    worst = checks.closed_vs_iterative(r, 200, 2048, 2000)
    ok = worst <= 1e-9
    assert _report(7, "closed-form-vs-iteration", ok, f"worst diff={worst:.2e}")


def test_criterion_08_extended_formalism_consistency():
    r = np.random.default_rng(404)
    worst = 0.0
    steps_agree = True
    sizes = (4, 8, 16, 32, 64, 128, 256, 512, 1024)
    for n in sizes:
        b, d = _random_phase(r), _random_phase(r)
        ext = extended_reduced_kernel(b, d, 1 / math.sqrt(n))
        std = reduced_kernel(b, d, n)
        worst = max(worst, float(np.max(np.abs(ext.matrix - std.matrix))))
        for phi in (0.0, np.pi / 4, -np.pi / 4, np.pi / 2, -np.pi / 2,
                    3 * np.pi / 8, -3 * np.pi / 8):
            if (optimal_steps_asymptotic(phi, n)
                    != optimal_steps_asymptotic(phi, n, alpha1=1 / math.sqrt(n))):
                steps_agree = False
    ok = worst <= 1e-12 and steps_agree
    assert _report(8, "extended-formalism-consistency", ok,
                   f"worst entry diff={worst:.2e} steps_agree={steps_agree}")


def test_criterion_09_initial_condition_stability():
    r = np.random.default_rng(505)
    n = 1000
    worst_rel = 0.0
    for _ in range(50):
        a = r.uniform(-2.0, 2.0)
        s = InitialState.complete(a, n)
        predicted = perturbed_peak_estimate(s)
        phi = r.uniform(-np.pi / 2, np.pi / 2)
        d = complex(np.cos(phi), np.sin(phi))
        t = probability_trace(reduced_kernel(d, d, n), s.reduced_vector(), 200)
        worst_rel = max(worst_rel, abs(math.sqrt(t.peak_prob) - predicted) / predicted)

    crossed = 0
    for _ in range(50):
        while True:
            b, d = _random_phase(r), _random_phase(r)
            if abs(b - d) >= 0.5:
                break
        a = r.uniform(-2.0, 2.0)
        s = InitialState.complete(a, n)
        t = probability_trace(reduced_kernel(b, d, n), s.reduced_vector(), 1000)
        if t.threshold_step is not None:
            crossed += 1

    ok = worst_rel <= 0.05 and crossed == 0
    assert _report(9, "initial-condition-stability", ok,
                   f"worst rel err={worst_rel:.4f} threshold crossings={crossed}")


def test_criterion_10_sqrt_n_scaling():
    start = time.perf_counter()
    errs = []
    for n in (10**2, 10**3, 10**4, 10**5):
        window = int(np.ceil(1.6 * optimal_steps_asymptotic(0.0, n)))
        t = probability_trace(reduced_kernel(1.0, 1.0, n), uniform_initial(n),
                              window)
        errs.append(abs(t.peak_step / math.sqrt(n) - np.pi / 4) / (np.pi / 4))
    elapsed = time.perf_counter() - start
    ok = errs[-1] <= 0.03 and errs == sorted(errs, reverse=True) and elapsed < 10.0
    assert _report(10, "sqrt-n-scaling", ok,
                   f"rel errs={['%.4f' % e for e in errs]} elapsed={elapsed:.3f}s")
