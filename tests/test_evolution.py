import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from numpy.testing import assert_allclose

from groverlab.checks import _rank1_trace
from groverlab.errors import (
    InvalidSizeError,
    NormalizationError,
    PeakedInitialStateWarning,
    ResourceLimitError,
    ShapeError,
)
from groverlab.evolution import (
    EvolutionTrace,
    InitialState,
    TraceSummary,
    _iterate,
    amplitude_closed_form,
    amplitude_iterative,
    full_space_trace,
    perturbed_peak_estimate,
    probability_blocks,
    probability_trace,
    uniform_initial,
)
from groverlab.kernel import (
    FullSpaceConfig,
    GroverPhases,
    ReducedKernel,
    _dephase,
    extended_reduced_kernel,
    full_kernel,
    reduced_kernel,
    unit_phases,
)
from groverlab.spectral import _rotation_angles, eigensystem, optimal_steps_asymptotic

rng = np.random.default_rng(23)


def random_phase(r):
    t = r.uniform(-np.pi, np.pi)
    return complex(np.cos(t), np.sin(t))


class TestInitialState:
    def test_uniform(self):
        s = uniform_initial(4)
        assert s.a == 1.0 and s.b == 1.0
        assert_allclose(s.reduced_vector(), [0.5, np.sqrt(3) / 2], atol=1e-15)

    def test_complete_fills_b(self):
        s = InitialState.complete(2.0, 1000)
        assert s.b == pytest.approx(np.sqrt(996 / 999))
        # reduced vector is unit-norm by construction
        assert np.linalg.norm(s.reduced_vector()) == pytest.approx(1.0, abs=1e-14)

    def test_complete_rejects_oversized_a(self):
        with pytest.raises(NormalizationError):
            InitialState.complete(3.0, 4)

    def test_rejects_unnormalized_pair(self):
        with pytest.raises(NormalizationError):
            InitialState(2.0, 1.0, 1000)
        with pytest.raises(NormalizationError):
            InitialState(float("nan"), 1, 10)

    def test_rejects_tiny_list(self):
        with pytest.raises(InvalidSizeError):
            InitialState(1.0, 1.0, 1)


class TestEvolutionTrace:
    def test_strict_interior_maxima(self):
        t = EvolutionTrace([0.0, 1.0, 0.0, 1.0, 0.0])
        assert t.maxima_count == 2
        assert t.peak_step == 1
        assert t.threshold_step == 1

    def test_monotone_has_no_interior_maxima(self):
        t = EvolutionTrace([0.0, 0.2, 0.4])
        assert t.maxima_count == 0
        assert t.peak_step == 2
        assert t.threshold_step is None

    def test_plateau_is_not_strict(self):
        t = EvolutionTrace([0.0, 0.6, 0.6, 0.0])
        assert t.maxima_count == 0
        assert t.threshold_step == 1


def numpy_summary(probs):
    """The summary statistics of a whole trace in plain numpy: the first
    argmax, strict interior maxima, and the first P > 1/2 if the peak is."""
    peak = int(np.argmax(probs))
    interior = (probs[1:-1] > probs[:-2]) & (probs[1:-1] > probs[2:])
    return (float(probs[peak]), peak, int(np.count_nonzero(interior)),
            int(np.argmax(probs > 0.5)) if probs[peak] > 0.5 else None)


@st.composite
def cut_traces(draw):
    """Probabilities from a few values (ties, plateaus, NaN) or any in [0, 1],
    and the block boundaries to cut them at."""
    values = st.sampled_from([0.0, 0.2, 0.5, 0.6, 0.9, 1.0, np.nan]) | st.floats(0, 1)
    probs = np.array(draw(st.lists(values, min_size=1, max_size=40)))
    cut = draw(st.lists(st.booleans(), min_size=len(probs) - 1, max_size=len(probs) - 1))
    return probs, [m for m in range(1, len(probs)) if cut[m - 1]]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cut_traces())
@example((np.array([0.1, 0.9, 0.9, 0.3, 0.9, 0.2]), [2, 4]))  # tied peaks, a plateau cut
@example((np.array([0.1, 0.3, 0.9, 0.4, 0.2]), [2]))  # a maximum first in its block
@example((np.array([0.1, 0.3, 0.9, 0.4, 0.2]), [3]))  # a maximum last in its block
@example((np.array([0.1, 0.6, 0.3, 0.7]), [3]))  # a one-sample last block
@example((np.array([0.7, 0.2, np.nan, 0.9, 0.1]), [1, 3]))  # NaN after a crossing
@example((np.array([0.2, np.nan, 0.9, 0.1]), [2]))  # NaN before it
def test_summary_folds_over_any_block_cut(drawn):
    """Folded block by block, at any boundaries, the summary is the whole
    trace's, and that is plain numpy's."""
    probs, cuts = drawn
    whole = EvolutionTrace(probs)
    folded = TraceSummary()
    for block in np.split(probs, cuts):
        folded.add(block)
    assert folded.steps == len(probs)
    want = numpy_summary(probs)
    for t in (whole, folded):
        np.testing.assert_equal((t.peak_prob, t.peak_step, t.maxima_count, t.threshold_step),
                                want)


class TestAmplitudeIterative:
    def test_zero_steps_returns_start(self):
        assert amplitude_iterative(reduced_kernel(1, 1, 100),
                                   uniform_initial(100), 0) == pytest.approx(0.1)

    def test_size_four_is_exact_in_one_step(self):
        amp = amplitude_iterative(reduced_kernel(1, 1, 4), uniform_initial(4), 1)
        assert amp == pytest.approx(-1.0, abs=1e-14)

    def test_identity_member_never_moves(self):
        k = reduced_kernel(-1, -1, 25)
        for m in (0, 1, 7, 50):
            assert amplitude_iterative(k, uniform_initial(25), m) == pytest.approx(0.2)

    def test_accepts_bare_plane_vector(self):
        amp = amplitude_iterative(reduced_kernel(1, 1, 2),
                                  np.array([1.0, 0.0]), 1)
        assert amp == pytest.approx(0.0, abs=1e-15)

    def test_rejects_negative_steps(self):
        with pytest.raises(InvalidSizeError):
            amplitude_iterative(reduced_kernel(1, 1, 4), uniform_initial(4), -1)

    def test_rejects_mismatched_state(self):
        with pytest.raises(InvalidSizeError):
            amplitude_iterative(reduced_kernel(1, 1, 4), uniform_initial(8), 1)

    def test_rejects_unnormalized_bare_vector(self):
        with pytest.raises(NormalizationError):
            amplitude_iterative(reduced_kernel(1, 1, 4), np.array([1.0, 1.0]), 1)


class TestAmplitudeClosedForm:
    def test_zero_steps(self):
        s = eigensystem(reduced_kernel(1j, np.exp(0.4j), 50))
        start = uniform_initial(50)
        assert amplitude_closed_form(s, start, 0) == pytest.approx(
            1 / np.sqrt(50), abs=1e-14)

    def test_negative_steps_refused(self):
        s = eigensystem(reduced_kernel(1j, np.exp(0.4j), 50))
        with pytest.raises(InvalidSizeError, match="step count must be >= 0, got -1"):
            amplitude_closed_form(s, uniform_initial(50), -1)

    def test_textbook_peak_probability(self):
        spec = eigensystem(reduced_kernel(1, 1, 1000))
        amp = amplitude_closed_form(spec, uniform_initial(1000), 24)
        assert abs(amp) ** 2 == pytest.approx(0.999558144631399, rel=1e-10)

    def test_degenerate_member(self):
        spec = eigensystem(reduced_kernel(-1, -1, 9))
        for m in (0, 3, 11):
            assert amplitude_closed_form(spec, uniform_initial(9), m) == pytest.approx(
                1 / 3, abs=1e-14)

    def test_matches_iteration_random(self):
        for i in range(50):
            n = int(rng.integers(2, 2049))
            if i % 2:  # balanced draws exercise the near-degenerate labeling
                b = d = random_phase(rng)
            else:
                b, d = random_phase(rng), random_phase(rng)
            k = reduced_kernel(b, d, n)
            spec = eigensystem(k)
            start = uniform_initial(n)
            m = int(rng.integers(0, 2001))
            closed = amplitude_closed_form(spec, start, m)
            brute = amplitude_iterative(k, start, m)
            assert abs(closed - brute) <= 1e-9

    def test_long_horizon_stability(self):
        k = reduced_kernel(1, 1, 1000)
        spec = eigensystem(k)
        start = uniform_initial(1000)
        for m in (10, 100, 1000, 10000):
            closed = amplitude_closed_form(spec, start, m)
            brute = amplitude_iterative(k, start, m)
            assert abs(closed - brute) <= 1e-9


class TestProbabilityTrace:
    def test_textbook_maxima_count(self):
        t = probability_trace(reduced_kernel(1, 1, 1000), uniform_initial(1000), 1000)
        assert t.maxima_count == 20
        assert t.peak_step == 74
        assert t.peak_prob == pytest.approx(0.9999999637532423, rel=1e-9)

    def test_quarter_turn_maxima_count(self):
        t = probability_trace(reduced_kernel(1j, 1j, 1000), uniform_initial(1000), 1000)
        assert t.maxima_count == 14

    def test_first_peak_window_textbook(self):
        t = probability_trace(reduced_kernel(1, 1, 1000), uniform_initial(1000), 60)
        assert t.peak_step == 24
        assert t.peak_prob >= 0.999
        assert t.probs[24] == pytest.approx(0.999558144631399, rel=1e-10)
        assert t.probs[25] == pytest.approx(0.9982173331218316, rel=1e-10)

    def test_first_peak_window_quarter_turn(self):
        t = probability_trace(reduced_kernel(1j, 1j, 1000), uniform_initial(1000), 80)
        assert t.peak_step == 35
        assert t.peak_prob == pytest.approx(0.9997130628804365, rel=1e-9)

    def test_size_two_is_stationary(self):
        t = probability_trace(reduced_kernel(1, 1, 2), uniform_initial(2), 10)
        assert np.max(np.abs(t.probs - 0.5)) <= 1e-12

    def test_suppressed_peaks_frozen(self):
        b = 1j
        t1 = probability_trace(reduced_kernel(b, 1j * np.exp(1.25j), 1000),
                               uniform_initial(1000), 1000)
        assert t1.peak_prob <= 0.0021923
        assert t1.peak_prob == pytest.approx(0.0021922020, abs=1e-9)
        t2 = probability_trace(reduced_kernel(b, 1j * np.exp(3j), 1000),
                               uniform_initial(1000), 1000)
        assert t2.peak_prob <= 0.001864
        assert t2.peak_prob == pytest.approx(0.0018638994, abs=1e-9)

    def test_probabilities_stay_physical(self):
        t = probability_trace(reduced_kernel(np.exp(0.3j), np.exp(-0.8j), 100),
                              uniform_initial(100), 10**4)
        assert np.all(t.probs >= 0.0)
        assert np.all(t.probs <= 1.0 + 1e-10)

    @pytest.mark.parametrize("m_max", [500, 3 * 2**13 + 5])
    def test_blocks_give_the_same_probabilities(self, m_max):
        """The trace, filled span by span, has the bits of the evaluator's
        steps cut at any boundaries: every step, blocks of 7, one block, and
        the 2^13, 2^14 and 2^14 - 1 steps a CSV block has held."""
        k = reduced_kernel(np.exp(0.3j), np.exp(-1.1j), 1000)
        whole = probability_trace(k, uniform_initial(1000), m_max).probs
        for span in (1, 7, m_max, m_max + 1, 2**13, 2**14, 2**14 - 1):
            assert np.array_equal(cut(k, uniform_initial(1000), m_max, span)[0], whole), span

    def test_rejects_empty_window(self):
        with pytest.raises(InvalidSizeError):
            probability_trace(reduced_kernel(1, 1, 4), uniform_initial(4), 0)


def folded(stack):
    """The folded angle and the axis rows nx, ny, nz that the engine evolves
    a stack of kernels by: a negative cos(angle) moved into the global
    phase, and a zero axis where sin(angle) is 0."""
    *_, c, sin_axis = _dephase(stack)
    sin, angle, _ = _rotation_angles(c, sin_axis)
    sign = np.where(c < 0, -1.0, 1.0)
    return angle, *np.divide(sign * sin_axis, sin, where=sin > 0, out=np.zeros_like(sin_axis))


def single_kernel_probs(k, x_in, m_max):
    """The one-kernel SU(2) power the stacked engine replaced: w on Python
    complex scalars, one kernel per call."""
    x0, x1 = np.asarray(x_in, dtype=complex).tolist()
    (angle,), (nx,), (ny,), (nz,) = folded(k.matrix[None])
    w = 1j * (nz * x0 + complex(nx, -ny) * x1)
    t = angle * np.arange(m_max + 1)
    amp = np.cos(t) * x0 + np.sin(t) * w
    return amp.real ** 2 + amp.imag ** 2


# The grid of a 6x5 sweep anchored at (0.3, -2): every kernel of the stack
# differs, and some sit on the balanced diagonal.
SWEEP_BETA = np.repeat(0.3 + 2 * np.pi * np.arange(6) / 6, 5)
SWEEP_DELTA = np.tile(-2 + 2 * np.pi * np.arange(5) / 5, 6)


def kernel_stack(beta, delta, n=None, alpha1=None):
    """The (K, 2, 2) stack of ``reduced_kernel``'s matrices of the phase pairs,
    or of ``extended_reduced_kernel``'s with ``alpha1``."""
    kernels = [reduced_kernel(b, d, n) if alpha1 is None else extended_reduced_kernel(b, d, alpha1)
               for b, d in zip(beta, delta)]
    return np.array([k.matrix for k in kernels]).reshape(-1, 2, 2)


def cut(kernels, s, m_max, span):
    """``probability_blocks``' evaluator over steps 0..m_max, in ranges of
    ``span`` steps, joined into one (K, m_max + 1) array."""
    p = probability_blocks(kernels, s)
    return np.concatenate([p(lo, min(lo + span, m_max + 1)) for lo in range(0, m_max + 1, span)],
                          axis=1)


def joined(kernels, s, m_max):
    """``probability_blocks``' evaluator over steps 0..m_max, in one range."""
    return probability_blocks(kernels, s)(0, m_max + 1)


class TestProbabilityTraces:
    """The stacked engine against one kernel at a time, bit for bit."""

    @pytest.mark.parametrize("n,start", [
        (1000, uniform_initial(1000)),                # --n
        (1000, InitialState.complete(2.0, 1000)),     # --a 2
        (50, InitialState(np.sqrt(50 - 0.81 * 49), 0.9, 50)),  # --b 0.9
        (None, np.array([0.3, np.sqrt(1 - 0.09)], dtype=complex)),  # --alpha1 0.3
    ], ids=["n", "a", "b", "alpha1"])
    def test_rows_equal_single_kernel_traces(self, n, start):
        beta, delta = unit_phases(SWEEP_BETA), unit_phases(SWEEP_DELTA)
        stack = kernel_stack(beta, delta, n, 0.3 if n is None else None)
        m_max = 60
        singles = [probability_trace(ReducedKernel(k, n), start, m_max) for k in stack]
        x_in = start.reduced_vector() if isinstance(start, InitialState) else start
        # Block boundaries inside every row: rows of 61 steps, in ranges of 7.
        for probs in (joined(stack, start, m_max), cut(stack, start, m_max, 7)):
            assert probs.shape == (len(stack), m_max + 1)
            for row, single, k in zip(probs, singles, stack):
                assert np.array_equal(row, single.probs)
                assert np.array_equal(row, single_kernel_probs(ReducedKernel(k, n), x_in, m_max))

    def test_bare_stack_checked(self):
        good = kernel_stack([1.0, 1j], [1.0, 1j], 100)
        start = uniform_initial(100)
        bad = good.copy()
        bad[1, 0, 0] *= 1.01
        with pytest.raises(NormalizationError, match="matrix 1 is not unitary"):
            joined(bad, start, 10)
        bad[1, 0, 0] = np.nan
        with pytest.raises(ShapeError):
            joined(bad, start, 10)
        with pytest.raises(InvalidSizeError):
            joined(np.eye(3)[None], start, 10)
        with pytest.raises(ShapeError):
            joined(np.ones((2, 2, 2, 2)), start, 10)

    def test_start_checked(self):
        stack = kernel_stack([1.0, 1j], [1.0, 1j], 100)
        with pytest.raises(NormalizationError):
            joined(stack, np.array([0.5, 0.5]), 10)
        with pytest.raises(InvalidSizeError):
            joined(stack, np.array([1.0, 0.0, 0.0]), 10)
        # A bare stack has no list size, so any InitialState start is accepted.
        joined(stack, uniform_initial(50), 10)

    def test_reduced_kernel_brings_its_size(self):
        k = reduced_kernel(1.0, 1.0, 100)
        with pytest.raises(InvalidSizeError, match="state is for size 50, kernel for size 100"):
            joined(k, uniform_initial(50), 10)

    @pytest.mark.parametrize("kernels", [1, 3, 4096])
    def test_real_parts_equal_complex_expression(self, kernels):
        """The engine's real-arithmetic P(m) has the bits of the complex
        |cos(m a) x0 + sin(m a) w|^2, for random unitary stacks and complex
        unit starts, over ranges that start at 0 and past it."""
        r = np.random.default_rng(kernels)
        z = r.normal(size=(kernels, 2, 2)) + 1j * r.normal(size=(kernels, 2, 2))
        stack = np.linalg.qr(z)[0]
        start = r.normal(size=2) + 1j * r.normal(size=2)
        start /= np.linalg.norm(start)
        x0, x1 = start.tolist()
        angle, nx, ny, nz = folded(stack)
        w = np.array([1j * (c * x0 + complex(a, -b) * x1) for a, b, c in zip(nx, ny, nz)])
        p = probability_blocks(stack, start)
        steps = 2**13 // kernels
        for lo, hi in ((0, steps + 1), (steps, 2 * steps + 2)):
            t = angle[:, None] * np.arange(lo, hi)
            amp = np.cos(t) * x0 + np.sin(t) * w[:, None]
            assert np.array_equal(p(lo, hi), amp.real ** 2 + amp.imag ** 2)

    @pytest.mark.parametrize("kernels", [0, 1, 3, 7, 30])
    def test_block_holds_the_steps_asked_for(self, kernels):
        """The evaluator's block for steps [lo, hi) of K kernels is (K, hi -
        lo), however many steps: none, one, 7, 2^14; an empty stack gives
        empty blocks."""
        phases = unit_phases(np.linspace(-3, 3, kernels))
        p = probability_blocks(kernel_stack(phases, phases, 100), uniform_initial(100))
        for lo, hi in ((0, 0), (0, 1), (20, 27), (5, 5 + 2**14)):
            assert p(lo, hi).shape == (kernels, hi - lo)


def reference_probs(k, v, m_max):
    """The numpy loop the scalar engine replaced: one 2x2 product per step."""
    v = np.asarray(v, dtype=complex)
    probs = np.empty(m_max + 1)
    probs[0] = abs(v[0]) ** 2
    for m in range(1, m_max + 1):
        v = k.matrix @ v
        probs[m] = abs(v[0]) ** 2
    return probs


class TestScalarEngine:
    """The scalar recurrence behind amplitude_iterative against the numpy
    matrix-vector loop it replaced."""

    @pytest.mark.parametrize("n", [2, 1000, 10**6])
    def test_real_kernels_bitwise_equal(self, n):
        k = reduced_kernel(1.0, 1.0, n)
        b = 0.9
        starts = [uniform_initial(n), InitialState.complete(0.5, n),
                  InitialState(np.sqrt(n - b**2 * (n - 1)), b, n)]
        for s in starts:
            got = _iterate(k, s.reduced_vector(), 10**4)[0]
            assert np.array_equal(got, reference_probs(k, s.reduced_vector(), 10**4))

    def test_complex_kernels_within_tolerance(self):
        r = np.random.default_rng(5)
        for _ in range(6):
            n = int(r.integers(2, 10**6))
            k = reduced_kernel(random_phase(r), random_phase(r), n)
            v = uniform_initial(n).reduced_vector()
            diff = np.subtract(_iterate(k, v, 10**4)[0], reference_probs(k, v, 10**4))
            assert np.max(np.abs(diff)) <= 1e-12

    def test_extended_kernels_within_tolerance(self):
        r = np.random.default_rng(6)
        for _ in range(4):
            alpha1 = float(r.uniform(0.01, 0.99))
            k = extended_reduced_kernel(random_phase(r), random_phase(r), alpha1)
            start = np.array([alpha1, np.sqrt(1 - alpha1**2)], dtype=complex)
            diff = np.subtract(_iterate(k, start, 10**4)[0], reference_probs(k, start, 10**4))
            assert np.max(np.abs(diff)) <= 1e-12

    def test_amplitude_matches_trace_exactly(self):
        r = np.random.default_rng(7)
        for m in (1, 17, 1000):
            n = int(r.integers(2, 5000))
            k = reduced_kernel(random_phase(r), random_phase(r), n)
            s = uniform_initial(n)
            assert abs(amplitude_iterative(k, s, m)) ** 2 == _iterate(
                k, s.reduced_vector(), m)[0][m]


class TestPeakLocations:
    @pytest.mark.parametrize("n,expected", [(1000, {0.0: 24, np.pi / 4: 26, np.pi / 2: 35}),
                                            (10**4, {0.0: 78, np.pi / 4: 85, np.pi / 2: 111})])
    def test_first_peak_tracks_asymptotic_count(self, n, expected):
        for phi, frozen in expected.items():
            for sign in (1.0, -1.0):
                d = np.exp(1j * sign * phi)
                m_pred = optimal_steps_asymptotic(sign * phi, n)
                window = int(np.ceil(2.2 * m_pred))
                t = probability_trace(reduced_kernel(d, d, n), uniform_initial(n), window)
                assert t.peak_step == frozen
                assert abs(t.peak_step - m_pred) <= 2
                assert t.peak_prob >= 0.999


class TestFullSpaceTrace:
    def _uniform_cfg(self, n, marked, beta, delta):
        return FullSpaceConfig(size=n, marked=marked,
                               k0=np.full(n, 1 / np.sqrt(n), dtype=complex),
                               phases=GroverPhases(beta=beta, delta=delta))

    def _embedded_uniform(self, n, marked):
        v = np.full(n, 1 / np.sqrt(n), dtype=complex)
        return v

    @pytest.mark.parametrize("beta,delta", [(np.exp(0.7j), np.exp(0.7j)),
                                            (np.exp(0.3j), np.exp(-1.1j))])
    def test_matches_reduced_model(self, beta, delta):
        n, marked = 8, 3
        cfg = self._uniform_cfg(n, marked, beta, delta)
        full = full_space_trace(cfg, self._embedded_uniform(n, marked), 100)
        red = probability_trace(reduced_kernel(beta, delta, n),
                                uniform_initial(n), 100)
        assert np.max(np.abs(full.probs - red.probs)) <= 1e-10

    def test_matches_dense_matrix_iteration(self):
        r = np.random.default_rng(5)
        n, marked = 16, 9
        k0 = r.normal(size=n) + 1j * r.normal(size=n)
        k0 /= np.linalg.norm(k0)
        cfg = FullSpaceConfig(size=n, marked=marked, k0=k0,
                              phases=GroverPhases(beta=random_phase(r),
                                                  delta=random_phase(r)))
        x_in = r.normal(size=n) + 1j * r.normal(size=n)
        x_in /= np.linalg.norm(x_in)
        m = full_kernel(cfg)
        v = x_in.copy()
        dense = [abs(v[marked]) ** 2]
        for _ in range(20):
            v = m @ v
            dense.append(abs(v[marked]) ** 2)
        fast = full_space_trace(cfg, x_in, 20)
        assert np.max(np.abs(fast.probs - np.array(dense))) <= 1e-12

    def test_zero_window_reads_initial_probability(self):
        n = 4
        cfg = self._uniform_cfg(n, 0, 1.0, 1.0)
        t = full_space_trace(cfg, np.array([0, 1, 0, 0], dtype=complex), 0)
        assert t.probs.shape == (1,)
        assert t.probs[0] == 0.0

    @staticmethod
    def _general_cfg(r, n, marked, k0):
        return FullSpaceConfig(size=n, marked=marked, k0=k0,
                               phases=GroverPhases(beta=random_phase(r), delta=random_phase(r),
                                                   alpha=random_phase(r), gamma=random_phase(r)))

    @staticmethod
    def _unit(v):
        return v / np.linalg.norm(v)

    def _against_iteration(self, cfg, x_in, m_max, tol=1e-12):
        fast = full_space_trace(cfg, x_in, m_max).probs
        assert fast.shape == (m_max + 1,)
        assert np.max(np.abs(fast - _rank1_trace(cfg, x_in, m_max))) <= tol
        return fast

    def test_matches_iteration_for_general_phases(self):
        r = np.random.default_rng(41)
        n = 64
        for marked in (0, 17, n - 1):
            k0 = self._unit(r.normal(size=n) + 1j * r.normal(size=n))
            x_in = self._unit(r.normal(size=n) + 1j * r.normal(size=n))
            self._against_iteration(self._general_cfg(r, n, marked, k0), x_in, 400)

    def test_zero_window_matches_iteration(self):
        """P(0) comes from the plane like every other step: within README's
        1e-12 of the 50-digit |v[x0]|^2 (4 ulps at worst over 3000 random
        draws, |v[x0]|^2 in floats 1.4)."""
        r = np.random.default_rng(42)
        n = 16
        x_in = self._unit(r.normal(size=n) + 1j * r.normal(size=n))
        cfg = self._general_cfg(r, n, 3, self._unit(r.normal(size=n) + 0j))
        probs = self._against_iteration(cfg, x_in, 0)
        with mp.workdps(50):
            exact = mpf(float(x_in[3].real)) ** 2 + mpf(float(x_in[3].imag)) ** 2
            assert abs(mpf(float(probs[0])) - exact) <= 1e-12

    @pytest.mark.parametrize("overlap", ["zero", "one"])
    def test_marked_eigenvector_keeps_initial_probability(self, overlap):
        """alpha1 = 0 (k0 orthogonal to x0) or 1 (k0 a phase times x0): x0 is
        an eigenvector of the kernel, so P(m) = |v[x0]|^2 for every m."""
        r = np.random.default_rng(43)
        n, marked = 32, 5
        if overlap == "zero":
            k0 = r.normal(size=n) + 1j * r.normal(size=n)
            k0[marked] = 0
        else:
            k0 = np.zeros(n, dtype=complex)
            k0[marked] = np.exp(0.9j)
        cfg = self._general_cfg(r, n, marked, self._unit(k0))
        x_in = self._unit(r.normal(size=n) + 1j * r.normal(size=n))
        probs = self._against_iteration(cfg, x_in, 300)
        assert np.all(probs == abs(x_in[marked]) ** 2)

    def test_start_orthogonal_to_the_plane_never_succeeds(self):
        r = np.random.default_rng(44)
        n, marked = 32, 2
        k0 = self._unit(r.normal(size=n) + 1j * r.normal(size=n))
        x_in = r.normal(size=n) + 1j * r.normal(size=n)
        x_in[marked] = 0
        off = np.arange(n) != marked
        k_off = k0[off]
        x_in[off] -= k_off * np.vdot(k_off, x_in[off]) / np.vdot(k_off, k_off)
        cfg = self._general_cfg(r, n, marked, k0)
        probs = self._against_iteration(cfg, self._unit(x_in), 300)
        assert np.max(probs) <= 1e-28
        e = np.zeros(n, dtype=complex)
        e[(marked + 1) % n] = 1.0
        k0 = np.zeros(n, dtype=complex)
        k0[marked], k0[(marked + 2) % n] = 0.6, 0.8
        exact = self._general_cfg(r, n, marked, k0)
        assert np.all(self._against_iteration(exact, e, 300) == 0.0)

    def test_overlap_next_to_one(self):
        r = np.random.default_rng(45)
        n, marked = 64, 9
        alpha1 = 1 - 1e-12
        rest = self._unit(r.normal(size=n - 1) + 1j * r.normal(size=n - 1))
        k0 = np.insert(rest * np.sqrt((1 - alpha1) * (1 + alpha1)), marked,
                       alpha1 * np.exp(-2.1j))
        x_in = self._unit(r.normal(size=n) + 1j * r.normal(size=n))
        self._against_iteration(self._general_cfg(r, n, marked, k0), x_in, 2000)

    def test_momentum_direction_stays_physical(self):
        from groverlab.algebra import dft_matrix
        n = 16
        k0 = dft_matrix(n)[:, 5]
        cfg = FullSpaceConfig(size=n, marked=0, k0=k0,
                              phases=GroverPhases(beta=1j, delta=1j))
        t = full_space_trace(cfg, k0, 50)
        assert np.all(t.probs >= 0.0)
        assert np.all(t.probs <= 1.0 + 1e-12)

    def test_resource_limit(self):
        n = 8192
        cfg = FullSpaceConfig(size=n, marked=0,
                              k0=np.full(n, 1 / np.sqrt(n), dtype=complex))
        with pytest.raises(ResourceLimitError):
            full_space_trace(cfg, np.full(n, 1 / np.sqrt(n), dtype=complex), 1)

    def test_rejects_bad_state(self):
        cfg = self._uniform_cfg(4, 0, 1.0, 1.0)
        with pytest.raises(NormalizationError):
            full_space_trace(cfg, np.ones(4, dtype=complex), 1)
        with pytest.raises(InvalidSizeError):
            full_space_trace(cfg, np.full(5, 1 / np.sqrt(5), dtype=complex), 1)
        with pytest.raises(InvalidSizeError):
            full_space_trace(cfg, np.full(4, 0.5, dtype=complex), -1)


class TestDetunedSuppression:
    """Detuning the two phases by |beta - delta| >= 0.5 kills amplification.

    The peak is bounded by the rigorous envelope (|a|/sqrt(N) + 2|T|)^2 with
    T the marked-side eigenvector weight; the tight 1/100 folklore number
    only holds on the subset where sqrt(N) |T| <= 1, so that is what the
    subset assertion checks.
    """

    def test_random_detuned_draws(self):
        n = 1000
        r = np.random.default_rng(0)
        seen_subset = 0
        for _ in range(40):
            while True:
                b, d = random_phase(r), random_phase(r)
                if abs(b - d) >= 0.5:
                    break
            k = reduced_kernel(b, d, n)
            spec = eigensystem(k)
            start = uniform_initial(n)
            tval = abs(spec.eigvec2[0] * np.vdot(spec.eigvec2, start.reduced_vector()))
            t = probability_trace(k, start, 1000)
            envelope = (1 / np.sqrt(n) + 2 * tval) ** 2
            assert t.peak_prob <= envelope + 1e-12
            assert t.peak_prob <= 0.1
            assert t.threshold_step is None
            if np.sqrt(n) * tval <= 1.0:
                seen_subset += 1
                assert t.peak_prob <= 0.01
        assert seen_subset >= 10  # the subset assertion must actually fire


class TestPerturbedPeak:
    def test_uniform_start_predicts_unity(self):
        assert perturbed_peak_estimate(uniform_initial(1000)) == pytest.approx(1.0)

    def test_large_marked_weight(self):
        s = InitialState.complete(2.0, 1000)
        pred = perturbed_peak_estimate(s)
        assert pred == pytest.approx(0.9984973695493629, rel=1e-12)
        t = probability_trace(reduced_kernel(1, 1, 1000), s.reduced_vector(), 200)
        assert abs(np.sqrt(t.peak_prob) - pred) / pred <= 0.01

    def test_zero_marked_weight_caps_at_one(self):
        s = InitialState.complete(0.0, 1000)
        assert abs(s.b) > 1.0
        assert perturbed_peak_estimate(s) == pytest.approx(1.0)
        t = probability_trace(reduced_kernel(1, 1, 1000), s.reduced_vector(), 200)
        assert t.peak_prob >= 0.999

    def test_warns_when_already_peaked(self):
        s = InitialState.complete(2.0, 16)
        with pytest.warns(PeakedInitialStateWarning):
            pred = perturbed_peak_estimate(s)
        assert pred == pytest.approx(min(abs(s.b), 1.0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi), st.integers(2, 4096))
def test_trace_probabilities_always_physical(bp, dp, n):
    k = reduced_kernel(np.exp(1j * bp), np.exp(1j * dp), n)
    t = probability_trace(k, uniform_initial(n), 300)
    assert np.all(t.probs >= 0.0)
    assert np.all(t.probs <= 1.0 + 1e-10)
