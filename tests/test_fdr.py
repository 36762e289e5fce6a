import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coad.fdr import (KERNEL_TAIL, DetectorState, StepRecord, build_zeta,
                      decay_kernel, next_threshold, step, threshold_walk)

HORIZON = 10**6


def reference_threshold(t, detections, alpha, delta, eta=1.0):
    """The full-history schedule: every past detection, no window, with the
    memory term summed left to right in ascending detection time."""
    zetas = build_zeta()
    alpha_t = alpha * eta * max(float(zetas[t - 1]), 1.0 - delta)
    if detections:
        lags = t - np.asarray(detections)
        memory = 0.0
        for term in delta ** lags * zetas[lags - 1]:
            memory += term
        alpha_t += alpha * float(memory)
    return min(1.0, alpha_t)


def _replay(rejections, delta, alpha=0.1):
    """Drive ``record`` through a rejection sequence; yield each state with
    the full detection history the reference needs."""
    state = DetectorState.fresh(alpha, delta)
    history = []
    for rejected in rejections:
        yield state, tuple(history)
        if rejected:
            history.append(state.t)
        state = state.record(rejected)
        times = state.detection_times
        width = decay_kernel(delta).size
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(state.t - width <= rho < state.t for rho in times)
        assert len(times) <= width


class TestZeta:
    def test_first_two_terms_ratio(self):
        # normalization cancels: zeta_1 / zeta_2 = 2 * exp(sqrt(log 2))
        expected = 2.0 * math.exp(math.sqrt(math.log(2.0)))
        zetas = build_zeta()
        assert zetas[0] / zetas[1] == pytest.approx(expected, rel=1e-12)

    def test_non_increasing(self):
        assert np.all(np.diff(build_zeta()) <= 0)

    def test_sums_to_one(self):
        assert abs(build_zeta().sum() - 1.0) <= 1e-9

    def test_default_horizon_sums_to_one(self):
        # the one table there is spans the default horizon of 10^6 steps
        assert build_zeta().size == HORIZON
        assert abs(build_zeta().sum() - 1.0) <= 1e-9

    def test_positive(self):
        assert np.all(build_zeta() > 0)

    def test_chunked_build_matches_one_shot_formula(self):
        t = np.arange(1, HORIZON + 1, dtype=float)
        raw = np.log(np.maximum(t, 2.0)) / (t * np.exp(np.sqrt(np.log(t))))
        assert build_zeta().tobytes() == (raw / raw.sum()).tobytes()

    def test_zero_beyond_horizon(self):
        # zeta_t = 0 past the table, so the floor 1 - delta takes over
        alpha, delta, eta = 0.1, 0.99, 0.5
        state = DetectorState(t=HORIZON + 1, detection_times=(HORIZON,),
                              alpha=alpha, delta=delta, eta=eta)
        assert next_threshold(state) == \
            alpha * eta * (1 - delta) + alpha * decay_kernel(delta)[0]
        nxt = state.record(False)
        assert next_threshold(nxt) == \
            alpha * eta * (1 - delta) + alpha * decay_kernel(delta)[1]

    def test_cached(self):
        assert build_zeta() is build_zeta()
        assert decay_kernel(0.9) is decay_kernel(0.9)
        assert not build_zeta().flags.writeable
        assert not decay_kernel(0.9).flags.writeable

    @pytest.mark.parametrize("delta, width", [
        (0.5, 58), (0.9, 394), (0.99, 4354), (0.999, 46029)])
    def test_kernel_width(self, delta, width):
        kernel = decay_kernel(delta)
        assert kernel.size == width
        # the first lag whose geometric tail bound drops below KERNEL_TAIL
        assert delta ** width / (1 - delta) <= KERNEL_TAIL
        assert delta ** (width - 1) / (1 - delta) > KERNEL_TAIL
        lags = np.arange(1, width + 1)
        assert np.array_equal(kernel, delta ** lags * build_zeta()[:width])


def _state_at(t, detections=(), alpha=0.1, delta=0.99, eta=1.0):
    return DetectorState(t=t, detection_times=tuple(detections), alpha=alpha,
                         delta=delta, eta=eta)


class TestNextThreshold:
    def test_floor_dominates_without_detections(self):
        # once the sequence falls below 1 - delta the floor takes over
        zetas = build_zeta()
        t0 = next(t for t in range(1, 200) if zetas[t - 1] < 0.01)
        alpha_t = next_threshold(_state_at(t0))
        assert alpha_t == pytest.approx(0.1 * 1.0 * 0.01, abs=1e-12)

    def test_early_term_above_floor(self):
        zeta_1 = build_zeta()[0]
        assert zeta_1 > 0.01
        alpha_1 = next_threshold(_state_at(1))
        assert alpha_1 == pytest.approx(0.1 * zeta_1, abs=1e-12)

    def test_single_detection_one_step_back(self):
        t = 10
        base = next_threshold(_state_at(t))
        with_det = next_threshold(_state_at(t, detections=(t - 1,)))
        gain = 0.1 * 0.99 * build_zeta()[0]
        assert with_det - base == pytest.approx(gain, abs=1e-12)

    def test_alpha_zero_never_rejects(self):
        for t in (1, 5, 50):
            assert next_threshold(_state_at(t, alpha=0.0)) == 0.0

    @given(delta=st.sampled_from([0.5, 0.9, 0.99]),
           rejections=st.lists(st.booleans(), max_size=300))
    def test_matches_full_history_within_window(self, delta, rejections):
        # no detection has left the window while t <= W: same sum, same order
        for state, history in _replay(rejections, delta):
            if state.t > decay_kernel(delta).size:
                break
            assert state.detection_times == history
            assert next_threshold(state) == reference_threshold(
                state.t, history, 0.1, delta)

    def test_detection_time_invariants(self):
        # past W the dropped tail moves alpha_t by a few ulp at most
        delta = 0.9
        width = decay_kernel(delta).size
        rejections = np.random.default_rng(3).random(3 * width) < 0.2
        worst_ulp = 0.0
        for state, history in _replay(rejections, delta):
            alpha_t = next_threshold(state)
            expected = reference_threshold(state.t, history, 0.1, delta)
            if state.t <= width:
                assert alpha_t == expected
            worst_ulp = max(worst_ulp,
                            abs(alpha_t - expected) / np.spacing(expected))
        assert state.t == 3 * width and len(history) > 3 * width * 0.15
        assert worst_ulp <= 8

    def test_causality(self):
        # the decision taken at time t cannot move alpha_t itself
        state = _state_at(7, detections=(2, 4))
        alpha_before = next_threshold(state)
        rejected = state.record(True)
        accepted = state.record(False)
        assert next_threshold(state) == alpha_before
        # and both futures looked identical up to and including t
        assert rejected.detection_times[:-1] == accepted.detection_times

    def test_monotone_wealth(self):
        # a rejection strictly raises every later threshold
        horizon = 40
        s = 12
        for t in range(s + 1, s + horizon):
            without = next_threshold(_state_at(t))
            with_det = next_threshold(_state_at(t, detections=(s,)))
            assert with_det > without


# How a statistic is picked from the step's threshold: equal to it, zero,
# the next float above it (capped at 1), or a given value in [0, 1].
STATISTIC_KINDS = st.one_of(st.sampled_from(["tie", "zero", "above"]),
                            st.floats(0.0, 1.0))


def _scalar_loop(kinds, alpha, delta, eta):
    """Statistics picked against a next_threshold / record loop, with that
    loop's thresholds and decisions."""
    state = DetectorState.fresh(alpha, delta, eta)
    z, alphas, decisions = [], [], []
    for kind in kinds:
        alpha_t = next_threshold(state)
        z_t = {"tie": alpha_t, "zero": 0.0,
               "above": min(1.0, float(np.nextafter(alpha_t, 2.0)))
               }.get(kind, kind)
        rejected = z_t <= alpha_t
        state = state.record(rejected)
        z.append(z_t)
        alphas.append(alpha_t)
        decisions.append(int(rejected))
    return np.array(z), np.array(alphas), decisions


class TestThresholdWalk:
    @settings(deadline=None, max_examples=40)
    @given(alpha=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           delta=st.sampled_from([0.5, 0.9]),
           eta=st.sampled_from([0.5, 1.0, 4.0]),
           kinds=st.lists(STATISTIC_KINDS, min_size=150, max_size=300))
    def test_matches_scalar_loop(self, alpha, delta, eta, kinds):
        # at delta = 0.5 every stream outlives W = 58 more than twice; eta 4
        # takes alpha_t past 1, where the cap decides
        z, alphas, decisions = _scalar_loop(kinds, alpha, delta, eta)
        alpha_t, walked = threshold_walk(z, alpha, delta, eta)
        assert alpha_t.tobytes() == alphas.tobytes()
        assert walked.tolist() == decisions

    @pytest.mark.parametrize("delta", [0.5, 1.0 - 1e-9])
    def test_crosses_zeta_horizon(self, delta):
        # zeta_t is 0 past 10^6; at delta = 1 - 1e-9 zeta_t stays above the
        # floor 1 - delta up to there, so the base term drops at the horizon
        alpha, eta, lead = 0.1, 1.0, 200
        z = np.ones(HORIZON + lead)  # 1 > alpha_t: no detection before
        tail = 10.0 ** np.random.default_rng(5).uniform(-12, -1, 2 * lead)
        tail[::17] = 0.0
        z[-2 * lead:] = tail
        alpha_t, decisions = threshold_walk(z, alpha, delta, eta)
        assert not decisions[:-2 * lead].any()
        assert decisions[-lead:].any()
        state = DetectorState(t=HORIZON - lead + 1, detection_times=(),
                              alpha=alpha, delta=delta, eta=eta)
        for t in range(HORIZON - lead + 1, z.size + 1):
            threshold = next_threshold(state)
            assert threshold == alpha_t[t - 1], t
            assert decisions[t - 1] == (z[t - 1] <= threshold), t
            state = state.record(z[t - 1] <= threshold)
        # a state built past the horizon from the walk's detections agrees
        width = decay_kernel(delta).size
        detections = np.flatnonzero(decisions) + 1
        for t in (HORIZON + 1, HORIZON + lead // 2, z.size):
            times = tuple(int(r) for r in detections if t - width <= r < t)
            built = DetectorState(t=t, detection_times=times, alpha=alpha,
                                  delta=delta, eta=eta)
            assert next_threshold(built) == alpha_t[t - 1], t

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_statistic_outside_unit_interval_raises(self, bad):
        with pytest.raises(ValueError, match=r"step 2 has"):
            threshold_walk([0.5, bad, 0.5], 0.1, 0.9)

    def test_parameter_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            threshold_walk([0.5], 1.1, 0.9)
        with pytest.raises(ValueError, match="delta"):
            threshold_walk([0.5], 0.1, 1.0)


class TestStep:
    @pytest.mark.parametrize("alpha, delta, eta", [
        (-0.1, 0.9, 1.0), (1.1, 0.9, 1.0), (0.1, 0.0, 1.0), (0.1, 1.0, 1.0),
        (0.1, 0.9, 0.0)])
    def test_fresh_domain(self, alpha, delta, eta):
        with pytest.raises(ValueError):
            DetectorState.fresh(alpha, delta, eta)

    def test_forced_rejection_path(self):
        # Q = 0 (verbatim), forced query, P = 0 -> statistic 0 <= alpha_t
        state = DetectorState.fresh(0.1, 0.99)
        rng = np.random.default_rng(0)
        record, nxt = step(
            state, 10.0, context=0, rng=rng, gamma=0.5,
            synthetic_scores=np.array([1.0, 2.0]),
            real_scores=lambda: np.array([1.0, 2.0, 3.0]),
            acquisition="active", plus_one=False, truth=1)
        assert record.q == 0.0 and record.u == 1 and record.p == 0.0
        assert record.z == 0.0 and record.decision == 1
        assert nxt.detection_times == (1,)

    def test_maximal_statistic_never_rejects(self):
        state = DetectorState.fresh(0.1, 0.99)
        record, nxt = step(
            state, -10.0, context=0, rng=np.random.default_rng(0),
            synthetic_scores=np.array([1.0, 2.0]), acquisition="never")
        assert record.z == 1.0 and record.decision == 0
        assert nxt.detection_times == ()

    def test_always_rule(self):
        state = DetectorState.fresh(0.1, 0.99)
        record, _ = step(
            state, 0.5, context=3, rng=np.random.default_rng(0),
            real_scores=lambda: np.array([0.0, 1.0]), acquisition="always")
        assert record.u == 1 and record.q is None and record.z == record.p

    def test_never_rule(self):
        state = DetectorState.fresh(0.1, 0.99)
        record, _ = step(
            state, 0.5, context=0, rng=np.random.default_rng(0),
            synthetic_scores=np.array([0.0, 1.0]), acquisition="never")
        assert record.u == 0 and record.p is None and record.z == record.q

    def test_missing_sources_raise(self):
        state = DetectorState.fresh(0.1, 0.99)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            step(state, 0.5, 0, rng=rng, acquisition="always")
        with pytest.raises(ValueError):
            step(state, 0.5, 0, rng=rng, acquisition="never")
        with pytest.raises(ValueError):
            step(state, 0.5, 0, rng=rng, acquisition="active",
                 synthetic_scores=np.array([1.0]))
        with pytest.raises(ValueError):
            step(state, 0.5, 0, rng=rng, acquisition="sometimes",
                 synthetic_scores=np.array([1.0]))

    def test_deterministic_replay(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            data_rng = np.random.default_rng(99)
            state = DetectorState.fresh(0.2, 0.95)
            records = []
            for _ in range(50):
                test = data_rng.standard_normal()
                synth = data_rng.standard_normal(30)
                real = data_rng.standard_normal(30)
                record, state = step(
                    state, test, context=0, rng=rng, gamma=0.6,
                    synthetic_scores=synth, real_scores=lambda r=real: r,
                    acquisition="active")
                records.append(record)
            return records

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_lazy_real_batch(self):
        calls = []

        def provider():
            calls.append(1)
            return np.array([1.0])

        state = DetectorState.fresh(0.1, 0.99)
        # q = 1 and gamma near max: the query is almost never made
        rng = np.random.default_rng(1)
        skipped = 0
        for _ in range(50):
            record, _ = step(state, -5.0, 0, rng=rng, gamma=0.999,
                             synthetic_scores=np.array([1.0, 2.0]),
                             real_scores=provider, acquisition="active")
            skipped += 1 - record.u
        assert skipped > 0 and len(calls) == 50 - skipped


def test_step_record_is_plain_data():
    rec = StepRecord(t=1, context=0, q=None, u=0, p=None, z=0.5,
                     alpha_t=0.01, decision=0, truth=None)
    assert rec.z == 0.5 and rec.q is None
