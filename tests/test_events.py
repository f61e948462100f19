import numpy as np
import pytest

from nilmedge.events import (
    DeltaBuffer,
    SwitchEvent,
    WindowNotReady,
    delta_feature,
    delta_feature_from_windows,
    detect_event,
    event_guard,
    write_event_log_csv,
)


class TestDetect:
    def test_steady_power_no_event(self):
        assert detect_event(100.0, 100.0) is None

    def test_step_up_is_on_event(self):
        ev = detect_event(10.0, 90.0, threshold_w=5.0, window_index=3)
        assert ev == SwitchEvent(window_index=3, delta_p_w=80.0, direction="on")

    def test_boundary_is_strict(self):
        assert detect_event(90.0, 86.0, threshold_w=5.0) is None  # |delta| = 4
        assert detect_event(90.0, 85.0, threshold_w=5.0) is None  # |delta| = 5 exactly
        assert detect_event(90.0, 84.9, threshold_w=5.0) is not None

    def test_step_down_is_off_event(self):
        ev = detect_event(60.0, 10.0)
        assert ev.direction == "off" and ev.delta_p_w == -50.0

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            detect_event(0.0, 10.0, threshold_w=0.0)

    @pytest.mark.parametrize("p_prev,p_curr", [(100.0, np.nan), (np.nan, 100.0), (100.0, np.inf)])
    def test_non_finite_power_rejected(self, p_prev, p_curr):
        with pytest.raises(ValueError, match="non-finite"):
            detect_event(p_prev, p_curr, window_index=7)


def filled_buffer(vectors_by_index):
    buf = DeltaBuffer()
    for j in sorted(vectors_by_index):
        buf.push(j, vectors_by_index[j])
    return buf


class TestDeltaFeature:
    def test_identical_windows_give_zero(self):
        vec = np.array([4.0, 5.0, 6.0])
        buf = filled_buffer({j: vec for j in range(0, 41)})
        np.testing.assert_array_equal(delta_feature(buf, 20), np.zeros(3))

    def test_constant_pre_and_post(self):
        a = np.array([10.0, 1.0])
        b = np.array([4.0, -2.0])
        buf = filled_buffer({j: (a if j < 20 else b) for j in range(0, 41)})
        np.testing.assert_array_equal(delta_feature(buf, 20), a - b)

    def test_exact_formula(self, rng):
        vecs = {j: rng.normal(size=7) for j in range(0, 41)}
        buf = filled_buffer(vecs)
        got = delta_feature(buf, 20)
        want = (vecs[0] + vecs[10] + vecs[19]) / 3 - (vecs[21] + vecs[30] + vecs[40]) / 3
        np.testing.assert_array_equal(got, want)

    def test_antisymmetry_is_exact(self, rng):
        pre = [rng.normal(size=11) for _ in range(3)]
        post = [rng.normal(size=11) for _ in range(3)]
        fwd = delta_feature_from_windows(pre, post)
        rev = delta_feature_from_windows(post, pre)
        np.testing.assert_array_equal(fwd, -rev)

    def test_sign_flip_option(self, rng):
        pre = [rng.normal(size=4) for _ in range(3)]
        post = [rng.normal(size=4) for _ in range(3)]
        np.testing.assert_array_equal(
            delta_feature_from_windows(pre, post, sign="post_minus_pre"),
            -delta_feature_from_windows(pre, post),
        )

    def test_unknown_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            delta_feature_from_windows([np.zeros(2)] * 3, [np.ones(2)] * 3, sign="bogus")

    def test_not_ready_raises(self):
        buf = filled_buffer({j: np.zeros(2) for j in range(0, 30)})
        with pytest.raises(WindowNotReady):
            delta_feature(buf, 20)  # j+20 = 40 not pushed yet

    def test_buffer_keeps_last_41(self):
        buf = filled_buffer({j: np.array([float(j)]) for j in range(0, 60)})
        assert len(buf) == 41
        assert buf.latest_index == 59
        with pytest.raises(WindowNotReady):
            buf.get(18)  # evicted

    def test_buffer_rejects_unpushed_and_wrapped_indices(self):
        buf = filled_buffer({j: np.array([float(j)]) for j in range(5, 50)})
        assert buf.get(49)[0] == 49.0 and buf.get(9)[0] == 9.0
        for j in (8, 50, 9 - 41, 49 + 41):  # evicted, not yet pushed, same ring slot
            with pytest.raises(WindowNotReady):
                buf.get(j)

    def test_non_consecutive_push_rejected(self):
        buf = DeltaBuffer()
        buf.push(0, np.zeros(1))
        with pytest.raises(ValueError):
            buf.push(2, np.zeros(1))


def events_at(*indices):
    return [SwitchEvent(window_index=j, delta_p_w=10.0, direction="on") for j in indices]


class TestGuard:
    def test_single_event_valid(self):
        assert event_guard(events_at(100)) == [True]

    def test_events_ten_apart_both_invalid(self):
        assert event_guard(events_at(100, 110)) == [False, False]

    def test_events_41_apart_both_valid(self):
        assert event_guard(events_at(100, 141)) == [True, True]

    def test_radius_boundary(self):
        assert event_guard(events_at(100, 120)) == [False, False]  # exactly 20
        assert event_guard(events_at(100, 121)) == [True, True]

    def test_middle_event_spoils_neighbours(self):
        flags = event_guard(events_at(100, 115, 160))
        assert flags == [False, False, True]

    def test_unordered_events_rejected(self):
        with pytest.raises(ValueError):
            event_guard(events_at(5, 3))


def test_event_log_export(tmp_path):
    events = events_at(4, 90)
    path = tmp_path / "events.csv"
    write_event_log_csv(path, events, [True, False])
    lines = path.read_text().splitlines()
    assert lines[0] == "window_index,delta_p_w,direction,valid"
    assert lines[1] == "4,10.0,on,1"
    assert lines[2] == "90,10.0,on,0"
