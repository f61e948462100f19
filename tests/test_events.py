import numpy as np
import pytest

from nilmedge.events import (
    SwitchEvent,
    delta_feature,
    delta_feature_from_windows,
    detect_event,
    event_guard,
)


class TestDetect:
    def test_steady_power_no_event(self):
        assert detect_event(100.0, 100.0) is None

    def test_step_up_is_on_event(self):
        ev = detect_event(10.0, 90.0, threshold_w=5.0, window_index=3)
        assert ev == SwitchEvent(window_index=3, delta_p_w=80.0)

    def test_boundary_is_strict(self):
        assert detect_event(90.0, 86.0, threshold_w=5.0) is None  # |delta| = 4
        assert detect_event(90.0, 85.0, threshold_w=5.0) is None  # |delta| = 5 exactly
        assert detect_event(90.0, 84.9, threshold_w=5.0) is not None

    def test_step_down_is_off_event(self):
        ev = detect_event(60.0, 10.0)
        assert ev.direction == "off" and ev.delta_p_w == -50.0

    def test_direction_follows_the_sign_of_the_step(self):
        assert SwitchEvent(window_index=0, delta_p_w=10.0).direction == "on"
        assert SwitchEvent(window_index=0, delta_p_w=-10.0).direction == "off"

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            detect_event(0.0, 10.0, threshold_w=0.0)

    @pytest.mark.parametrize("threshold_w", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_threshold_must_be_finite_and_positive(self, threshold_w):
        # unchecked, a NaN threshold makes a steady window an "off" event with dP = 0
        with pytest.raises(ValueError, match="threshold must be a finite positive number"):
            detect_event(100.0, 100.0, threshold_w=threshold_w)

    @pytest.mark.parametrize("p_prev,p_curr", [(100.0, np.nan), (np.nan, 100.0), (100.0, np.inf)])
    def test_non_finite_power_rejected(self, p_prev, p_curr):
        with pytest.raises(ValueError, match="non-finite"):
            detect_event(p_prev, p_curr, window_index=7)


class TestDeltaFeature:
    def test_identical_windows_give_zero(self):
        features = np.tile([4.0, 5.0, 6.0], (41, 1))
        np.testing.assert_array_equal(delta_feature(features, 20), np.zeros(3))

    def test_constant_pre_and_post(self):
        a = np.array([10.0, 1.0])
        b = np.array([4.0, -2.0])
        features = np.array([a if j < 20 else b for j in range(41)])
        np.testing.assert_array_equal(delta_feature(features, 20), a - b)

    def test_exact_formula(self, rng):
        features = rng.normal(size=(41, 7))
        got = delta_feature(features, 20)
        want = (features[0] + features[10] + features[19]) / 3 \
            - (features[21] + features[30] + features[40]) / 3
        np.testing.assert_array_equal(got, want)

    def test_antisymmetry_is_exact(self, rng):
        pre = [rng.normal(size=11) for _ in range(3)]
        post = [rng.normal(size=11) for _ in range(3)]
        fwd = delta_feature_from_windows(pre, post)
        rev = delta_feature_from_windows(post, pre)
        np.testing.assert_array_equal(fwd, -rev)

    def test_not_ready_raises(self):
        with pytest.raises(ValueError, match=r"windows \[-1\]"):
            delta_feature(np.zeros((41, 2)), 19)  # no window j-20
        with pytest.raises(ValueError, match=r"windows \[30, 40\]"):
            delta_feature(np.zeros((30, 2)), 20)  # j+10 and j+20 not extracted yet


def events_at(*indices):
    return [SwitchEvent(window_index=j, delta_p_w=10.0) for j in indices]


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
