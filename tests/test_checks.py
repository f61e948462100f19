"""A bool or a non-number given where a number belongs fails where it is
given, with a ValueError naming the field: True is not 1 W, a learning rate
or 1 V. Every numpy integer and real scalar is still a number."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import blob_dataset
from nilmedge.checks import finite_number, whole_number
from nilmedge.events import check_threshold
from nilmedge.pipeline import classify_stream
from nilmedge.signals import CalibrationCoefficients, SampleStream
from nilmedge.synth import ApplianceModel, Mains, ScenarioScript
from nilmedge.train import GridSpec, train_knn, train_mlp, train_svm
from nilmedge.train.selection import check_drop_tolerance
from nilmedge.train.sgd import check_mlp_settings

COEFFS = dict(gain_v=0.01, offset_v=0.0, gain_i=0.01, offset_i=0.0)


def _classify_empty_stream(threshold_w):
    model = train_knn(blob_dataset(per_class=5), k=1)
    classify_stream(SampleStream(v=np.zeros(0), i=np.zeros(0)), model, threshold_w=threshold_w)


# (entry point, call with the bad value, the field its message names)
REJECTED = [
    ("check_threshold", lambda: check_threshold(True), "threshold must be"),
    ("classify_stream", lambda: _classify_empty_stream(True), "threshold must be"),
    ("check_mlp_settings", lambda: check_mlp_settings((4,), True, 1), "learning rate lr"),
    ("train_mlp", lambda: train_mlp(blob_dataset(per_class=5), hidden=(4,), lr=True, epochs=1),
     "learning rate lr"),
    ("GridSpec", lambda: GridSpec(mlp_lr=(True,)), "learning rate lr"),
    ("check_drop_tolerance", lambda: check_drop_tolerance(True), "drop_tolerance must be"),
    ("calibration gain", lambda: CalibrationCoefficients(**{**COEFFS, "gain_v": True}),
     "calibration gain_v must be"),
    ("calibration offset", lambda: CalibrationCoefficients(**{**COEFFS, "offset_v": False}),
     "calibration offset_v must be"),
    ("calibration offset text", lambda: CalibrationCoefficients(**{**COEFFS, "offset_v": "x"}),
     "calibration offset_v must be"),
    ("Mains", lambda: Mains(amplitude_v=True), "mains amplitude_v must be"),
    ("ApplianceModel", lambda: ApplianceModel(kind="resistive", nominal_power_w=True),
     "appliance nominal_power_w must be"),
    ("cut angle", lambda: ApplianceModel(kind="phase_cut", nominal_power_w=10.0,
                                         cut_angle_rad=True),
     "cut angle must lie"),
    ("harmonic amplitude", lambda: ApplianceModel(kind="rectifier", nominal_power_w=10.0,
                                                  harmonic_profile={1: 1.0, 3: True}),
     "relative harmonic amplitudes"),
    ("ScenarioScript", lambda: ScenarioScript(mains=Mains(), events=(), duration_s=True),
     "script duration_s must be"),
    ("train_svm", lambda: train_svm(blob_dataset(per_class=5), c=True),
     "regularization parameter c must be"),
    ("svm gamma", lambda: train_svm(blob_dataset(per_class=5), gamma=True), "gamma must be"),
    ("svm gamma text", lambda: train_svm(blob_dataset(per_class=5), gamma="x"), "gamma must be"),
    ("harmonic order", lambda: ApplianceModel(kind="rectifier", nominal_power_w=10.0,
                                              harmonic_profile={True: 1.0}),
     "harmonic orders must be"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in REJECTED],
                         ids=[case[0] for case in REJECTED])
def test_a_bool_or_text_is_not_a_number(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("value", [5, 5.0, np.float16(5), np.float32(5), np.float64(5),
                                   np.int8(5), np.uint16(5), np.int64(5), Fraction(5, 1)])
def test_numpy_and_python_numbers_are_still_numbers(value):
    assert finite_number(value)
    check_threshold(value)
    check_mlp_settings((4,), value, 1)
    check_drop_tolerance(value)
    CalibrationCoefficients(gain_v=value, offset_v=value, gain_i=value, offset_i=value)
    Mains(amplitude_v=value)


@pytest.mark.parametrize("value", [True, False, np.True_, "5", None, [5.0], np.array([5.0]),
                                   np.nan, np.inf, -np.inf, 5j])
def test_what_is_not_a_finite_number(value):
    assert not finite_number(value)


def test_whole_numbers():
    assert whole_number(3, 1) and whole_number(np.int8(3), 3) and whole_number(np.uint64(0), 0)
    assert not any(whole_number(v, 0) for v in (True, False, np.True_, 1.0, "1", None))
    assert not whole_number(0, 1)


@pytest.mark.parametrize("gamma", [None, 0.25, np.float32(0.25), np.float64(0.25), np.int64(1)])
def test_svm_gamma_may_be_none_or_any_real(gamma):
    d = blob_dataset(per_class=5)
    model = train_svm(d, gamma=gamma)
    assert model.gamma == (1.0 / d.n_features if gamma is None else gamma)


def test_linear_svm_gamma_need_not_be_positive():
    assert train_svm(blob_dataset(per_class=5), gamma=0.0, kernel="linear").kernel == "linear"


@pytest.mark.parametrize("order", [3, np.int8(3), np.int64(3), np.uint16(3)])
def test_numpy_harmonic_orders_are_still_orders(order):
    profile = ApplianceModel(kind="rectifier", nominal_power_w=10.0,
                             harmonic_profile={1: 1.0, order: 0.5}).harmonic_profile
    assert profile[3] == 0.5
