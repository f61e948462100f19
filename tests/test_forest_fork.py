"""train_rf grows its trees in contiguous shares, one per usable CPU, the
first in the calling process and each other in a forked child. The forest is
the same on any CPU count, and a failure in any share is raised in the caller
with every child reaped."""

import hashlib
import os
import signal
import time

import numpy as np
import pytest

import test_split_search
import test_trainers
from helpers import blob_dataset
from nilmedge.models.io import serialize
from nilmedge.train import cart, train_model, train_rf
from nilmedge.train.dataset import Dataset

TEST_PID = os.getpid()


class Abort(BaseException):
    """Not an Exception: a child must catch it and still never return."""


class Unpicklable(Exception):
    def __init__(self, message, extra):  # a pickle round trip drops `extra`
        super().__init__(message)


def use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def digest(model) -> str:
    return hashlib.sha256(serialize(model)).hexdigest()


def assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail a test that runs past 60 s instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("train_rf did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def escape_marker(tmp_path):
    """Path a child writes if it unwound out of train_rf into the test."""
    return tmp_path / "child-escaped"


def call_guarded(marker, fn, *args, **kwargs):
    """fn(*args, **kwargs) in the test process; a forked child that gets
    here instead of leaving through os._exit records it and exits."""
    try:
        return fn(*args, **kwargs)
    finally:
        if os.getpid() != TEST_PID:
            marker.write_text(str(os.getpid()))
            os._exit(3)


def failing_grow(monkeypatch, fails_in_child: bool, exc: BaseException):
    """Make the per-share grower raise exc in a child or in the caller."""
    real = cart._grow_share

    def grow(*args):
        if (os.getpid() != TEST_PID) == fails_in_child:
            raise exc
        return real(*args)

    monkeypatch.setattr(cart, "_grow_share", grow)


@pytest.mark.parametrize("cpus", [1, 2, 24])
@pytest.mark.parametrize("variant", sorted(test_split_search.GOLDEN))
def test_split_search_golden_hash_on_any_cpu_count(monkeypatch, cpus, variant):
    use_cpus(monkeypatch, cpus)
    d = blob_dataset(n_classes=3, per_class=40, n_features=9, spread=2.0, seed=4)
    if variant == "rounded":
        d = Dataset(x=np.round(d.x), y=d.y, class_names=d.class_names, layout=d.layout)
    model = train_rf(d, n_trees=20, max_depth=None, seed=5)
    expected, nodes = test_split_search.GOLDEN[variant]
    assert model.node_count == nodes
    assert digest(model) == expected
    assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2, 24])
@pytest.mark.parametrize("column", [0, 1])
def test_trainer_golden_hash_on_any_cpu_count(monkeypatch, cpus, column):
    use_cpus(monkeypatch, cpus)
    sel = (None, (8, 2, 5))[column]
    model = train_model("rf", test_trainers.golden_data(), test_trainers.PARAMS["rf"],
                        seed=5, selected_indices=sel)
    assert digest(model) == test_trainers.GOLDEN["rf"][column]


@pytest.mark.parametrize("n_trees", [1, 2, 3])
def test_small_forests_equal_on_any_cpu_count(monkeypatch, n_trees):
    d = blob_dataset(n_classes=4, per_class=15, n_features=7, spread=1.0, seed=n_trees)
    use_cpus(monkeypatch, 1)
    want = serialize(train_rf(d, n_trees=n_trees, max_depth=6, seed=11))
    for cpus in (2, 3, 8):
        use_cpus(monkeypatch, cpus)
        assert serialize(train_rf(d, n_trees=n_trees, max_depth=6, seed=11)) == want
    assert_no_children()


def test_one_cpu_forks_nothing(monkeypatch):
    use_cpus(monkeypatch, 1)

    def no_fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    model = train_rf(test_trainers.golden_data(), n_trees=20, seed=5)
    assert digest(model) == test_trainers.GOLDEN["rf"][0]


def test_shares_are_contiguous_and_in_index_order(monkeypatch):
    use_cpus(monkeypatch, 3)
    def grow(share):
        return [(k, os.getpid() == TEST_PID) for k in share]

    assert cart._map_forked(grow, 8) == [
        (0, True), (1, True), (2, False), (3, False), (4, False),
        (5, False), (6, False), (7, False)]
    assert_no_children()


@pytest.mark.parametrize("exc, raised", [
    (ValueError("grow failed"), ValueError),
    (Abort("grow aborted"), Abort),
    (Unpicklable("grow failed oddly", None), RuntimeError),
])
def test_child_failure_raises_in_caller(monkeypatch, deadline, escape_marker, exc, raised):
    use_cpus(monkeypatch, 2)
    failing_grow(monkeypatch, fails_in_child=True, exc=exc)
    with pytest.raises(raised) as err:
        call_guarded(escape_marker, train_rf, test_trainers.golden_data(), n_trees=6, seed=5)
    chained = err.value if raised is RuntimeError else err.value.__cause__
    assert "the process growing trees 3-5" in str(chained)
    assert type(exc).__name__ in str(chained)  # the child's traceback
    assert not escape_marker.exists()
    assert_no_children()


def test_child_that_dies_raises_in_caller(monkeypatch, deadline, escape_marker):
    use_cpus(monkeypatch, 3)
    real = cart._grow_share

    def grow(*args):
        if os.getpid() != TEST_PID:
            os._exit(9)
        return real(*args)

    monkeypatch.setattr(cart, "_grow_share", grow)
    with pytest.raises(RuntimeError, match="trees 1-1 ended with wait status"):
        call_guarded(escape_marker, train_rf, test_trainers.golden_data(), n_trees=3, seed=5)
    assert not escape_marker.exists()
    assert_no_children()


def test_caller_failure_stops_and_reaps_every_child(monkeypatch, deadline, escape_marker):
    use_cpus(monkeypatch, 4)
    real = cart._grow_share

    def grow(*args):
        if os.getpid() != TEST_PID:
            time.sleep(120)  # a child still running when the caller fails
            return real(*args)
        raise ValueError("caller's share failed")

    monkeypatch.setattr(cart, "_grow_share", grow)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="caller's share failed"):
        call_guarded(escape_marker, train_rf, test_trainers.golden_data(), n_trees=8, seed=5)
    assert time.perf_counter() - start < 30
    assert not escape_marker.exists()
    assert_no_children()
