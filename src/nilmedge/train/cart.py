"""Random-forest training: bagged CART trees with Gini splits.

Each tree sees a bootstrap resample (n draws with replacement) and, at every
node, ceil(sqrt(f)) candidate features drawn without replacement. The best
split minimizes the weighted Gini impurity of the children; thresholds sit
at the midpoint between adjacent distinct sorted values. A node becomes a
leaf when it is pure, the depth limit is reached, or no split improves on
the parent impurity. Per-tree RNG streams derive from (seed, tree index), so
training is reproducible and order-independent.

Split search scores the whole (rows, candidates) block at once: one stable
sort per column, then the Gini at cut positions only, from running sums of
squared class counts (see `_split_search`). No (rows, candidates, classes)
count array is built, yet every score has the bits that per-class running
counts give. Labels are narrowed once per tree, so the per-node class sort
is a radix sort, and the node's class counts, which growing the tree needs
anyway, are passed in. Ties go to the first cut in a column, then to the
first candidate, as a per-feature loop that keeps the first strictly
better split would pick.

Trees grow on every usable CPU (`os.sched_getaffinity`), in contiguous
shares of the tree indices. The calling process grows the first share
itself and forks one child per other share. A child inherits the training
rows through fork, sends its pickled trees back through a pipe and always
leaves through `os._exit`, so an error in it never unwinds into the
caller's code: it is raised again in the caller. The shares are joined in
index order, so the forest, and its NLMM bytes, are those of one process
growing every tree in turn; with one usable CPU nothing forks. There is no
`multiprocessing.Pool`: it would leave the calling process idle while its
workers hold every CPU, and it pickles the function it maps, where a fork
shares the rows as they are. Forking a process that runs other threads
can deadlock the child when one of them holds a lock; OpenBLAS, numpy's
usual BLAS, stops its own threads around a fork.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback

import numpy as np

from ..models.forest import LEAF, RfModel, TreeNodes
from .dataset import Dataset, model_inputs

_IMPROVEMENT_EPS = 1e-12


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


def _majority(counts: np.ndarray) -> int:
    return int(np.argmax(counts))  # first max = lowest class id


def _best_split(x, y, feature_ids, n_classes):
    """Best (feature, threshold, weighted child Gini) over the candidates,
    or None when every candidate column is constant."""
    return _split_search(x, y, feature_ids, np.bincount(y, minlength=n_classes))


def _split_search(x, y, feature_ids, parent_counts):
    """`_best_split` for a node whose class counts the caller already has.

    A cut's Gini needs only the sum of squared class counts on each side.
    On the left that sum grows by 2r + 1 when a row joins that is preceded
    by r rows of its class; a stable sort of the classes in x order lists
    each class's rows in x order, so r is a row's place in that list. The
    right side's sum is sum(P^2) - 2 L.P + sum(L^2) for parent counts P
    and left counts L. Every sum is a whole number, exact in float64, so
    the scores are those of per-class running counts. Positions that are
    not cuts score inf, and argmin's first hit gives the tie rules."""
    block = x[:, feature_ids]
    n, k = block.shape
    order = np.argsort(block, axis=0, kind="stable")
    xs = block[order, np.arange(k)]
    is_cut = xs[:-1] < xs[1:]  # split after position i
    if not is_cut.any():
        return None
    classes = y[order]  # (n, k) class of each row in x order
    place = np.arange(n) - np.repeat(np.cumsum(parent_counts) - parent_counts, parent_counts)
    rise = np.empty((n, k), dtype=np.int64)  # 2r + 1, r: earlier rows of the same class
    rise[np.argsort(classes, axis=0, kind="stable"), np.arange(k)] = (2 * place + 1)[:, None]
    left_sq = np.cumsum(rise[:-1], axis=0)  # (n-1, k)
    left_dot = np.cumsum(parent_counts[classes[:-1]], axis=0)
    right_sq = left_sq - 2 * left_dot + int(parent_counts @ parent_counts)
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    gini_l = 1.0 - left_sq / (nl * nl)
    gini_r = 1.0 - right_sq / (nr * nr)
    weighted = np.where(is_cut, (nl * gini_l + nr * gini_r) / n, np.inf)
    rows = np.argmin(weighted, axis=0)  # first minimum per column
    col = int(np.argmin(weighted[rows, np.arange(k)]))
    cut = rows[col]
    threshold = (xs[cut, col] + xs[cut + 1, col]) / 2.0
    return int(feature_ids[col]), float(threshold), float(weighted[cut, col])


def _grow_tree(x, y, n_classes, max_depth, n_candidates, rng) -> TreeNodes:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_class: list[int] = []
    y = y.astype(np.min_scalar_type(n_classes - 1))  # a narrow type sorts by radix

    def new_node() -> int:
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(LEAF)
        right.append(LEAF)
        leaf_class.append(LEAF)
        return len(feature) - 1

    # build receives each node's rows, not indices into the tree's x: build
    # is a closure over itself, so whatever it captures stays alive until
    # the cycle collector runs, and bootstrap copies of x would pile up
    def build(x: np.ndarray, y: np.ndarray, depth: int) -> int:
        node = new_node()
        counts = np.bincount(y, minlength=n_classes)
        pure = np.count_nonzero(counts) <= 1
        if pure or (max_depth is not None and depth >= max_depth):
            leaf_class[node] = _majority(counts)
            return node
        candidates = rng.choice(x.shape[1], size=n_candidates, replace=False)
        split = _split_search(x, y, candidates, counts)
        if split is None or split[2] >= _gini(counts) - _IMPROVEMENT_EPS:
            leaf_class[node] = _majority(counts)
            return node
        f, thr, _ = split
        go_left = x[:, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = build(x[go_left], y[go_left], depth + 1)
        right[node] = build(x[~go_left], y[~go_left], depth + 1)
        return node

    build(x, y, 0)
    return TreeNodes(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        leaf_class=np.array(leaf_class, dtype=np.int32),
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (and maybe no fork) on this platform
        return 1


def _map_forked(fn, n: int) -> list:
    """[fn(k) for k in range(n)], split into one contiguous share per usable
    CPU; the caller runs the first share and a forked child each other."""
    n_shares = min(_usable_cpus(), n)
    bounds = [n * s // n_shares for s in range(n_shares + 1)]
    shares = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    children = []  # (pid, read end of its pipe, share), not yet reaped
    try:
        for share in shares[1:]:
            children.append((*_fork_share(fn, share), share))
        out = [fn(k) for k in shares[0]]
        while children:
            pid, pipe, share = children[0]
            data = pipe.read()
            status = _reap(pid, pipe)
            children.pop(0)
            out += _share_result(data, status, share)
        return out
    finally:  # children are left here only when the caller failed
        for pid, pipe, _ in children:
            os.kill(pid, signal.SIGKILL)
            _reap(pid, pipe)


def _fork_share(fn, share: range):
    """Fork a child that pickles (True, [fn(k) for k in share]), or (False,
    exception or None, traceback text), into a pipe; return (pid, read end
    as an unbuffered file)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, [fn(k) for k in share])
            except BaseException as exc:  # sent to the caller, which raises it again
                payload = (False, _portable(exc), traceback.format_exc())
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb", buffering=0)


def _reap(pid: int, pipe) -> int:
    status = os.waitpid(pid, 0)[1]
    pipe.close()
    return status


def _share_result(data: bytes, status: int, share: range) -> list:
    where = f"the process growing trees {share.start}-{share.stop - 1}"
    if status != 0 or not data:
        raise RuntimeError(f"{where} ended with wait status {status}")
    ok, value, *tb = pickle.loads(data)  # written by our own child
    if ok:
        return value
    cause = RuntimeError(f"in {where}:\n{tb[0]}")
    if value is None:
        raise cause
    raise value from cause


def _portable(exc: BaseException) -> BaseException | None:
    """exc if it survives a pickle round trip, else None."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


def train_rf(
    d: Dataset,
    n_trees: int = 100,
    max_depth: int | None = None,
    seed: int = 0,
    selected_indices: tuple[int, ...] | None = None,
) -> RfModel:
    """Fit a forest on (optionally feature-selected) raw, unscaled features."""
    if n_trees < 1:
        raise ValueError("a forest needs at least one tree")
    selected_indices, _, x = model_inputs(d, selected_indices, scale=False)
    y = d.y
    n_classes = len(d.class_names)
    n_candidates = max(1, int(np.ceil(np.sqrt(x.shape[1]))))

    def grow(t: int) -> TreeNodes:
        rng = np.random.default_rng([seed, t])
        rows = rng.integers(0, y.size, size=y.size)
        return _grow_tree(x[rows], y[rows], n_classes, max_depth, n_candidates, rng)

    return RfModel(
        class_names=d.class_names,
        layout=d.layout,
        selected_indices=selected_indices,
        scaler=None,  # trees are scale-free
        trees=tuple(_map_forked(grow, n_trees)),
    )
