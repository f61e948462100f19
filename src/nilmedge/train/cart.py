"""Random-forest training: bagged CART trees with Gini splits.

Each tree sees a bootstrap resample (n draws with replacement) and, at every
node, ceil(sqrt(f)) candidate features drawn without replacement. The best
split minimizes the weighted Gini impurity of the children; thresholds sit
at the midpoint between adjacent distinct sorted values, or at the lower of
the two where that midpoint does not fall in [lower, upper) (it overflows
to an infinity, or rounds onto the upper of two adjacent floats, which
would send every row to one side). A node becomes a leaf when it is pure,
the depth limit is reached, or no split improves on the parent impurity.
Per-tree RNG streams derive from (seed, tree index), so training is
reproducible and order-independent.

Each fit first replaces every value by its rank among its column's
distinct values (`_rank_codes`): uint16 codes, uint32 above 65,536 rows,
and per column a table of the sorted distinct values. Trees carry
bootstrap rows of codes, a quarter of the bytes of float rows, and a node
sorts its code columns with numpy's stable sort, a radix sort for 16-bit
integers. The forests are byte for byte those of a search on the floats.
Equal values share a code (-0.0 and +0.0 too) and codes keep value order,
so a stable sort of codes orders the rows as a stable sort of the values
does, and every score comes from the same class sums. The threshold
follows the rule above, and the rows sent left are those whose code is
below the count of values <= threshold: x <= threshold row for row. The
codes come from one stable argsort per column, not from `np.unique`,
which imports `numpy.ma` (about 2 MiB of peak memory) on its first call
in a process.

Split search scores the whole (rows, candidates) block at once: one stable
sort per column, then the Gini at cut positions only, from running sums of
squared class counts (see `_coded_split`). No (rows, candidates, classes)
count array is built, yet every score has the bits that per-class running
counts give. Labels are narrowed once per tree, so the per-node class sort
is a radix sort too, and the node's class counts, which growing the tree
needs anyway, are passed in. Ties go to the first cut in a column, then to
the first candidate, as a per-feature loop that keeps the first strictly
better split would pick.

Trees grow on every usable CPU (`os.sched_getaffinity`), in contiguous
shares of the tree indices. The calling process grows the first share
itself and forks one child per other share. A child inherits the training
codes through fork, sends its pickled trees back through a pipe and always
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

from ..models.base import whole_number
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


def _rank_codes(x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each value's rank among its column's distinct values, and each
    column's sorted distinct values: x[:, j] == values[j][codes[:, j]].

    One stable sort per column, then a rise wherever the sorted value
    changes. Equal values (-0.0 and +0.0 among them) share a code."""
    order = x.argsort(axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    rises = np.zeros(x.shape, dtype=bool)  # the sorted column rises at this row
    rises[1:] = xs[1:] > xs[:-1]
    ranks = rises.cumsum(axis=0, dtype=np.uint16 if x.shape[0] <= 65536 else np.uint32)
    codes = np.empty_like(ranks)
    np.put_along_axis(codes, order, ranks, axis=0)
    rises[:1] = True
    return codes, [xs[rises[:, j], j] for j in range(x.shape[1])]


def _coded_split(codes, values, y, feature_ids, parent_counts):
    """Best (feature, threshold, weighted child Gini) over the candidate
    columns of a node's rank codes, or None when every candidate column is
    constant; parent_counts are the node's class counts.

    A cut's Gini needs only the sum of squared class counts on each side.
    On the left that sum grows by 2r + 1 when a row joins that is preceded
    by r rows of its class; a stable sort of the classes in code order lists
    each class's rows in code order, so r is a row's place in that list. The
    right side's sum is sum(P^2) - 2 L.P + sum(L^2) for parent counts P
    and left counts L. Every sum is a whole number, exact in float64, so
    the scores are those of per-class running counts. Positions that are
    not cuts score inf, and argmin's first hit gives the tie rules."""
    block = codes[:, feature_ids]
    n, k = block.shape
    columns = np.arange(k)
    order = block.argsort(axis=0, kind="stable")
    cs = block[order, columns]
    is_cut = cs[:-1] < cs[1:]  # split after position i
    if not is_cut.any():
        return None
    classes = y[order]  # (n, k) class of each row in code order
    place = np.arange(n) - np.repeat(parent_counts.cumsum() - parent_counts, parent_counts)
    rise = np.empty((n, k), dtype=np.int64)  # 2r + 1, r: earlier rows of the same class
    rise[classes.argsort(axis=0, kind="stable"), columns] = (2 * place + 1)[:, None]
    left_sq = rise[:-1].cumsum(axis=0)  # (n-1, k)
    left_dot = parent_counts[classes[:-1]].cumsum(axis=0)
    right_sq = left_sq - 2 * left_dot + int(parent_counts @ parent_counts)
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    gini_l = 1.0 - left_sq / (nl * nl)
    gini_r = 1.0 - right_sq / (nr * nr)
    weighted = np.where(is_cut, (nl * gini_l + nr * gini_r) / n, np.inf)
    rows = weighted.argmin(axis=0)  # first minimum per column
    col = int(weighted[rows, columns].argmin())
    cut = rows[col]
    f = int(feature_ids[col])
    lower, upper = values[f][cs[cut, col]], values[f][cs[cut + 1, col]]
    threshold = (lower + upper) / 2.0
    if not lower <= threshold < upper:  # overflowed, or rounded onto upper
        threshold = lower  # x <= threshold then sends exactly the scored rows left
    return f, float(threshold), float(weighted[cut, col])


def _goes_left(codes, values, f, thr) -> np.ndarray:
    """x[:, f] <= thr for the rows behind codes: the codes below the count
    of values <= thr."""
    return codes[:, f] < values[f].searchsorted(thr, side="right")


def _grow_tree(codes, values, y, n_classes, max_depth, n_candidates, rng) -> TreeNodes:
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

    # build receives each node's rows, not indices into the tree's codes:
    # build is a closure over itself, so whatever it captures stays alive
    # until the cycle collector runs, and bootstrap copies would pile up
    def build(codes: np.ndarray, y: np.ndarray, depth: int) -> int:
        node = new_node()
        counts = np.bincount(y, minlength=n_classes)
        pure = np.count_nonzero(counts) <= 1
        if pure or (max_depth is not None and depth >= max_depth):
            leaf_class[node] = _majority(counts)
            return node
        candidates = rng.choice(codes.shape[1], size=n_candidates, replace=False)
        split = _coded_split(codes, values, y, candidates, counts)
        if split is None or split[2] >= _gini(counts) - _IMPROVEMENT_EPS:
            leaf_class[node] = _majority(counts)
            return node
        f, thr, _ = split
        go_left = _goes_left(codes, values, f, thr)
        feature[node] = f
        threshold[node] = thr
        left[node] = build(codes[go_left], y[go_left], depth + 1)
        right[node] = build(codes[~go_left], y[~go_left], depth + 1)
        return node

    build(codes, y, 0)
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
    if not whole_number(n_trees, 1):
        raise ValueError(f"n_trees must be an int >= 1, got {n_trees!r}")
    if max_depth is not None and not whole_number(max_depth, 0):
        raise ValueError(f"max_depth must be None or an int >= 0, got {max_depth!r}")
    selected_indices, _, x = model_inputs(d, selected_indices, scale=False)
    y = d.y
    n_classes = len(d.class_names)
    n_candidates = max(1, int(np.ceil(np.sqrt(x.shape[1]))))
    codes, values = _rank_codes(x)

    def grow(t: int) -> TreeNodes:
        rng = np.random.default_rng([seed, t])
        rows = rng.integers(0, y.size, size=y.size)
        return _grow_tree(codes[rows], values, y[rows], n_classes, max_depth, n_candidates, rng)

    return RfModel(
        class_names=d.class_names,
        layout=d.layout,
        selected_indices=selected_indices,
        scaler=None,  # trees are scale-free
        trees=tuple(_map_forked(grow, n_trees)),
    )
