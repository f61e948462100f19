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
and per column a table of the sorted distinct values. Nodes hold indices
into the fit's codes, and a node's column sort is numpy's stable sort, a
radix sort for 16-bit integers. The forests are byte for byte those of a
search on the floats. Equal values share a code (-0.0 and +0.0 too) and
codes keep value order, so a stable sort of codes orders the rows as a
stable sort of the values does, and every score comes from the same class
sums. The threshold follows the rule above, and the rows sent left are
those whose code is at most the code below the cut: x <= threshold row for
row. The codes come from one stable argsort per column, not from
`np.unique`, which imports `numpy.ma` (about 2 MiB of peak memory) on its
first call in a process.

A process grows its share of the trees in lockstep (`_grow_share`). Each
tree keeps its own RNG and a stack of nodes in preorder; a step visits
every unfinished tree up to its next node to search, draws that node's
candidate columns, and searches the step's nodes together in chunks of at
most `_CHUNK_CODES` candidate codes (`_split_nodes`). A chunk is one
(candidates, rows) block: segmented stable sorts, running sums that
restart at each node, and the Gini at cut positions only, from running
sums of squared class counts, with no (rows, candidates, classes) count
array and the bits that per-class running counts give. Ties go to the
first candidate, then to its first cut, as a per-feature loop that keeps
the first strictly better split would pick. One batched partition sends
each node's rows to its children, and its bincount gives the children's
class counts, from which pure and depth-limited children become leaves
with no search. Draws, node ids and splits are those of each tree grown
alone, and so of any chunk size: batching removes the per-node numpy call
overhead that dominated small nodes. A chunk holds up to 32,768 codes, nine
103-feature roots of 329 rows; it costs about 28 bytes per code at its
peak (each sort index is dropped as soon as the next array is made, and
the squared-count sums become the scores in place), so a 100-tree fit of
329 rows by 103 features peaks at about 1.9 MiB of traced allocations
(`tracemalloc`) in the calling process with two CPUs, and 2.4 MiB with one.

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

from ..checks import whole_number
from ..models.forest import LEAF, RfModel, TreeNodes
from .dataset import Dataset, model_inputs

_IMPROVEMENT_EPS = 1e-12
_CHUNK_CODES = 32768  # candidate codes per split search: about 0.9 MiB of temporaries


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


def _narrow(a: np.ndarray, top: int) -> np.ndarray:
    """a as the narrowest unsigned type that holds 0..top: numpy's stable
    sort of 8- and 16-bit integers is a radix sort."""
    return a.astype(np.min_scalar_type(top))


def _cumsum_segments(a: np.ndarray, starts: np.ndarray) -> None:
    """Running sums along axis 1 in place, restarting at every start: each
    start first takes away the total of the segment before it."""
    totals = np.add.reduceat(a, starts, axis=1)
    a[:, starts[1:]] -= totals[:, :-1]
    np.cumsum(a, axis=1, out=a)


def _split_nodes(codes, values, y, rows, sizes, candidates, counts):
    """Best split of every node of a chunk, in one segmented search.

    Node j owns sizes[j] >= 2 consecutive entries of rows (indices into the
    rank codes and y), the candidate columns candidates[j] and the class
    counts counts[j]. Returns per node the weighted child Gini of its best
    cut (inf when every candidate column is constant), that cut's feature
    and threshold, and per entry of rows whether the best cut sends it left.

    The (candidates, rows) block is sorted by code, then stably by node, so
    each node's rows appear in code order within its own span. A cut's Gini
    needs only the sum of squared class counts on each side. On the left
    that sum grows by 2r + 1 when a row joins that is preceded by r rows of
    its class; a stable sort of the rows in code order by (node, class)
    lists each class's rows of a node in code order, so r is a row's place
    in that list. The right side's sum is sum(P^2) - 2 L.P + sum(L^2) for
    parent counts P and left counts L. Every sum is a whole number, held
    in float64, where it is exact for nodes of fewer than 67 million rows
    (|2 L.P| < 2^53), so the scores are those of per-class running counts.
    Positions that are not cuts, the last of each node among them, score
    inf, and the first minimum gives the tie rules: the first candidate,
    then its first cut."""
    m, k = candidates.shape
    n_classes = counts.shape[1]
    total = rows.size
    node = np.repeat(np.arange(m), sizes)  # the node of each entry
    starts = sizes.cumsum() - sizes
    last = starts + sizes - 1
    # the (k, total) block of codes, sorted by code and then stably by node;
    # each temporary goes as soon as the next is made
    block = codes[rows, candidates[node].T]
    order = block.argsort(axis=1, kind="stable")
    by_node = _narrow(node, m - 1)[order].argsort(axis=1, kind="stable")
    order = np.take_along_axis(order, by_node, axis=1)  # entries of each node in code order
    del by_node
    row_start = np.arange(0, k * total, total)[:, None]  # (k, total) blocks are indexed flat
    cs = block.ravel()[order + row_start]
    del block
    # (node, class) of each entry in code order
    group = _narrow(node * n_classes + y[rows], m * n_classes - 1)[order]
    del order
    by_group = group.argsort(axis=1, kind="stable")
    flat = counts.ravel()  # the group sizes, in group order
    place = np.arange(total) - np.repeat(flat.cumsum() - flat, flat)
    left_sq = np.empty((k, total))  # 2r + 1, r: earlier rows of the group
    np.put_along_axis(left_sq, by_group, 2.0 * place + 1.0, axis=1)
    del by_group
    _cumsum_segments(left_sq, starts)
    right_sq = flat.astype(np.float64)[group]  # P of each entry's class
    del group
    _cumsum_segments(right_sq, starts)  # L.P
    right_sq *= -2.0
    right_sq += left_sq
    right_sq += np.einsum("ij,ij->i", counts, counts)[node]
    n = sizes[node].astype(np.float64)
    nl = np.arange(1.0, total + 1.0) - starts[node]
    nr = n - nl
    nr[last] = 1.0  # no cut ends a node: keeps 0/0 out of the masked positions
    weighted = left_sq  # becomes nl * gini_l + nr * gini_r, over n, in place
    weighted /= nl * nl
    np.subtract(1.0, weighted, out=weighted)
    weighted *= nl
    right_sq /= nr * nr  # becomes nr * gini_r
    np.subtract(1.0, right_sq, out=right_sq)
    right_sq *= nr
    weighted += right_sq
    del right_sq
    weighted /= n
    np.copyto(weighted[:, :-1], np.inf, where=cs[:, :-1] == cs[:, 1:])
    weighted[:, last] = np.inf
    column_min = np.minimum.reduceat(weighted, starts, axis=1)  # (k, m)
    best = column_min.argmin(axis=0)  # first candidate at the node's minimum
    score = column_min[best, np.arange(m)]
    chosen = best[node] * total + np.arange(total)  # each entry in its node's best column
    hits = np.flatnonzero(weighted.ravel()[chosen] == score[node])
    cut = hits[hits.searchsorted(starts)]  # first cut at the minimum
    lower_code = cs[best, cut]
    feature = candidates[np.arange(m), best]
    threshold = np.zeros(m)
    for j in np.flatnonzero(score < np.inf).tolist():
        column = values[feature[j]]
        lower, upper = column[lower_code[j]], column[cs[best[j], cut[j] + 1]]
        mid = (lower + upper) / 2.0
        # where the midpoint overflowed or rounded onto upper, the lower value
        # sends exactly the scored rows left
        threshold[j] = mid if lower <= mid < upper else lower
    # x <= threshold: the codes up to the lower side's
    go_left = codes[rows, feature[node]] <= lower_code[node]
    return score, feature, threshold, go_left


class _Tree:
    """One tree while it grows: its RNG, its node arrays in preorder, and a
    stack of nodes not yet visited. An entry is (parent, is_right, depth,
    rows, class counts, leaf class): the leaf class is LEAF for a node to
    search, and a child already known to be a leaf carries no rows or
    counts."""

    __slots__ = ("rng", "stack", "feature", "threshold", "left", "right", "leaf_class")

    def __init__(self, rng, rows, counts, leaf):
        self.rng = rng
        self.stack = [(LEAF, False, 0, rows, counts, leaf)]  # the root
        self.feature, self.threshold, self.left, self.right, self.leaf_class = [], [], [], [], []

    def next_search(self):
        """Visit nodes in preorder up to the next one to search; return its
        (node, depth, rows, counts), or None when the tree is complete."""
        stack = self.stack
        while stack:
            parent, is_right, depth, rows, counts, leaf = stack.pop()
            node = len(self.feature)
            self.feature.append(LEAF)
            self.threshold.append(0.0)
            self.left.append(LEAF)
            self.right.append(LEAF)
            self.leaf_class.append(leaf)
            if parent != LEAF:
                (self.right if is_right else self.left)[parent] = node
            if leaf == LEAF:
                return node, depth, rows, counts
        return None

    def nodes(self) -> TreeNodes:
        return TreeNodes(self.feature, self.threshold, self.left, self.right, self.leaf_class)


def _grow_share(codes, values, y, n_classes, max_depth, n_candidates, seed, share) -> list:
    """The trees with indices in share, grown in lockstep.

    Each step takes the next node to search from every unfinished tree and
    searches them in chunks of at most _CHUNK_CODES candidate codes (or of
    one node, where that node alone has more). A tree visits its nodes in
    preorder and draws its candidates from its own RNG as it reaches them,
    so its draws, node ids and splits are those of the tree grown alone.
    Leaves are decided from the class counts that the parent's partition
    produced."""
    limit = np.inf if max_depth is None else max_depth
    rngs = [np.random.default_rng([seed, t]) for t in share]
    rows = [rng.integers(0, y.size, size=y.size) for rng in rngs]  # bootstraps
    counts = np.stack([np.bincount(y[r], minlength=n_classes) for r in rows])
    leaf = _leaf_classes(counts, limit <= 0)
    trees = [_Tree(*tree) for tree in zip(rngs, rows, counts, leaf)]
    n_features = codes.shape[1]
    active = trees
    while active:
        unfinished, chunk, chunk_codes = [], [], 0
        for tree in active:
            found = tree.next_search()
            if found is None:
                continue
            unfinished.append(tree)
            size = found[2].size * n_candidates
            if chunk and chunk_codes + size > _CHUNK_CODES:
                _grow_chunk(chunk, codes, values, y, n_classes, limit)
                chunk, chunk_codes = [], 0
            candidates = tree.rng.choice(n_features, size=n_candidates, replace=False)
            chunk.append((tree, *found, candidates))
            chunk_codes += size
        if chunk:
            _grow_chunk(chunk, codes, values, y, n_classes, limit)
        active = unfinished
    return [tree.nodes() for tree in trees]


def _grow_chunk(chunk, codes, values, y, n_classes, limit) -> None:
    """Search a chunk's nodes, then split each that improves on its parent
    Gini and push its children onto its tree's stack, right first."""
    m = len(chunk)
    sizes = np.array([entry[3].size for entry in chunk])
    rows = np.concatenate([entry[3] for entry in chunk])
    counts = np.stack([entry[4] for entry in chunk])
    score, feature, threshold, go_left = _split_nodes(
        codes, values, y, rows, sizes, np.stack([entry[5] for entry in chunk]), counts)
    p = counts / counts.sum(axis=1, keepdims=True)
    gini = 1.0 - (p[:, None, :] @ p[:, :, None])[:, 0, 0]  # each node's 1 - np.dot(p, p)
    splits = (score < gini - _IMPROVEMENT_EPS).tolist()
    # one stable partition of every node: left child 2j, right child 2j + 1
    child = np.repeat(np.arange(0, 2 * m, 2), sizes) + ~go_left
    child_counts = np.bincount(child * n_classes + y[rows], minlength=2 * m * n_classes)
    child_counts = child_counts.reshape(2 * m, n_classes)
    rows = rows[_narrow(child, 2 * m - 1).argsort(kind="stable")]
    bounds = [0, *child_counts.sum(axis=1).cumsum().tolist()]
    deep = np.array([entry[2] for entry in chunk]) + 1 >= limit  # the children's depth
    leaf_of_child = _leaf_classes(child_counts, np.repeat(deep, 2))
    leaf_of_node = counts.argmax(axis=1).tolist()  # first max = lowest class id
    feature, threshold = feature.tolist(), threshold.tolist()
    for j, (tree, node, depth, *_) in enumerate(chunk):
        if not splits[j]:
            tree.leaf_class[node] = leaf_of_node[j]
            continue
        tree.feature[node] = feature[j]
        tree.threshold[node] = threshold[j]
        for c, is_right in ((2 * j + 1, True), (2 * j, False)):  # the left child is visited first
            if leaf_of_child[c] != LEAF:
                tree.stack.append((node, is_right, depth + 1, None, None, leaf_of_child[c]))
            else:  # a right child waits: copy its rows off the chunk's array
                side = rows[bounds[c]:bounds[c + 1]]
                tree.stack.append((node, is_right, depth + 1, side.copy() if is_right else side,
                                   child_counts[c], LEAF))


def _leaf_classes(counts: np.ndarray, deep) -> list:
    """Per row of class counts, the majority class (first max, the lowest
    id) where the node is a leaf, pure or as deep as the limit, else LEAF."""
    return np.where((np.count_nonzero(counts, axis=1) <= 1) | deep,
                    counts.argmax(axis=1), LEAF).tolist()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (and maybe no fork) on this platform
        return 1


def _map_forked(grow, n: int) -> list:
    """grow(share) for contiguous shares of range(n), one per usable CPU,
    concatenated in index order; the caller grows the first share and a
    forked child each other."""
    n_shares = min(_usable_cpus(), n)
    bounds = [n * s // n_shares for s in range(n_shares + 1)]
    shares = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    children = []  # (pid, read end of its pipe, share), not yet reaped
    try:
        for share in shares[1:]:
            children.append((*_fork_share(grow, share), share))
        out = grow(shares[0])
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


def _fork_share(grow, share: range):
    """Fork a child that pickles (True, grow(share)), or (False, exception
    or None, traceback text), into a pipe; return (pid, read end as an
    unbuffered file)."""
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
                payload = (True, grow(share))
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
    fields, x = model_inputs(d, selected_indices, scale=False)  # trees are scale-free
    n_classes = len(d.class_names)
    n_candidates = max(1, int(np.ceil(np.sqrt(x.shape[1]))))
    codes, values = _rank_codes(x)
    y = _narrow(d.y, n_classes - 1)

    def grow(share: range) -> list:
        return _grow_share(codes, values, y, n_classes, max_depth, n_candidates, seed, share)

    return RfModel(**fields, trees=tuple(_map_forked(grow, n_trees)))
