"""Shared builders and brute-force oracles for the test suite.

Every oracle here recomputes its answer from first principles (scalar loops,
exhaustive enumeration) so the fast numpy paths are checked against code
that shares none of their structure.
"""

from __future__ import annotations

import json
import math
from itertools import product

import numpy as np

from nilmedge.events import GUARD_RADIUS, detect_event
from nilmedge.features import DEFAULT_LAYOUT, EXTRACT_BLOCK, TIME_ONLY_LAYOUT, FeatureLayout
from nilmedge.models.base import classify_matrix
from nilmedge.models.forest import RfModel, TreeNodes
from nilmedge.models.knn import KnnModel
from nilmedge.models.mlp import MlpModel
from nilmedge.models.svm import SvmModel, kernel_matrix, pair_order
from nilmedge.signals import window_stream
from nilmedge.train.cart import _rank_codes, _split_nodes
from nilmedge.train.dataset import Dataset, model_inputs
from nilmedge.train.sgd import DivergenceError, init_parameters
from nilmedge.train.smo import SV_EPS, smo_binary


def small_layout(n_features: int) -> FeatureLayout:
    """A layout with exactly n_features entries (for synthetic datasets)."""
    if n_features == 3:
        return FeatureLayout(harmonic_orders=())
    if n_features < 3:
        return FeatureLayout(time_domain=False,
                             harmonic_orders=tuple(range(1, 2 * n_features, 2)),
                             complex_pairs=False)
    return FeatureLayout(harmonic_orders=tuple(range(1, 2 * (n_features - 3), 2)),
                         complex_pairs=False)


def blob_dataset(n_classes=3, per_class=60, n_features=4, spread=1.0, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 5, size=(n_classes, n_features))
    x = np.vstack([centers[c] + rng.normal(0, spread, size=(per_class, n_features))
                   for c in range(n_classes)])
    y = np.repeat(np.arange(n_classes), per_class)
    return Dataset(x=x, y=y, class_names=tuple(f"class_{c}" for c in range(n_classes)),
                   layout=small_layout(n_features))


# --- random model builders -----------------------------------------------------

def _common(n_classes, n_features):
    return dict(
        class_names=tuple(f"class_{c}" for c in range(n_classes)),
        layout=DEFAULT_LAYOUT,
        selected_indices=tuple(range(n_features)),
    )


def random_knn(rng, n=60, f=5, n_classes=3, k=5) -> KnnModel:
    return KnnModel(**_common(n_classes, f), scaler=None, k=k,
                    train_x=rng.normal(size=(n, f)),
                    train_y=rng.integers(0, n_classes, size=n))


def random_svm(rng, n_sv_per_class=6, f=5, n_classes=4, kernel="rbf", gamma=0.3) -> SvmModel:
    n_sv = n_sv_per_class * n_classes
    return SvmModel(**_common(n_classes, f), scaler=None,
                    kernel=kernel, gamma=gamma,
                    support=rng.normal(size=(n_sv, f)),
                    sv_counts=np.full(n_classes, n_sv_per_class),
                    dual_coef=rng.normal(size=(n_classes - 1, n_sv)),
                    intercepts=rng.normal(size=n_classes * (n_classes - 1) // 2))


def random_mlp(rng, sizes=(4, 3, 3, 2)) -> MlpModel:
    ws = tuple(rng.normal(size=(o, i)) for i, o in zip(sizes, sizes[1:]))
    bs = tuple(rng.normal(size=o) for o in sizes[1:])
    return MlpModel(**_common(sizes[-1], sizes[0]), scaler=None, weights=ws, biases=bs)


def random_tree(rng, f, n_classes, depth=3) -> TreeNodes:
    feature, threshold, left, right, leaf = [], [], [], [], []

    def build(level):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf.append(-1)
        if level >= depth or rng.random() < 0.25:
            leaf[node] = int(rng.integers(0, n_classes))
        else:
            feature[node] = int(rng.integers(0, f))
            threshold[node] = float(rng.normal())
            left[node] = build(level + 1)
            right[node] = build(level + 1)
        return node

    build(0)
    return TreeNodes(feature=np.array(feature, dtype=np.int32),
                     threshold=np.array(threshold),
                     left=np.array(left, dtype=np.int32),
                     right=np.array(right, dtype=np.int32),
                     leaf_class=np.array(leaf, dtype=np.int32))


def random_rf(rng, n_trees=20, f=5, n_classes=3, depth=4) -> RfModel:
    return RfModel(**_common(n_classes, f), scaler=None,
                   trees=tuple(random_tree(rng, f, n_classes, depth) for _ in range(n_trees)))


# --- JSON document mutations -------------------------------------------------------

def leaf_paths(doc, prefix=()):
    """Every (key, ...) path to a value that is not an object."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def edited(doc, path, value=None, drop=False) -> str:
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


BAD_VALUES = (float("nan"), -1, "x", [], None)


# --- brute-force prediction oracles ---------------------------------------------

def knn_oracle(model: KnnModel, x) -> int:
    """Full sort of (distance, row) pairs with explicit scalar distances."""
    dists = []
    for row_idx in range(model.train_x.shape[0]):
        d = 0.0
        for j in range(model.train_x.shape[1]):
            diff = model.train_x[row_idx, j] - x[j]
            d += diff * diff
        dists.append((d, row_idx))
    dists.sort()
    nearest = dists[: model.k]
    votes: dict[int, int] = {}
    dist_sum: dict[int, float] = {}
    for d, row_idx in nearest:
        c = int(model.train_y[row_idx])
        votes[c] = votes.get(c, 0) + 1
        dist_sum[c] = dist_sum.get(c, 0.0) + d
    best_votes = max(votes.values())
    tied = [c for c, v in votes.items() if v == best_votes]
    if len(tied) > 1:
        best_sum = min(dist_sum[c] for c in tied)
        tied = [c for c in tied if dist_sum[c] == best_sum]
    return min(tied)


def svm_oracle(model: SvmModel, x) -> int:
    """Enumerate all class pairs with scalar kernel evaluations."""
    starts = np.concatenate([[0], np.cumsum(model.sv_counts)])

    def kernel(s, xv):
        if model.kernel == "linear":
            return sum(s[j] * xv[j] for j in range(len(xv)))
        d2 = sum((s[j] - xv[j]) ** 2 for j in range(len(xv)))
        return math.exp(-model.gamma * d2)

    votes = {c: 0 for c in range(model.n_classes)}
    scores = {c: 0.0 for c in range(model.n_classes)}
    for p, (a, b) in enumerate(pair_order(model.n_classes)):
        decision = float(model.intercepts[p])
        for s in range(int(starts[a]), int(starts[a + 1])):
            decision += model.dual_coef[b - 1, s] * kernel(model.support[s], x)
        for s in range(int(starts[b]), int(starts[b + 1])):
            decision += model.dual_coef[a, s] * kernel(model.support[s], x)
        if decision > 0:
            votes[a] += 1
        else:
            votes[b] += 1
        scores[a] += decision
        scores[b] -= decision
    best_votes = max(votes.values())
    tied = [c for c, v in votes.items() if v == best_votes]
    if len(tied) > 1:
        best_score = max(scores[c] for c in tied)
        tied = [c for c in tied if scores[c] == best_score]
    return min(tied)


def svm_dict_merge(d: Dataset, c: float, gamma: float, kernel: str) -> SvmModel:
    """train_svm with each pair machine's kept multipliers held as a
    {row: alpha} dict and merged into the shared-SV layout row by row."""
    fields, x = model_inputs(d)
    y, n_classes = d.y, len(d.class_names)
    class_rows = [np.flatnonzero(y == cls) for cls in range(n_classes)]
    pairs = pair_order(n_classes)
    pair_alphas: list[dict[int, float]] = []
    intercepts = np.zeros(len(pairs))
    for p, (a_cls, b_cls) in enumerate(pairs):
        rows = np.sort(np.concatenate([class_rows[a_cls], class_rows[b_cls]]))
        labels = np.where(y[rows] == a_cls, 1.0, -1.0)
        alpha, intercepts[p], _ = smo_binary(kernel_matrix(kernel, gamma, x[rows], x[rows]),
                                             labels, c)
        pair_alphas.append({int(r): float(al) for r, al in zip(rows, alpha) if al > SV_EPS})
    sv_rows: list[int] = []
    sv_counts = np.zeros(n_classes, dtype=np.int64)
    for cls in range(n_classes):
        members = [int(r) for r in class_rows[cls] if any(r in pa for pa in pair_alphas)]
        sv_rows.extend(members)
        sv_counts[cls] = len(members)
    col_of = {r: j for j, r in enumerate(sv_rows)}
    dual = np.zeros((n_classes - 1, len(sv_rows)))
    for p, (a_cls, b_cls) in enumerate(pairs):
        for r, al in pair_alphas[p].items():
            cls = int(y[r])
            signed = al if cls == a_cls else -al
            other = b_cls if cls == a_cls else a_cls
            dual[other if other < cls else other - 1, col_of[r]] = signed
    return SvmModel(**fields, metadata={"c": c, "gamma": gamma}, kernel=kernel,
                    gamma=float(gamma), support=x[np.array(sv_rows, dtype=np.intp)],
                    sv_counts=sv_counts, dual_coef=dual, intercepts=intercepts)


def mlp_oracle_scores(model: MlpModel, x):
    """Per-neuron scalar forward pass. The rectifier passes NaN on, as
    np.maximum does, and maps -0.0 to 0.0."""
    a = list(x)
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        out = []
        for o in range(w.shape[0]):
            z = b[o]
            for i in range(w.shape[1]):
                z += w[o, i] * a[i]
            if layer < len(model.weights) - 1 and not (z > 0.0 or math.isnan(z)):
                z = 0.0
            out.append(z)
        a = out
    return a


def mlp_oracle(model: MlpModel, x) -> int:
    scores = mlp_oracle_scores(model, x)
    best = max(scores)
    return min(c for c, s in enumerate(scores) if s == best)


def mlp_oracle_forward(weights, biases, x):
    """Out-of-place forward pass: (scores, [x, hidden activations...])."""
    activations = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        activations.append(np.maximum(activations[-1] @ w.T + b, 0.0))
    return activations[-1] @ weights[-1].T + biases[-1], activations


def mlp_oracle_grads(weights, biases, x, y):
    """Out-of-place backward pass: (loss, weight_grads, bias_grads), every
    layer's gradients formed before any of them is used."""
    scores, activations = mlp_oracle_forward(weights, biases, x)
    batch = x.shape[0]
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(batch), y] + 1e-300)))
    delta = probs
    delta[np.arange(batch), y] -= 1.0
    delta /= batch
    w_grads = [None] * len(weights)
    b_grads = [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        w_grads[layer] = delta.T @ activations[layer]
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer]) * (activations[layer] > 0)
    return loss, w_grads, b_grads


def train_mlp_oracle(d: Dataset, hidden, lr, epochs, batch, seed,
                     selected_indices=None) -> MlpModel:
    """The two-phase SGD loop: each step forms every layer's gradients, checks
    the loss, then runs `w -= lr * g` and `b -= lr * g` on every layer."""
    fields, x = model_inputs(d, selected_indices)
    y = d.y
    rng = np.random.default_rng(seed)
    order = rng.permutation(y.size)
    n_holdout = max(1, int(round(0.1 * y.size)))
    hold_idx, fit_idx = order[:n_holdout], order[n_holdout:]
    x_fit, y_fit = x[fit_idx], y[fit_idx]
    x_hold, y_hold = x[hold_idx], y[hold_idx]
    weights, biases = init_parameters((x.shape[1],) + tuple(hidden) + (len(d.class_names),), rng)

    best_acc, best = -1.0, None
    for epoch in range(epochs):
        perm = rng.permutation(y_fit.size)
        for lo in range(0, y_fit.size, batch):
            rows = perm[lo:lo + batch]
            loss, w_grads, b_grads = mlp_oracle_grads(weights, biases, x_fit[rows], y_fit[rows])
            if not np.isfinite(loss):
                raise DivergenceError(epoch)
            weights = [w - lr * g for w, g in zip(weights, w_grads)]
            biases = [b - lr * g for b, g in zip(biases, b_grads)]
        scores, _ = mlp_oracle_forward(weights, biases, x_hold)
        acc = float(np.mean(np.argmax(scores, axis=1) == y_hold))
        if acc > best_acc:
            best_acc, best = acc, (weights, biases, epoch)
    weights, biases, best_epoch = best
    return MlpModel(**fields, metadata={"best_epoch": best_epoch, "holdout_accuracy": best_acc},
                    weights=tuple(weights), biases=tuple(biases))


def rf_oracle(model: RfModel, x) -> int:
    """Route each tree one node at a time; explicit vote count."""
    votes = {c: 0 for c in range(model.n_classes)}
    for tree in model.trees:
        node = 0
        while tree.feature[node] != -1:
            if x[tree.feature[node]] <= tree.threshold[node]:
                node = int(tree.left[node])
            else:
                node = int(tree.right[node])
        votes[int(tree.leaf_class[node])] += 1
    best = max(votes.values())
    return min(c for c, v in votes.items() if v == best)


def worst_case_depth(tree: TreeNodes) -> int:
    """Longest root-to-leaf path, counted in comparisons."""
    depth = np.zeros(tree.n_nodes, dtype=np.int64)
    worst = 0
    for node in range(tree.n_nodes):
        if tree.feature[node] == -1:
            worst = max(worst, int(depth[node]))
        else:
            depth[tree.left[node]] = depth[node] + 1
            depth[tree.right[node]] = depth[node] + 1
    return worst


def leaf_oracle(tree: TreeNodes, x) -> int:
    """Leaf class one tree gives x, routed one node at a time."""
    node = 0
    while tree.feature[node] != -1:
        node = int(tree.left[node] if x[tree.feature[node]] <= tree.threshold[node]
                   else tree.right[node])
    return int(tree.leaf_class[node])


# --- CART split-search oracle ----------------------------------------------------

def split_nodes(x, y, nodes, n_classes):
    """CART's batched split search on float rows, ranked first as each
    train_rf fit ranks its rows. nodes is a list of (row indices, candidate
    columns), every node with the same number of candidates; returns per
    node (feature, threshold, weighted child Gini) or None when every
    candidate column is constant, and the node's rows that go left."""
    codes, values = _rank_codes(x)
    rows = [np.asarray(r) for r, _ in nodes]
    counts = np.stack([np.bincount(y[r], minlength=n_classes) for r in rows])
    sizes = np.array([r.size for r in rows])
    candidates = np.stack([np.asarray(c) for _, c in nodes])
    score, feature, threshold, go_left = _split_nodes(
        codes, values, y, np.concatenate(rows), sizes, candidates, counts)
    splits = [None if s == np.inf else (int(f), float(t), float(s))
              for s, f, t in zip(score, feature, threshold)]
    return splits, np.split(go_left, sizes.cumsum()[:-1])


def best_split(x, y, feature_ids, n_classes):
    """CART's split search over all rows of x as one node."""
    return split_nodes(x, y, [(np.arange(y.size), feature_ids)], n_classes)[0][0]


def best_split_oracle(x, y, feature_ids, n_classes):
    """Per-feature loop: sort one candidate column at a time, keep the first
    strictly better weighted child Gini. The threshold is the midpoint of
    the two values at the cut, or the lower one where the midpoint falls
    outside [lower, upper)."""
    n = y.size
    parent_counts = np.bincount(y, minlength=n_classes)
    best = None
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    for f in feature_ids:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        cut = np.flatnonzero(xs[:-1] < xs[1:])  # split after position i
        if cut.size == 0:
            continue
        cum = np.cumsum(onehot[order], axis=0)
        left = cum[cut]  # (n_cuts, C)
        right = parent_counts - left
        nl = left.sum(axis=1)
        nr = n - nl
        gini_l = 1.0 - np.einsum("ij,ij->i", left, left) / (nl * nl)
        gini_r = 1.0 - np.einsum("ij,ij->i", right, right) / (nr * nr)
        weighted = (nl * gini_l + nr * gini_r) / n
        k = int(np.argmin(weighted))
        if best is None or weighted[k] < best[2]:
            lower, upper = xs[cut[k]], xs[cut[k] + 1]
            threshold = (lower + upper) / 2.0
            if not lower <= threshold < upper:  # the midpoint would not separate them
                threshold = lower
            best = (int(f), float(threshold), float(weighted[k]))
    return best


# --- whole-array acquisition oracles ----------------------------------------------

def calibrate_oracle(codes, gain: float, offset: float) -> np.ndarray:
    """One channel's calibration as one whole-array product and sum."""
    return np.asarray(codes, dtype=np.float64) * float(gain) + float(offset)


def decimate_oracle(samples) -> np.ndarray:
    """Pair averaging as one whole-array sum and division."""
    pairs = np.asarray(samples, dtype=np.float64).reshape(-1, 2)
    return (pairs[:, 0] + pairs[:, 1]) / 2.0


# --- scalar power oracles --------------------------------------------------------

def real_power_oracle(v, i) -> float:
    acc = 0.0
    for k in range(len(v)):
        acc += v[k] * i[k]
    return acc / len(v)


def apparent_power_oracle(v, i) -> float:
    sv = sum(float(x) * float(x) for x in v) / len(v)
    si = sum(float(x) * float(x) for x in i) / len(i)
    return math.sqrt(sv) * math.sqrt(si)


# --- per-window feature oracle ---------------------------------------------------

# stream lengths, in windows, on both sides of the extraction block edges
BLOCK_EDGE_WINDOWS = [0, 1, EXTRACT_BLOCK - 1, EXTRACT_BLOCK, EXTRACT_BLOCK + 1, 2 * EXTRACT_BLOCK + 1]


def dft_direct(x) -> np.ndarray:
    """O(N^2) discrete Fourier transform straight from the definition."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return basis @ x


def fft_oracle(x) -> np.ndarray:
    """Radix-2 transform of one 1-D input, each stage concatenating the sums
    and differences of its butterflies into a new array."""
    a = np.asarray(x, dtype=np.complex128)
    n = a.size
    bits = n.bit_length() - 1
    a = a[[int(format(k, f"0{bits}b")[::-1], 2) for k in range(n)]]
    m = 2
    while m <= n:
        half = m // 2
        w = np.exp(-2j * np.pi * np.arange(half) / m)
        blocks = a.reshape(-1, m)
        even = blocks[:, :half]
        odd = blocks[:, half:] * w
        a = np.concatenate([even + odd, even - odd], axis=1).reshape(-1)
        m *= 2
    return a


def features_oracle(v, i, layout: FeatureLayout = DEFAULT_LAYOUT) -> np.ndarray:
    """One window's feature vector the way it is defined, one scalar at a
    time: a dot product per power term, the zero-padded 1024-point
    transform, and per harmonic order the nearest bin times 2/1000, split
    into (re, im) or taken as abs() of the complex scalar."""
    out = []
    if layout.time_domain:
        p = float(np.dot(v, i) / 1000)
        s = float(np.sqrt(np.dot(v, v) / 1000) * np.sqrt(np.dot(i, i) / 1000))
        out += [p, s, float(np.sqrt(max(0.0, s * s - p * p)))]
    if layout.harmonic_orders:
        spectrum = fft_oracle(np.concatenate([i, np.zeros(24)]))
        for k in layout.harmonic_orders:
            c = spectrum[int(np.floor(50.0 * k * 1024 / 10000 + 0.5))] * (2.0 / 1000)
            out += [c.real, c.imag] if layout.complex_pairs else [abs(c)]
    return np.array(out)


def stream_features_oracle(stream, layout: FeatureLayout = DEFAULT_LAYOUT) -> np.ndarray:
    """(windows, len(layout)) features of a stream, one window at a time."""
    rows = [features_oracle(w.v, w.i, layout) for w in window_stream(stream)]
    return np.array(rows).reshape(len(rows), len(layout))


def assert_same_bits(a, b) -> None:
    """Equal values, NaN where the other has NaN, and equal signs on zeros
    and NaNs too (the CSV writer prints -0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


# --- cost oracles ----------------------------------------------------------------------

def groups_oracle(layout: FeatureLayout) -> tuple[str, ...]:
    """Each column's extraction group, read off its name: P, S_abs and Q are
    groups of their own, and every other column is a harmonic of the FFT."""
    groups = []
    for name in layout.names:
        if name == "P":
            groups.append("p")
        elif name == "S_abs":
            groups.append("s_abs")
        elif name == "Q":
            groups.append("q")
        else:
            groups.append("harmonics")
    return tuple(groups)


def extraction_rows_oracle(groups: set[str]) -> tuple[str, ...]:
    """The measured extraction rows a group set is charged, rule by rule: the
    full vector is its own row; otherwise one calibration row, P and |S| if
    asked for, the cheapest Q variant given them, and the unordered FFT."""
    if groups == {"p", "s_abs", "q", "harmonics"}:
        return ("full_vector",)
    rows = ["raw_conv_vi" if groups & {"p", "s_abs", "q"} else "raw_conv_i"]
    if "p" in groups:
        rows.append("p")
    if "s_abs" in groups:
        rows.append("s_abs")
    if "q" in groups:
        # (P computed, |S| computed) -> the Q variant that reuses them
        variants = {(True, True): "q1", (False, True): "q2",
                    (True, False): "q3", (False, False): "q4"}
        rows.append(variants["p" in groups, "s_abs" in groups])
    if "harmonics" in groups:
        rows.append("fft_1024_unordered")
    return tuple(rows)


def classification_cost_oracle(model, profile) -> dict[str, float]:
    """One inference's MACs, cycles, Flash and SRAM bytes, each figure by its
    own per-kind formula, as `cost` wrote them before it counted every kind
    in one place. Keys are the ResourceCost fields."""
    c, bpp = model.n_classes, profile.bytes_per_parameter
    if isinstance(model, KnnModel):
        kind = "knn"
        macs = float(model.train_x.shape[0] * model.train_x.shape[1])
        flash = float(model.train_x.size * bpp)
        sram = float(model.k * 12 + c * 4)  # k (distance, index) pairs + votes
    elif isinstance(model, SvmModel):
        kind = "svm"
        macs = float(model.n_sv * model.support.shape[1] + model.n_sv * (model.n_classes - 1))
        params = model.n_sv * model.support.shape[1] + model.n_sv * (c - 1) + c * (c - 1) // 2
        flash = float(params * bpp)
        sram = float((c + c * (c - 1) // 2) * 4)  # votes + pair decisions
    elif isinstance(model, MlpModel):
        kind = "mlp"
        sizes = model.layer_sizes
        macs = float(sum(a * b for a, b in zip(sizes, sizes[1:])))
        flash = float(model.parameter_count * bpp)
        sram = float(max(model.layer_sizes) * 4)  # largest activation buffer
    else:
        kind = "rf"
        macs = float(model.worst_case_comparisons())
        flash = float(model.node_count * profile.rf_node_bytes
                      + model.n_trees * profile.rf_code_overhead_bytes)
        sram = float(c * 4)  # vote array
    coeff = profile.model_coefficients[kind]
    extras = 0.0
    if kind == "svm" and model.kernel == "rbf":
        extras = model.n_sv * coeff.kernel_eval_extra
    cycles = macs * coeff.cycles_per_mac + extras + coeff.fixed_overhead
    return {"mac": macs, "cycles": cycles, "flash_bytes": flash, "sram_bytes": sram}


# --- grid oracle -----------------------------------------------------------------------

def grid_cells_oracle(grid, kind: str) -> list[dict]:
    """A grid's cells for one kind, one product per kind, as `GridSpec.cells`
    wrote them before it read one axes table."""
    if kind == "knn":
        return [{"k": k} for k in grid.knn_k]
    if kind == "svm":
        return [{"c": c, "gamma": g, "kernel": kr}
                for c, g, kr in product(grid.svm_c, grid.svm_gamma, grid.svm_kernel)]
    if kind == "mlp":
        return [{"hidden": h, "lr": lr, "epochs": grid.mlp_epochs}
                for h, lr in product(grid.mlp_hidden, grid.mlp_lr)]
    if kind == "rf":
        return [{"n_trees": t, "max_depth": dep} for t, dep in product(grid.rf_trees, grid.rf_depth)]
    raise ValueError(f"unknown model kind {kind!r}")


# --- whole-stream event oracles -------------------------------------------------------

def events_oracle(stream) -> list:
    """Every event of the stream's real-power track, from the feature oracle."""
    p = stream_features_oracle(stream, TIME_ONLY_LAYOUT)[:, 0]
    return [ev for j in range(1, len(p)) if (ev := detect_event(p[j - 1], p[j], window_index=j))]


def guard_oracle(events) -> list[bool]:
    """event_guard by pairwise search: an event is valid iff no other event
    lies within +-GUARD_RADIUS windows."""
    indices = [e.window_index for e in events]
    if indices != sorted(indices):
        raise ValueError("events must be ordered by window index")
    valid = []
    for k, j in enumerate(indices):
        clash = any(abs(j - other) <= GUARD_RADIUS for m, other in enumerate(indices) if m != k)
        valid.append(not clash)
    return valid


def delta_oracle(stream, layout=DEFAULT_LAYOUT) -> dict[int, tuple[bool, np.ndarray | None]]:
    """(guard verdict, differential vector or None) of every event whose
    window j+20 exists, keyed by event window, from the whole stream held in
    memory. The vector is None for rejected events and for j < 20."""
    feats = stream_features_oracle(stream, layout)
    events = events_oracle(stream)
    out = {}
    for ev, ok in zip(events, guard_oracle(events)):
        j = ev.window_index
        if j + 20 >= len(feats):
            continue
        delta = None
        if ok and j >= 20:
            delta = (feats[j - 20] + feats[j - 10] + feats[j - 1]) / 3.0 \
                - (feats[j + 1] + feats[j + 10] + feats[j + 20]) / 3.0
        out[j] = (ok, delta)
    return out


def classify_stream_oracle(stream, model, mode: str) -> list[tuple]:
    """(window, delta_p_w, direction, valid, status, label) per event, in
    window order: single mode labels each event from its own window's
    features; multi mode labels valid resolved events from their
    differential vector and reports the rest as invalid or pending."""
    def label(x):
        return model.class_names[classify_matrix(model, x[None, :])[0]]

    feats = stream_features_oracle(stream, model.layout)
    resolved = delta_oracle(stream, model.layout)
    out = []
    for ev in events_oracle(stream):
        j = ev.window_index
        if mode == "single":
            valid, status, name = True, "labeled", label(feats[j])
        else:
            valid, delta = resolved.get(j, (True, None))
            status = "invalid" if not valid else "pending" if delta is None else "labeled"
            name = label(delta) if status == "labeled" else None
        out.append((j, ev.delta_p_w, ev.direction, valid, status, name))
    return out


def label_track_oracle(script, rate_hz: int):
    """The per-window ground truth by the window x appliance x event loop:
    an appliance is on at a window centre when its last event at or before
    the centre switched it on."""
    from nilmedge.signals import WINDOW_SAMPLES
    from nilmedge.synth import LabelTrack

    n_windows = int(round(script.duration_s * rate_hz)) // WINDOW_SAMPLES
    window_s = WINDOW_SAMPLES / rate_hz
    by_appliance: dict = {}
    for ev in script.events:
        by_appliance.setdefault(ev.appliance_id, []).append(ev)
    active = []
    for j in range(n_windows):
        center = (j + 0.5) * window_s
        on = set()
        for app_id, events in by_appliance.items():
            state = False
            for ev in events:
                if ev.time_s <= center:
                    state = ev.action == "on"
            if state:
                on.add(app_id)
        active.append(frozenset(on))
    toggles: dict = {}
    for ev in script.events:
        j = int(ev.time_s / window_s)
        if j < n_windows:
            toggles.setdefault(j, []).append((ev.appliance_id, ev.action))
    return LabelTrack(active=tuple(active), toggles={j: tuple(v) for j, v in toggles.items()})


def synth_scenario_oracle(script, registry, seed: int = 0, rate_hz: int = 10_000):
    """A scenario the whole-duration way: every appliance's solo current,
    noise included, over the whole duration, times a 0/1 gate per sample,
    summed in the order of the appliances' first events; then the
    aggregate noise, and the loop label track."""
    import zlib

    from nilmedge.signals import SampleStream
    from nilmedge.synth import synth_appliance, synth_voltage

    def child_seed(name):
        return [int(seed), zlib.crc32(name.encode("utf-8"))]

    n = int(round(script.duration_s * rate_hz))
    v = synth_voltage(script.mains, script.duration_s, rate_hz)
    i_total = np.zeros(n)
    by_appliance: dict = {}
    for ev in script.events:
        by_appliance.setdefault(ev.appliance_id, []).append(ev)
    for app_id, events in by_appliance.items():
        solo = synth_appliance(registry[app_id], script.mains, script.duration_s,
                               seed=child_seed(app_id), rate_hz=rate_hz)
        mask = np.zeros(n)
        state, prev_idx = 0.0, 0
        for ev in events:
            idx = min(int(round(ev.time_s * rate_hz)), n)
            mask[prev_idx:idx] = state
            state = 1.0 if ev.action == "on" else 0.0
            prev_idx = idx
        mask[prev_idx:] = state
        i_total += solo * mask
    if script.noise_rms_a > 0:
        rng = np.random.default_rng(child_seed("__aggregate__"))
        i_total = i_total + rng.normal(0.0, script.noise_rms_a, size=n)
    return SampleStream(v=v, i=i_total, rate_hz=rate_hz), label_track_oracle(script, rate_hz)
