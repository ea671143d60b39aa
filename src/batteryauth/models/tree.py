"""CART trees grown in lockstep, and ensembles walked as one node table.

Growth. ``grow_trees`` is the one place trees grow: a forest passes all of its
trees at once, a DecisionTree or an AdaBoost stump is a batch of one.
Every tree keeps its own depth-first stack (right child pushed first, so
node ids are pre-order) and its own RNG stream. Each step advances every
tree that is still growing to its next node that needs a split search,
numbering the leaves it passes on the way, and then searches all of those
nodes together. Feature subsets are therefore drawn in each tree's
pre-order, exactly as growing that tree alone draws them, and a tree
grown in a batch equals the tree grown alone bit for bit.

Split search is exact: the candidate columns of each node are argsorted
and every boundary between distinct adjacent values is scored by
impurity decrease (gini or entropy), vectorized over nodes, positions,
features and classes. Nodes of different sizes are padded to the
largest: padded rows hold +inf and weight zero, so they sort last and
leave every real prefix sum untouched, and positions at or past a node's
last row are masked out. Class sums are added in numpy's own order for a
per-node sum (``_class_sum``), so every number equals the one a search of
that node alone computes. Ties go to the earliest split position, then
the lowest candidate feature, so a tree is a pure function of (data,
parameters, rng stream). A node whose candidate features are all locally
constant retries on the full feature set before it becomes a leaf.

A tree's rows are index arrays into the shared matrix (bootstrap draws
composed with the node's partition), and a search gathers only the
candidate columns of its nodes, so no per-tree copy of the data exists.
A batch is searched in consecutive chunks of at most BATCH_ELEMENTS
(class x node x row x feature) cells; a node larger than that is
searched alone.

Sample weights are supported (boosting needs them); class counts then
become class weight sums throughout, and a split position where either
side's weight sum is 0 (its rows weigh 0, or their sum rounds to 0 in the
node total minus the other side) is not scored.

Prediction. ``NodeTable`` concatenates the node arrays of an ensemble,
with child ids shifted to table positions and leaves pointing at
themselves, and ``NodeTable.apply`` walks every tree for every row at
once. It is built at fit and at load and never saved: ``Tree`` is the
stored form, so the model file format does not depend on it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..errors import UnsupportedKind

CRITERIA = ("gini", "entropy")
# A split must beat this decrease to be accepted; blocks zero-gain churn
# on duplicate points with conflicting labels.
MIN_DECREASE = 1e-12
# Cells (class x node x row x feature) one split search may touch; bounds
# its temporaries to about 1 MB in all, whatever the forest or data size.
BATCH_ELEMENTS = 1 << 14


@dataclass(eq=False)
class Tree:
    """Flat node arrays; feature == -1 marks a leaf. Grown trees hold int32
    ids, loaded ones int64 (a JSON integer list loads as int64)."""

    feature: np.ndarray      # (nodes,) int32 grown, int64 loaded
    threshold: np.ndarray    # (nodes,) float64
    left: np.ndarray         # (nodes,) int32 grown, int64 loaded
    right: np.ndarray        # (nodes,) int32 grown, int64 loaded
    counts: np.ndarray       # (nodes, k) float64 class weight sums
    importances: np.ndarray  # (d,) float64 raw impurity-decrease sums

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading (class) axis in the order numpy's pairwise
    summation adds a contiguous axis of that length: one class after another
    below 8, eight running sums up to 128, halves above. Sums therefore equal
    a per-node ``counts.sum(axis=-1)`` bit for bit, while each step adds
    whole slabs of cells."""
    k = len(a)
    if k > 128:
        half = k // 2 - (k // 2) % 8
        return _class_sum(a[:half]) + _class_sum(a[half:])
    if k < 8:
        total = a[0] + 0.0
        for c in range(1, k):
            total += a[c]
        return total
    acc = a[:8].copy()
    top = k - k % 8
    for c in range(8, top, 8):
        acc += a[c:c + 8]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for c in range(top, k):
        total += a[c]
    return total


def _impurity(counts: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of count vectors along the leading (class) axis; totals > 0."""
    p = counts / totals
    if criterion == "gini":
        return 1.0 - _class_sum(np.square(p))
    if criterion == "entropy":
        logs = np.zeros(p.shape)
        np.log2(p, where=p > 0, out=logs)
        return -_class_sum(p * logs)
    raise UnsupportedKind(f"unknown criterion {criterion!r}")


def _best_splits(X, y, w, rows, feats, k, criterion, parent_imp):
    """Best split of every node in one search.

    rows: per-node row indices into X; feats: (B, m) candidate features, or
    None for all of them. Returns (found, feature, lo, hi, decrease), each
    of length B; the threshold lies between the sorted values lo and hi.
    """
    B = len(rows)
    sizes = [len(r) for r in rows]
    n = max(sizes)
    m = X.shape[1] if feats is None else feats.shape[1]
    step = max(1, BATCH_ELEMENTS // (n * m * k))
    if B > step:
        parts = [
            _best_splits(X, y, w, rows[s:s + step], None if feats is None else feats[s:s + step],
                         k, criterion, parent_imp[s:s + step])
            for s in range(0, B, step)
        ]
        return tuple(np.concatenate(col) for col in zip(*parts))

    padded = min(sizes) < n
    if padded:
        real = np.arange(n) < np.array(sizes)[:, None]        # (B, n)
        R = np.zeros((B, n), dtype=np.intp)
        R[real] = np.concatenate(rows)
    else:
        R = np.array(rows)
    Xc = X[R] if feats is None else X[R[:, :, None], feats[:, None, :]]   # (B, n, m)
    if padded:
        Xc[~real] = np.inf
    order = Xc.argsort(axis=1, kind="stable")
    nodes = np.arange(B)[:, None, None]
    sv = Xc[nodes, order, np.arange(m)]
    valid = sv[:, 1:] > sv[:, :-1]                             # (B, n-1, m)
    if padded:
        # +inf pads sort last, so a node's real rows are its first sizes[b]
        valid &= real[:, 1:, None]
    if not valid.any():
        return np.zeros(B, dtype=bool), np.zeros(B, dtype=np.intp), np.zeros(B), np.zeros(B), np.zeros(B)
    R = R[nodes, order]                                        # rows in sorted order
    # class-major layout (k, B, n, m): every per-class step is one slab
    onehot = y[R] == np.arange(k)[:, None, None, None]
    if padded:
        onehot &= real[:, :, None]
    if w is None:
        cum = onehot.cumsum(axis=2, dtype=float)
    else:
        cum = (onehot * w[R]).cumsum(axis=2)
    sides = np.empty((k, 2, B, n - 1, m))                      # left, right counts
    sides[:, 0] = cum[:, :, :-1]
    np.subtract(cum[:, :, -1:], sides[:, 0], out=sides[:, 1])
    weights = _class_sum(sides)                                # (2, B, n-1, m)
    if w is not None:
        # a side whose weight sum is 0 is no split; its impurity would be 0/0
        valid &= (weights[0] > 0) & (weights[1] > 0)
    # positions at or past a padded node's end divide 0/0; they are masked
    with np.errstate(divide="ignore", invalid="ignore"):
        impurity = _impurity(sides, weights, criterion)
        child = (weights[0] * impurity[0] + weights[1] * impurity[1]) / (weights[0] + weights[1])
    decrease = np.where(valid, parent_imp[:, None, None] - child, -np.inf)
    # row-major per node: earliest position, then lowest candidate feature
    pos, j = np.divmod(decrease.reshape(B, -1).argmax(axis=1), m)
    b = nodes[:, 0, 0]
    best = decrease[b, pos, j]
    feature = j if feats is None else feats[b, j]
    return best > MIN_DECREASE, feature, sv[b, pos, j], sv[b, pos + 1, j], best


class _Growing:
    """One tree under construction: its stack, RNG and node lists."""

    __slots__ = ("stack", "rng", "root_weight", "feature", "threshold", "left", "right",
                 "counts", "importances")

    def __init__(self, rng, root_weight, d):
        # entries: (rows, depth, parent slot, is_right, counts, weight, splittable)
        self.stack: list = []
        self.rng = rng
        self.root_weight = root_weight
        self.feature: list = []
        self.threshold: list = []
        self.left: list = []
        self.right: list = []
        self.counts: list = []
        self.importances = np.zeros(d)

    def add_node(self, counts, parent, is_right) -> int:
        node_id = len(self.feature)
        if parent >= 0:
            (self.right if is_right else self.left)[parent] = node_id
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.counts.append(counts)
        return node_id

    def tree(self) -> Tree:
        return Tree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=float),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            counts=np.asarray(self.counts, dtype=float),
            importances=self.importances,
        )


def _node_stats(y, w, rows, depth, k, max_depth):
    """Class weight sums (rows added in node order), total weight and
    splittability of a list of nodes."""
    B = len(rows)
    node = np.arange(B).repeat([len(r) for r in rows])
    flat = np.concatenate(rows)
    counts = np.bincount(node * k + y[flat], weights=None if w is None else w[flat],
                         minlength=B * k).reshape(B, k).astype(float)
    weight = counts.sum(axis=1)
    split = ((counts != 0).sum(axis=1) > 1) & (weight > 0)
    split = split.tolist()
    for i, r in enumerate(rows):
        split[i] = split[i] and len(r) >= 2 and (max_depth is None or depth[i] < max_depth)
    return counts, weight.tolist(), split


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    samples: Sequence[np.ndarray],
    criterion: str = "gini",
    max_depth: Optional[int] = None,
    max_features: Optional[int] = None,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    sample_weight: Optional[np.ndarray] = None,
) -> List[Tree]:
    """Grow one tree per entry of ``samples`` (row indices into X) in lockstep.

    Tree t trains on X[samples[t]] and draws its feature subsets from
    rngs[t] (needed only when max_features < d); sample_weight, if given,
    holds one weight per row of X.
    """
    if criterion not in CRITERIA:
        raise UnsupportedKind(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    d = X.shape[1]
    k = n_classes
    w = None if sample_weight is None else np.asarray(sample_weight, dtype=float)
    subsample = max_features is not None and max_features < d
    growing = [
        _Growing(None if rngs is None else rngs[t],
                 float(len(rows)) if w is None else float(w[rows].sum()), d)
        for t, rows in enumerate(samples)
    ]
    T = len(samples)
    _push(growing, [-1] * T, [False] * T, list(samples), [0] * T, y, w, k, max_depth)
    live = growing
    while live:
        # advance every tree to its next splittable node in pre-order;
        # the leaves passed on the way only need their node ids
        batch = []
        for g in live:
            while g.stack:
                rows, depth, parent, is_right, counts, weight, splittable = g.stack.pop()
                node_id = g.add_node(counts, parent, is_right)
                if splittable:
                    batch.append((g, node_id, rows, depth, weight, counts))
                    break
        if batch:
            _split(batch, X, y, w, k, criterion, max_depth, max_features if subsample else None)
        live = [g for g in live if g.stack]
    return [g.tree() for g in growing]


def _split(batch, X, y, w, k, criterion, max_depth, max_features):
    """Search the batch's nodes at once; record splits and push children."""
    rows = [entry[2] for entry in batch]
    counts = np.array([entry[5] for entry in batch]).T                # (k, B)
    parent_imp = _impurity(counts, np.array([entry[4] for entry in batch]), criterion)
    feats = None
    if max_features is not None:
        d = X.shape[1]
        feats = np.stack([
            np.sort(g.rng.choice(d, size=max_features, replace=False)) for g, *_ in batch
        ])
    found, feature, lo, hi, decrease = _best_splits(X, y, w, rows, feats, k, criterion, parent_imp)
    retry = (~found).nonzero()[0] if feats is not None else ()
    if len(retry):
        # locally constant candidates; retry on the full set before leafing
        again = _best_splits(X, y, w, [rows[i] for i in retry], None, k, criterion,
                             parent_imp[retry])
        for col, new in zip((found, feature, lo, hi, decrease), again):
            col[retry] = new
    owners, kids, depths = [], [], []
    for i in found.nonzero()[0].tolist():
        g, node_id, r, depth, weight, _ = batch[i]
        f, low, high = int(feature[i]), float(lo[i]), float(hi[i])
        thr = low + 0.5 * (high - low)
        if not low <= thr < high:
            thr = low
        g.feature[node_id] = f
        g.threshold[node_id] = thr
        g.importances[f] += (weight / g.root_weight) * float(decrease[i])
        go_left = X[r, f] <= thr
        # right child pushed first, so the left one pops first (pre-order)
        owners += [(g, node_id, True), (g, node_id, False)]
        kids += [r[~go_left], r[go_left]]
        depths += [depth + 1, depth + 1]
    if kids:
        _push(*zip(*owners), kids, depths, y, w, k, max_depth)


def _push(owners, parents, is_right, rows, depths, y, w, k, max_depth):
    """Push new nodes onto their trees' stacks with their statistics."""
    counts, weight, split = _node_stats(y, w, rows, depths, k, max_depth)
    for i, g in enumerate(owners):
        g.stack.append((rows[i], depths[i], parents[i], is_right[i], counts[i], weight[i], split[i]))


def cut(tree: Tree, max_depth: int) -> Tree:
    """``tree`` with its nodes at depth ``max_depth`` made leaves.

    A node's split search does not depend on max_depth, only whether it is
    searched does, so this predicts exactly as the tree grown at
    ``max_depth`` from the same data: every reachable node, class sums
    included, is that tree's. The nodes below stay in the arrays,
    unreachable, and the importances stay those of the deeper tree.
    """
    frontier = np.zeros(1, dtype=np.intp)
    for _ in range(max_depth):
        inner = frontier[tree.feature[frontier] >= 0]
        if not len(inner):
            return tree
        frontier = np.concatenate([tree.left[inner], tree.right[inner]])
    feature, left, right = tree.feature.copy(), tree.left.copy(), tree.right.copy()
    feature[frontier] = left[frontier] = right[frontier] = -1
    return replace(tree, feature=feature, left=left, right=right)


@dataclass(eq=False)
class NodeTable:
    """Nodes of an ensemble's trees in one table; ids are table positions.

    Leaves point at themselves (feature 0), so ``depth`` steps take every
    row of every tree to its leaf without masking.
    """

    roots: np.ndarray      # (T,) table id of each tree's root
    feature: np.ndarray    # (N,)
    threshold: np.ndarray  # (N,)
    left: np.ndarray       # (N,)
    right: np.ndarray      # (N,)
    majority: np.ndarray   # (N,) majority class of each node (lowest id wins ties)
    depth: int             # deepest leaf over all trees

    @classmethod
    def from_trees(cls, trees: Sequence[Tree]) -> "NodeTable":
        sizes = [t.n_nodes for t in trees]
        roots = np.array([0] + sizes[:-1]).cumsum()
        shift = np.repeat(roots, sizes)
        feature = np.concatenate([t.feature for t in trees], dtype=np.intp)
        leaf = feature < 0
        ids = np.arange(len(feature))
        left = np.where(leaf, ids, np.concatenate([t.left for t in trees]) + shift)
        right = np.where(leaf, ids, np.concatenate([t.right for t in trees]) + shift)
        feature[leaf] = 0
        depth, frontier = 0, roots[~leaf[roots]]
        while len(frontier):
            depth += 1
            frontier = np.concatenate([left[frontier], right[frontier]])
            frontier = frontier[~leaf[frontier]]
        return cls(
            roots=roots,
            feature=feature,
            threshold=np.concatenate([t.threshold for t in trees]),
            left=left,
            right=right,
            majority=np.concatenate([t.counts for t in trees]).argmax(axis=1),
            depth=depth,
        )

    def apply(self, X: np.ndarray) -> np.ndarray:
        """(n, T) table id of the leaf each row reaches in each tree."""
        node = np.repeat(self.roots[None], len(X), axis=0)
        rows = np.arange(len(X))[:, None]
        for _ in range(self.depth):
            goes_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(goes_left, self.left[node], self.right[node])
        return node

    def labels(self, X: np.ndarray) -> np.ndarray:
        """(n, T) majority class of the leaf each row reaches in each tree."""
        return self.majority[self.apply(X)]

