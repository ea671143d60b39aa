"""CART trees grown in lockstep, and ensembles walked as one node table.

Growth. ``grow_trees`` grows CART trees: a forest passes all of its trees
at once, a DecisionTree is a batch of one (AdaBoost's stumps grow through
``Stumps``, below, with the same search). Every tree keeps its own
depth-first stack (right child pushed first, so node ids are pre-order)
and its own RNG stream. Each step advances every tree that is still
growing to its next node that needs a split search, numbering the leaves
it passes on the way, and then searches all of those nodes together.
Feature subsets are therefore drawn in each tree's pre-order, exactly as
growing that tree alone draws them, and a tree grown in a batch equals
the tree grown alone bit for bit.

Split search is exact: the candidate columns of each node are argsorted
and every boundary between distinct adjacent values is scored by
impurity decrease (gini or entropy), vectorized over nodes, positions,
features and classes. It runs in two stages. The sort stage
(``_sort_nodes``) does what no sample weight changes: it gathers the
columns, argsorts them (stable), and keeps the sorted values, the mask of
boundaries between distinct values and the class-major one-hot layout of
the sorted rows. The score stage (``_score_splits``) takes the weights:
prefix class sums, both sides' sums and impurities, and the best
position. ``grow_trees`` runs the two back to back; ``Stumps`` sorts once
and scores once per weight vector. Nodes of different sizes are padded
to the largest: padded rows hold +inf and weight zero, so they sort last
and leave every real prefix sum untouched, and positions at or past a
node's last row are masked out. Class sums are added in numpy's own
order for a per-node sum (``_class_sum``), so every number equals the one
a search of that node alone computes. Ties go to the earliest split
position, then the lowest candidate feature, so a tree is a pure function
of (data, parameters, rng stream). A node whose candidate features are
all locally constant retries on the full feature set before it becomes a
leaf.

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

Stumps. AdaBoost grows a depth-1 gini tree on every row in each round,
and only the weights change between rounds. ``Stumps`` runs the sort
stage once per fit (the presorting of SLIQ, Mehta, Agrawal & Rissanen,
EDBT 1996, applied across rounds rather than across nodes) and the score
stage once per round. The root and child class sums, the parent
impurity, the threshold and the importance come from the same helpers
``grow_trees`` uses, so a stump equals the one ``grow_trees`` grows from
the same weights bit for bit.

Table. ``NodeTable`` is the one form of a fitted ensemble: what
``grow_trees`` returns, what the tree kinds keep and save, and what
predicts. It holds the nodes of every tree concatenated in tree order,
with child ids as table positions (-1 at leaves) and one row of
importances per tree. The form ``apply`` walks (leaves point at
themselves), the majority class of every node and the depth are derived
when a table is made, and never saved. A table whose split feature ids
reach past the width of its importances is refused with ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ..errors import UnsupportedKind

CRITERIA = ("gini", "entropy")
# A split must beat this decrease to be accepted; blocks zero-gain churn
# on duplicate points with conflicting labels.
MIN_DECREASE = 1e-12
# Cells (class x node x row x feature) one split search may touch; bounds
# its temporaries to about 1 MB in all, whatever the forest or data size.
BATCH_ELEMENTS = 1 << 14


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


def _impurity(counts: np.ndarray, totals: np.ndarray, criterion: str,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Impurity of count vectors along the leading (class) axis; totals > 0.
    The class fractions are written to ``out`` (it may be ``counts``), or
    to a new array; each later step works in place."""
    p = np.divide(counts, totals, out=out)
    if criterion == "gini":
        return 1.0 - _class_sum(np.square(p, out=p))
    if criterion == "entropy":
        logs = np.zeros(p.shape)
        np.log2(p, where=p > 0, out=logs)
        return -_class_sum(np.multiply(p, logs, out=logs))
    raise UnsupportedKind(f"unknown criterion {criterion!r}")


def _best_splits(X, y, w, rows, feats, k, criterion, parent_imp):
    """Best split of every node in one search: the sort stage, then the
    score stage.

    rows: per-node row indices into X; feats: (B, m) candidate features, or
    None for all of them. Returns (found, feature, lo, hi, decrease), each
    of length B; the threshold lies between the sorted values lo and hi.
    """
    B = len(rows)
    n = max(len(r) for r in rows)
    m = X.shape[1] if feats is None else feats.shape[1]
    step = max(1, BATCH_ELEMENTS // (n * m * k))
    if B > step:
        parts = [
            _best_splits(X, y, w, rows[s:s + step], None if feats is None else feats[s:s + step],
                         k, criterion, parent_imp[s:s + step])
            for s in range(0, B, step)
        ]
        return tuple(np.concatenate(col) for col in zip(*parts))
    nodes = _sort_nodes(X, y, rows, feats, k)
    if nodes is None:
        return np.zeros(B, dtype=bool), np.zeros(B, dtype=np.intp), np.zeros(B), np.zeros(B), np.zeros(B)
    return _score_splits(nodes, w, criterion, parent_imp)


def _sort_nodes(X, y, rows, feats, k):
    """Sort stage: what a split search of these nodes needs that no sample
    weight changes, or None when no candidate column has two distinct
    values in any node.

    Returns (R, sv, valid, onehot, feats): the rows in sorted order and
    their sorted values, each (B, n, m); the boundaries between distinct
    adjacent values (B, n-1, m); and the class-major one-hot layout
    (k, B, n, m), in which every per-class step is one slab.
    """
    B = len(rows)
    sizes = [len(r) for r in rows]
    n = max(sizes)
    m = X.shape[1] if feats is None else feats.shape[1]
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
        return None
    R = R[nodes, order]
    onehot = y[R] == np.arange(k)[:, None, None, None]
    if padded:
        onehot &= real[:, :, None]
    return R, sv, valid, onehot, feats


def _score_splits(nodes, w, criterion, parent_imp):
    """Score stage: the best split of every node of a sort stage under the
    sample weights ``w`` (None: every row weighs 1), as ``_best_splits``
    returns it. ``nodes`` is only read, so one sort serves many weights."""
    R, sv, valid, onehot, feats = nodes
    k, B, n, m = onehot.shape
    # cum and sides are the only large arrays made here; later steps write
    # in place, since at n=20, k=5 and 137 features allocating each step's
    # result took as long as its arithmetic
    if w is None:
        cum = onehot.cumsum(axis=2, dtype=float)
    else:
        cum = np.multiply(onehot, w[R])
        np.cumsum(cum, axis=2, out=cum)
    sides = np.empty((k, 2, B, n - 1, m))                      # left, right counts
    sides[:, 0] = cum[:, :, :-1]
    np.subtract(cum[:, :, -1:], sides[:, 0], out=sides[:, 1])
    weights = _class_sum(sides)                                # (2, B, n-1, m)
    if w is not None:
        # a side whose weight sum is 0 is no split; its impurity would be 0/0
        valid = valid & (weights[0] > 0) & (weights[1] > 0)
    # positions at or past a padded node's end divide 0/0; they are masked
    with np.errstate(divide="ignore", invalid="ignore"):
        impurity = _impurity(sides, weights, criterion, out=sides)
        child = (weights[0] * impurity[0] + weights[1] * impurity[1]) / (weights[0] + weights[1])
    decrease = np.where(valid, parent_imp[:, None, None] - child, -np.inf)
    # row-major per node: earliest position, then lowest candidate feature
    pos, j = np.divmod(decrease.reshape(B, -1).argmax(axis=1), m)
    b = np.arange(B)
    best = decrease[b, pos, j]
    feature = j if feats is None else feats[b, j]
    return best > MIN_DECREASE, feature, sv[b, pos, j], sv[b, pos + 1, j], best


def _threshold(low: float, high: float) -> float:
    """The split threshold between adjacent distinct sorted values: their
    midpoint, or ``low`` where the midpoint rounds to ``high``."""
    thr = low + 0.5 * (high - low)
    return thr if low <= thr < high else low


def _gain(weight: float, root_weight: float, decrease) -> float:
    """A split's importance: its impurity decrease, weighted by the node's
    share of its tree's root weight."""
    return (weight / root_weight) * float(decrease)


class _Growing:
    """One tree under construction: its stack, RNG and node lists, which
    ``join`` reads as a one-tree table."""

    roots = (0,)
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
        self.importances = np.zeros((1, d))

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
) -> NodeTable:
    """Grow one tree per entry of ``samples`` (row indices into X) in
    lockstep, as one table in the order of ``samples``.

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
    return join(growing)


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
        f, thr = int(feature[i]), _threshold(float(lo[i]), float(hi[i]))
        g.feature[node_id] = f
        g.threshold[node_id] = thr
        g.importances[0, f] += _gain(weight, g.root_weight, decrease[i])
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


class Stumps:
    """Depth-1 gini trees on every row of X, one per sample-weight vector:
    the stumps of AdaBoost's rounds.

    ``grow(w)`` equals ``grow_trees(X, y, k, [all rows], max_depth=1,
    sample_weight=w)`` bit for bit, node ids (root 0, left 1, right 2) and
    class sums included, while only the weights change between calls: the
    sort stage runs once, in the constructor, and each call runs the score
    stage. A round predicts by ``X[:, f] <= thr`` instead of walking a
    table, and ``table`` joins the kept stumps once.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, n_classes: int):
        self.X, self.y, self.k = X, y, n_classes
        self.rows = np.arange(len(X))
        self.nodes = _sort_nodes(X, y, [self.rows], None, n_classes)

    def grow(self, w: np.ndarray):
        """(stump, labels) for weights ``w``: the stump as (feature,
        threshold, importance, class sums of its nodes in pre-order), feature
        -1 for a single leaf, and the class it predicts for each row of X."""
        X, y, k, rows = self.X, self.y, self.k, self.rows
        counts, weight, split = _node_stats(y, w, [rows], [0], k, 1)
        if split[0] and self.nodes is not None:
            parent_imp = _impurity(counts.T, np.array(weight), "gini")
            found, feature, lo, hi, decrease = _score_splits(self.nodes, w, "gini", parent_imp)
            if found[0]:
                f, thr = int(feature[0]), _threshold(float(lo[0]), float(hi[0]))
                go_left = X[:, f] <= thr
                kids = _node_stats(y, w, [rows[~go_left], rows[go_left]], [1, 1], k, 1)[0]
                counts = np.concatenate([counts, kids[::-1]])
                majority = counts.argmax(axis=1)
                gain = _gain(weight[0], float(w.sum()), decrease[0])
                return (f, thr, gain, counts), np.where(go_left, majority[1], majority[2])
        return (-1, 0.0, 0.0, counts), np.full(len(X), counts[0].argmax())

    def table(self, stumps: Sequence[tuple]) -> NodeTable:
        """One table of ``stumps`` (from ``grow``) in order."""
        roots, feature, threshold, left, right = [], [], [], [], []
        importances = np.zeros((len(stumps), self.X.shape[1]))
        for t, (f, thr, gain, _) in enumerate(stumps):
            at = len(feature)
            roots.append(at)
            if f < 0:
                feature += [-1]
                threshold += [0.0]
                left += [-1]
                right += [-1]
            else:
                feature += [f, -1, -1]
                threshold += [thr, 0.0, 0.0]
                left += [at + 1, -1, -1]
                right += [at + 2, -1, -1]
                importances[t, f] = gain
        ids = np.int32
        return NodeTable(np.array(roots, ids), np.array(feature, ids), np.array(threshold),
                         np.array(left, ids), np.array(right, ids),
                         np.concatenate([s[3] for s in stumps]), importances)


def cut(table: NodeTable, max_depth: int) -> NodeTable:
    """``table`` with its nodes at depth ``max_depth`` made leaves.

    A node's split search does not depend on max_depth, only whether it is
    searched does, so this predicts exactly as the trees grown at
    ``max_depth`` from the same data: every reachable node, class sums
    included, is theirs. The nodes below stay in the table, unreachable,
    and the importances stay those of the deeper trees.
    """
    if max_depth >= table.depth:
        return table
    frontier = table.roots
    for _ in range(max_depth):
        inner = frontier[table.feature[frontier] >= 0]
        frontier = np.concatenate([table.left[inner], table.right[inner]])
    feature, left, right = table.feature.copy(), table.left.copy(), table.right.copy()
    feature[frontier] = left[frontier] = right[frontier] = -1
    return replace(table, feature=feature, left=left, right=right)


@dataclass(eq=False)
class NodeTable:
    """The trees of an ensemble as one table of nodes; its fields are what a
    model file saves. Ids are int32 table positions, -1 at leaves."""

    roots: np.ndarray        # (T,) position of each tree's root
    feature: np.ndarray      # (N,) split feature, -1 at leaves
    threshold: np.ndarray    # (N,) float64; a row goes left when x[feature] <= threshold
    left: np.ndarray         # (N,)
    right: np.ndarray        # (N,)
    counts: np.ndarray       # (N, k) float64 class weight sums
    importances: np.ndarray  # (T, d) float64 raw impurity-decrease sums per tree

    def __post_init__(self):
        d = self.importances.shape[1]
        if self.feature.max(initial=-1) >= d:
            raise ValueError(f"NodeTable feature ids must be below the {d} features of "
                             f"importances, got {int(self.feature.max())}")
        # the walk form: leaves point at themselves (feature 0), so ``depth``
        # steps take every row of every tree to its leaf without masking
        leaf = self.feature < 0
        ids = np.arange(len(leaf))
        left = np.where(leaf, ids, self.left)
        right = np.where(leaf, ids, self.right)
        self._walk = (np.maximum(self.feature, 0, dtype=np.intp), left, right)
        self.majority = self.counts.argmax(axis=1)   # lowest class wins ties
        self.depth, frontier = 0, self.roots[~leaf[self.roots]]
        while len(frontier):
            self.depth += 1
            frontier = np.concatenate([left[frontier], right[frontier]])
            frontier = frontier[~leaf[frontier]]

    def first(self, n: int) -> NodeTable:
        """The table of the first ``n`` trees (all of them if there are fewer)."""
        if n >= len(self.roots):
            return self
        end = self.roots[n]
        return NodeTable(self.roots[:n], self.feature[:end], self.threshold[:end],
                         self.left[:end], self.right[:end], self.counts[:end],
                         self.importances[:n])

    def apply(self, X: np.ndarray) -> np.ndarray:
        """(n, T) table id of the leaf each row reaches in each tree."""
        feature, left, right = self._walk
        node = np.repeat(self.roots[None].astype(np.intp), len(X), axis=0)
        rows = np.arange(len(X))[:, None]
        for _ in range(self.depth):
            goes_left = X[rows, feature[node]] <= self.threshold[node]
            node = np.where(goes_left, left[node], right[node])
        return node

    def labels(self, X: np.ndarray) -> np.ndarray:
        """(n, T) majority class of the leaf each row reaches in each tree."""
        return self.majority[self.apply(X)]


def join(parts: Sequence) -> NodeTable:
    """One table of ``parts`` in order: tables, or anything else with their
    fields and with child ids local to it (-1 at leaves)."""
    def cat(name, dtype=None):
        return np.concatenate([getattr(p, name) for p in parts], dtype=dtype)

    roots, left, right = cat("roots", np.int32), cat("left", np.int32), cat("right", np.int32)
    if len(parts) > 1:
        sizes = [len(p.feature) for p in parts]
        starts = np.cumsum([0] + sizes[:-1], dtype=np.int32)
        roots += np.repeat(starts, [len(p.roots) for p in parts])
        shift = np.repeat(starts, sizes)
        left += np.where(left >= 0, shift, 0)
        right += np.where(right >= 0, shift, 0)
    return NodeTable(roots, cat("feature", np.int32), cat("threshold", float), left, right,
                     cat("counts", float), cat("importances"))
