"""CART trees grown level by level, and ensembles walked as one node table.

Growth. ``grow_trees`` grows CART trees: a forest passes all of its trees
at once, a DecisionTree is a batch of one (AdaBoost's stumps grow through
``Stumps``, below, with the same search). The trees share flat arrays, as
in scikit-learn's trees (Louppe, arXiv:1407.7502, ch. 5): one row
permutation in which a node is a (start, size) segment that its split
partitions stably in place, and one record per node, written a step's
children at a time with class sums from one bincount. Each step searches
every splittable node of every tree, in record order: the roots in tree
order, then the children of the step before, left before right, in
parent order. When feature subsets are drawn (max_features below the
feature count, as a forest does; Breiman, Machine Learning 45(1), 2001),
the step draws d uniform keys per node from the one ``rng``, a (nodes, d)
array in record order, and a node's candidates are the features of its m
smallest keys: a uniform m-subset. Table ids and importances follow
pre-order at the end; with nothing drawn, the order of search changes no
number, so a tree grown in a batch equals the tree grown alone bit for
bit.

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

A node's rows are a slice of the permutation (bootstrap draws composed
with the partitions above it), and a search gathers only the candidate
columns of its nodes, so no per-tree copy of the data exists.
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
stage once per round. Its root and child class sums are bincounts that
add the rows in the order ``grow_trees`` adds them, and the parent
impurity, the threshold and the importance come from the same helpers,
so a stump equals the one ``grow_trees`` grows from the same weights bit
for bit.

Table. ``NodeTable`` is the one form of a fitted ensemble: what
``grow_trees`` returns, what the tree kinds keep and save, and what
predicts. It holds the nodes of every tree concatenated in tree order,
with child ids as table positions (-1 at leaves) and one row of
importances per tree. The form ``apply`` walks (leaves point at
themselves), the majority class of every node and the depth are derived
when a table is made, and never saved. A table is refused with
ValueError unless it has the form every table made here has: per-node
arrays of one length, split feature ids below the width of its
importances, and ids inside the table, a split node's children after it
(pre-order), so that no walk from a root can loop.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
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


def _threshold(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The split thresholds between adjacent distinct sorted values: their
    midpoints, or ``low`` where the midpoint rounds to ``high``."""
    thr = low + 0.5 * (high - low)
    return np.where((low <= thr) & (thr < high), thr, low)


def _gain(weight, root_weight, decrease):
    """A split's importance: its impurity decrease, weighted by the node's
    share of its tree's root weight."""
    return (weight / root_weight) * decrease


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    samples: Sequence[np.ndarray],
    criterion: str = "gini",
    max_depth: Optional[int] = None,
    max_features: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    sample_weight: Optional[np.ndarray] = None,
) -> NodeTable:
    """Grow one tree per entry of ``samples`` (row indices into X) level
    by level, as one table in the order of ``samples``.

    Tree t trains on X[samples[t]]; the feature subsets of all trees are
    drawn from rng (needed only when max_features < d); sample_weight, if
    given, holds one weight per row of X.
    """
    if criterion not in CRITERIA:
        raise UnsupportedKind(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    d = X.shape[1]
    k = n_classes
    w = None if sample_weight is None else np.asarray(sample_weight, dtype=float)
    draw = max_features if max_features is not None and max_features < d else None
    key_rows = max(1, BATCH_ELEMENTS // d)
    T = len(samples)
    perm = np.concatenate(samples, dtype=np.intp)
    sizes = np.array([len(rows) for rows in samples], dtype=np.intp)
    root_weight = sizes.astype(float) if w is None else np.array([w[rows].sum() for rows in samples])
    # node records, written a step's children at a time; a split node's
    # children are the records child and child + 1, a leaf's child is cap
    cap = 2 * len(perm) + T
    ints = np.empty((6, cap), np.intp)
    ints[4], ints[5] = cap, -1
    tree, depth, start, size, child, feature = ints
    weight, lo, hi, decrease = np.zeros((4, cap))
    counts = np.empty((cap, k))

    def add(at, begin, length, node, rows):
        """Write records at, at + 1, ... and return those that may split; the
        bincount adds each node's rows in node order, as a per-node sum does."""
        end = at + len(begin)
        start[at:end], size[at:end] = begin, length
        sums = counts[at:end]
        sums[...] = np.bincount(node * k + y[rows], weights=None if w is None else w[rows],
                                minlength=(end - at) * k).reshape(-1, k)
        total = weight[at:end] = sums.sum(axis=1)
        # splittable: two classes present, so two rows or more
        split = ((sums != 0).sum(axis=1) > 1) & (total > 0)
        if max_depth is not None:
            split &= depth[at:end] < max_depth
        return at + split.nonzero()[0]

    tree[:T], depth[:T] = np.arange(T), 0
    ids = add(0, sizes.cumsum() - sizes, sizes, tree[:T].repeat(sizes), perm)
    used = T
    while len(ids):
        at, n = start[ids], size[ids]
        rows = [perm[a:a + m] for a, m in zip(at.tolist(), n.tolist())]
        parent_imp = _impurity(counts[ids].T, weight[ids], criterion)
        feats = None
        if draw is not None:
            # each node's candidates: the features of its `draw` smallest keys,
            # drawn a block of rows at a time; a Generator fills an array row
            # by row, so the blocks hold the numbers of one (nodes, d) draw
            feats = np.empty((len(ids), draw), np.intp)
            for s in range(0, len(ids), key_rows):
                keys = rng.random((min(key_rows, len(ids) - s), d))
                smallest = np.argpartition(keys, draw - 1, axis=1)[:, :draw]
                feats[s:s + len(keys)] = np.sort(smallest, axis=1)
        found, feat, low, high, dec = _best_splits(X, y, w, rows, feats, k, criterion, parent_imp)
        retry = (~found).nonzero()[0] if feats is not None else ()
        if len(retry):
            # locally constant candidates; retry on the full set before leafing
            again = _best_splits(X, y, w, [rows[i] for i in retry], None, k, criterion,
                                 parent_imp[retry])
            for col, new in zip((found, feat, low, high, dec), again):
                col[retry] = new
        if not found.all():
            hit = found.nonzero()[0]
            ids, at, n, feat, low, high, dec = (v[hit] for v in (ids, at, n, feat, low, high, dec))
        F = len(ids)
        feature[ids], lo[ids], hi[ids], decrease[ids] = feat, low, high, dec
        child[ids] = np.arange(used, used + 2 * F, 2)
        # stable in-place partition, left rows first (no row lies strictly
        # between a split's low and high); r keeps node order, kid the child
        pos = (at - (n.cumsum() - n)).repeat(n) + np.arange(n.sum())
        r = perm[pos]
        kid = np.arange(0, 2 * F, 2).repeat(n) + ~(X[r, feat.repeat(n)] <= low.repeat(n))
        perm[pos] = r[kid.argsort(kind="stable")]
        length = np.bincount(kid, minlength=2 * F)
        begin = at.repeat(2)
        begin[1::2] += length[::2]
        tree[used:used + 2 * F] = tree[ids].repeat(2)
        if max_depth is not None:
            depth[used:used + 2 * F] = depth[ids].repeat(2) + 1
        ids = add(used, begin, length, kid, r)
        used += 2 * F
    return _table(T, d, tree[:used], start[:used], size[:used], child[:used], feature, lo, hi,
                  decrease, weight, counts, root_weight)


def _table(T, d, tree, start, size, child, feature, lo, hi, decrease, weight, counts,
           root_weight) -> NodeTable:
    """The table of the node records: trees in order, each in pre-order,
    importances added in pre-order. A left subtree's rows precede its right
    sibling's and a child has fewer rows than its parent, so (start, -size)
    orders a tree's records in pre-order; start + tree grows from tree to
    tree, empty samples included."""
    cap = len(counts)
    order = ((start + tree) * (cap + 1) - size).argsort()
    # table positions; a leaf's children, cap and cap + 1, are at -1
    pos = np.empty(cap + 2, np.int32)
    pos[cap:] = -1
    pos[order] = np.arange(len(order))
    kid = child[order]
    at = order[kid < cap]
    gain = _gain(weight[at], root_weight[tree[at]], decrease[at])
    importances = np.bincount(tree[at] * d + feature[at], weights=gain,
                              minlength=T * d).reshape(T, d).astype(float, copy=False)
    # a leaf's low and high values are 0, which makes its threshold 0
    return NodeTable(pos[:T], feature[order].astype(np.int32), _threshold(lo[order], hi[order]),
                     pos[kid], pos[kid + 1], counts[order], importances)


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
        self.nodes = _sort_nodes(X, y, [np.arange(len(X))], None, n_classes)

    def grow(self, w: np.ndarray):
        """(stump, labels) for weights ``w``: the stump as (feature,
        threshold, importance, class sums of its nodes in pre-order), feature
        -1 for a single leaf, and the class it predicts for each row of X."""
        X, y, k = self.X, self.y, self.k
        counts = np.bincount(y, weights=w, minlength=k)[None]
        weight = counts.sum(axis=1)
        if (counts != 0).sum() > 1 and weight[0] > 0 and self.nodes is not None:
            parent_imp = _impurity(counts.T, weight, "gini")
            found, feature, lo, hi, decrease = _score_splits(self.nodes, w, "gini", parent_imp)
            if found[0]:
                f, thr = int(feature[0]), float(_threshold(lo[:1], hi[:1])[0])
                go_left = X[:, f] <= thr
                # block 0 sums the right child's rows, block 1 the left's
                kids = np.bincount(go_left * k + y, weights=w, minlength=2 * k).reshape(2, k)
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


def _check_table(table: NodeTable) -> None:
    """Raise ValueError unless ``table`` has the form every table made here
    has: one entry per node in each per-node array and one importance row
    per root; integer ids, roots inside the table and split features below
    the width of the importances; and a split node's children after it,
    inside the table; finite thresholds, class sums and importances.
    Tables are in pre-order, and the child rule, which pre-order keeps,
    also means that a walk from the roots ends."""
    if not all(isinstance(getattr(table, f.name), np.ndarray) for f in fields(table)):
        raise ValueError("NodeTable fields must be arrays")
    n = len(table.feature)
    ids = (table.roots, table.feature, table.left, table.right)
    if any(a.ndim != 1 or a.dtype.kind not in "iu" for a in ids):
        raise ValueError("NodeTable ids must be 1-D integer arrays")
    if (table.threshold.shape != (n,) or len(table.left) != n or len(table.right) != n
            or table.counts.ndim != 2 or len(table.counts) != n or table.importances.ndim != 2
            or len(table.importances) != len(table.roots)):
        raise ValueError(f"NodeTable arrays disagree on the node or tree count: "
                         f"{', '.join(f'{f.name} {getattr(table, f.name).shape}' for f in fields(table))}")
    if not all(np.isfinite(a).all() for a in (table.threshold, table.counts, table.importances)):
        raise ValueError("NodeTable thresholds, class sums and importances must be finite")
    d = table.importances.shape[1]
    if table.feature.max(initial=-1) >= d:
        raise ValueError(f"NodeTable feature ids must be below the {d} features of "
                         f"importances, got {int(table.feature.max())}")
    if len(table.roots) and (table.roots.min() < 0 or table.roots.max() >= n):
        raise ValueError(f"NodeTable root ids must lie in the table of {n} nodes")
    first, last = np.minimum(table.left, table.right), np.maximum(table.left, table.right)
    if ((table.feature >= 0) & ((first <= np.arange(n)) | (last >= n))).any():
        raise ValueError(f"NodeTable child ids must lie in the table of {n} nodes, after their parent")


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
        _check_table(self)
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

