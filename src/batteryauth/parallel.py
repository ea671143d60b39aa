"""Order-preserving worker pool.

Results are always collected in input order and every random stream is
derived from (seed, index) upstream, so outputs are identical for any
thread count, including 1.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

def ordered_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> List[R]:
    """Map fn over items, in-order results, optionally on a thread pool."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))
