"""An in-memory R-tree over points.

Section 5.1 of the paper stores the GP training points "in an R-tree" so
local inference can efficiently retrieve the points within a distance
threshold of the input-sample bounding box.  No external spatial library is
assumed; this is a from-scratch quadratic-split R-tree specialised for point
data with integer payloads (the row index of the training point).

Supported queries:

* :meth:`RTree.insert` — incremental insertion (training points arrive online).
* :meth:`RTree.search_box` — all payloads whose point lies inside a box.
* :meth:`RTree.search_within_distance` — all payloads within Euclidean
  distance ``r`` of a query box, the exact operation local inference needs.
* :meth:`RTree.nearest` — k nearest neighbours (used by workload tooling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import heapq
import itertools

import numpy as np

from repro.exceptions import IndexError_
from repro.index.bounding_box import BoundingBox


@dataclass(eq=False)
class _Entry:
    """A child of an R-tree node: either a data point or a subtree."""

    box: BoundingBox
    payload: Optional[int] = None
    child: Optional["_Node"] = None
    point: Optional[np.ndarray] = None


@dataclass(eq=False)
class _Node:
    """An internal or leaf node of the R-tree."""

    leaf: bool
    entries: list[_Entry] = field(default_factory=list)
    parent: Optional["_Node"] = None

    def box(self) -> BoundingBox:
        result = self.entries[0].box
        for entry in self.entries[1:]:
            result = result.union(entry.box)
        return result


class RTree:
    """Quadratic-split R-tree over d-dimensional points."""

    def __init__(self, dimension: int, max_entries: int = 16, min_entries: int | None = None):
        if dimension <= 0:
            raise IndexError_(f"dimension must be positive, got {dimension}")
        if max_entries < 4:
            raise IndexError_("max_entries must be at least 4")
        self.dimension = int(dimension)
        self.max_entries = int(max_entries)
        self.min_entries = int(min_entries) if min_entries is not None else max(2, max_entries // 3)
        if self.min_entries * 2 > self.max_entries:
            raise IndexError_("min_entries must be at most half of max_entries")
        self._root = _Node(leaf=True)
        self._size = 0

    # -- public API --------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def insert(self, point: np.ndarray, payload: int) -> None:
        """Insert ``point`` with an integer ``payload`` (e.g. a row index)."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if p.shape != (self.dimension,):
            raise IndexError_(
                f"point has shape {p.shape}, expected ({self.dimension},)"
            )
        entry = _Entry(box=BoundingBox.from_point(p), payload=int(payload), point=p.copy())
        leaf = self._choose_leaf(self._root, entry.box)
        leaf.entries.append(entry)
        self._adjust_tree(leaf)
        self._size += 1

    def bulk_load(self, points: np.ndarray, payloads: Iterable[int] | None = None) -> None:
        """Insert many points; payloads default to running row indices."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if payloads is None:
            payloads = range(self._size, self._size + pts.shape[0])
        for point, payload in zip(pts, payloads):
            self.insert(point, payload)

    def search_box(self, box: BoundingBox) -> list[int]:
        """Payloads of all points falling inside ``box``."""
        results: list[int] = []
        self._search_box(self._root, box, results)
        return results

    def search_within_distance(self, box: BoundingBox, radius: float) -> list[int]:
        """Payloads of all points within Euclidean distance ``radius`` of ``box``.

        This is the retrieval primitive used by local inference: the query
        box is the bounding box of the input samples and ``radius`` is the
        maximum distance implied by the local-inference threshold Γ.
        """
        if radius < 0:
            raise IndexError_("radius must be non-negative")
        results: list[int] = []
        self._search_distance(self._root, box, radius, results)
        return results

    def nearest(self, point: np.ndarray, k: int = 1) -> list[int]:
        """Payloads of the ``k`` points nearest to ``point`` (best-first search)."""
        if k <= 0:
            raise IndexError_("k must be positive")
        if self._size == 0:
            return []
        p = np.atleast_1d(np.asarray(point, dtype=float))
        counter = itertools.count()
        heap: list[tuple[float, int, _Entry | _Node]] = [(0.0, next(counter), self._root)]
        found: list[int] = []
        while heap and len(found) < k:
            dist, _, item = heapq.heappop(heap)
            if isinstance(item, _Node):
                for entry in item.entries:
                    d = entry.box.min_distance_to(p)
                    target = entry.child if entry.child is not None else entry
                    heapq.heappush(heap, (d, next(counter), target))
            else:
                found.append(int(item.payload))
        return found

    def all_payloads(self) -> list[int]:
        """All payloads stored in the tree (order unspecified)."""
        results: list[int] = []
        self._collect(self._root, results)
        return results

    def height(self) -> int:
        """Tree height (1 for a tree whose root is a leaf)."""
        node = self._root
        h = 1
        while not node.leaf:
            node = node.entries[0].child  # type: ignore[assignment]
            h += 1
        return h

    def check_invariants(self) -> None:
        """Validate structural invariants; raises ``IndexError_`` on violation.

        Used by property-based tests: every child box must be contained in
        its parent entry box, and all leaves must sit at the same depth.
        """
        depths: set[int] = set()
        self._check(self._root, None, 1, depths)
        if len(depths) > 1:
            raise IndexError_(f"leaves at multiple depths: {sorted(depths)}")

    # -- internals -----------------------------------------------------------
    def _choose_leaf(self, node: _Node, box: BoundingBox) -> _Node:
        while not node.leaf:
            best_entry = min(
                node.entries,
                key=lambda e: (e.box.enlargement(box), e.box.volume()),
            )
            best_entry.box = best_entry.box.union(box)
            node = best_entry.child  # type: ignore[assignment]
        return node

    def _adjust_tree(self, node: _Node) -> None:
        while True:
            if len(node.entries) > self.max_entries:
                node = self._split(node)
            parent = node.parent
            if parent is None:
                return
            for entry in parent.entries:
                if entry.child is node:
                    entry.box = node.box()
                    break
            node = parent

    def _split(self, node: _Node) -> _Node:
        """Quadratic split; returns the parent node to continue adjustment."""
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        remaining = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]

        box_a = group_a[0].box
        box_b = group_b[0].box
        while remaining:
            # Force assignment if one group must take all remaining entries
            # to reach the minimum fill.
            if len(group_a) + len(remaining) == self.min_entries:
                group_a.extend(remaining)
                for e in remaining:
                    box_a = box_a.union(e.box)
                remaining = []
                break
            if len(group_b) + len(remaining) == self.min_entries:
                group_b.extend(remaining)
                for e in remaining:
                    box_b = box_b.union(e.box)
                remaining = []
                break
            entry = self._pick_next(remaining, box_a, box_b)
            remaining.remove(entry)
            grow_a = box_a.enlargement(entry.box)
            grow_b = box_b.enlargement(entry.box)
            if grow_a < grow_b or (grow_a == grow_b and len(group_a) <= len(group_b)):
                group_a.append(entry)
                box_a = box_a.union(entry.box)
            else:
                group_b.append(entry)
                box_b = box_b.union(entry.box)

        sibling = _Node(leaf=node.leaf, entries=group_b, parent=node.parent)
        node.entries = group_a
        for entry in sibling.entries:
            if entry.child is not None:
                entry.child.parent = sibling

        if node.parent is None:
            new_root = _Node(leaf=False)
            new_root.entries = [
                _Entry(box=node.box(), child=node),
                _Entry(box=sibling.box(), child=sibling),
            ]
            node.parent = new_root
            sibling.parent = new_root
            self._root = new_root
            return new_root
        parent = node.parent
        parent.entries.append(_Entry(box=sibling.box(), child=sibling))
        return parent

    @staticmethod
    def _pick_seeds(entries: list[_Entry]) -> tuple[int, int]:
        worst = -1.0
        pair = (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                combined = entries[i].box.union(entries[j].box)
                waste = combined.volume() - entries[i].box.volume() - entries[j].box.volume()
                if waste > worst:
                    worst = waste
                    pair = (i, j)
        return pair

    @staticmethod
    def _pick_next(remaining: list[_Entry], box_a: BoundingBox, box_b: BoundingBox) -> _Entry:
        best_entry = remaining[0]
        best_diff = -1.0
        for entry in remaining:
            diff = abs(box_a.enlargement(entry.box) - box_b.enlargement(entry.box))
            if diff > best_diff:
                best_diff = diff
                best_entry = entry
        return best_entry

    def _search_box(self, node: _Node, box: BoundingBox, results: list[int]) -> None:
        for entry in node.entries:
            if not box.intersects(entry.box):
                continue
            if node.leaf:
                results.append(int(entry.payload))
            else:
                self._search_box(entry.child, box, results)  # type: ignore[arg-type]

    def _search_distance(
        self, node: _Node, box: BoundingBox, radius: float, results: list[int]
    ) -> None:
        for entry in node.entries:
            if entry.box.min_distance_to_box(box) > radius:
                continue
            if node.leaf:
                results.append(int(entry.payload))
            else:
                self._search_distance(entry.child, box, radius, results)  # type: ignore[arg-type]

    def _collect(self, node: _Node, results: list[int]) -> None:
        for entry in node.entries:
            if node.leaf:
                results.append(int(entry.payload))
            else:
                self._collect(entry.child, results)  # type: ignore[arg-type]

    def _check(self, node: _Node, parent_box: BoundingBox | None, depth: int, depths: set[int]) -> None:
        if parent_box is not None:
            for entry in node.entries:
                if not parent_box.contains_box(entry.box):
                    raise IndexError_("child entry box escapes its parent box")
        if node.leaf:
            depths.add(depth)
            return
        for entry in node.entries:
            if entry.child is None:
                raise IndexError_("internal node entry without a child")
            if entry.child.parent is not node:
                raise IndexError_("broken parent pointer")
            self._check(entry.child, entry.box, depth + 1, depths)
