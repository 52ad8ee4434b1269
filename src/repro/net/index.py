"""Integer-indexed view of a multicast tree — the forwarding kernel's
topology side.

A :class:`TopologyIndex` is built per
:class:`~repro.net.topology.MulticastTree` (lazily, via ``tree.index``).
It interns every node id to a dense integer in the tree's deterministic
construction order and serves everything the hot path asks per hop or
per query:

* parent / children / neighbor arrays (children first, then the parent —
  the flood fan-out order of the string implementation),
* per-node depth and a binary-lifting ancestor table (O(log depth) LCA,
  paths, and hop distances),
* Euler-tour ``tin``/``tout`` intervals (O(1) strict descendant tests),
* subtree-receiver bitsets (one bit per receiver), replacing per-query
  ``frozenset`` algebra in the attribution DP.

Scale split: the structures above the first two bullets are *lazy*.  The
eager core (ids, parent/children/depth, lifting table) is O(n log depth)
to build, so a 10^5-node index is cheap; the Euler group recomputes in
one O(n) walk when dirty, and the bitset group only materializes for the
attribution DP (which runs on small measured worlds).

Membership churn: :meth:`attach_leaf` and :meth:`detach_subtree` patch
the index in place instead of rebuilding.  Detached nodes are
tombstoned (``alive`` bytearray) and keep their dense ids; a rejoining
leaf revives its id (and its receiver bit).  Patches update the eager
core incrementally — O(log depth) per attach — and invalidate the lazy
groups, so a burst of churn costs one deferred O(n) recompute instead of
one O(n) rebuild per event.  ``tests/test_index_patch.py`` holds the
oracle: any patch sequence must answer every query exactly like a
from-scratch rebuild of the patched tree.

Everything here is pure data: the index never imports the topology module
(the tree hands its structures over at construction), so the two modules
cannot cycle.
"""

from __future__ import annotations

#: Sentinel parent/neighbor id for the root ("no such node").
NO_NODE = -1


class TopologyIndex:
    """Integer-interned topology of one multicast tree.

    Parameters
    ----------
    names:
        Every node id in the tree's deterministic DFS construction order;
        position in this sequence *is* the node's integer id.
    parent_of:
        ``child -> parent`` mapping by name (the root is absent).
    children_of:
        ``node -> children`` mapping by name, children in tree order.
    receivers:
        Receiver node ids in display order; receiver ``i`` owns bit
        ``1 << i`` of every bitset.
    """

    __slots__ = (
        "n",
        "names",
        "ids",
        "root",
        "parent",
        "depth",
        "children",
        "neighbors",
        "alive",
        "receiver_ids",
        "_receiver_slot",
        "_up",
        "_tin",
        "_tout",
        "_post_order",
        "_euler_dirty",
        "_receiver_bit",
        "_subtree_bits",
        "_bits_dirty",
    )

    def __init__(
        self,
        names: tuple[str, ...],
        parent_of: dict[str, str],
        children_of: dict[str, list[str]],
        receivers: tuple[str, ...],
    ) -> None:
        n = len(names)
        self.n = n
        self.names = list(names)
        self.ids = {name: i for i, name in enumerate(names)}
        ids = self.ids

        self.parent = [
            ids[parent_of[name]] if name in parent_of else NO_NODE for name in names
        ]
        self.children = [
            tuple(ids[child] for child in children_of[name]) for name in names
        ]
        self.neighbors = [
            kids if self.parent[i] == NO_NODE else kids + (self.parent[i],)
            for i, kids in enumerate(self.children)
        ]
        self.root = self.parent.index(NO_NODE)
        self.alive = bytearray(b"\x01" * n)

        # Depth in one preorder walk from the root.
        depth = [0] * n
        stack = [self.root]
        while stack:
            node = stack.pop()
            d = depth[node] + 1
            for child in self.children[node]:
                depth[child] = d
                stack.append(child)
        self.depth = depth

        # Binary lifting for LCA: _up[k][v] = 2^k-th ancestor (root-clamped).
        levels = max(1, max(depth).bit_length())
        up0 = [p if p != NO_NODE else self.root for p in self.parent]
        up = [up0]
        for _ in range(1, levels):
            prev = up[-1]
            up.append([prev[prev[v]] for v in range(n)])
        self._up = up

        # Receiver bit slots: receiver i (display order) owns bit 1 << i.
        self.receiver_ids = [ids[r] for r in receivers]
        self._receiver_slot = {r: i for i, r in enumerate(self.receiver_ids)}

        # Lazy groups (Euler intervals, bitsets, dense routing rows).
        self._tin: list[int] = []
        self._tout: list[int] = []
        self._post_order: tuple[int, ...] = ()
        self._euler_dirty = True
        self._receiver_bit: list[int] = []
        self._subtree_bits: list[int] = []
        self._bits_dirty = True

    # ------------------------------------------------------------------
    # Lazy groups
    # ------------------------------------------------------------------
    def _recompute_euler(self) -> None:
        """Euler intervals + post-order over the *alive* tree, one walk."""
        n = self.n
        tin = [0] * n
        tout = [0] * n
        clock = 0
        post: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                tout[node] = clock
                clock += 1
                post.append(node)
                continue
            tin[node] = clock
            clock += 1
            stack.append((node, True))
            for child in reversed(self.children[node]):
                stack.append((child, False))
        self._tin = tin
        self._tout = tout
        self._post_order = tuple(post)
        self._euler_dirty = False

    def _recompute_bits(self) -> None:
        """Receiver/subtree bitsets over the alive tree (dead receivers
        keep their slot but contribute no bit)."""
        receiver_bit = [0] * self.n
        alive = self.alive
        for slot, r in enumerate(self.receiver_ids):
            if alive[r]:
                receiver_bit[r] = 1 << slot
        subtree = list(receiver_bit)
        for node in self.post_order:
            acc = subtree[node]
            for child in self.children[node]:
                acc |= subtree[child]
            subtree[node] = acc
        self._receiver_bit = receiver_bit
        self._subtree_bits = subtree
        self._bits_dirty = False

    @property
    def tin(self) -> list[int]:
        if self._euler_dirty:
            self._recompute_euler()
        return self._tin

    @property
    def tout(self) -> list[int]:
        if self._euler_dirty:
            self._recompute_euler()
        return self._tout

    @property
    def post_order(self) -> tuple[int, ...]:
        if self._euler_dirty:
            self._recompute_euler()
        return self._post_order

    @property
    def receiver_bit(self) -> list[int]:
        if self._bits_dirty:
            self._recompute_bits()
        return self._receiver_bit

    @property
    def subtree_bits(self) -> list[int]:
        if self._bits_dirty:
            self._recompute_bits()
        return self._subtree_bits

    # ------------------------------------------------------------------
    # Membership patching
    # ------------------------------------------------------------------
    def _ensure_levels(self, wanted: int) -> None:
        """Grow the lifting table to ``wanted`` levels (column-wise, so
        existing entries — including tombstoned rows — stay coherent)."""
        up = self._up
        n = self.n
        while len(up) < wanted:
            prev = up[-1]
            up.append([prev[prev[v]] for v in range(n)])

    def _set_lifting_row(self, node: int, parent_id: int) -> None:
        d = self.depth[node]
        self._ensure_levels(max(1, d.bit_length()))
        up = self._up
        up[0][node] = parent_id
        for k in range(1, len(up)):
            prev = up[k - 1]
            up[k][node] = prev[prev[node]]

    def attach_leaf(self, name: str, parent_name: str, receiver: bool = True) -> int:
        """Attach (or revive) ``name`` as a new leaf under ``parent_name``.

        A brand-new name gets the next dense id; a tombstoned name is
        revived in place, reusing its id and — for receivers — its bit
        slot.  O(log depth) plus lazy-group invalidation.  Returns the
        node id.
        """
        pid = self.ids.get(parent_name)
        if pid is None or not self.alive[pid]:
            raise ValueError(f"cannot attach under unknown/detached node {parent_name!r}")
        node = self.ids.get(name)
        if node is not None:
            if self.alive[node]:
                raise ValueError(f"node {name!r} is already attached")
            self.alive[node] = 1
            self.parent[node] = pid
            self.depth[node] = self.depth[pid] + 1
            # A revived node always comes back as a leaf; any tombstoned
            # descendants it had stay unreachable until they rejoin.
            self.children[node] = ()
            self.neighbors[node] = (pid,)
            self._set_lifting_row(node, pid)
        else:
            node = self.n
            self.n = node + 1
            self.names.append(name)
            self.ids[name] = node
            self.parent.append(pid)
            self.depth.append(self.depth[pid] + 1)
            self.children.append(())
            self.neighbors.append((pid,))
            self.alive.append(1)
            up = self._up
            up[0].append(pid)
            for k in range(1, len(up)):
                prev = up[k - 1]
                up[k].append(prev[prev[node]])
            self._ensure_levels(max(1, self.depth[node].bit_length()))
        # The rebuilt index orders a parent's children by insertion, new
        # child last — and neighbors as children-then-parent.
        kids = self.children[pid] + (node,)
        self.children[pid] = kids
        self.neighbors[pid] = (
            kids if self.parent[pid] == NO_NODE else kids + (self.parent[pid],)
        )
        if receiver:
            if node not in self._receiver_slot:
                self._receiver_slot[node] = len(self.receiver_ids)
                self.receiver_ids.append(node)
        self._euler_dirty = True
        self._bits_dirty = True
        return node

    def detach_subtree(self, name: str) -> tuple[int, ...]:
        """Tombstone ``name`` and everything below it; returns the
        detached ids (preorder).  The root cannot be detached."""
        node = self.ids.get(name)
        if node is None or not self.alive[node]:
            raise ValueError(f"cannot detach unknown/detached node {name!r}")
        if node == self.root:
            raise ValueError("cannot detach the root")
        pid = self.parent[node]
        kids = tuple(k for k in self.children[pid] if k != node)
        self.children[pid] = kids
        self.neighbors[pid] = (
            kids if self.parent[pid] == NO_NODE else kids + (self.parent[pid],)
        )
        detached: list[int] = []
        stack = [node]
        while stack:
            cur = stack.pop()
            self.alive[cur] = 0
            detached.append(cur)
            stack.extend(self.children[cur])
        self._euler_dirty = True
        self._bits_dirty = True
        return tuple(detached)

    def alive_ids(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.alive[i])

    # ------------------------------------------------------------------
    # Integer queries (the hot path)
    # ------------------------------------------------------------------
    def lca_int(self, a: int, b: int) -> int:
        """Lowest common ancestor of two node ids."""
        depth = self.depth
        up = self._up
        da, db = depth[a], depth[b]
        if da < db:
            a, b, da, db = b, a, db, da
        diff = da - db
        k = 0
        while diff:
            if diff & 1:
                a = up[k][a]
            diff >>= 1
            k += 1
        if a == b:
            return a
        for k in range(len(up) - 1, -1, -1):
            if up[k][a] != up[k][b]:
                a = up[k][a]
                b = up[k][b]
        return self.parent[a]

    def hop_distance_int(self, a: int, b: int) -> int:
        return self.depth[a] + self.depth[b] - 2 * self.depth[self.lca_int(a, b)]

    def is_descendant_int(self, node: int, ancestor: int) -> bool:
        """True if ``node`` lies *strictly* below ``ancestor``."""
        if self._euler_dirty:
            self._recompute_euler()
        return (
            node != ancestor
            and self._tin[ancestor] <= self._tin[node]
            and self._tout[node] <= self._tout[ancestor]
        )

    def path_ints(self, a: int, b: int) -> tuple[int, ...]:
        """The unique tree path from ``a`` to ``b``, inclusive of both."""
        parent = self.parent
        top = self.lca_int(a, b)
        up_part = [a]
        node = a
        while node != top:
            node = parent[node]
            up_part.append(node)
        down_part = []
        node = b
        while node != top:
            down_part.append(node)
            node = parent[node]
        up_part.extend(reversed(down_part))
        return tuple(up_part)

    # ------------------------------------------------------------------
    # Name-level conveniences (build-time / cold paths)
    # ------------------------------------------------------------------
    def lca(self, a: str, b: str) -> str:
        return self.names[self.lca_int(self.ids[a], self.ids[b])]

    def hop_distance(self, a: str, b: str) -> int:
        return self.hop_distance_int(self.ids[a], self.ids[b])

    def is_descendant(self, node: str, ancestor: str) -> bool:
        return self.is_descendant_int(self.ids[node], self.ids[ancestor])

    def path_names(self, a: str, b: str) -> tuple[str, ...]:
        names = self.names
        return tuple(names[i] for i in self.path_ints(self.ids[a], self.ids[b]))

    def pattern_bits(self, receivers) -> int:
        """Bitset of a collection of receiver names."""
        bit = self.receiver_bit
        ids = self.ids
        acc = 0
        for name in receivers:
            acc |= bit[ids[name]]
        return acc

    def names_of_bits(self, bits: int) -> frozenset[str]:
        """Receiver names of a bitset (inverse of :meth:`pattern_bits`)."""
        names = self.names
        out = []
        for i, r in enumerate(self.receiver_ids):
            if bits >> i & 1:
                out.append(names[r])
        return frozenset(out)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TopologyIndex(n={self.n}, receivers={len(self.receiver_ids)})"
