"""NameNode: file/stripe metadata and chunk placement.

Mirrors HDFS's role split — data never flows through the namenode; it
answers "which node holds slot s of stripe i".  Placement is rotational
(stripe i's slot s lives on node ``(i·stride + s) mod N``), which spreads
both primary data and repair load evenly, like HDFS's default block
placement does in aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

__all__ = ["StripeInfo", "NameNode"]


@dataclass(slots=True)
class StripeInfo:
    """Metadata for one stripe: its placement, plus ``extra`` for what
    other layers attach to it."""

    stripe_id: Hashable
    placement: list[int]  # slot -> node_id
    extra: dict = field(default_factory=dict)


class NameNode:
    """Stripe registry + deterministic placement.

    Parameters
    ----------
    num_nodes:
        Cluster size; must be at least the scheme's stripe width so no
        stripe places two chunks on one node.
    width:
        Slots per stripe (scheme-dependent).
    racks:
        Number of rack failure domains.  With ``racks > 1`` placement is
        rack-aware: consecutive slots of a stripe land on *different*
        racks (round-robin over racks, rotating the node within each
        rack), so a rack loss takes out at most ⌈width/racks⌉ chunks of
        any stripe.  ``racks = 1`` (default) is the flat rotational
        placement.
    dcs:
        Number of data-center failure domains.  DC ``d`` owns racks
        ``d, d + dcs, d + 2·dcs, ...`` (striped, mirroring the rack/node
        layout), so the rack round-robin placement visits DCs
        round-robin too and a DC loss takes out at most ⌈width/dcs⌉
        chunks of any stripe.  Requires ``dcs | racks`` so every DC
        holds the same number of racks — unequal DCs would break the
        ⌈width/dcs⌉ spreading bound.  ``dcs = 1`` (default) keeps the
        single-campus behaviour bit-identical.
    """

    def __init__(
        self,
        num_nodes: int,
        width: int,
        stride: int = 1,
        racks: int = 1,
        dcs: int = 1,
    ):
        if num_nodes < width:
            raise ValueError(
                f"cluster of {num_nodes} nodes cannot place {width}-wide stripes"
            )
        if racks < 1 or racks > num_nodes:
            raise ValueError(f"racks must be in [1, num_nodes], got {racks}")
        if dcs < 1 or dcs > racks:
            raise ValueError(f"dcs must be in [1, racks={racks}], got {dcs}")
        if racks % dcs:
            raise ValueError(
                f"racks ({racks}) must divide evenly across dcs ({dcs}) so every "
                "DC holds the same number of racks"
            )
        self.num_nodes = num_nodes
        self.width = width
        self.stride = stride
        self.racks = racks
        self.dcs = dcs
        # rack r owns nodes r, r + racks, r + 2·racks, ... (striped layout)
        self._rack_nodes = [
            [n for n in range(num_nodes) if n % racks == r] for r in range(racks)
        ]
        self._stripes: dict[Hashable, StripeInfo] = {}
        self._counter = 0

    def rack_of(self, node: int) -> int:
        """Rack failure domain of a node."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range")
        return node % self.racks

    def nodes_in_rack(self, rack: int) -> list[int]:
        """All nodes in one rack failure domain."""
        return list(self._rack_nodes[rack])

    def dc_of(self, node: int) -> int:
        """Data-center failure domain of a node (rack striped over DCs)."""
        return self.rack_of(node) % self.dcs

    def racks_in_dc(self, dc: int) -> list[int]:
        """All racks in one data center."""
        if not 0 <= dc < self.dcs:
            raise ValueError(f"dc {dc} out of range")
        return [r for r in range(self.racks) if r % self.dcs == dc]

    def nodes_in_dc(self, dc: int) -> list[int]:
        """All nodes in one data-center failure domain."""
        return sorted(
            n for r in self.racks_in_dc(dc) for n in self._rack_nodes[r]
        )

    def _place(self, index: int) -> list[int]:
        if self.racks == 1:
            base = index * self.stride
            return [(base + s) % self.num_nodes for s in range(self.width)]
        placement = []
        for s in range(self.width):
            rack = (index + s) % self.racks
            members = self._rack_nodes[rack]
            # rotate within the rack by stripe index and how many times this
            # stripe has already wrapped around the racks
            offset = (index + s // self.racks) % len(members)
            placement.append(members[offset])
        return placement

    def placement_for(self, index: int) -> list[int]:
        """Placement of the ``index``-th stripe *without* registering it.

        Rack ids 0..racks-1 cycle through DCs (rack ``r`` lives in DC
        ``r mod dcs``), so the rack round-robin walk doubles as a DC
        round-robin walk: consecutive slots land in consecutive DCs and
        no DC holds more than ⌈width/dcs⌉ chunks of the stripe.  Pure
        function of ``index`` — the durability engine and property tests
        use it to enumerate placements without touching registry state.
        """
        if index < 0:
            raise ValueError(f"stripe index must be non-negative, got {index}")
        return self._place(index)

    def lookup(self, stripe_id: Hashable) -> StripeInfo:
        """Metadata for a stripe, creating it (with placement) on first use."""
        info = self._stripes.get(stripe_id)
        if info is None:
            placement = self._place(self._counter)
            self._counter += 1
            info = StripeInfo(stripe_id=stripe_id, placement=placement)
            self._stripes[stripe_id] = info
        return info

    def node_of(self, stripe_id: Hashable, slot: int) -> int:
        """Which node stores ``slot`` of ``stripe_id``."""
        info = self.lookup(stripe_id)
        if not 0 <= slot < self.width:
            raise ValueError(f"slot {slot} out of range for width {self.width}")
        return info.placement[slot]

    @property
    def stripe_count(self) -> int:
        return len(self._stripes)

    def stripes(self) -> list[StripeInfo]:
        """All registered stripes (insertion order)."""
        return list(self._stripes.values())
