"""Message model for the simulated networks.

Messages are fire-and-forget datagrams; reliability, ordering across
networks, and request/reply correlation are built above this layer (see
:mod:`repro.cluster.transport`).  Sizes are estimated deterministically
from the payload so bandwidth comparisons (§5.4, PBS polling vs PWS
events) are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Fixed per-message framing overhead, bytes (headers, addressing).
HEADER_BYTES = 64


def estimate_size(payload: dict[str, Any]) -> int:
    """Deterministic size model: header plus repr-length of the payload.

    ``repr`` of dicts of plain data is stable for a given insertion order,
    which our deterministic protocols guarantee.
    """
    return HEADER_BYTES + len(repr(payload))


@dataclass(slots=True)
class Message:
    """One datagram in flight (or delivered)."""

    src_node: str
    dst_node: str
    dst_port: str
    mtype: str
    payload: dict[str, Any] = field(default_factory=dict)
    network: str = ""
    src_port: str = ""
    size: int = 0
    #: Virtual time the message was handed to the network.
    sent_at: float = 0.0
    #: Request/reply correlation id (see Transport.rpc); empty = one-way.
    rpc_id: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            self.size = estimate_size(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Message({self.mtype!r}, {self.src_node}->{self.dst_node}:{self.dst_port},"
            f" net={self.network}, {self.size}B)"
        )
