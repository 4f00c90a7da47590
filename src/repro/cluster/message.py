"""Message model for the simulated networks.

Messages are fire-and-forget datagrams; reliability, ordering across
networks, and request/reply correlation are built above this layer (see
:mod:`repro.cluster.transport`).

Every message carries a byte count, because §5.4 (PBS polling vs PWS
events) and the traffic columns of the scalability runs are bandwidth
arguments.  It is ``HEADER_BYTES`` plus the *wire size* of the payload: a
structural model of its text, computed without rendering it.

* a string: its length plus two quotes;
* a float: ``FLOAT_BYTES`` whatever its value (any ``float`` subclass,
  NumPy's ``float64`` included, is a float); an int: ``INT_BYTES``;
* ``None`` or a bool: ``FLAG_BYTES``;
* a dict: two braces, ``ENTRY_BYTES`` of framing per entry, plus its keys
  and values; a list or tuple: two brackets, ``ELEMENT_BYTES`` per
  element, plus its elements;
* any other type: the length of its ``repr``.

The widths are the means of a survey of the payloads the perf workloads
send.  The model is deterministic, so byte counts repeat exactly for a
seed, and additive, so a dict that never changes (:class:`SizedDict`) is
sized once, when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Fixed per-message framing overhead, bytes (headers, addressing).
HEADER_BYTES = 64
#: A float on the wire (shortest round-trip text of a double: 17–20 chars).
FLOAT_BYTES = 18
#: An int on the wire (counters, sequence numbers, epochs: 1–3 digits).
INT_BYTES = 2
#: ``None`` or a bool.
FLAG_BYTES = 4
#: Per dict entry: the ``": "`` after its key and the ``", "`` after its value.
ENTRY_BYTES = 4
#: Per list element: the ``", "`` after it.
ELEMENT_BYTES = 2


def _refuse(self, *args, **kwargs):
    raise TypeError("a sealed dict is a value: edit dict(it) and send that")


_CONTAINERS = frozenset((dict, list))


def _frozen(value):
    """A dict as a :class:`SizedDict`; a list as a copy, containers inside frozen."""
    if type(value) is dict:
        return SizedDict(value)
    return [_frozen(v) if type(v) in _CONTAINERS else v for v in value]


class SizedDict(dict):
    """A ``dict`` that is a value, not an object: a stored bulletin row, an event.

    Built once (nested dicts frozen alike, nested lists copied), then
    shared by every reader.  Mutators raise ``TypeError`` and ``copy`` /
    ``deepcopy`` return the dict itself; ``dict(it)`` is the mutable copy.
    Only an in-place edit of a nested *list* cannot be refused.  It is
    sized once, when built: a message that carries it adds that number;
    :func:`repr_len` keeps its text length beside it on first use.
    """

    __slots__ = ("_size", "_text_len")

    def __init__(self, entries: Any = (), **extra: Any) -> None:
        dict.__init__(self, entries, **extra)
        # Most dicts hold scalars only: one C-level type test skips the
        # per-entry loop for them.
        if not _CONTAINERS.isdisjoint(map(type, self.values())):
            for key, value in tuple(self.items()):
                if type(value) in _CONTAINERS:
                    dict.__setitem__(self, key, _frozen(value))
        self._size = _dict_size(self)

    __setitem__ = __delitem__ = __ior__ = _refuse
    update = pop = popitem = clear = setdefault = _refuse

    def __deepcopy__(self, memo: dict | None = None) -> "SizedDict":
        return self

    __copy__ = __deepcopy__


def wire_size(value: Any) -> int:
    """Modelled bytes of ``value`` on the wire (see the module docstring).

    The exact built-in types are tested inline, so sizing a row costs one
    loop over its entries and no call per scalar.
    """
    t = type(value)
    if t is dict:
        return _dict_size(value)
    if t is list or t is tuple:
        return _list_size(value)
    if t is str:
        return len(value) + 2
    if t is float:
        return FLOAT_BYTES
    if t is int:
        return INT_BYTES
    if value is None or t is bool:
        return FLAG_BYTES
    if isinstance(value, SizedDict):
        return value._size
    if isinstance(value, float):
        return FLOAT_BYTES
    return len(repr(value))


def _dict_size(entries: dict) -> int:
    size = 2 + ENTRY_BYTES * len(entries)
    for key, value in entries.items():
        size += len(key) + 2 if type(key) is str else wire_size(key)
        t = type(value)
        if t is str:
            size += len(value) + 2
        elif t is float:
            size += FLOAT_BYTES
        elif t is int:
            size += INT_BYTES
        elif t is dict:
            size += _dict_size(value)
        elif t is bool or value is None:
            size += FLAG_BYTES
        elif isinstance(value, SizedDict):
            size += value._size
        elif t is list:
            size += _list_size(value)
        else:
            size += wire_size(value)
    return size


def _list_size(items: list | tuple) -> int:
    size = 2 + ELEMENT_BYTES * len(items)
    for value in items:
        t = type(value)
        if t is str:
            size += len(value) + 2
        elif t is float:
            size += FLOAT_BYTES
        elif t is int:
            size += INT_BYTES
        elif t is dict:
            size += _dict_size(value)
        elif isinstance(value, SizedDict):
            size += value._size
        else:
            size += wire_size(value)
    return size


def repr_len(value: Any) -> int:
    """``len(repr(value))``, exactly: a dict or list is summed entry by
    entry (2 brackets and ``", "`` between, plus ``": "`` per dict entry),
    a :class:`SizedDict` keeps its sum (a value's text never changes), and
    anything else is rendered."""
    t = type(value)
    if t is list:
        return max(2, 2 * len(value)) + sum(map(repr_len, value))
    frozen = t is not dict
    if frozen and not isinstance(value, SizedDict):
        return len(repr(value))
    if frozen and hasattr(value, "_text_len"):
        return value._text_len
    n = max(2, 4 * len(value)) + sum(map(repr_len, value)) + sum(map(repr_len, value.values()))
    if frozen:
        value._text_len = n
    return n


def estimate_size(payload: dict[str, Any]) -> int:
    """Bytes of a message carrying ``payload``: header plus its wire size."""
    return HEADER_BYTES + (_dict_size(payload) if type(payload) is dict else wire_size(payload))


@dataclass(slots=True)
class Message:
    """One datagram in flight (or delivered)."""

    src_node: str
    dst_node: str
    dst_port: str
    mtype: str
    payload: dict[str, Any] = field(default_factory=dict)
    network: str = ""
    #: Sender's port; an RPC request's is its caller's reply port.
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
