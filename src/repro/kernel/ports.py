"""Well-known ports and message types of the Phoenix kernel.

The paper's kernel "provides documented interfaces and parallel command
calls for user environments in different forms with uniformed semantics"
(§4.2); this module is that documentation for the simulated transport:
every service's port name and the message types it understands.

Each type is declared once, next to its name (:func:`declare`): the ports
serving it and its payload keys, each required or optional with a
:class:`Kind`.  ``ServiceDaemon.bind`` checks every delivery against it
(docs/PROTOCOLS.md §7).  User environments declare theirs the same way.
"""

from __future__ import annotations

import reprlib
from collections.abc import Callable, Container
from typing import Any, NamedTuple

from repro.cluster.message import SizedDict
from repro.errors import KernelError
from repro.kernel.query import validate_where


class Names(NamedTuple):
    """The cluster's node ids and partition ids, which name kinds check."""

    nodes: Container[str]
    partitions: Container[str]


class Kind(NamedTuple):
    """A payload key's type: its documented name, its test (of the value
    and the cluster's :class:`Names`), and whether the key is required."""

    name: str
    test: Callable[[Any, Names | None], bool]
    required: bool = True

    def check(self, value: Any, names: Names | None) -> Any:
        """``value``, if it is this kind; raises ``TypeError`` if not."""
        if not self.test(value, names):
            raise TypeError(f"not a {self.name}")
        return value


def _compile(fields: dict[str, Kind]) -> tuple[tuple[str, str, Callable, bool], ...]:
    return tuple((key, *kind) for key, kind in fields.items())


def _why(checks, payload: Any, names: Names | None) -> str | None:
    """The first ``(key, *kind)`` of ``checks`` that ``payload`` breaks, or
    None.  An optional key may be absent or ``None``."""
    if not isinstance(payload, dict):
        return f"payload: expected dict, got {reprlib.repr(payload)}"
    for key, name, test, required in checks:
        value = payload.get(key)
        if value is None:
            if required:
                return f"{key!r}: missing"
        elif not test(value, names):
            return f"{key!r}: expected {name}, got {reprlib.repr(value)}"
    return None


def opt(kind: Kind) -> Kind:
    """``kind`` for a key that may be absent or ``None``."""
    return kind._replace(required=False)


def each(kind: Kind) -> Kind:
    """A list (or tuple) whose every item is a ``kind``."""
    return Kind(f"list of {kind.name}s", lambda v, names: isinstance(v, (list, tuple))
                and all(kind.test(x, names) for x in v))


def mapping(key: Kind, value: Kind) -> Kind:
    """A dict from ``key`` kinds to ``value`` kinds."""
    return Kind(f"map of {key.name}s to {value.name}s", lambda v, names: isinstance(v, dict)
                and all(key.test(k, names) and value.test(x, names) for k, x in v.items()))


def record(name: str, /, **fields: Kind) -> Kind:
    """A nested dict, checked key by key like a payload."""
    checks = _compile(fields)
    return Kind(name, lambda v, names: _why(checks, v, names) is None)


def _valid_where(where: Any, _names: Names | None) -> bool:
    try:
        validate_where(where)
    except KernelError:
        return False
    return True


NAME = Kind("name", lambda v, _: isinstance(v, str) and v != "")
#: Names learned from a message that become addresses must exist.
NODE = Kind("node", lambda v, names: isinstance(v, str) and v in names.nodes)
PARTITION = Kind("partition", lambda v, names: isinstance(v, str) and v in names.partitions)
STR = Kind("str", lambda v, _: isinstance(v, str))
INT = Kind("int", lambda v, _: type(v) is int)
COUNT = Kind("int >= 0", lambda v, _: type(v) is int and v >= 0)
NUMBER = Kind("number", lambda v, _: isinstance(v, (int, float)) and type(v) is not bool)
BOOL = Kind("bool", lambda v, _: type(v) is bool)
DICT = Kind("dict", lambda v, _: isinstance(v, dict))
ANY = Kind("value", lambda v, _: True)
NAMES = each(NAME)
WHERE = Kind("where clause", _valid_where)
MEMBER = Kind("[partition, node] pair", lambda v, names: isinstance(v, (list, tuple))
              and len(v) == 2 and PARTITION.test(v[0], names) and NODE.test(v[1], names))
MEMBERS = Kind("non-empty list of distinct members", lambda v, names: each(MEMBER).test(v, names)
               and len({p for p, _ in v}) == len({n for _, n in v}) == len(v) > 0)
VIEW = record("membership view", view_id=INT, epoch=opt(INT), members=MEMBERS)
#: An ``Event`` is a frozen ``SizedDict`` an event service built from a
#: checked publish, so only a plain dict (a client's copy) is checked here.
_EVENT = record("event", event_id=NAME, type=NAME, source=NAME, partition=PARTITION, time=NUMBER,
                data=opt(DICT), span=opt(STR))
EVENT = _EVENT._replace(test=lambda v, names: isinstance(v, SizedDict) or _EVENT.test(v, names))
CKPT_DUMP = mapping(NAME, record("checkpoint", data=DICT, version=INT, saved_at=opt(NUMBER)))


class Contract(NamedTuple):
    """One message type's declaration (see :func:`declare`)."""

    mtype: str
    ports: tuple[str, ...]
    fields: dict[str, Kind]
    rule: Kind | None
    empty: dict[str, Any] | None
    counter: str
    checks: tuple

    def refusal(self, payload: Any, names: Names | None) -> str | None:
        """``"<type>: <key> ..."`` when ``payload`` breaks the declaration."""
        why = _why(self.checks, payload, names)
        if why is None and self.rule is not None and not self.rule.test(payload, names):
            why = f"payload: expected {self.rule.name}"
        return None if why is None else f"{self.mtype}: {why}"


#: Every declared message type, kernel and user environment.
CONTRACTS: dict[str, Contract] = {}


def declare(mtype: str, *served_on: str, rule: Kind | None = None,
            empty: dict[str, Any] | None = None, **fields: Kind) -> str:
    """Declare ``mtype``: the ports serving it (none: any consumer's port),
    its payload ``fields``, a whole-payload ``rule``, and the ``empty`` rows
    a refusal answers for callers that read them; returns ``mtype``."""
    if mtype in CONTRACTS:
        raise KernelError(f"message type {mtype!r} is declared twice")
    family = mtype.split(".", 1)[0]
    CONTRACTS[mtype] = Contract(mtype, served_on, fields, rule, empty, f"{family}.refused",
                                _compile(fields))
    return mtype


# -- service ports (one per daemon kind) -----------------------------------
GSD = "gsd"  # group service daemon: control plane
GSD_HB = "gsd.hb"  # heartbeats (WD beats and ring beats)
WD = "wd"  # watch daemon: control (gsd announcements, process queries)
ES = "es"  # event service
DB = "db"  # data bulletin service
CKPT = "ckpt"  # checkpoint service (primary)
CKPT_REPLICA = "ckpt.replica"  # checkpoint replica on the backup node
PPM = "ppm"  # parallel process management
CONFIG = "config"  # configuration service (single instance)
SECURITY = "security"  # security service (single instance)

# -- message types ----------------------------------------------------------
# heartbeats
HB_WD = declare("hb.wd", GSD_HB, node=NODE, seq=INT)
HB_GSD = declare("hb.gsd", GSD_HB, node=NODE, partition=PARTITION, view=opt(VIEW))

# watch daemon control
WD_GSD_ANNOUNCE = declare("wd.gsd_announce", WD, node=NODE)  # new GSD of this partition
WD_PROC_QUERY = declare("wd.proc_query", WD, process=NAME)  # "is host process X alive?"

# group service / meta-group membership
GSD_JOIN = declare("gsd.join", GSD, partition=PARTITION, node=NODE)
GSD_VIEW = declare("gsd.view", GSD, view=VIEW)
GSD_MEMBER_FAILED = declare("gsd.member_failed", GSD, node=NODE, epoch=opt(INT))
GSD_STATUS = declare("gsd.status", GSD)
# quorum census probe (regroup round) and its answer, carrying the responder's view
_CENSUS = dict(node=NODE, partition=PARTITION, round=INT)
GSD_REGROUP_PROBE = declare("gsd.regroup_probe", GSD, initiate=opt(BOOL), **_CENSUS)
GSD_REGROUP_ACK = declare("gsd.regroup_ack", GSD, parked=BOOL, view=opt(VIEW), **_CENSUS)

# event service
ES_SUBSCRIBE = declare("es.subscribe", ES, consumer_id=NAME, node=NODE, port=NAME,
                       types=opt(NAMES), where=opt(WHERE), replay=opt(COUNT))
ES_UNSUBSCRIBE = declare("es.unsubscribe", ES, consumer_id=NAME)
ES_PUBLISH = declare("es.publish", ES, type=NAME, data=opt(DICT), _span=opt(STR))
# batched federation forwards (acked)
ES_FORWARD_BATCH = declare("es.forward_batch", ES, origin=PARTITION, events=each(EVENT))
ES_EVENT = declare("es.event", event=EVENT, replayed=opt(BOOL))  # pushed to consumers
ES_PEERS = declare("es.peers", ES, partition=PARTITION, node=NODE)  # federation membership refresh

# data bulletin
_NO_ROWS = {"rows": [], "partitions_missing": []}
DB_PUT = declare("db.put", DB, table=NAME, key=NAME, row=DICT)
DB_DELETE = declare("db.delete", DB, table=NAME, key=NAME)
# the one cluster-wide read: a typed query (a key-value read is ``Query(table, where)``;
# a registered view is a table, read at its owner)
DB_EXEC = declare("db.exec", DB, empty=_NO_ROWS, query=DICT, _span=opt(STR))
# the federation's peer probe: one instance's slice, or an aggregator's region
DB_QUERY = declare("db.query", DB, empty=_NO_ROWS, table=NAME, where=opt(WHERE),
                   scope=Kind("local or region", lambda v, _: v in ("local", "region")),
                   _span=opt(STR))
# materialized views
DB_VIEW_REGISTER = declare("db.view_register", DB, name=NAME, query=DICT)
DB_VIEW_DROP = declare("db.view_drop", DB, name=NAME)
DB_VIEW_LIST = declare("db.view_list", DB)  # owned views + maintenance counters
# peer broadcast: enable delta publishing for tables; views -> owner partition
DB_MAINT = declare("db.maint", DB, tables=opt(NAMES), views=opt(mapping(NAME, PARTITION)), relay=opt(BOOL))
# the change feed's event data (``events.types.DB_DELTA``), checked by the view engine
declare(
    "db.delta", table=NAME, partition=NAME, key=STR, epoch=INT, seq=INT, t=opt(NUMBER),
    op=Kind("put, delete or epoch", lambda v, _: v in ("put", "delete", "epoch")), row=opt(DICT),
    rule=Kind("a row when 'op' is put", lambda d, _: d["op"] != "put" or d.get("row") is not None))

# checkpoint
CKPT_SAVE = declare("ckpt.save", CKPT, key=NAME, data=DICT)
CKPT_LOAD = declare("ckpt.load", CKPT, CKPT_REPLICA, key=NAME, version=opt(INT), at_time=opt(NUMBER))
CKPT_DELETE = declare("ckpt.delete", CKPT, CKPT_REPLICA, key=NAME)
CKPT_REPLICATE = declare("ckpt.replicate", CKPT_REPLICA, key=NAME, data=DICT, version=INT)
CKPT_PULL = declare("ckpt.pull", CKPT, CKPT_REPLICA)
CKPT_RESEED = declare("ckpt.reseed", CKPT)  # primary -> push full store to the replica
CKPT_ABSORB = declare("ckpt.absorb", CKPT_REPLICA, dump=opt(CKPT_DUMP))  # bulk store dump

# parallel process management
PPM_START_SERVICE = declare("ppm.start_service", PPM, service=NAME)
PPM_STOP_SERVICE = declare("ppm.stop_service", PPM, service=NAME)
PPM_SPAWN_JOB = declare("ppm.spawn_job", PPM, job_id=NAME, cpus=INT, duration=NUMBER, user=opt(STR))
PPM_KILL_JOB = declare("ppm.kill_job", PPM, job_id=NAME)
PPM_CLEANUP = declare("ppm.cleanup", PPM)
PPM_JOB_STATUS = declare("ppm.job_status", PPM, job_id=NAME)
PPM_REPORT_LOAD = declare("ppm.report_load", PPM)
# a verb's args follow ppm.<verb>'s declaration
PPM_PCMD = declare("ppm.pcmd", PPM, cmd=NAME, args=opt(DICT), targets=opt(each(NODE)))

# configuration service
CONFIG_GET = declare("config.get", CONFIG, key=NAME)
CONFIG_SET = declare("config.set", CONFIG, key=NAME, value=opt(ANY))
CONFIG_LIST = declare("config.list", CONFIG, prefix=opt(STR))
CONFIG_INTROSPECT = declare("config.introspect", CONFIG)

# security service
SEC_AUTH = declare("sec.authenticate", SECURITY, user=STR, password=STR, ttl=opt(NUMBER))
SEC_VERIFY = declare("sec.verify", SECURITY, token=STR)
SEC_AUTHORIZE = declare("sec.authorize", SECURITY, token=STR, action=STR)
