"""Every declared message type against the one dispatch (``ServiceDaemon.bind``).

A payload is served or refused, never raised out of ``sim.run``: a refused
RPC is answered ``ok: False`` with its type named in ``error``, and the
daemon keeps serving.  The declaration table (``kernel.ports.CONTRACTS``)
and the handler maps bound on a booted kernel name the same types.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSpec
from repro.errors import KernelError
from repro.kernel import PhoenixKernel, ServiceDaemon, ports
from repro.kernel.bulletin.query import Agg, Query
from repro.kernel.daemon import PortDispatch
from repro.kernel.detectors.service import DetectorDaemon
from repro.kernel.events import types as ev
from repro.kernel.events.types import DB_DELTA
from repro.sim import Simulator, drive
from repro.userenv.business import runtime as bizrt
from repro.userenv.monitoring.gridview import install_gridview
from repro.userenv.pbs import server as pbs
from repro.userenv.pws import PoolSpec, install_pws
from repro.userenv.pws import server as pws

SRC = "p0c0"
#: Declared message types; ``db.delta`` is event data, checked by the view engine.
MESSAGE_TYPES = sorted(set(ports.CONTRACTS) - {DB_DELTA})

#: One well-formed RPC per daemon, and what its reply carries.
PROBES = {
    "gsd": (ports.GSD, ports.GSD_STATUS, {}, lambda r: r["partition"]),
    "wd": (ports.WD, ports.WD_PROC_QUERY, {"process": "wd"}, lambda r: r["alive"]),
    "es": (ports.ES, ports.ES_PUBLISH, {"type": "probe"}, lambda r: r["ok"]),
    "db": (ports.DB, ports.DB_QUERY, {"table": "node_state", "scope": "local"},
           lambda r: r["rows"]),
    "ckpt": (ports.CKPT, ports.CKPT_LOAD, {"key": "probe"}, lambda r: r == {"found": False}),
    "ckpt.replica": (ports.CKPT_REPLICA, ports.CKPT_LOAD, {"key": "probe"},
                     lambda r: r == {"found": False}),
    "ppm": (ports.PPM, ports.PPM_JOB_STATUS, {"job_id": "probe"}, lambda r: r == {"found": False}),
    "config": (ports.CONFIG, ports.CONFIG_GET, {"key": "cluster.node_count"},
               lambda r: r["found"]),
    "security": (ports.SECURITY, ports.SEC_VERIFY, {"token": "probe"},
                 lambda r: r["error"] == "malformed token"),
    "pbs": (pbs.PORT, pbs.STATUS, {}, lambda r: "counts" in r),
    "pws": (pws.PORT, pws.STATUS, {}, lambda r: "counts" in r),
    "bizrt": (bizrt.PORT, bizrt.STATUS, {}, lambda r: r == {"apps": {}}),
}


def _world():
    """A 2-partition kernel running every daemon kind, with one view
    registered so the ``db.delta`` feed is live."""
    sim = Simulator(seed=3)
    kernel = PhoenixKernel(Cluster(sim, ClusterSpec.build(partitions=2, computes=1)))
    kernel.boot()
    sim.run(until=1.0)
    computes = kernel.cluster.compute_nodes()
    install_pws(kernel, [PoolSpec("batch", computes)])
    bizrt.install_business_runtime(kernel)
    install_gridview(kernel)
    server = pbs.PBSServer(kernel, "p1s0", nodes=computes)
    kernel.registry.register("pbs", lambda k, node: server)
    kernel.start_service("pbs", "p1s0")
    sim.run(until=sim.now + 3.0)
    jobs = Query(table="jobs", group_by=("phase",), aggs=(Agg("count", "*", "n"),))
    assert drive(sim, kernel.client(SRC).register_view("jobs", jobs))["ok"]
    return sim, kernel


def _dispatches(kernel) -> dict[tuple[str, str], PortDispatch]:
    return {key: ep.handler for key, ep in sorted(kernel.cluster.transport._endpoints.items())
            if isinstance(ep.handler, PortDispatch)}


def _targets(kernel, mtype: str) -> dict[str, str]:
    """``port -> node`` (the first node, by name) for each port serving ``mtype``."""
    targets: dict[str, str] = {}
    for (node, port), dispatch in _dispatches(kernel).items():
        if mtype in dispatch.routes:
            targets.setdefault(port, node)
    return targets


def _send_everywhere(sim, kernel, mtype: str, payload) -> list:
    """``mtype`` as an RPC and as a one-way message to every port serving
    it; the RPC replies."""
    t = kernel.cluster.transport
    replies = []
    for port, node in _targets(kernel, mtype).items():
        replies.append(drive(sim, t.rpc(SRC, node, port, mtype, payload, timeout=2.0)))
        t.send(SRC, node, port, mtype, payload)
    sim.run(until=sim.now + 2.0)
    return replies


def _still_served(sim, kernel) -> None:
    t = kernel.cluster.transport
    probed = set()
    for (node, _port), dispatch in _dispatches(kernel).items():
        service = dispatch.daemon.SERVICE
        if service in probed or service not in PROBES:
            continue
        probed.add(service)
        port, mtype, payload, check = PROBES[service]
        reply = drive(sim, t.rpc(SRC, node, port, mtype, payload, timeout=5.0))
        assert reply is not None and check(reply), (service, reply)
    assert probed == set(PROBES)
    seen = sim.trace.counter("gridview.events")
    drive(sim, kernel.client(SRC).publish(ev.NODE_FAILURE, {"node": "probe"}))
    sim.run(until=sim.now + 1.0)
    assert sim.trace.counter("gridview.events") == seen + 1


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_the_table_and_the_bound_handler_maps_agree():
    """Every bound type has its one declaration, declared on the port it is
    bound to; every declared type is bound somewhere (no dead declarations);
    and the world below runs every daemon kind that serves a port."""
    sim, kernel = _world()
    dispatches = _dispatches(kernel)
    bound = {(port, mtype) for (_node, port), d in dispatches.items() for mtype in d.routes}
    assert {mtype for _port, mtype in bound} == set(MESSAGE_TYPES)
    for port, mtype in bound:
        assert not ports.CONTRACTS[mtype].ports or port in ports.CONTRACTS[mtype].ports
    kinds = {type(d.daemon) for d in dispatches.values()}
    in_src = {c for c in _subclasses(ServiceDaemon) if c.__module__.startswith("repro.")}
    assert kinds == in_src - {DetectorDaemon}
    with pytest.raises(KernelError, match="declared twice"):
        ports.declare(ports.HB_WD)


def test_a_daemon_serving_an_undeclared_type_is_refused_at_definition():
    with pytest.raises(KernelError, match="stray.hello"):
        class Stray(ServiceDaemon):
            PORTS = {"stray": {"stray.hello": lambda self, msg: None}}
    with pytest.raises(KernelError, match="not declared on port 'db'"):
        class Misplaced(ServiceDaemon):
            PORTS = {ports.DB: {ports.HB_WD: lambda self, msg: None}}


def test_an_unknown_type_leaves_one_mark():
    sim, kernel = _world()
    node = kernel.placement[("db", "p0")]
    assert drive(sim, kernel.cluster.transport.rpc(SRC, node, ports.DB, "db.nope", {},
                                                   timeout=1.0)) is None
    (mark,) = sim.trace.records("service.unknown_mtype")
    assert (mark.get("service"), mark.get("port"), mark.get("mtype")) == ("db", "db", "db.nope")


def test_a_global_probe_is_refused():
    """``DB_QUERY`` is the federation's peer probe (``local`` or ``region``);
    the cluster-wide read is ``DB_EXEC``.  At the parent a ``global`` probe
    was a second cluster-wide read."""
    sim, kernel = _world()
    node = kernel.placement[("db", "p0")]
    reply = drive(sim, kernel.cluster.transport.rpc(
        SRC, node, ports.DB, ports.DB_QUERY, {"table": "node_state", "scope": "global"},
        timeout=2.0))
    assert reply["ok"] is False and reply["error"].startswith("db.query: 'scope': expected local")
    assert reply["rows"] == [] and reply["partitions_missing"] == []
    assert sim.trace.counter("db.refused") == 1
    _still_served(sim, kernel)


def _breaks(contract: ports.Contract, payload: dict) -> bool:
    """Does ``payload`` break ``contract``?  ``{}`` does when a key is
    required; ``[[1]]`` in every field does unless every field takes any value."""
    if not payload:
        return any(kind.required for kind in contract.fields.values())
    return any(kind.test is not ports.ANY.test for kind in contract.fields.values())


@pytest.mark.parametrize("mtype", MESSAGE_TYPES)
def test_a_malformed_payload_is_refused_not_raised(mtype):
    """Fails at the parent on 22 kernel types, which raised out of
    ``sim.run``.  Each is sent ``{}`` and every declared field mistyped."""
    sim, kernel = _world()
    contract = ports.CONTRACTS[mtype]
    refusals = 0
    for payload in ({}, {key: [[1]] for key in contract.fields}):
        replies = _send_everywhere(sim, kernel, mtype, payload)
        # A replica takes writes only from its primary: an empty absorb keeps
        # its contract but is refused from SRC all the same.
        if _breaks(contract, payload) or mtype == ports.CKPT_ABSORB:
            refusals += 2 * len(replies)  # the RPC and the one-way copy
            for reply in replies:
                assert reply["ok"] is False and reply["error"].startswith(f"{mtype}: "), reply
    assert sim.trace.counter(contract.counter) == refusals
    _still_served(sim, kernel)


#: JSON-shaped values: what any client can put in a field.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)


@st.composite
def _messages(draw):
    """A declared type and a payload: each declared field present or missing,
    drawn from :data:`JSON`, plus extra keys."""
    mtype = draw(st.sampled_from(sorted(ports.CONTRACTS)))
    extra = draw(st.dictionaries(st.text(max_size=6), JSON, max_size=2))
    fields = {key: draw(JSON) for key in ports.CONTRACTS[mtype].fields if draw(st.booleans())}
    return mtype, {**extra, **fields}


@settings(max_examples=150, deadline=None)
@given(message=_messages())
# found by this property or by reading the handlers it reaches
@example(message=(ports.WD_GSD_ANNOUNCE, {"node": "0"}))  # beats to a node that does not exist
@example(message=(ports.ES_SUBSCRIBE, {"consumer_id": "c", "node": "0", "port": "p"}))
@example(message=(ports.GSD_VIEW, {"view": {"view_id": 2, "members": []}}))  # no leader
@example(message=(ports.GSD_VIEW, {"view": {"view_id": 2, "members": [["p0", "p0s0"]] * 2}}))
@example(message=(ports.PPM_PCMD, {"cmd": "kill_job", "args": {}, "targets": ["p0c0"]}))
@example(message=(ports.SEC_VERIFY, {"token": "u|r|1|\u00e9"}))  # a non-ASCII signature
@example(message=(ports.DB_EXEC, {"query": {"table": "nodes", "limit": 1.5}}))
@example(message=(ports.DB_VIEW_REGISTER, {"name": "v", "query": {"table": "nodes",
                                                                   "group_by": [[1]]}}))
def test_any_json_payload_is_served_or_refused(message):
    """``sim.run`` never raises, through one published event (which a new
    subscription receives) and a heartbeat interval (deferred sends, such
    as beats to an announced GSD, happen by then).  ``db.delta`` travels
    as event data: it is published, and the view owner checks it."""
    mtype, payload = message
    sim, kernel = _world()
    client = kernel.client(SRC)
    if mtype == DB_DELTA:
        drive(sim, client.publish(DB_DELTA, payload))
    else:
        _send_everywhere(sim, kernel, mtype, payload)
    drive(sim, client.publish(ev.NODE_FAILURE, {"node": "probe"}))
    sim.run(until=sim.now + kernel.timings.heartbeat_interval + 5.0)
