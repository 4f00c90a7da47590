"""Declarative deployment profiles for the system construction tool.

"System constructor configures, deploys and boots cluster system with
system construction tool" (paper §3) — configuration meaning a document,
not code.  A profile is a plain JSON/TOML-friendly dict describing the
hardware shape, kernel tuning, users, and which user environments to
install; :func:`deploy_profile` turns it into a running system in one
call.

Example::

    PROFILE = {
        "cluster": {"partitions": 4, "computes": 6},
        "kernel": {"heartbeat_interval": 10.0},
        "users": [{"name": "alice", "password": "pw", "roles": ["scientific"]}],
        "environments": {
            "gridview": {"refresh_interval": 30.0},
            "pws": {"pools": [
                {"name": "batch", "partitions": ["p0", "p1"]},
                {"name": "interactive", "partitions": ["p2", "p3"], "policy": "sjf"},
            ]},
        },
    }
    kernel, handles = deploy_profile(Simulator(seed=1), PROFILE)
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.cluster.spec import ClusterSpec
from repro.errors import UserEnvError
from repro.kernel.api import PhoenixKernel
from repro.kernel.timings import KernelTimings
from repro.sim import Simulator
from repro.userenv.construction.tool import ConstructionTool

_CLUSTER_KEYS = {
    "partitions", "computes", "backups", "networks", "cpus_per_node", "mem_mb",
    "base_latency", "jitter", "loss_rate",
}
_TIMING_FIELDS = {f.name for f in dataclasses.fields(KernelTimings)}


def validate_profile(profile: dict[str, Any]) -> None:
    """Fail fast on unknown keys or malformed sections."""
    if not isinstance(profile, dict):
        raise UserEnvError("profile must be a dict")
    unknown = set(profile) - {"cluster", "kernel", "users", "environments"}
    if unknown:
        raise UserEnvError(f"unknown profile sections: {sorted(unknown)}")
    cluster = profile.get("cluster")
    if not isinstance(cluster, dict) or "partitions" not in cluster or "computes" not in cluster:
        raise UserEnvError("profile.cluster needs at least partitions and computes")
    bad = set(cluster) - _CLUSTER_KEYS
    if bad:
        raise UserEnvError(f"unknown cluster keys: {sorted(bad)}")
    kernel = profile.get("kernel", {})
    bad = set(kernel) - _TIMING_FIELDS
    if bad:
        raise UserEnvError(f"unknown kernel timing fields: {sorted(bad)}")
    for user in profile.get("users", []):
        if not {"name", "password", "roles"} <= set(user):
            raise UserEnvError(f"user entry needs name/password/roles: {user}")
    envs = profile.get("environments", {})
    bad = set(envs) - {"gridview", "pws", "business"}
    if bad:
        raise UserEnvError(f"unknown environments: {sorted(bad)}")
    bad = set(envs.get("gridview") or {}) - {"refresh_interval"}
    if bad:
        raise UserEnvError(f"unknown gridview keys: {sorted(bad)}")
    pws = envs.get("pws")
    if pws is not None:
        pools = pws.get("pools")
        if not pools:
            raise UserEnvError("pws environment needs at least one pool")
        for pool in pools:
            if "name" not in pool or ("partitions" not in pool and "nodes" not in pool):
                raise UserEnvError(f"pool needs a name and partitions/nodes: {pool}")


def _pool_nodes(kernel: PhoenixKernel, pool: dict[str, Any]) -> list[str]:
    if "nodes" in pool:
        return list(pool["nodes"])
    wanted = set(pool["partitions"])
    known = {p.partition_id for p in kernel.cluster.partitions}
    missing = wanted - known
    if missing:
        raise UserEnvError(f"pool {pool['name']!r}: unknown partitions {sorted(missing)}")
    return [
        n for n in kernel.cluster.compute_nodes()
        if kernel.cluster.node(n).partition_id in wanted
    ]


def deploy_profile(
    sim: Simulator, profile: dict[str, Any], tool: ConstructionTool | None = None
) -> tuple[PhoenixKernel, dict[str, Any]]:
    """Configure → deploy → boot per ``profile``; install its environments.

    Returns the kernel plus a handle dict with the installed environment
    daemons (``gridview``, ``pws``, ``business``) and the tool.
    """
    validate_profile(profile)
    tool = tool or ConstructionTool(sim)
    cluster_cfg = dict(profile["cluster"])
    if "networks" in cluster_cfg:
        cluster_cfg["networks"] = tuple(cluster_cfg["networks"])
    spec = ClusterSpec.build(**cluster_cfg)
    timings = KernelTimings(**profile.get("kernel", {}))
    kernel = tool.build(spec, timings=timings)
    sim.run(until=sim.now + 2.0 * timings.detector_interval)  # first exports

    security = kernel.security_service()
    for user in profile.get("users", []):
        security.add_user(user["name"], user["password"], list(user["roles"]))

    handles: dict[str, Any] = {"tool": tool}
    envs = profile.get("environments", {})
    if "gridview" in envs:
        from repro.userenv.monitoring import install_gridview

        cfg = envs["gridview"]
        handles["gridview"] = install_gridview(
            kernel, refresh_interval=float(cfg.get("refresh_interval", 30.0)),
        )
    if "pws" in envs:
        from repro.userenv.pws import PoolSpec, install_pws

        cfg = envs["pws"]
        pools = [
            PoolSpec(
                name=pool["name"],
                nodes=_pool_nodes(kernel, pool),
                policy=pool.get("policy", "fifo"),
                lendable=bool(pool.get("lendable", True)),
            )
            for pool in cfg["pools"]
        ]
        handles["pws"] = install_pws(
            kernel, pools,
            max_retries=int(cfg.get("max_retries", 1)),
            require_auth=bool(cfg.get("require_auth", False)),
        )
    if "business" in envs:
        from repro.userenv.business import install_business_runtime

        cfg = envs["business"]
        handles["business"] = install_business_runtime(
            kernel, partition_id=cfg.get("partition")
        )
    sim.run(until=sim.now + 2.0)  # environments finish their startup RPCs
    sim.trace.mark("construct.profile_deployed", environments=sorted(envs))
    return kernel, handles
