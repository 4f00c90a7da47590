#!/usr/bin/env python3
"""Deploying a whole Phoenix system from a declarative profile.

The system constructor's configuration is a document: hardware shape,
kernel tuning, users, and the user environments to install.  One call
turns it into a running system.

Run:  python examples/profile_deploy.py
"""

from repro.sim import Simulator, drive
from repro.userenv.construction import deploy_profile
from repro.userenv.monitoring import render_snapshot

PROFILE = {
    "cluster": {
        "partitions": 4,
        "computes": 6,
        "networks": ["mgmt", "data", "ipc"],
        "cpus_per_node": 4,
    },
    "kernel": {
        "heartbeat_interval": 10.0,
        "detector_interval": 5.0,
    },
    "users": [
        {"name": "alice", "password": "alice-pw", "roles": ["scientific"]},
        {"name": "ops", "password": "ops-pw", "roles": ["admin", "constructor"]},
    ],
    "environments": {
        "gridview": {"refresh_interval": 15.0},
        "pws": {
            "require_auth": True,
            "pools": [
                {"name": "batch", "partitions": ["p0", "p1", "p2"]},
                {"name": "interactive", "partitions": ["p3"], "policy": "sjf"},
            ],
        },
        "business": {"partition": "p1"},
    },
}


def main() -> None:
    sim = Simulator(seed=23)
    kernel, handles = deploy_profile(sim, PROFILE)
    print(f"profile deployed: {kernel.cluster.size} nodes, "
          f"environments = {sorted(k for k in handles if k != 'tool')}")
    print(f"users: {kernel.security_service().users()}")

    # Authenticated submission straight away.
    login = drive(sim, kernel.client("p3c0").authenticate("alice", "alice-pw"))
    sig = kernel.cluster.transport.rpc(
        "p3c0", kernel.placement[("pws", "p0")], "pws", "pws.submit",
        {"token": login["token"], "nodes": 2, "cpus_per_node": 2,
         "duration": 30.0, "pool": "batch"},
    )
    print(f"authenticated submit: {drive(sim, sig)}")

    sim.run(until=sim.now + 40.0)
    gv = handles["gridview"]
    print()
    print(render_snapshot(gv.latest).split("\n\n")[0])
    print(f"\nhealth: kernel_healthy={handles['tool'].health_report()['kernel_healthy']}")


if __name__ == "__main__":
    main()
