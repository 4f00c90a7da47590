"""Declarative deployment profiles."""

import pytest

from repro.errors import UserEnvError
from repro.sim import Simulator
from repro.userenv.construction import deploy_profile, validate_profile

GOOD = {
    "cluster": {"partitions": 3, "computes": 3},
    "kernel": {"heartbeat_interval": 5.0},
    "users": [{"name": "alice", "password": "pw", "roles": ["scientific"]}],
    "environments": {
        "gridview": {"refresh_interval": 10.0},
        "pws": {"pools": [
            {"name": "batch", "partitions": ["p0", "p1"]},
            {"name": "interactive", "partitions": ["p2"], "policy": "sjf"},
        ]},
        "business": {"partition": "p1"},
    },
}


def test_validate_accepts_good_profile():
    validate_profile(GOOD)


@pytest.mark.parametrize("mutation,needle", [
    (lambda p: p.pop("cluster"), "cluster"),
    (lambda p: p.update(extra={}), "unknown profile sections"),
    (lambda p: p["cluster"].update(flux_capacitors=3), "unknown cluster keys"),
    (lambda p: p["kernel"].update(warp=9), "unknown kernel timing"),
    # A calibration constant is not a profile key (it was one until PR 13).
    (lambda p: p["kernel"].update(rpc_timeout=2.0), "unknown kernel timing"),
    # The ES index derives its where keys; the knob that listed them is gone.
    (lambda p: p["kernel"].update(es_indexed_where_keys=["node"]), "unknown kernel timing"),
    # One value in use anywhere: module constants since PR 18.
    (lambda p: p["kernel"].update(es_forward_batch_max=8), "unknown kernel timing"),
    (lambda p: p["kernel"].update(es_outbox_max=16), "unknown kernel timing"),
    # Knobs only tests turned went with their features.
    (lambda p: p["kernel"].update(es_deliver_slo=0.05, ckpt_retention_window=6.0,
                                  ckpt_spill_aged=True), "unknown kernel timing"),
    (lambda p: p["users"].append({"name": "x"}), "user entry"),
    (lambda p: p["environments"].update(slurm={}), "unknown environments"),
    # GridView aggregates through the bulletin's one query path; no push-down key.
    (lambda p: p["environments"]["gridview"].update(aggregate=True), "unknown gridview keys"),
    (lambda p: p["environments"]["pws"].update(pools=[]), "at least one pool"),
    (lambda p: p["environments"]["pws"]["pools"].append({"name": "bad"}), "partitions/nodes"),
])
def test_validate_rejects_bad_profiles(mutation, needle):
    import copy

    profile = copy.deepcopy(GOOD)
    mutation(profile)
    with pytest.raises(UserEnvError, match=needle):
        validate_profile(profile)


@pytest.fixture(scope="module")
def deployed():
    sim = Simulator(seed=19)
    kernel, handles = deploy_profile(sim, GOOD)
    return sim, kernel, handles


def test_profile_boots_cluster_and_kernel(deployed):
    sim, kernel, handles = deployed
    assert kernel.booted
    assert kernel.cluster.size == 3 * 5
    assert kernel.timings.heartbeat_interval == 5.0


def test_profile_creates_users(deployed):
    sim, kernel, handles = deployed
    assert kernel.security_service().users() == ["alice"]


def test_profile_installs_environments(deployed):
    sim, kernel, handles = deployed
    assert handles["gridview"].alive
    assert handles["pws"].alive
    assert handles["business"].alive
    assert set(handles["pws"].pm.pools) == {"batch", "interactive"}


def test_profile_pools_follow_partitions(deployed):
    sim, kernel, handles = deployed
    batch = handles["pws"].pm.nodes_in_pool("batch")
    assert batch and all(n.startswith(("p0", "p1")) for n in batch)
    inter = handles["pws"].pm.nodes_in_pool("interactive")
    assert inter and all(n.startswith("p2") for n in inter)


def test_profile_system_is_operational(deployed):
    """End-to-end through the profile-built system: a job runs to done."""
    sim, kernel, handles = deployed
    from tests.userenv.conftest import pws_rpc
    from repro.userenv.pws.server import STATUS, SUBMIT

    reply = pws_rpc(kernel, sim, SUBMIT,
                    {"user": "alice", "nodes": 1, "cpus_per_node": 1, "duration": 5.0,
                     "pool": "batch"})
    assert reply["ok"]
    sim.run(until=sim.now + 15.0)
    assert pws_rpc(kernel, sim, STATUS, {"job_id": reply["job_id"]})["job"]["state"] == "done"


def test_pool_with_unknown_partition_rejected():
    import copy

    profile = copy.deepcopy(GOOD)
    profile["environments"]["pws"]["pools"][0]["partitions"] = ["p99"]
    with pytest.raises(UserEnvError, match="unknown partitions"):
        deploy_profile(Simulator(seed=1), profile)


def test_explicit_node_pool():
    profile = {
        "cluster": {"partitions": 1, "computes": 2},
        "environments": {"pws": {"pools": [{"name": "x", "nodes": ["p0c0", "p0c1"]}]}},
    }
    sim = Simulator(seed=2)
    kernel, handles = deploy_profile(sim, profile)
    assert handles["pws"].pm.nodes_in_pool("x") == ["p0c0", "p0c1"]
