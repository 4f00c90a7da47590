"""End-to-end authenticated job submission (security service + PWS)."""

import pytest

from repro.kernel.security import acl
from repro.sim import drive
from repro.userenv.pws import PoolSpec, install_pws
from repro.userenv.pws.server import CANCEL, STATUS, SUBMIT
from tests.userenv.conftest import pws_rpc


@pytest.fixture()
def secure_pws(kernel, sim):
    sec = kernel.security_service()
    sec.add_user("alice", "pw-a", [acl.ROLE_SCIENTIFIC])
    sec.add_user("bob", "pw-b", [acl.ROLE_BUSINESS])  # not allowed to submit
    server = install_pws(
        kernel, [PoolSpec("default", kernel.cluster.compute_nodes())], require_auth=True
    )
    sim.run(until=sim.now + 2.0)
    return server


def login(kernel, sim, user, password):
    reply = drive(sim, kernel.client("p2c0").authenticate(user, password))
    assert reply["ok"]
    return reply["token"]


def job_payload(token=None, **over):
    payload = {"nodes": 1, "cpus_per_node": 1, "duration": 20.0, "pool": "default"}
    payload.update(over)
    if token is not None:
        payload["token"] = token
    return payload


def test_authorized_user_can_submit_and_runs_as_token_identity(kernel, sim, secure_pws):
    token = login(kernel, sim, "alice", "pw-a")
    reply = pws_rpc(kernel, sim, SUBMIT, job_payload(token, user="impostor"))
    assert reply["ok"]
    status = pws_rpc(kernel, sim, STATUS, {"job_id": reply["job_id"]})
    # The authenticated identity wins over the claimed user field.
    assert status["job"]["spec"]["user"] == "alice"
    sim.run(until=sim.now + 30.0)
    assert pws_rpc(kernel, sim, STATUS, {"job_id": reply["job_id"]})["job"]["state"] == "done"


def test_missing_token_rejected(kernel, sim, secure_pws):
    reply = pws_rpc(kernel, sim, SUBMIT, job_payload())
    assert reply["ok"] is False
    assert "authentication failed" in reply["error"]
    assert sim.trace.counter("pws.auth_rejects") == 1


def test_garbage_token_rejected(kernel, sim, secure_pws):
    reply = pws_rpc(kernel, sim, SUBMIT, job_payload(token="garbage"))
    assert reply["ok"] is False
    assert "authentication failed" in reply["error"]


def test_wrong_role_rejected(kernel, sim, secure_pws):
    token = login(kernel, sim, "bob", "pw-b")
    reply = pws_rpc(kernel, sim, SUBMIT, job_payload(token))
    assert reply["ok"] is False
    assert "not authorized" in reply["error"]


def test_expired_token_rejected(kernel, sim, secure_pws):
    reply = drive(sim, kernel.client("p2c0").authenticate("alice", "pw-a"))
    # Re-authenticate with a tiny ttl via the raw interface.
    sig = kernel.cluster.transport.rpc(
        "p2c0", kernel.placement[("security", "p0")], "security", "sec.authenticate",
        {"user": "alice", "password": "pw-a", "ttl": 1.0},
    )
    token = drive(sim, sig)["token"]
    sim.run(until=sim.now + 5.0)  # token expires
    reply = pws_rpc(kernel, sim, SUBMIT, job_payload(token))
    assert reply["ok"] is False
    assert "expired" in reply["error"]


def test_cancel_requires_authorization(kernel, sim, secure_pws):
    token = login(kernel, sim, "alice", "pw-a")
    reply = pws_rpc(kernel, sim, SUBMIT, job_payload(token, duration=500.0))
    job_id = reply["job_id"]
    sim.run(until=sim.now + 2.0)
    denied = pws_rpc(kernel, sim, CANCEL, {"job_id": job_id})
    assert denied["ok"] is False
    allowed = pws_rpc(kernel, sim, CANCEL, {"job_id": job_id, "token": token})
    assert allowed["ok"] is True


def test_auth_disabled_by_default(kernel, sim, pws):
    reply = pws_rpc(kernel, sim, SUBMIT,
                    {"user": "anon", "nodes": 1, "cpus_per_node": 1,
                     "duration": 5.0, "pool": "batch"})
    assert reply["ok"]
