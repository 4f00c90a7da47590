"""Configuration + security services."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SecurityError
from repro.kernel.events import types as ev
from repro.kernel.security import acl, crypto, tokens
from repro.sim import drive
from tests.kernel.test_events import subscribe_collector

# -- configuration service ----------------------------------------------------


def test_static_config_derived_from_spec(kernel, sim):
    client = kernel.client("p1c0")
    reply = drive(sim, client.config_get("cluster.node_count"))
    assert reply == {"found": True, "value": 12}
    reply = drive(sim, client.config_get("partition.p1.server"))
    assert reply["value"] == "p1s0"
    reply = drive(sim, client.config_get("node.p0c0.cpus"))
    assert reply["value"] == 4


def test_config_get_unknown_key(kernel, sim):
    reply = drive(sim, kernel.client("p0c0").config_get("no.such.key"))
    assert reply == {"found": False}


def test_config_set_and_list(kernel, sim):
    client = kernel.client("p0c0")
    reply = drive(sim, client.config_set("userenv.pws.pools", ["batch", "interactive"]))
    assert reply["ok"] and reply["old"] is None
    reply = drive(sim, client.config_get("userenv.pws.pools"))
    assert reply["value"] == ["batch", "interactive"]
    reply = drive(sim, client.config_list("userenv."))
    assert reply["keys"] == ["userenv.pws.pools"]


def test_config_set_publishes_change_event(kernel, sim):
    inbox = subscribe_collector(kernel, sim, "p0c0", "cfgwatch", types=(ev.CONFIG_CHANGED,))
    drive(sim, kernel.client("p0c0").config_set("x.y", 1))
    sim.run(until=sim.now + 0.5)
    assert len(inbox) == 1
    assert inbox[0].data == {"key": "x.y", "old": None, "new": 1}


def test_introspection_reports_problems(kernel, sim, injector):
    reply = drive(sim, kernel.client("p0c0").introspect())
    assert reply["report"]["healthy"]
    assert reply["report"]["node_count"] == 12
    injector.crash_node("p2c1")
    injector.fail_nic("p1c0", "data")
    reply = drive(sim, kernel.client("p0c0").introspect())
    report = reply["report"]
    assert not report["healthy"]
    kinds = {(p["kind"], p.get("node")) for p in report["problems"]}
    assert ("node_down", "p2c1") in kinds
    assert ("nic_down", "p1c0") in kinds
    assert "p2c1" in report["nodes_down"]


# -- token unit tests --------------------------------------------------------


def test_token_roundtrip():
    token = tokens.issue_token(b"s", "alice", ["admin"], now=10.0, ttl=100.0)
    user, roles = tokens.verify_token(b"s", token, now=50.0)
    assert user == "alice" and roles == ["admin"]


def test_token_expiry():
    token = tokens.issue_token(b"s", "alice", [], now=0.0, ttl=10.0)
    with pytest.raises(SecurityError, match="expired"):
        tokens.verify_token(b"s", token, now=10.1)


def test_token_wrong_secret_rejected():
    token = tokens.issue_token(b"s1", "alice", [], now=0.0, ttl=10.0)
    with pytest.raises(SecurityError, match="signature"):
        tokens.verify_token(b"s2", token, now=1.0)


def test_token_tamper_rejected():
    token = tokens.issue_token(b"s", "alice", ["scientific"], now=0.0, ttl=10.0)
    forged = token.replace("scientific", "admin", 1)
    with pytest.raises(SecurityError):
        tokens.verify_token(b"s", forged, now=1.0)


def test_token_validation():
    with pytest.raises(SecurityError):
        tokens.issue_token(b"s", "a|b", [], now=0.0, ttl=1.0)
    with pytest.raises(SecurityError):
        tokens.issue_token(b"s", "a", ["r|1"], now=0.0, ttl=1.0)
    with pytest.raises(SecurityError):
        tokens.issue_token(b"s", "a", [], now=0.0, ttl=0.0)
    with pytest.raises(SecurityError):
        tokens.verify_token(b"s", "garbage", now=0.0)


@given(st.text(alphabet="abcdefgh", min_size=1), st.floats(1.0, 1e6), st.floats(0.0, 1e6))
def test_property_token_roundtrip_any_user(user, ttl, now):
    token = tokens.issue_token(b"secret", user, ["scientific", "admin"], now=now, ttl=ttl)
    got_user, got_roles = tokens.verify_token(b"secret", token, now=now + ttl / 2)
    assert got_user == user and got_roles == ["scientific", "admin"]


# -- ACL unit tests ---------------------------------------------------------


def test_default_policy_roles():
    policy = acl.AccessPolicy()
    assert policy.authorized("job.submit", [acl.ROLE_SCIENTIFIC])
    assert not policy.authorized("job.submit", [acl.ROLE_BUSINESS])
    assert policy.authorized("cluster.deploy", [acl.ROLE_CONSTRUCTOR])
    assert not policy.authorized("unknown.action", [acl.ROLE_ADMIN])
    assert not policy.authorized("job.submit", [])


def test_policy_allow_extends():
    policy = acl.AccessPolicy()
    policy.allow("job.submit", acl.ROLE_BUSINESS)
    assert policy.authorized("job.submit", [acl.ROLE_BUSINESS])
    with pytest.raises(SecurityError):
        policy.allow("job.submit", "made-up-role")


# -- crypto unit tests --------------------------------------------------------


def test_crypto_roundtrip():
    ct = crypto.encrypt(b"key", b"nonce", b"hello world")
    assert ct != b"hello world"
    assert crypto.decrypt(b"key", b"nonce", ct) == b"hello world"


def test_crypto_wrong_key_garbles():
    ct = crypto.encrypt(b"key", b"nonce", b"hello world")
    assert crypto.decrypt(b"other", b"nonce", ct) != b"hello world"


def test_crypto_validation():
    with pytest.raises(SecurityError):
        crypto.encrypt(b"", b"n", b"x")
    with pytest.raises(SecurityError):
        crypto.encrypt(b"k", b"", b"x")


@given(st.binary(max_size=300), st.binary(min_size=1, max_size=16), st.binary(min_size=1, max_size=16))
def test_property_crypto_involution(plaintext, key, nonce):
    assert crypto.decrypt(key, nonce, crypto.encrypt(key, nonce, plaintext)) == plaintext


# -- security daemon integration ----------------------------------------------


def test_authentication_flow(kernel, sim):
    sec = kernel.security_service()
    sec.add_user("alice", "pw", [acl.ROLE_SCIENTIFIC])
    client = kernel.client("p1c1")
    reply = drive(sim, client.authenticate("alice", "pw"))
    assert reply["ok"] and reply["roles"] == [acl.ROLE_SCIENTIFIC]
    token = reply["token"]
    reply = drive(sim, client.authorize(token, "job.submit"))
    assert reply == {"ok": True, "user": "alice"}
    reply = drive(sim, client.authorize(token, "cluster.deploy"))
    assert reply["ok"] is False


def test_bad_credentials_rejected(kernel, sim):
    sec = kernel.security_service()
    sec.add_user("alice", "pw", [])
    reply = drive(sim, kernel.client("p0c0").authenticate("alice", "wrong"))
    assert reply["ok"] is False
    reply = drive(sim, kernel.client("p0c0").authenticate("ghost", "pw"))
    assert reply["ok"] is False
    assert sim.trace.counter("sec.auth_failures") == 2


def test_user_management(kernel):
    sec = kernel.security_service()
    sec.add_user("bob", "x", [acl.ROLE_ADMIN])
    with pytest.raises(SecurityError):
        sec.add_user("bob", "y", [])
    assert sec.users() == ["bob"]
    sec.remove_user("bob")
    with pytest.raises(SecurityError):
        sec.remove_user("bob")
