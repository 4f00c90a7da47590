"""Security service daemon — authentication, authorization, encryption."""

from __future__ import annotations

import hashlib
from typing import Any

from repro.cluster.message import Message
from repro.errors import SecurityError
from repro.kernel import ports
from repro.kernel.daemon import ServiceDaemon
from repro.kernel.security.acl import AccessPolicy
from repro.kernel.security.tokens import issue_token, verify_token

#: Default token lifetime (virtual seconds).
DEFAULT_TTL = 3600.0


def _hash_password(user: str, password: str) -> str:
    return hashlib.sha256(f"{user}:{password}".encode()).hexdigest()


class SecurityServiceDaemon(ServiceDaemon):
    """The single security service instance.

    Services verify tokens locally with the cluster secret (distributed by
    the kernel at boot) — only credential checks and policy edits travel
    to this daemon.
    """

    SERVICE = "security"

    def __init__(self, kernel, node_id: str) -> None:
        super().__init__(kernel, node_id)
        self._users: dict[str, dict[str, Any]] = {}
        self.policy = AccessPolicy()

    # -- user management (administrative, pre-boot or via construction tool)
    def add_user(self, user: str, password: str, roles: list[str]) -> None:
        if user in self._users:
            raise SecurityError(f"user {user!r} already exists")
        self._users[user] = {"pwhash": _hash_password(user, password), "roles": list(roles)}

    def remove_user(self, user: str) -> None:
        if self._users.pop(user, None) is None:
            raise SecurityError(f"unknown user {user!r}")

    def users(self) -> list[str]:
        return sorted(self._users)

    # -- handlers ------------------------------------------------------------
    def _on_authenticate(self, msg: Message) -> dict[str, Any]:
        user, password = msg.payload["user"], msg.payload["password"]
        record = self._users.get(user)
        if record is None or record["pwhash"] != _hash_password(user, password):
            self.sim.trace.count("sec.auth_failures")
            return {"ok": False, "error": "bad credentials"}
        ttl = msg.payload.get("ttl")
        token = issue_token(self.kernel.secret, user, record["roles"], self.sim.now,
                            DEFAULT_TTL if ttl is None else float(ttl))
        self.sim.trace.count("sec.auth_successes")
        return {"ok": True, "token": token, "roles": list(record["roles"])}

    def _on_verify(self, msg: Message) -> dict[str, Any]:
        try:
            user, roles = verify_token(self.kernel.secret, msg.payload["token"], self.sim.now)
        except SecurityError as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True, "user": user, "roles": roles}

    def _on_authorize(self, msg: Message) -> dict[str, Any]:
        try:
            user, roles = verify_token(self.kernel.secret, msg.payload["token"], self.sim.now)
        except SecurityError as exc:
            return {"ok": False, "error": str(exc)}
        allowed = self.policy.authorized(msg.payload["action"], roles)
        if not allowed:
            self.sim.trace.count("sec.denials")
        return {"ok": allowed, "user": user}

    PORTS = {ports.SECURITY: {
        ports.SEC_AUTH: _on_authenticate,
        ports.SEC_VERIFY: _on_verify,
        ports.SEC_AUTHORIZE: _on_authorize,
    }}
