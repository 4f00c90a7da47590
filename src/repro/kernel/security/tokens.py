"""HMAC-signed authentication tokens.

The paper's security service "provides authorization, authentication and
encryption functions for users" (§4.2).  Tokens here are signed with a
cluster-wide secret distributed to kernel services at boot, so any
service can verify a token locally; expiry is measured in *virtual*
seconds.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.errors import SecurityError

_SEP = "|"


def issue_token(secret: bytes, user: str, roles: list[str], now: float, ttl: float) -> str:
    """Create a signed token: ``user|role1,role2|expiry|signature``."""
    if not user or _SEP in user:
        raise SecurityError(f"invalid user name {user!r}")
    if any(_SEP in r or "," in r for r in roles):
        raise SecurityError("role names must not contain '|' or ','")
    if ttl <= 0:
        raise SecurityError("token ttl must be positive")
    expiry = now + ttl
    body = f"{user}{_SEP}{','.join(roles)}{_SEP}{expiry:.6f}"
    sig = hmac.new(secret, body.encode(), hashlib.sha256).hexdigest()
    return f"{body}{_SEP}{sig}"


def verify_token(secret: bytes, token: str, now: float) -> tuple[str, list[str]]:
    """Validate a token; returns ``(user, roles)`` or raises SecurityError."""
    parts = token.split(_SEP)
    if len(parts) != 4:
        raise SecurityError("malformed token")
    user, roles_csv, expiry_str, sig = parts
    body = f"{user}{_SEP}{roles_csv}{_SEP}{expiry_str}"
    expected = hmac.new(secret, body.encode(), hashlib.sha256).hexdigest()
    if not hmac.compare_digest(sig.encode(), expected.encode()):
        raise SecurityError("bad token signature")
    try:
        expiry = float(expiry_str)
    except ValueError:
        raise SecurityError("malformed token expiry") from None
    if now > expiry:
        raise SecurityError("token expired")
    roles = [r for r in roles_csv.split(",") if r]
    return user, roles
