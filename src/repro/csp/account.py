"""Account and authentication emulation.

Table 2 shows CSPs using OAuth 2.0, OAuth 1.0, API keys, ID/password,
AWS signatures, and more.  CYRUS "utilize[s] existing CSP authentication
mechanisms ... though such procedures are not mandatory" (Section 6) and
caches tokens so users log in once (Section 7.5).  We emulate the common
shape of all of these — credentials in, bearer token out —
without implementing each wire protocol, since nothing above this layer
depends on the scheme.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass


@dataclass(frozen=True)
class Credentials:
    """Opaque provider credentials (account id + secret)."""

    account_id: str
    secret: str = ""
    scheme: str = "oauth2"


@dataclass(frozen=True)
class AuthToken:
    """A bearer token for one account.  It never expires on its own:
    an expiry is injected as :class:`repro.faults.FaultKind` ``AUTH``."""

    token: str
    account_id: str


def issue_token(credentials: Credentials, provider_secret: str) -> AuthToken:
    """Deterministically derive a token for the given credentials.

    HMAC of the account over a provider-side secret — deterministic so
    simulations are reproducible, unforgeable without the provider
    secret so auth tests are meaningful.
    """
    mac = hmac.new(
        provider_secret.encode("utf-8"),
        f"{credentials.account_id}:{credentials.secret}".encode("utf-8"),
        hashlib.sha256,
    ).hexdigest()
    return AuthToken(token=mac, account_id=credentials.account_id)
