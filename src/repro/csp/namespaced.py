"""Per-tenant key namespaces on a shared provider.

The fleet harness runs hundreds of tenants against the *same* CSP
accounts (shared links, shared quotas, shared failure domains — the
multi-tenant scenario CDStore motivates), but each tenant's CYRUS
client must see a private object space: chunk names are content
digests, so two tenants storing the same file would otherwise collide
on (and worse, garbage-collect) each other's shares.

:class:`NamespacedCSP` is a thin view over any :class:`CloudProvider`
that prefixes every object name with ``t/<tenant>/`` on the way in and
strips it on the way out.  The wrapper keeps the inner provider's
``csp_id`` — placement rings, netsim links, health registries and
metrics all aggregate per *account*, which is exactly the fleet-level
load picture the harness reports on.
"""

from __future__ import annotations

from repro.csp.account import AuthToken, Credentials
from repro.csp.base import BytesLike, CloudProvider, ObjectInfo

#: Namespace prefix template; the trailing slash keeps tenants like
#: ``t1`` and ``t10`` from shadowing each other's listings.
NAMESPACE_TEMPLATE = "t/{tenant}/"
_ROOT = NAMESPACE_TEMPLATE.split("{tenant}")[0]


def namespace_prefix(tenant_id: str) -> str:
    """The object-name prefix owned by one tenant."""
    if not tenant_id or "/" in tenant_id:
        raise ValueError(f"invalid tenant id {tenant_id!r}")
    return NAMESPACE_TEMPLATE.format(tenant=tenant_id)


def owning_prefix(name: str) -> str | None:
    """The one namespace prefix a raw object name can sit under, or None.

    Tenant ids hold no ``/``, so no tenant's prefix starts another's and
    a name matches at most one: the text up to the ``/`` that ends its
    tenant segment.
    """
    if not name.startswith(_ROOT):
        return None
    end = name.find("/", len(_ROOT))
    return None if end < 0 else name[:end + 1]


class NamespacedCSP(CloudProvider):
    """A tenant-scoped view of a shared provider.

    All five primitives translate names; ``list`` both filters to the
    namespace and strips the prefix, so a client sees exactly the
    object space it would see on a private account.  Errors (an outage
    or a full quota) pass through untouched — tenants share the
    account's fate, which is the point of the multi-tenant simulation.
    """

    def __init__(self, inner: CloudProvider, tenant_id: str):
        super().__init__(inner.csp_id)
        self.inner = inner
        self.tenant_id = tenant_id
        self.namespace = namespace_prefix(tenant_id)

    # -- name translation -------------------------------------------------

    def _qualify(self, name: str) -> str:
        return self.namespace + name

    def _strip(self, name: str) -> str:
        return name[len(self.namespace):]

    # -- the five primitives ----------------------------------------------

    def authenticate(self, credentials: Credentials) -> AuthToken:
        return self.inner.authenticate(credentials)

    def list(self, *, prefix: str = "") -> list[ObjectInfo]:
        qualified = self.inner.list(prefix=self._qualify(prefix))
        return [
            ObjectInfo(name=self._strip(info.name), size=info.size,
                       modified=info.modified)
            for info in qualified
        ]

    def upload(self, name: str, data: BytesLike) -> None:
        self.inner.upload(self._qualify(name), data)

    def download(self, name: str) -> bytes:
        return self.inner.download(self._qualify(name))

    def delete(self, name: str) -> None:
        self.inner.delete(self._qualify(name))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<NamespacedCSP {self.csp_id!r} "
                f"tenant={self.tenant_id!r}>")
