"""Self-healing redundancy: the debt ledger, the repair loop, and the
one reconcile path.

CYRUS accepts a write once ``t`` of ``n`` shares land — recoverable but
under-dispersed.  This package makes the gap explicit and self-healing:
:class:`DebtLedger` durably records every redundancy deficit (degraded
writes, corrupt shares detected at decode time) in the client's intent
journal, and :func:`run_repair` drains it back to ``n`` verified shares
through :mod:`repro.redundancy.reconcile`, which also serves the scrub,
lazy migration and the metadata back-fill.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.redundancy.ledger": ("DebtEntry", "DebtLedger"),
    "repro.redundancy.repair": ("RepairReport", "run_repair"),
})
