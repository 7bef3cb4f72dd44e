"""repro.recovery — crash consistency for the CYRUS client.

Three cooperating pieces close the client-side crash window that
paper Section 5 leaves to lazy repair:

* :class:`IntentJournal` — the client's one local log: every mutating
  operation's *intent* (which share objects it will create, which
  metadata node it will publish), appended before the providers are
  touched, and every redundancy debt the client still owes;
* :func:`recover_client` — startup replay that acknowledges each
  incomplete intent whose node was published or rolls it back (node at
  fewer than t slots → delete its copies and the recorded orphan
  shares), returning a :class:`RecoveryReport`;
* :func:`run_scrub` / :class:`Scrubber` — a budget-limited
  anti-entropy pass over the global chunk table that verifies share
  existence and integrity and eagerly regenerates what lazy migration
  would only fix at the next read.
"""

from repro.recovery.journal import (
    BEGIN,
    COMMIT,
    SHARE_INTENT,
    STAGES,
    Intent,
    IntentJournal,
    JournalError,
    JournalRecord,
)
from repro.recovery.recover import (
    RECOVERY_ROLLBACK,
    RECOVERY_ROLLFORWARD,
    RecoveryReport,
    recover_client,
)
from repro.recovery.scrub import (
    SCRUB_SHARES_REPAIRED,
    SCRUB_SHARES_VERIFIED,
    Scrubber,
    ScrubReport,
    run_scrub,
)

__all__ = [
    "BEGIN",
    "COMMIT",
    "SHARE_INTENT",
    "STAGES",
    "Intent",
    "IntentJournal",
    "JournalError",
    "JournalRecord",
    "RECOVERY_ROLLBACK",
    "RECOVERY_ROLLFORWARD",
    "RecoveryReport",
    "recover_client",
    "SCRUB_SHARES_REPAIRED",
    "SCRUB_SHARES_VERIFIED",
    "Scrubber",
    "ScrubReport",
    "run_scrub",
]
