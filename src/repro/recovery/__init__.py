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

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.recovery.journal": ("BEGIN", "COMMIT", "SHARE_INTENT", "STAGES",
                               "IntentJournal", "JournalError",
                               "JournalRecord"),
    "repro.recovery.recover": ("RecoveryReport", "recover_client"),
    "repro.recovery.scrub": ("Scrubber", "ScrubReport", "run_scrub"),
})
