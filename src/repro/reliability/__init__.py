"""Active fault tolerance for deployed RegHD learners.

The :mod:`repro.noise` package *measures* how gracefully RegHD degrades
under hardware faults; this package *acts* on faults in a long-running
streaming deployment:

* :mod:`~repro.reliability.checkpoint` — atomic, CRC32-checksummed,
  rotating checkpoints with corrupt-skipping recovery, the stream's
  report history journaled beside them;
* :mod:`~repro.reliability.guards` — input sanitisation policies applied
  before ``predict``/``partial_fit``;
* :mod:`~repro.reliability.watchdog` — a health envelope on prequential
  error that triggers rollback to the last good checkpoint;
* :mod:`~repro.reliability.scrub` — periodic rematerialisation of binary
  working copies and majority-vote repair of replicated shadows;
* :mod:`~repro.reliability.retry` — seeded-jitter retry/backoff for
  transient I/O;
* :mod:`~repro.reliability.resilient` — :class:`ResilientStreamingRegHD`
  composing all of the above.
"""

from repro.reliability.checkpoint import (
    CheckpointInfo,
    CheckpointManager,
    file_crc,
)
from repro.reliability.guards import GuardPolicy, GuardReport, InputGuard
from repro.reliability.resilient import (
    ResilientBatchReport,
    ResilientStreamingRegHD,
    RollbackEvent,
)
from repro.reliability.retry import backoff_delays, retry, retry_call
from repro.reliability.scrub import (
    ModelScrubber,
    ScrubReport,
    majority_vote,
    rematerialize,
)
from repro.reliability.watchdog import HealthState, Watchdog

__all__ = [
    "CheckpointInfo",
    "CheckpointManager",
    "file_crc",
    "GuardPolicy",
    "GuardReport",
    "InputGuard",
    "ResilientBatchReport",
    "ResilientStreamingRegHD",
    "RollbackEvent",
    "backoff_delays",
    "retry",
    "retry_call",
    "ModelScrubber",
    "ScrubReport",
    "majority_vote",
    "rematerialize",
    "HealthState",
    "Watchdog",
]
