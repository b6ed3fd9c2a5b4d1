"""Periodic memory scrubbing for the dual-copy model hypervectors.

The Sec.-3 framework already stores every model hypervector twice: an
integer shadow that receives training updates and a binary working copy
that serves queries.  That redundancy is a fault-tolerance asset:

* **rematerialisation** — the binary working copy is a pure function of
  the shadow, so any bit flips it accumulates (it is the copy hardware
  reads on every inference, hence the most exposed) are erased completely
  by re-deriving it (`rebinarize`);
* **replication + voting** — the shadows themselves can be replicated R
  times (R odd); an elementwise median vote reconciles the copies, so a
  flip must hit the *same element in a majority of replicas* to survive —
  probability O(rate²) instead of O(rate) for R=3.

:class:`ModelScrubber` composes both: replicas are refreshed after every
training step (hardware would write all replicas on the same bus cycle)
and a scrub pass votes the shadows back together, rewrites them
everywhere, and rematerialises the binary copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.multi import MultiModelRegHD
from repro.exceptions import ConfigurationError, ReliabilityError
from repro.telemetry import metrics as _metrics
from repro.types import FloatArray


def majority_vote(replicas: list[FloatArray]) -> FloatArray:
    """Elementwise median across an odd number of equal-shape replicas.

    For sign-flip faults the median recovers the clean value wherever
    fewer than half the replicas are corrupted at that element.  The
    median is selected exactly by a min/max sorting network, so it equals
    ``np.median(np.stack(replicas), axis=0)`` bit for bit (a NaN in any
    replica yields NaN; a zero comes back as ``+0.0``) without stacking
    or partitioning.
    """
    if not replicas:
        raise ConfigurationError("majority_vote needs at least one replica")
    if len(replicas) % 2 == 0:
        raise ConfigurationError(
            f"replica count must be odd, got {len(replicas)}"
        )
    values = [np.asarray(r, dtype=np.float64) for r in replicas]
    count = len(values)
    # Odd–even transposition sort: ``count`` rounds of compare-exchange
    # between neighbours leave every element's replicas in order.
    for rnd in range(count):
        for i in range(rnd % 2, count - 1, 2):
            low, high = values[i], values[i + 1]
            values[i] = np.minimum(low, high)
            values[i + 1] = np.maximum(low, high)
    # Adding +0.0 turns -0.0 into +0.0, as np.median's mean step does.
    return values[count // 2] + 0.0


@dataclass(frozen=True)
class ScrubReport:
    """Outcome of one scrub pass."""

    shadow_elements_repaired: int
    binary_elements_refreshed: int
    replicas: int

    @property
    def repaired_anything(self) -> bool:
        """True when the pass changed any stored value."""
        return bool(
            self.shadow_elements_repaired or self.binary_elements_refreshed
        )


class ModelScrubber:
    """Replicated-shadow scrubbing for a :class:`MultiModelRegHD`.

    Parameters
    ----------
    model:
        The live model.  Its ``models.integer`` (and optionally
        ``clusters.integer``) arrays are treated as replica 0.
    replicas:
        Total number of shadow replicas, odd and >= 1.  ``replicas=1``
        disables voting and scrubbing degrades to pure rematerialisation.
    include_clusters:
        Also replicate/scrub the cluster hypervectors.
    """

    def __init__(
        self,
        model: MultiModelRegHD,
        *,
        replicas: int = 3,
        include_clusters: bool = True,
    ):
        if replicas < 1 or replicas % 2 == 0:
            raise ConfigurationError(
                f"replicas must be odd and >= 1, got {replicas}"
            )
        self.model = model
        self.replicas = int(replicas)
        self.include_clusters = bool(include_clusters)
        self._model_shadows: list[FloatArray] = []
        self._cluster_shadows: list[FloatArray] = []
        self.sync()

    def _live_arrays(self) -> list[FloatArray]:
        arrays = [self.model.models.integer]
        if self.include_clusters:
            arrays.append(self.model.clusters.integer)
        return arrays

    def sync(self) -> None:
        """Refresh the shadow replicas from the live integer arrays.

        Call after every training step: in hardware all replicas receive
        the same write, so post-update they agree by construction.
        """
        self._model_shadows = [
            self.model.models.integer.copy()
            for _ in range(self.replicas - 1)
        ]
        self._cluster_shadows = (
            [
                self.model.clusters.integer.copy()
                for _ in range(self.replicas - 1)
            ]
            if self.include_clusters
            else []
        )

    def _scrub_one(
        self, live: FloatArray, shadows: list[FloatArray]
    ) -> int:
        if shadows and live.shape != shadows[0].shape:
            raise ReliabilityError(
                "shadow replicas are stale: live array has shape "
                f"{live.shape}, shadows have {shadows[0].shape}; "
                "call sync() after structural model changes"
            )
        if not shadows:  # replicas == 1: nothing to vote against
            return 0
        voted = majority_vote([live, *shadows])
        repaired = int(np.count_nonzero(voted != live))
        repaired += sum(int(np.count_nonzero(voted != s)) for s in shadows)
        live[:] = voted
        for shadow in shadows:
            shadow[:] = voted
        return repaired

    def scrub(self) -> ScrubReport:
        """One scrub pass: vote the shadows, rematerialise binary copies."""
        repaired = self._scrub_one(
            self.model.models.integer, self._model_shadows
        )
        if self.include_clusters:
            repaired += self._scrub_one(
                self.model.clusters.integer, self._cluster_shadows
            )
        refreshed = rematerialize(
            self.model, include_clusters=self.include_clusters
        )
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_scrub_passes_total").inc()
            if repaired:
                registry.counter(
                    "reghd_scrub_corrections_total", kind="shadow"
                ).inc(repaired)
            if refreshed:
                registry.counter(
                    "reghd_scrub_corrections_total", kind="binary"
                ).inc(refreshed)
            if repaired or refreshed:
                registry.record_event(
                    "scrub_corrections",
                    shadow_repaired=repaired,
                    binary_refreshed=refreshed,
                    replicas=self.replicas,
                )
        return ScrubReport(
            shadow_elements_repaired=repaired,
            binary_elements_refreshed=refreshed,
            replicas=self.replicas,
        )


def rematerialize(
    model: MultiModelRegHD, *, include_clusters: bool = True
) -> int:
    """Re-derive the binary working copies from the integer shadows.

    Returns the number of binary elements whose stored value changed —
    i.e. the number of accumulated working-copy faults just erased (zero
    on a healthy model: rebinarisation is idempotent).
    """
    before_models = model.models.binary.copy()
    model.models.rebinarize()
    changed = int(np.count_nonzero(model.models.binary != before_models))
    if include_clusters:
        before_clusters = model.clusters.binary.copy()
        model.clusters.rebinarize()
        changed += int(
            np.count_nonzero(model.clusters.binary != before_clusters)
        )
    return changed
