"""Dynamic set sampling for MDR (Section 5.1).

MDR needs the LLC hit rate under *both* replication policies while only
one of them is running. Following Qureshi et al. [75], the profiler
samples 8 sets of a single LLC slice and maintains two shadow tag
directories for those sets:

* the *no-replication* shadow sees only accesses whose home is the sampled
  slice (demand stream without replicas);
* the *full-replication* shadow additionally sees read-only shared
  accesses from the sampled partition's SMs whose home is remote (the
  replicas that full replication would install), and drops remote read-only
  sharers' accesses (those would be served by their own replicas).

The hardware budget matches the paper: 8 sets x 16 ways x 24-bit partial
tags per directory is a few hundred bytes.

The profiler also counts the fraction of local versus remote accesses and
the read-only shared fraction, the remaining workload inputs of the
analytical bandwidth model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.sram import CacheArray


@dataclass
class EpochProfile:
    """Profiling results for one MDR epoch."""

    #: LLC hit rate estimated for the no-replication policy.
    hit_rate_norep: float
    #: LLC hit rate estimated for the full-replication policy.
    hit_rate_fullrep: float
    #: Fraction of L1 misses that would be local without replication.
    frac_local_norep: float
    #: Fraction of L1 misses that would be local under full replication
    #: (read-only shared accesses turn local).
    frac_local_fullrep: float
    #: Total observed L1 misses this epoch.
    observed: int

    @property
    def frac_remote_norep(self) -> float:
        return 1.0 - self.frac_local_norep

    @property
    def frac_remote_fullrep(self) -> float:
        return 1.0 - self.frac_local_fullrep


class SetSampler:
    """Shadow-directory set sampler attached to one LLC slice."""

    def __init__(
        self,
        slice_sets: int,
        ways: int,
        sampled_sets: int = 8,
    ) -> None:
        if sampled_sets > slice_sets:
            sampled_sets = slice_sets
        self.slice_sets = slice_sets
        self.sampled_sets = sampled_sets
        #: Sample sets spread across the index space.
        stride = max(1, slice_sets // sampled_sets)
        self._sampled = {i * stride for i in range(sampled_sets)}
        self._shadow_norep = CacheArray(slice_sets, ways)
        self._shadow_fullrep = CacheArray(slice_sets, ways)
        self.reset_epoch()
        # Cumulative, for reporting.
        self.total_observed = 0

    def reset_epoch(self) -> None:
        """Clear the epoch counters (epoch boundary)."""
        self._norep_hits = 0
        self._norep_accesses = 0
        self._fullrep_hits = 0
        self._fullrep_accesses = 0
        self._local = 0
        self._remote_ro = 0
        self._remote_other = 0

    def observe(
        self,
        line_addr: int,
        home_is_sampled_slice: bool,
        requester_in_sampled_partition: bool,
        is_read_only_shared: bool,
    ) -> None:
        """Feed one L1 miss into the profiler.

        Called by the system router for every L1 miss that involves the
        sampled slice or the sampled partition.
        """
        self.total_observed += 1
        # Local/remote accounting uses the sampled partition's traffic.
        if requester_in_sampled_partition:
            if home_is_sampled_slice:
                self._local += 1
            elif is_read_only_shared:
                self._remote_ro += 1
            else:
                self._remote_other += 1

        # Set-sampled: observe runs for every routed NUBA request and
        # most lines fall outside the sample.
        if (line_addr % self.slice_sets) not in self._sampled:
            return

        # No-replication shadow: the demand stream of the home slice.
        if home_is_sampled_slice:
            self._norep_accesses += 1
            if self._shadow_norep.lookup(line_addr):
                self._norep_hits += 1
            else:
                self._shadow_norep.install(line_addr)

        # Full-replication shadow: local demand plus local replicas of
        # remote read-only lines; remote read-only sharers disappear.
        sees_fullrep = False
        if home_is_sampled_slice:
            if is_read_only_shared and not requester_in_sampled_partition:
                sees_fullrep = False  # served by the sharer's own replica
            else:
                sees_fullrep = True
        elif requester_in_sampled_partition and is_read_only_shared:
            sees_fullrep = True  # replica installed locally
        if sees_fullrep:
            self._fullrep_accesses += 1
            if self._shadow_fullrep.lookup(line_addr):
                self._fullrep_hits += 1
            else:
                self._shadow_fullrep.install(line_addr)

    def snapshot(self) -> EpochProfile:
        """Summarise the epoch (called at each MDR epoch boundary)."""
        observed = self._local + self._remote_ro + self._remote_other

        def rate(hits: int, accesses: int, default: float) -> float:
            if accesses == 0:
                return default
            return hits / accesses

        if observed:
            frac_local_norep = self._local / observed
            frac_local_fullrep = (self._local + self._remote_ro) / observed
        else:
            frac_local_norep = 1.0
            frac_local_fullrep = 1.0
        return EpochProfile(
            hit_rate_norep=rate(self._norep_hits, self._norep_accesses, 1.0),
            hit_rate_fullrep=rate(
                self._fullrep_hits, self._fullrep_accesses, 1.0
            ),
            frac_local_norep=frac_local_norep,
            frac_local_fullrep=frac_local_fullrep,
            observed=observed,
        )

    @property
    def storage_bits(self) -> int:
        """Hardware budget: two directories of sampled sets with 24-bit
        entries (the paper quotes 384 bytes for one directory)."""
        ways = self._shadow_norep.ways
        return 2 * self.sampled_sets * ways * 24
