"""The abstract IP-stride history table: Algorithm 1 with taint tracking.

This is a deliberate re-transcription of
:class:`repro.prefetch.ip_stride.IPStridePrefetcher` over a simpler event
alphabet — ``(ip, paddr, taint)`` instead of full :class:`LoadEvent`\\ s —
with two additions the dynamic model has no use for:

* every entry carries a **taint set**, the union of the taints of all loads
  that have touched it since allocation (surviving stride rewrites and
  confidence resets, because the *fact* that a tainted load disturbed the
  entry is itself secret-dependent information);
* every issued prefetch is **logged** with the entry state that produced
  it, so two runs can be diffed on their prefetch footprints as well as
  their final table states.

The concrete rules — low-``index_bits`` untagged indexing, the
threshold-2 unconditional trigger *before* the stride comparison (the
paper's "key component"), stride rewrite + confidence := 1 on mismatch,
the ``sign_extend(Δ, 13)`` distance register, the 2 KiB issue cap, the
physical-frame boundary check, and Bit-PLRU with confidence-0 victim
preference — are kept line-for-line in sync with ``ip_stride.py``;
``tests/test_leakcheck.py`` checks the two against each other on random
load streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.memsys.replacement import make_policy
from repro.params import PAGE_SIZE, IPStrideParams
from repro.prefetch.base import free_slot
from repro.utils.bits import low_bits, sign_extend


@dataclass(frozen=True, slots=True)
class AbstractEntry:
    """One abstract history-table entry (immutable; updates replace it)."""

    index: int
    last_paddr: int
    stride: int = 0
    confidence: int = 0
    taint: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class AbstractPrefetch:
    """One issued prefetch, with the taint of the entry that fired it."""

    index: int
    target: int
    taint: frozenset[str]


class AbstractTable:
    """Taint-tracking abstract interpreter state for the history table."""

    def __init__(self, params: IPStrideParams) -> None:
        self.params = params
        self._slots: list[AbstractEntry | None] = [None] * params.n_entries
        self._index_to_slot: dict[int, int] = {}
        self._policy = make_policy(params.replacement, params.n_entries)
        self.prefetches: list[AbstractPrefetch] = []

    # ------------------------------------------------------------------ #
    # Algorithm 1                                                         #
    # ------------------------------------------------------------------ #

    def observe(self, ip: int, paddr: int, taint: frozenset[str] = frozenset()) -> None:
        """Digest one TLB-resident load (virtual = physical in this domain)."""
        index = low_bits(ip, self.params.index_bits)
        slot = self._index_to_slot.get(index)
        if slot is None:
            self._allocate(index, paddr, taint)
            return

        entry = self._slots[slot]
        if entry is None:
            raise RuntimeError(f"slot map points at empty slot {slot}")
        self._policy.touch(slot)

        taint = entry.taint | taint
        distance = sign_extend(paddr - entry.last_paddr, self.params.stride_bits)
        stride, confidence = entry.stride, entry.confidence
        if confidence >= self.params.prefetch_threshold:
            # The "key component": trigger unconditionally before updating.
            self._issue(index, paddr, stride, taint)
            if distance != stride:
                stride, confidence = distance, 1
            elif confidence != self.params.confidence_max:
                confidence += 1
        else:
            if distance != stride:
                stride, confidence = distance, 1
            else:
                confidence += 1
                if confidence == self.params.prefetch_threshold:
                    self._issue(index, paddr, stride, taint)
        self._slots[slot] = replace(
            entry, last_paddr=paddr, stride=stride, confidence=confidence, taint=taint
        )

    def pretrain(self, ip: int, paddr: int, stride: int) -> None:
        """Install an attacker-trained entry: saturated confidence, known
        stride, untainted.

        This models the PSC preparation phase (paper §6.1): the attacker's
        own strided loads are secret-independent, so the canary entry starts
        with an empty taint set, and anything that later disturbs it shows
        up both in its state and in its taint.
        """
        if stride == 0:
            raise ValueError("a pretrained entry needs a non-zero stride")
        index = low_bits(ip, self.params.index_bits)
        slot = self._index_to_slot.get(index)
        if slot is None:
            self._allocate(index, paddr, frozenset())
            slot = self._index_to_slot[index]
        entry = self._slots[slot]
        if entry is None:
            raise RuntimeError(f"slot map points at empty slot {slot}")
        self._slots[slot] = replace(
            entry,
            last_paddr=paddr,
            stride=stride,
            confidence=self.params.confidence_max,
            taint=frozenset(),
        )
        self._policy.touch(slot)

    def _issue(self, index: int, paddr: int, stride: int, taint: frozenset[str]) -> None:
        """Log ``paddr + stride`` unless zero, capped, or frame-crossing."""
        if stride == 0:
            return
        if abs(stride) > self.params.max_stride_bytes:
            return
        target = paddr + stride
        if target // PAGE_SIZE != paddr // PAGE_SIZE:
            return
        self.prefetches.append(AbstractPrefetch(index=index, target=target, taint=taint))

    def _allocate(self, index: int, paddr: int, taint: frozenset[str]) -> None:
        """Create_New_Entry with the free → confidence-0 → Bit-PLRU victim
        preference of the concrete model."""
        slot = free_slot(self._slots)
        if slot is None:
            slot = self._victim_slot()
            victim = self._slots[slot]
            if victim is None:
                raise RuntimeError(f"victim policy chose empty slot {slot}")
            del self._index_to_slot[victim.index]
        self._slots[slot] = AbstractEntry(index=index, last_paddr=paddr, taint=taint)
        self._index_to_slot[index] = slot
        self._policy.fill(slot)

    def _victim_slot(self) -> int:
        for slot, entry in enumerate(self._slots):
            if entry is not None and entry.confidence == 0:
                return slot
        return self._policy.victim()

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def entry(self, index: int) -> AbstractEntry | None:
        slot = self._index_to_slot.get(index)
        return None if slot is None else self._slots[slot]

    def entries(self) -> dict[int, AbstractEntry]:
        """Live entries, keyed by table index."""
        return {
            entry.index: entry for entry in self._slots if entry is not None
        }

    def prefetch_targets(self, index: int) -> frozenset[int]:
        """All prefetch targets the entry at ``index`` has issued."""
        return frozenset(p.target for p in self.prefetches if p.index == index)
