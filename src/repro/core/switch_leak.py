"""Leaking N-way control flow (switch statements) via PSC.

The paper's motivating kernel examples are not two-way branches but
*switches*: the Bluetooth TX path (Figure 1, three arms) and the battery
property getter (Figure 2, four arms), each arm performing a load at its
own IP.  AfterImage generalizes naturally: train one prefetcher entry per
arm, let the victim run, and the single disturbed entry names the arm —
log2(N) bits per observation instead of one.

This module packages that pattern as :class:`SwitchCaseLeak`, usable
against any victim exposing per-arm load IPs (the
:mod:`repro.kernel.patterns` syscalls, or any user-space dispatch table).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.cpu.context import ThreadContext
from repro.cpu.machine import Machine
from repro.params import PAGE_SIZE
from repro.utils.bits import low_bits

#: Strides assigned to successive arms: primes above the companion
#: prefetchers' reach (§7.1), pairwise distinct.
ARM_STRIDES = (7, 11, 13, 17, 19, 23, 29, 31)


@dataclass
class SwitchLeakResult:
    """One observation of the victim's switch."""

    true_arm: str | None
    inferred_arm: str | None
    disturbed_arms: list[str] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.true_arm is not None and self.inferred_arm == self.true_arm


class SwitchCaseLeak:
    """Train one aliasing entry per switch arm; the clobbered one leaks.

    ``case_ips`` maps arm names to the victim's per-arm load IPs.  All arms
    must land on distinct prefetcher indexes (true for compiler-emitted
    switch arms, whose loads are distinct instructions); otherwise the
    colliding arms are indistinguishable and the constructor refuses.
    """

    def __init__(
        self,
        machine: Machine,
        attacker_ctx: ThreadContext,
        case_ips: Mapping[str, int],
        gadget_base: int = 0x0067_0000,
    ) -> None:
        if not case_ips:
            raise ValueError("need at least one switch arm")
        if len(case_ips) > len(ARM_STRIDES):
            raise ValueError(f"at most {len(ARM_STRIDES)} arms supported")
        index_bits = machine.params.prefetcher.index_bits
        indexes = {low_bits(ip, index_bits) for ip in case_ips.values()}
        if len(indexes) != len(case_ips):
            raise ValueError("switch arms alias each other in the prefetcher index")
        self.machine = machine
        self.ctx = attacker_ctx
        base = machine.aslr.randomize_base(gadget_base)
        self._arms: dict[str, tuple[int, int, object]] = {}
        for (name, target_ip), stride in zip(case_ips.items(), ARM_STRIDES):
            train_ip = base + ((target_ip - base) % (1 << index_bits))
            while any(train_ip == ip for ip, _s, _b in self._arms.values()):
                train_ip += 1 << index_bits
            buffer = machine.new_buffer(attacker_ctx.space, PAGE_SIZE, name=f"arm-{name}")
            self._arms[name] = (train_ip, stride, buffer)

    @property
    def arms(self) -> list[str]:
        return list(self._arms)

    def train(self) -> None:
        """Saturate one entry per arm (3 strided loads each)."""
        for train_ip, stride, buffer in self._arms.values():
            self.machine.warm_tlb(self.ctx, buffer.base)
            for i in range(3):
                self.machine.load(self.ctx, train_ip, buffer.line_addr(i * stride))

    def observe(self) -> list[str]:
        """PSC over every arm's entry; returns the disturbed arms."""
        disturbed = []
        for name, (train_ip, _stride, _buffer) in self._arms.items():
            entry = self.machine.ip_stride.entry_for_ip(train_ip)
            if entry is None or entry.confidence < self.machine.params.prefetcher.prefetch_threshold:
                disturbed.append(name)
        return disturbed

    def run_round(self, run_victim: Callable[[], str | None]) -> SwitchLeakResult:
        """Train → victim → observe.  ``run_victim`` executes the victim's
        switch and returns the ground-truth arm (for scoring)."""
        self.train()
        true_arm = run_victim()
        disturbed = self.observe()
        inferred = disturbed[0] if len(disturbed) == 1 else None
        return SwitchLeakResult(
            true_arm=true_arm, inferred_arm=inferred, disturbed_arms=disturbed
        )

    def run_with_retries(
        self, run_victim: Callable[[], str | None], attempts: int = 3
    ) -> SwitchLeakResult:
        """Repeat the observation and intersect the disturbed sets.

        With N trained entries the kernel path's data-dependent loads also
        clobber arms occasionally (each variable-IP load aliases a given
        arm with probability 1/256); the victim's arm is disturbed in
        *every* repeat, the noise arms vary.  Appropriate whenever the
        victim re-executes the same switch (polled battery properties,
        per-packet Bluetooth statistics).
        """
        if attempts < 1:
            raise ValueError("need at least one attempt")
        surviving: set[str] | None = None
        true_arm: str | None = None
        last: SwitchLeakResult | None = None
        for _ in range(attempts):
            last = self.run_round(run_victim)
            true_arm = last.true_arm
            observed = set(last.disturbed_arms)
            surviving = observed if surviving is None else (surviving & observed)
            if len(surviving) == 1:
                break
        assert last is not None and surviving is not None
        inferred = next(iter(surviving)) if len(surviving) == 1 else None
        return SwitchLeakResult(
            true_arm=true_arm, inferred_arm=inferred, disturbed_arms=sorted(surviving)
        )
