"""AfterImage Variant 2 (paper §5.2): leaking kernel branches to user space.

Observation 2 of the paper: trained IP-stride entries are retained across
user/kernel privilege switches.  The attacker:

1. finds the prefetcher index of the syscall's branch-guarded load with
   :class:`~repro.core.ip_search.IPSearcher` (KASLR does not disturb the
   low 8 bits);
2. trains that index with a recognizable stride (the paper uses 11);
3. flushes the shared ``memory_space``, invokes the syscall, and reloads:
   a hit pair at the trained stride means the kernel took the branch.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from repro.channels.flush_reload import FlushReload
from repro.core.detect import hot_pairs
from repro.core.ip_search import IPSearcher, IPSearchResult
from repro.cpu.machine import Machine
from repro.kernel.syscalls import Kernel, VulnerableSyscall
from repro.params import PAGE_SIZE
from repro.utils.bits import low_bits


@dataclass
class KernelRoundResult:
    """One user→kernel observation round."""

    true_taken: bool
    inferred_taken: bool
    demand_line: int
    hot_lines: list[int] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.inferred_taken == self.true_taken


class Variant2UserKernel:
    """End-to-end Variant 2 against the Listing 7 vulnerable syscall."""

    def __init__(
        self,
        machine: Machine,
        secret_source: Callable[[], int],
        stride_lines: int = 11,
    ) -> None:
        self.machine = machine
        self.stride_lines = stride_lines
        self.kernel = Kernel(machine)
        self.syscall = VulnerableSyscall(self.kernel, secret_source)
        self.attacker_ctx = machine.new_thread("attacker-process")
        machine.context_switch(self.attacker_ctx)
        # The memory_space the attacker passes into the kernel.
        self.memory_space = machine.new_buffer(
            self.attacker_ctx.space, PAGE_SIZE, name="memory_space"
        )
        machine.warm_buffer_tlb(self.attacker_ctx, self.memory_space)
        self.syscall.share_user_buffer(self.memory_space)

        reload_ip = 0x0072_0000
        self.flush_reload = FlushReload(
            machine, self.attacker_ctx, self.memory_space, reload_ip
        )
        # The trigger binds the syscall, not this attack: a bound method of
        # ``self`` held by the searcher would be a reference cycle keeping
        # the machine alive until a cyclic GC pass.
        self._trigger_syscall = partial(
            self.syscall.invoke, self.attacker_ctx, self.memory_space
        )
        self.searcher = IPSearcher(
            machine,
            self.attacker_ctx,
            trigger=self._trigger_syscall,
            shared=self.memory_space,
            flush_reload=self.flush_reload,
            stride_lines=stride_lines,
        )
        self._train_page = machine.new_buffer(
            self.attacker_ctx.space, PAGE_SIZE, name="v2-train"
        )
        machine.warm_buffer_tlb(self.attacker_ctx, self._train_page)
        self._target_index: int | None = None
        self._search_result: IPSearchResult | None = None

    # ------------------------------------------------------------------ #

    def find_target_index(self, demand_line: int = 20) -> IPSearchResult:
        """Run the §5.2 IP search; caches the found index for run_round."""
        with self.machine.span("ip-search"):
            result = self.searcher.search(demand_line)
        self._search_result = result
        self._target_index = result.index
        return result

    @property
    def true_target_index(self) -> int:
        """Ground truth (white-box) — used by tests to validate the search."""
        return low_bits(self.syscall.load_ip, self.machine.params.prefetcher.index_bits)

    def use_target_index(self, index: int) -> None:
        """Pin the index to train — the white-box fallback for harnesses
        that must run measurement rounds even on seeds where the §5.2
        search comes up empty."""
        self._target_index = index

    def run_round(self, demand_line: int = 20) -> KernelRoundResult:
        """One attack round against the live syscall.

        The syscall decides its own secret (Listing 7's ``num = random()``);
        ground truth is taken from the kernel's execution log for scoring.
        """
        if self._target_index is None:
            raise RuntimeError("run find_target_index() before attacking")
        self.machine.context_switch(self.attacker_ctx)
        with self.machine.span("train"):
            self._train_target()
        with self.machine.span("flush"):
            self.flush_reload.flush()
        with self.machine.span("syscall"):
            self._trigger_syscall(demand_line)
        with self.machine.span("reload"):
            hits = self.flush_reload.hit_lines()
        inferred = bool(hot_pairs(hits, self.stride_lines))
        return KernelRoundResult(
            true_taken=self.syscall.executions[-1],
            inferred_taken=inferred,
            demand_line=demand_line,
            hot_lines=hits,
        )

    def reload_samples_after_round(self, demand_line: int = 20):
        """Raw reload samples for one round (the Figure 14a series)."""
        if self._target_index is None:
            raise RuntimeError("run find_target_index() before attacking")
        self.machine.context_switch(self.attacker_ctx)
        self._train_target()
        self.flush_reload.flush()
        self._trigger_syscall(demand_line)
        return self.flush_reload.reload()

    def _train_target(self) -> None:
        assert self._target_index is not None
        ip = self.searcher.ip_for_index(self._target_index)
        self.machine.warm_tlb(self.attacker_ctx, self._train_page.base)
        for i in range(3):
            self.machine.load(
                self.attacker_ctx, ip, self._train_page.line_addr(i * self.stride_lines)
            )
