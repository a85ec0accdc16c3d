"""IP search (paper §5.2): locating a hidden victim load's prefetcher index.

Syscall IPs are unknown to the user and KASLR-slid — but slides are
page-granular, and the prefetcher index is only the low 8 IP bits, so the
search space is exactly 256 indexes.  The attacker:

1. trains a *group* of candidate indexes simultaneously (24 at a time — the
   history-table capacity, §4.4), each on its own page with one common
   stride;
2. triggers the victim (the syscall) on shared memory;
3. reloads the shared page: a hit at ``demand_line + stride`` means some
   trained index aliased the victim's load;
4. narrows the positive group by halving until one index remains.

Because the victim's branch may be untaken on a given call (Listing 7 uses
a random secret), every group test retries several times before concluding
"negative" — the paper's "this process can be repeated multiple times...
in case of too many not taken branches".
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.channels.flush_reload import FlushReload
from repro.core.detect import hot_pairs
from repro.cpu.context import ThreadContext
from repro.cpu.machine import Machine
from repro.mmu.buffer import Buffer
from repro.params import PAGE_SIZE
from repro.utils.bits import low_bits


@dataclass
class IPSearchResult:
    """Outcome of an IP search."""

    index: int | None
    syscalls_used: int = 0
    groups_tested: int = 0
    history: list[tuple[tuple[int, ...], bool]] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.index is not None


class IPSearcher:
    """Group-train-and-test search over the 256 possible entry indexes."""

    #: History-table capacity — one group fills the table exactly (§5.2).
    GROUP_SIZE = 24

    def __init__(
        self,
        machine: Machine,
        attacker_ctx: ThreadContext,
        trigger: Callable[[int], None],
        shared: Buffer,
        flush_reload: FlushReload,
        stride_lines: int = 11,
        attempts_per_test: int = 2,
        search_code_base: int = 0x0078_0000,
    ) -> None:
        self.machine = machine
        self.ctx = attacker_ctx
        self.trigger = trigger
        self.shared = shared
        self.flush_reload = flush_reload
        self.stride_lines = stride_lines
        self.attempts_per_test = attempts_per_test
        self._code_base = machine.aslr.randomize_base(search_code_base)
        # One private training page per slot in a group.
        self._train_pages = [
            machine.new_buffer(attacker_ctx.space, PAGE_SIZE, name=f"ipsearch-train-{i}")
            for i in range(self.GROUP_SIZE)
        ]
        for page in self._train_pages:
            machine.warm_buffer_tlb(attacker_ctx, page)
        self._syscalls = 0
        self._groups = 0
        self._history: list[tuple[tuple[int, ...], bool]] = []

    def search(self, demand_line: int = 20, sweeps: int = 3) -> IPSearchResult:
        """Find the victim load's index; ``demand_line`` is the shared-page
        line whose address is passed to the victim.

        Up to ``sweeps`` full passes are made — "this process can be
        repeated multiple times until the IP is found in case of too many
        not taken branches" (§5.2).
        """
        for _ in range(sweeps):
            index = self._search_once(demand_line)
            if index is not None:
                return self._result(index)
        return self._result(None)

    def _search_once(self, demand_line: int) -> int | None:
        reserved = {
            low_bits(self.flush_reload.reload_ip, self.machine.params.prefetcher.index_bits)
        }
        candidates = [index for index in range(256) if index not in reserved]
        positive_group: list[int] | None = None
        for start in range(0, len(candidates), self.GROUP_SIZE):
            group = candidates[start : start + self.GROUP_SIZE]
            if self._test_group(group, demand_line):
                positive_group = group
                break
        if positive_group is None:
            return None

        # Halve the positive group until a single index survives.  Both
        # halves are tested explicitly: inferring "right half" from a
        # negative left-half test would silently follow a false negative.
        group = positive_group
        while len(group) > 1:
            left = group[: len(group) // 2]
            right = group[len(group) // 2 :]
            if self._test_group(left, demand_line):
                group = left
            elif self._test_group(right, demand_line):
                group = right
            else:
                return None
        # Confirm the final candidate on its own.
        if not self._test_group(group, demand_line):
            return None
        return group[0]

    # ------------------------------------------------------------------ #

    def _test_group(self, group: Sequence[int], demand_line: int) -> bool:
        """True when some index in ``group`` aliases the victim's load.

        The syscall path's own loads re-allocate their prefetcher slots and
        evict part of a freshly trained group before the victim load runs.
        Measured on seeds 170–189 with a group of 24, 13–18 trained entries
        survive (median 17), and *which* survive is set by training order:
        positions 1–12 survive 88–100 % of triggers, positions 13–23 only
        8–60 % and position 0 48 %.  The test therefore rotates the training
        order through every position — putting each candidate in a reliably
        surviving position in some attempt — and tries each rotation
        ``attempts_per_test`` times to cover the victim's randomly-untaken
        branch (Listing 7).
        """
        self._groups += 1
        group = list(group)
        # Small groups offer few rotations, so give each a couple of extra
        # tries against the victim's coin-flip branch.
        tries = self.attempts_per_test + (2 if len(group) <= 6 else 0)
        for shift in range(len(group)):
            rotated = group[shift:] + group[:shift]
            for _ in range(tries):
                self._train_group(rotated)
                self.flush_reload.flush()
                self.trigger(demand_line)
                self._syscalls += 1
                hits = self.flush_reload.hit_lines()
                if hot_pairs(hits, self.stride_lines):
                    self._history.append((tuple(group), True))
                    return True
        self._history.append((tuple(group), False))
        return False

    def _train_group(self, group: Sequence[int]) -> None:
        """Train one entry per index, each on its own page, common stride."""
        if len(group) > self.GROUP_SIZE:
            raise ValueError(f"group of {len(group)} exceeds table capacity {self.GROUP_SIZE}")
        ips = [self.ip_for_index(index) for index in group]
        for slot in range(len(ips)):
            self.machine.warm_tlb(self.ctx, self._train_pages[slot].base)
        for iteration in range(3):
            for slot, ip in enumerate(ips):
                page = self._train_pages[slot]
                self.machine.load(
                    self.ctx, ip, page.line_addr(iteration * self.stride_lines)
                )

    def ip_for_index(self, index: int) -> int:
        """An attacker-code IP whose low 8 bits equal ``index``."""
        base = self._code_base
        return base + ((index - base) % 256)

    def _result(self, index: int | None) -> IPSearchResult:
        return IPSearchResult(
            index=index,
            syscalls_used=self._syscalls,
            groups_tested=self._groups,
            history=list(self._history),
        )
