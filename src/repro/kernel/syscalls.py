"""Syscall dispatch and the paper's customized vulnerable kernel function.

The kernel runs in its own (KASLR-slid, global-page) address space on the
same logical core, so it shares the caches and the prefetcher with user
code.  Each syscall models:

* the privilege-domain switch in both directions (context-switch cost,
  TLB treatment, switch-path memory noise),
* data-dependent kernel loads on the entry/exit path
  (``NoiseParams.kernel_variable_ips``) — these occasionally alias a
  trained prefetcher entry, which is the main reason Variant 2's success
  rate (91 %) trails the user-space variants (§7.2).

``VulnerableSyscall`` is the paper's Listing 7: a secret determines an
``if`` whose body loads from memory shared with the caller.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from dataclasses import dataclass
from types import MethodType

from repro.cpu.context import ThreadContext
from repro.cpu.machine import Machine
from repro.mmu.buffer import Buffer
from repro.params import PAGE_SIZE

#: Default virtual base of the kernel text image (before KASLR slide).
KERNEL_TEXT_BASE = 0xFFFF_8000_0100_0000

#: Cycle cost of the syscall instruction + entry/exit assembly.
SYSCALL_OVERHEAD_CYCLES = 700


@dataclass
class SyscallRecord:
    """Bookkeeping for one executed syscall (used by tests and benches)."""

    number: int
    caller: str
    cycles_before: int
    cycles_after: int = 0


class Kernel:
    """The kernel: a privileged context plus a syscall table."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.ctx = machine.kernel_context("kernel")
        self.text = machine.code_region(KERNEL_TEXT_BASE, name="kernel-text", kernel=True)
        self._table: dict[int, Callable[..., object] | weakref.WeakMethod] = {}
        self._next_number = 333  # the artifact's "available system call number"
        self._entry_path = machine.new_buffer(
            machine.kernel_space, 16 * PAGE_SIZE, locked=True, name="kernel-entry-data"
        )
        self.records: list[SyscallRecord] = []

    def register(self, handler: Callable[..., object], number: int | None = None) -> int:
        """Install ``handler`` in the syscall table; returns its number."""
        if number is None:
            number = self._next_number
            self._next_number += 1
        if number in self._table:
            raise ValueError(f"syscall number {number} already registered")
        # Syscall objects hold their kernel, so a bound-method handler is
        # held weakly: a strong entry would close a reference cycle that
        # keeps the whole machine alive until a cyclic GC pass.  Whoever
        # owns the syscall object keeps its handler alive.
        self._table[number] = (
            weakref.WeakMethod(handler) if isinstance(handler, MethodType) else handler
        )
        return number

    def _handler(self, number: int) -> Callable[..., object]:
        handler = self._table.get(number)
        if isinstance(handler, weakref.WeakMethod):
            handler = handler()
        if handler is None:
            raise KeyError(f"ENOSYS: no syscall {number}")
        return handler

    def syscall(self, user_ctx: ThreadContext, number: int, *args: object) -> object:
        """Invoke syscall ``number`` from ``user_ctx``.

        Performs the full domain round trip: user → kernel, handler, kernel
        → user, charging switch costs and injecting entry/exit noise.
        """
        handler = self._handler(number)
        record = SyscallRecord(
            number=number, caller=user_ctx.name, cycles_before=self.machine.cycles
        )
        self.machine.advance(SYSCALL_OVERHEAD_CYCLES)
        self.machine.context_switch(self.ctx)
        # The entry path (argument validation) is short; the heavier
        # data-dependent work (fd bookkeeping, accounting, audit) runs on
        # the way out.  The split matters: only pre-handler loads can evict
        # a trained entry before the victim load runs.
        variable = self.machine.params.noise.kernel_variable_ips
        self._run_kernel_path(variable // 2)
        try:
            result = handler(*args)
        finally:
            self._run_kernel_path(variable - variable // 2)
            self.machine.context_switch(user_ctx)
            self.machine.advance(SYSCALL_OVERHEAD_CYCLES)
            record.cycles_after = self.machine.cycles
            self.records.append(record)
        return result

    def _run_kernel_path(self, n_loads: int) -> None:
        """Kernel loads on the syscall entry/exit path.

        Which helper paths run (permission checks, fd lookups, accounting)
        depends on the call's arguments and system state, so these loads hit
        effectively variable IPs — each one a 1/256 chance of clobbering a
        trained entry.  This is the main reason Variant 2's success rate
        trails the pure-user variants (paper §7.2: 91 % vs 97–99 %).
        """
        if n_loads == 0:
            return
        rng = self.machine.rng
        for _ in range(n_loads):
            ip = self.text.base + int(rng.integers(0, 1 << 20))
            line = int(rng.integers(0, self._entry_path.n_lines))
            vaddr = self._entry_path.line_addr(line)
            self.machine.warm_tlb(self.ctx, vaddr)
            self.machine.load(self.ctx, ip, vaddr)


class VulnerableSyscall:
    """The paper's Listing 7 kernel function.

    ``int vulnerable_syscall(void* memory_space)``: an in-kernel secret
    decides an ``if``; the taken path loads from ``memory_space``, which is
    shared with the user (the kernel can always reach user pages, cf.
    ``copy_from_user``).  The branch-guarded load sits at a fixed kernel IP
    — the prefetcher-entry alias target for Variant 2.
    """

    def __init__(
        self,
        kernel: Kernel,
        secret_source: Callable[[], int],
        load_offset: int = 0x4B0,
    ) -> None:
        self.kernel = kernel
        self.machine = kernel.machine
        self.secret_source = secret_source
        self.load_ip = kernel.text.place("vulnerable_syscall_if_load", load_offset)
        self.number = kernel.register(self._handler)
        self._shared_views: dict[int, Buffer] = {}
        self.executions: list[bool] = []

    def share_user_buffer(self, user_buffer: Buffer) -> None:
        """Map the caller-provided memory_space into the kernel's view."""
        view = self.machine.share_buffer(
            user_buffer, self.machine.kernel_space, name="memory_space"
        )
        self._shared_views[id(user_buffer)] = view
        # Kernel mappings of user memory are in steady use; keep them warm.
        self.machine.warm_buffer_tlb(self.kernel.ctx, view)

    def invoke(self, user_ctx: ThreadContext, user_buffer: Buffer, address_line: int) -> int:
        """Call the syscall from user space with a memory_space pointer."""
        if id(user_buffer) not in self._shared_views:
            self.share_user_buffer(user_buffer)
        return int(
            self.kernel.syscall(user_ctx, self.number, user_buffer, address_line)
        )

    def _handler(self, user_buffer: Buffer, address_line: int) -> int:
        view = self._shared_views[id(user_buffer)]
        num = self.secret_source()
        taken = bool(num)
        self.executions.append(taken)
        if taken:
            vaddr = view.line_addr(address_line)
            self.machine.warm_tlb(self.kernel.ctx, vaddr)
            self.machine.load(self.kernel.ctx, self.load_ip, vaddr)
        return 0
