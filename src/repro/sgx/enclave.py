"""SGX enclaves on the simulated machine.

Architecturally, an enclave's EPC memory is inaccessible to the outside —
but the microarchitectural structures (caches, TLB, IP-stride prefetcher)
are shared with whatever else runs on the logical core.  The paper exploits
two consequences:

* §4.6: prefetches triggered by enclave loads stay valid after the enclave
  exits, so the untrusted zone can time them;
* §5.4 / Listing 8: an enclave whose loop stride depends on a secret leaks
  that secret through the prefetcher's learned stride.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from types import MethodType

from repro.cpu.context import ThreadContext
from repro.cpu.machine import Machine
from repro.mmu.buffer import Buffer
from repro.params import CACHE_LINE_SIZE

#: EENTER/EEXIT are far more expensive than a syscall.
ECALL_OVERHEAD_CYCLES = 8000

#: Default base of the enclave's measured code image.
ENCLAVE_TEXT_BASE = 0x7F00_0000_0000


class Enclave:
    """An SGX enclave: private address space, ECALL entry points."""

    def __init__(self, machine: Machine, name: str = "enclave") -> None:
        if not machine.params.sgx_supported:
            raise RuntimeError(
                f"machine {machine.params.name} has no SGX support "
                "(the paper runs SGX PoCs on the i7-9700)"
            )
        self.machine = machine
        self.name = name
        self.space = machine.new_address_space(f"{name}-epc")
        self.ctx = ThreadContext(name=name, space=self.space)
        self.text = machine.code_region(ENCLAVE_TEXT_BASE, name=f"{name}-text")
        self._ecalls: dict[str, Callable[..., object] | weakref.WeakMethod] = {}

    def register_ecall(self, name: str, fn: Callable[..., object]) -> None:
        """Expose ``fn`` as an ECALL entry point."""
        if name in self._ecalls:
            raise ValueError(f"ECALL {name!r} already registered")
        # Subclasses register their own methods; holding those strongly
        # would make the enclave (and its machine) a reference cycle that
        # only a cyclic GC pass frees.
        self._ecalls[name] = weakref.WeakMethod(fn) if isinstance(fn, MethodType) else fn

    def ecall(self, caller: ThreadContext, name: str, *args: object) -> object:
        """EENTER from ``caller``, run the ECALL, EEXIT back."""
        fn = self._ecalls.get(name)
        if isinstance(fn, weakref.WeakMethod):
            fn = fn()
        if fn is None:
            raise KeyError(f"no ECALL named {name!r}")
        self.machine.advance(ECALL_OVERHEAD_CYCLES)
        self.machine.context_switch(self.ctx)
        try:
            return fn(*args)
        finally:
            self.machine.context_switch(caller)
            self.machine.advance(ECALL_OVERHEAD_CYCLES)

    def map_untrusted(self, buffer: Buffer, name: str | None = None) -> Buffer:
        """Map an untrusted-zone buffer into the enclave (the ``pms`` arg)."""
        view = self.machine.share_buffer(buffer, self.space, name=name)
        self.machine.warm_buffer_tlb(self.ctx, view)
        return view


class StrideSecretEnclave(Enclave):
    """The paper's Listing 8 / Figure 10 PoC enclave.

    ``sgx_magic``: the secret selects the loop stride (3 vs 5 lines); eight
    strided loads over the caller-provided buffer train the shared
    IP-stride prefetcher, whose footprint the untrusted zone then reads.
    """

    STRIDE_IF_SECRET_SET = 3
    STRIDE_IF_SECRET_CLEAR = 5
    N_TRAIN_LOADS = 8

    def __init__(self, machine: Machine, secret: int, name: str = "sgx-magic") -> None:
        super().__init__(machine, name=name)
        self.secret = secret
        self.load_ip = self.text.place("sgx_magic_loop_load", 0x9E0)
        self.register_ecall("ECALL_MyFunc", self._sgx_magic)
        self._views: dict[int, Buffer] = {}

    def run(self, caller: ThreadContext, buffer: Buffer) -> None:
        """ECALL_MyFunc(*Buffer, LenBuf)."""
        if id(buffer) not in self._views:
            self._views[id(buffer)] = self.map_untrusted(buffer, name="pms->arr")
        self.ecall(caller, "ECALL_MyFunc", self._views[id(buffer)])

    def _sgx_magic(self, view: Buffer) -> None:
        stride = self.STRIDE_IF_SECRET_SET if self.secret else self.STRIDE_IF_SECRET_CLEAR
        for i in range(self.N_TRAIN_LOADS):
            vaddr = view.base + i * stride * CACHE_LINE_SIZE
            self.machine.warm_tlb(self.ctx, vaddr)
            self.machine.load(self.ctx, self.load_ip, vaddr)
