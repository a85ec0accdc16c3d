"""End-to-end key recovery from timing-constant RSA via PSC (paper §6.2).

The victim is the Montgomery-ladder engine (MbedTLS shape, Figure 3): both
branch directions perform the same number of multiplies and loads, so the
classic timing attack is blocked — but the operand loads of the two
directions sit at *different IPs*, which AfterImage distinguishes.

Per key bit (Figure 12's timeline):

1. the attacker (re)trains the prefetcher entry aliasing the *if-path* load
   with a private stride, then calls ``sched_yield()``;
2. the victim advances its decryption by one ladder step and yields back;
3. the attacker performs the PSC check: a **miss** on its would-be prefetch
   target means the victim's if-path load rewrote the entry → the key bit
   is 1; a **hit** means the entry survived → bit 0.

Each bit is observed over several decryption passes and majority-voted —
the paper needs at most 5 iterations per bit at PSC's 82 % single-shot
success rate (§7.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channels.psc import PrefetcherStatusCheck
from repro.cpu.machine import Machine
from repro.crypto.primes import RSAKey
from repro.crypto.rsa import TimingConstantLadderVictim
from repro.params import PAGE_SIZE
from repro.utils.bits import low_bits
from repro.utils.rng import derive_rng

#: Wall-clock the artifact observes per observation iteration (≈2.2 s:
#: victim decryption + scheduler synchronization; the paper reports "at
#: most 5 iterations (about 10 seconds) to leak one bit").  Used only to
#: *project* the paper's 188-minute full-key figure; see EXPERIMENTS.md.
ARTIFACT_SECONDS_PER_ITERATION = 2.2


@dataclass
class BitObservation:
    """PSC observations for one key-bit position."""

    bit_index: int
    votes: list[int] = field(default_factory=list)
    latencies: list[int] = field(default_factory=list)
    erasures: int = 0

    @property
    def attempts(self) -> int:
        """Observation iterations spent on this bit (incl. discarded ones)."""
        return len(self.votes) + self.erasures

    @property
    def decided_bit(self) -> int:
        if not self.votes:
            raise ValueError("no usable votes recorded")
        return 1 if sum(self.votes) * 2 >= len(self.votes) else 0


@dataclass
class KeyRecoveryResult:
    """Outcome of a full private-exponent recovery."""

    recovered_bits: list[int]
    true_bits: list[int]
    observations: list[BitObservation]
    passes: int
    simulated_seconds: float

    @property
    def bit_errors(self) -> int:
        return sum(1 for r, t in zip(self.recovered_bits, self.true_bits) if r != t)

    @property
    def exact(self) -> bool:
        return self.bit_errors == 0

    @property
    def recovered_exponent(self) -> int:
        value = 0
        for bit in self.recovered_bits:
            value = (value << 1) | bit
        return value

    def projected_minutes_for_bits(self, n_bits: int = 1024, iters_per_bit: int = 5) -> float:
        """Project the paper's wall-clock using the artifact's per-iteration
        latency (the paper: 1024 bits × ≤5 iterations ≈ 188 minutes)."""
        return n_bits * iters_per_bit * ARTIFACT_SECONDS_PER_ITERATION / 60.0


class TimingConstantRSAAttack:
    """Attacker thread recovering a ladder victim's exponent bit-by-bit."""

    #: Probability that a ``sched_yield()`` hand-off slips a slot and the
    #: victim advances two ladder steps before the attacker's next check.
    #: The attacker detects the slip (the victim's turn visibly lasted two
    #: quanta) and discards the observation for both covered bits.  This is
    #: the dominant noise of the real attack — PSC itself is nearly
    #: deterministic — and calibrates the single-shot success rate to the
    #: paper's 82 % (§7.3), which is why multiple iterations per bit are
    #: needed.
    DEFAULT_SYNC_SLIP_PROB = 0.10

    def __init__(
        self,
        machine: Machine,
        key: RSAKey,
        stride_lines: int = 7,
        sync_slip_prob: float | None = None,
    ) -> None:
        self.machine = machine
        self.key = key
        self.sync_slip_prob = (
            self.DEFAULT_SYNC_SLIP_PROB if sync_slip_prob is None else sync_slip_prob
        )
        self._slip_rng = derive_rng(machine.rng, "rsa-sync")
        space = machine.new_address_space("rsa-process")
        self.victim_ctx = machine.new_thread("rsa-victim", space)
        self.attacker_ctx = machine.new_thread("rsa-attacker")
        operands = machine.new_buffer(space, 4 * PAGE_SIZE, name="rsa-operands")
        code = machine.code_region(0x0040_0000, name="mbedtls-bignum")
        self.victim = TimingConstantLadderVictim(machine, self.victim_ctx, code, operands)

        machine.context_switch(self.attacker_ctx)
        train_buffer = machine.new_buffer(
            self.attacker_ctx.space, 16 * PAGE_SIZE, name="psc-train"
        )
        # The attacker's training IP aliases the victim's if-path load
        # (obtained by objdump in the paper; here from the code region).
        train_ip = 0x0068_0000
        index_bits = machine.params.prefetcher.index_bits
        train_ip += (self.victim.if_load_ip - train_ip) % (1 << index_bits)
        assert low_bits(train_ip, index_bits) == low_bits(self.victim.if_load_ip, index_bits)
        self.psc = PrefetcherStatusCheck(
            machine, self.attacker_ctx, train_ip, train_buffer, stride_lines
        )

    # ------------------------------------------------------------------ #

    def observe_pass(
        self, ciphertext: int, n_bits: int | None = None
    ) -> list[tuple[int | None, int]]:
        """One full decryption with a PSC observation per ladder step.

        Returns ``(vote, latency)`` per bit, MSB first; a vote of ``None``
        is an erasure — the scheduler slipped and the check covered two
        ladder steps, so the attacker discards it.  ``n_bits`` limits the
        observation to the first bits (for figures and quick tests).
        """
        self.machine.context_switch(self.victim_ctx)
        self.victim.start(ciphertext, self.key.d, self.key.n)
        votes: list[tuple[int, int]] = []
        while self.victim.running:
            if n_bits is not None and len(votes) >= n_bits:
                # Let the victim finish without observation.
                self.machine.context_switch(self.victim_ctx)
                self.victim.run_to_completion()
                break
            self.machine.context_switch(self.attacker_ctx)
            with self.machine.span("train"):
                self.psc.train()
            self.machine.context_switch(self.victim_ctx)  # sched_yield()
            steps = 1
            if self._slip_rng.random() < self.sync_slip_prob and self.victim.running:
                # Scheduler slip: the victim gets two slices back-to-back.
                steps = 2
            consumed = 0
            with self.machine.span("victim"):
                for _ in range(steps):
                    if not self.victim.running:
                        break
                    self.victim.step()
                    consumed += 1
            self.machine.context_switch(self.attacker_ctx)  # victim yields back
            with self.machine.span("check"):
                observation = self.psc.check()
            # A slipped observation covers two ladder steps; the attacker
            # notices the double-length victim turn and discards the vote.
            vote: int | None
            if consumed == 1:
                vote = 1 if observation.victim_executed else 0
            else:
                vote = None
            for _ in range(consumed):
                votes.append((vote, observation.latency))
        return votes

    def recover_key_bits(
        self,
        ciphertext: int,
        n_bits: int | None = None,
        passes: int = 3,
        max_passes: int = 11,
        margin: int = 2,
    ) -> KeyRecoveryResult:
        """Majority-vote recovery with adaptive repetition.

        At least ``passes`` decryptions are observed; extra passes (up to
        ``max_passes``) run while any bit's vote lead is below ``margin`` —
        the paper's "multiple iterations per bit are needed because the
        success rate of AfterImage-PSC (82 %) is slightly lower than
        AfterImage-Cache" (§7.3).
        """
        if passes < 1:
            raise ValueError("need at least one pass")
        if max_passes < passes:
            raise ValueError("max_passes must be >= passes")
        start_cycles = self.machine.cycles
        true_bits = self._true_bits(n_bits)
        observations = [BitObservation(bit_index=i) for i in range(len(true_bits))]
        done_passes = 0
        while done_passes < max_passes:
            for obs, (vote, latency) in zip(
                observations, self.observe_pass(ciphertext, n_bits=len(true_bits))
            ):
                if vote is None:
                    obs.erasures += 1
                else:
                    obs.votes.append(vote)
                obs.latencies.append(latency)
            done_passes += 1
            if done_passes >= passes and all(
                obs.votes and abs(2 * sum(obs.votes) - len(obs.votes)) >= margin
                for obs in observations
            ):
                break
        recovered = [obs.decided_bit for obs in observations]
        return KeyRecoveryResult(
            recovered_bits=recovered,
            true_bits=true_bits,
            observations=observations,
            passes=done_passes,
            simulated_seconds=(self.machine.cycles - start_cycles)
            / self.machine.params.frequency_hz,
        )

    def _true_bits(self, n_bits: int | None) -> list[int]:
        d = self.key.d
        bits = [(d >> i) & 1 for i in range(d.bit_length() - 1, -1, -1)]
        if n_bits is not None:
            bits = bits[:n_bits]
        return bits
