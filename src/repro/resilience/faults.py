"""Deterministic fault model for the multi-core platform.

A *fault plan* is drawn from a campaign seed with the same sha256
discipline the simulation farm uses for shard seeds: trial ``i`` of
campaign seed ``s`` perturbs the machine identically on every engine
(exact / fast-forward / translation-block), worker count and resume
path, which is what lets ``repro regress`` cross-check campaign digests
across execution shapes.

Fault kinds (weights in :func:`draw_fault`):

``reg``
    1-2 bit flips in one architectural register of one core.
``pc``
    1-2 bit flips in one core's program counter.
``dm``
    1-2 bit flips in one physical data-memory word (bank, offset).
``im``
    1-2 bit flips in one 24-bit instruction word.  The patched word is
    re-decoded and re-compiled; an undecodable word becomes a
    :class:`TrapInstruction` whose dispatch handler raises
    :class:`~repro.errors.TrapError` when a core first issues it (the
    hardware analogue is an illegal-instruction trap -> *detected*).
``stuck``
    One core's clock sticks: it holds state, issues no requests and
    stalls forever.  Surviving cores run on; if the stuck core is the
    last one running the sync watchdog trips (*hang*).
``dead``
    One core drops off the platform entirely at the fault cycle
    (graceful-degradation trials remap its ECG leads to survivors).

Injection happens between cycles, at instruction boundaries for the
fast-forward engine (the run loop passes the next fault cycle as a
barrier), so both execution modes mutate identical architectural state
and the bit-identity contract survives injection.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.errors import ReproError, TrapError
from repro.tamarisc.cpu import PC_MASK
from repro.tamarisc.dispatch import CompiledInstruction, compile_instruction
from repro.tamarisc.encoding import decode
from repro.tamarisc.isa import NUM_REGS, WORD_BITS, WORD_MASK

#: Bit widths of the flip targets.
PC_BITS = PC_MASK.bit_length()
IM_BITS = 24
IM_MASK = (1 << IM_BITS) - 1

#: Fault kinds in drawing order (cumulative percent weights).
KIND_WEIGHTS = (("reg", 30), ("pc", 40), ("dm", 65), ("im", 90),
                ("stuck", 95), ("dead", 100))
KINDS = tuple(kind for kind, _ in KIND_WEIGHTS)


def trial_seed(campaign_seed: int, trial: int) -> int:
    """Per-trial seed: sha256 of ``repro-faults:{seed}:{trial}``.

    Same discipline as :func:`repro.farm.jobs.shard_seed`, different
    domain tag so campaigns never collide with farm shards.
    """
    digest = hashlib.sha256(
        f"repro-faults:{campaign_seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    ``index`` is the register number (``reg``), physical bank offset
    (``dm``) or PC (``im``); ``bank`` the physical DM bank (``dm``
    only); ``mask`` the XOR flip mask (flip kinds only).
    """

    kind: str
    cycle: int
    core: int
    index: int = -1
    bank: int = -1
    mask: int = 0

    def describe(self) -> dict:
        out = {"kind": self.kind, "cycle": self.cycle, "core": self.core}
        if self.index >= 0:
            out["index"] = self.index
        if self.bank >= 0:
            out["bank"] = self.bank
        if self.mask:
            out["mask"] = self.mask
        return out


def _draw_mask(rng: random.Random, width: int) -> int:
    """1-bit (75%) or 2-bit (25%) flip mask inside ``width`` bits."""
    nbits = 2 if rng.randrange(4) == 0 else 1
    return sum(1 << b for b in rng.sample(range(width), nbits))


def draw_fault(rng: random.Random, *, n_cores: int, dm_banks: int,
               dm_bank_words: int, program_len: int,
               max_cycle: int) -> FaultSpec:
    """Draw one fault spec (only ``randrange``/``sample`` touch ``rng``,
    keeping the stream identical across Python versions)."""
    r = rng.randrange(100)
    kind = next(k for k, ceil in KIND_WEIGHTS if r < ceil)
    cycle = 1 + rng.randrange(max(1, max_cycle - 1))
    core = rng.randrange(n_cores)
    if kind == "reg":
        return FaultSpec(kind, cycle, core, index=rng.randrange(NUM_REGS),
                         mask=_draw_mask(rng, WORD_BITS))
    if kind == "pc":
        return FaultSpec(kind, cycle, core, mask=_draw_mask(rng, PC_BITS))
    if kind == "dm":
        return FaultSpec(kind, cycle, core, bank=rng.randrange(dm_banks),
                         index=rng.randrange(dm_bank_words),
                         mask=_draw_mask(rng, WORD_BITS))
    if kind == "im":
        return FaultSpec(kind, cycle, core, index=rng.randrange(program_len),
                         mask=_draw_mask(rng, IM_BITS))
    return FaultSpec(kind, cycle, core)  # stuck / dead


@dataclass(frozen=True)
class FaultPlan:
    """The full campaign drawing: one spec tuple per trial."""

    campaign_seed: int
    trials: tuple  # tuple[tuple[FaultSpec, ...], ...]

    def __len__(self) -> int:
        return len(self.trials)


def build_plan(campaign_seed: int, n_trials: int, *, n_cores: int,
               dm_banks: int, dm_bank_words: int, program_len: int,
               max_cycle: int) -> FaultPlan:
    """Draw the deterministic campaign plan (one fault per trial)."""
    trials = []
    for trial in range(n_trials):
        rng = random.Random(trial_seed(campaign_seed, trial))
        trials.append((draw_fault(
            rng, n_cores=n_cores, dm_banks=dm_banks,
            dm_bank_words=dm_bank_words, program_len=program_len,
            max_cycle=max_cycle),))
    return FaultPlan(campaign_seed, tuple(trials))


class TrapInstruction:
    """Decode-trap sentinel planted in the decoded-instruction list.

    The run loop's first touch of an instruction is its dispatch
    handler's ``preview``, called when a core starts the instruction;
    :meth:`handler` builds the entry whose ``preview`` raises, so
    detection costs nothing for every healthy instruction.  Reading
    ``op`` (the generic :class:`~repro.tamarisc.cpu.Core` walk's first
    touch) raises the same error.
    """

    __slots__ = ("word", "pc")

    def __init__(self, word: int, pc: int):
        self.word = word
        self.pc = pc

    def trap(self, regs=None):
        raise TrapError(
            f"decode trap at PC {self.pc:#x}: undecodable word "
            f"{self.word:#08x}")

    @property
    def op(self):
        self.trap()

    def handler(self) -> CompiledInstruction:
        """Dispatch-table entry whose ``preview`` raises the trap."""
        return CompiledInstruction(self, self.trap, None, False, False)


class FaultSession:
    """Applies a trial's fault specs to a live system at the due cycles.

    Passed to :meth:`MultiCoreSystem.run` as ``faults=``; the run loop
    polls :attr:`next_cycle`, calls :meth:`apply_due` at the boundary,
    honours :attr:`stuck_cores`/:attr:`dead_cores` and enforces the
    :attr:`watchdog_window` hang detector.
    """

    def __init__(self, specs, watchdog_window: int = 50_000):
        self.pending = sorted(specs, key=lambda s: (s.cycle, s.core,
                                                    s.kind))
        self.watchdog_window = int(watchdog_window)
        self.stuck_cores: set[int] = set()
        self.dead_cores: set[int] = set()
        self.applied: list[dict] = []
        self._im_words: dict[int, int] = {}

    @property
    def next_cycle(self):
        return self.pending[0].cycle if self.pending else None

    def apply_due(self, system, cycle: int) -> None:
        while self.pending and self.pending[0].cycle <= cycle:
            spec = self.pending.pop(0)
            self._apply(system, spec)
            self.applied.append(spec.describe())

    def _apply(self, system, spec: FaultSpec) -> None:
        if spec.kind == "reg":
            core = system.cores[spec.core]
            core.regs[spec.index] = \
                (core.regs[spec.index] ^ spec.mask) & WORD_MASK
        elif spec.kind == "pc":
            core = system.cores[spec.core]
            core.pc = (core.pc ^ spec.mask) & PC_MASK
        elif spec.kind == "dm":
            storage = system.dmem.banks[spec.bank].storage
            storage[spec.index] = (storage[spec.index] ^ spec.mask) \
                & WORD_MASK
        elif spec.kind == "im":
            self._apply_im(system, spec)
        elif spec.kind == "stuck":
            self.stuck_cores.add(spec.core)
            # The engine assumes every running core makes progress;
            # a stalled-forever core falls outside that contract.
            system._ff_engine = None
        elif spec.kind == "dead":
            self.dead_cores.add(spec.core)
        else:  # pragma: no cover - draw_fault only emits known kinds
            raise ReproError(f"unknown fault kind {spec.kind!r}")

    def _apply_im(self, system, spec: FaultSpec) -> None:
        """Flip bits in one instruction word, re-decode and re-compile it.

        The semantic source of execution is the compiled dispatch table
        (the banked instruction memory only counts accesses), so the
        patch swaps in *fresh copies* of it and of the decoded list —
        the pristine ones are shared through the process-level program
        cache and must never be mutated.  Both engines drop to the exact
        loop from here (it re-reads ``system.compiled`` after every
        injection) so the patched word executes identically in every
        mode.
        """
        pc = spec.index
        word = self._im_words.get(pc)
        if word is None:
            word = system.benchmark.program.words[pc]
        word = (word ^ spec.mask) & IM_MASK
        self._im_words[pc] = word
        try:
            instr = decode(word)
        except ReproError:
            instr = TrapInstruction(word, pc)
            handler = instr.handler()
        else:
            handler = compile_instruction(instr)
        decoded = list(system.decoded)
        decoded[pc] = instr
        system.decoded = decoded
        compiled = list(system.compiled)
        compiled[pc] = handler
        system.compiled = compiled
        system._ff_engine = None
