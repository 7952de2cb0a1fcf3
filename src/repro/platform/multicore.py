"""Cycle-stepped simulator of the 8-core platforms.

Each clock cycle proceeds in two phases:

1. **Request** — every non-halted core presents the memory requests of its
   current instruction: the instruction fetch plus the previewed data read
   and/or data write (TamaRISC's three ports, all usable in one cycle).
   Requests already granted in earlier cycles stay latched and are not
   reissued.
2. **Arbitrate & commit** — the I-Xbar and D-Xbar grant at most one access
   per bank (merging same-address reads into broadcasts).  A core whose
   requests are all satisfied commits its instruction — register/flag/PC
   update and the actual data transfer; a core still missing a grant
   stalls, clock-gated, and retries next cycle ("the requests are served
   alternately while the waiting cores are stalled using clock gating",
   Section III).

Instructions run through the program's compiled dispatch table
(:mod:`repro.tamarisc.dispatch`), the same handlers the fast-forward
engine commits with: ``preview`` yields the data addresses of the request
phase, ``commit`` retires the instruction.  :class:`~repro.tamarisc.cpu.Core`
holds the architectural state and stays the executable specification the
dispatch table is tested against.  Fetch requests come from a per-image
``(pid, pc)`` table built at load time.

Because instruction and data *contents* are deterministic, functional
transfer happens at commit time; the crossbars only decide timing and
count activity.  Addresses are stable across stalls because registers are
frozen while a core stalls (a property test asserts preview == commit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (ConfigurationError, CycleLimitError, HangError,
                          SimulationError)
from repro.interconnect.xbar import Crossbar, port_bit
from repro.memory.banked_memory import BankedMemory
from repro.memory.layout import IMOrganization
from repro.memory.mmu import MMU
from repro.platform.config import ArchConfig, build_config
from repro.platform.fast_forward import FastForwardEngine
from repro.platform.stats import CoreStats, SimulationStats
from repro.tamarisc.blocks import image_hash
from repro.tamarisc.cpu import Core
from repro.tamarisc.dispatch import compile_program
from repro.tamarisc.program import DataImage, Program


class _ProgramArtifacts:
    """Decode/dispatch products of one program image.

    Keyed by content hash in :data:`_PROGRAM_CACHE`: code is immutable,
    so the decoded instruction list, the compiled dispatch table and the
    fetch-request tables can be shared across systems, repeated loads (a
    streamed run re-loads the same program every block) and farm jobs
    inside one worker process.  All are read-only after construction
    (fault injection patches copies).
    """

    __slots__ = ("decoded", "_compiled", "_fetch")

    def __init__(self, decoded):
        self.decoded = decoded
        self._compiled = None
        self._fetch = {}

    def compiled(self):
        if self._compiled is None:
            self._compiled = compile_program(self.decoded)
        return self._compiled

    def fetch_requests(self, layout, n_cores: int):
        """I-Xbar requests ``rows[pid][pc] = (pid, bank, offset, False)``
        of every instruction, built once per IM geometry."""
        key = (layout, n_cores)
        rows = self._fetch.get(key)
        if rows is None:
            pcs = range(len(self.decoded))
            rows = [[(pid, *layout.locate(pid, pc), False) for pc in pcs]
                    for pid in range(n_cores)]
            self._fetch[key] = rows
        return rows


#: Process-level program cache: ``image_hash -> _ProgramArtifacts``.
_PROGRAM_CACHE: dict[str, _ProgramArtifacts] = {}

#: Decode-cache traffic (same contract as
#: :func:`repro.tamarisc.blocks.cache_stats`: process-level, purely
#: diagnostic, never feeds a digest).
_PROGRAM_CACHE_STATS = {"program_hits": 0, "program_misses": 0}


def program_artifacts(program: Program) -> tuple[str, _ProgramArtifacts]:
    """The cached decode/dispatch artifacts for ``program``.

    Returns ``(image_hash, artifacts)``.  Farm workers call this to
    warm the decode table once per process; :meth:`MultiCoreSystem.load`
    goes through it on every load.
    """
    img = image_hash(program.words)
    artifacts = _PROGRAM_CACHE.get(img)
    if artifacts is None:
        artifacts = _ProgramArtifacts(program.decoded())
        _PROGRAM_CACHE[img] = artifacts
        _PROGRAM_CACHE_STATS["program_misses"] += 1
    else:
        _PROGRAM_CACHE_STATS["program_hits"] += 1
    return img, artifacts


def program_cache_clear() -> None:
    """Drop the decode/dispatch cache (tests, cold-cache measurements)."""
    _PROGRAM_CACHE.clear()


def program_cache_size() -> int:
    return len(_PROGRAM_CACHE)


def program_cache_stats() -> dict:
    """Snapshot of the decode-cache traffic counters."""
    return dict(_PROGRAM_CACHE_STATS)

#: Instruction words are 24-bit.
_INSTR_MASK = 0xFFFFFF

#: Process-wide default for ``MultiCoreSystem(..., fast_forward=None)``;
#: flipped by the CLI's ``--fast-forward`` flag so every experiment
#: benefits without threading the option through each call site.
_DEFAULT_FAST_FORWARD = False


def set_default_fast_forward(enabled: bool) -> None:
    """Set the process-wide default for the fast-forward execution mode."""
    global _DEFAULT_FAST_FORWARD
    _DEFAULT_FAST_FORWARD = bool(enabled)


#: Process-wide default for the fast-forward engine's translation-block
#: layer (:mod:`repro.tamarisc.blocks`).  On by default — blocks carry
#: the same bit-identity contract as the engine itself; the CLI's
#: ``--no-blocks`` escape hatch flips this off.
_DEFAULT_TRANSLATION_BLOCKS = True


def set_default_translation_blocks(enabled: bool) -> None:
    """Set the process-wide default for the translation-block layer."""
    global _DEFAULT_TRANSLATION_BLOCKS
    _DEFAULT_TRANSLATION_BLOCKS = bool(enabled)


@dataclass
class Benchmark:
    """A complete workload: one program image plus initial data."""

    name: str
    program: Program
    data: DataImage
    #: free-form metadata (expected outputs, op counts, ...)
    meta: dict = field(default_factory=dict)


@dataclass
class SimulationResult:
    """Outcome of one run: statistics plus the final machine for inspection."""

    benchmark: Benchmark
    stats: SimulationStats
    system: "MultiCoreSystem"


class _Attempt:
    """Book-keeping for one core's in-flight instruction.

    ``instr`` is its dispatch-table handler (``None`` at an instruction
    boundary); ``dr_req``/``dw_req`` its D-Xbar requests
    ``(pid, bank, offset, write)`` (``None`` for an absent port), kept
    after their grant for the commit; ``need_*`` the ports still waiting
    for a grant.
    """

    __slots__ = ("instr", "need_if", "need_dr", "need_dw", "dr_req",
                 "dw_req", "fetch_pc")

    def __init__(self):
        self.instr = None
        self.need_if = False
        self.need_dr = False
        self.need_dw = False
        self.dr_req = None
        self.dw_req = None
        self.fetch_pc = 0


class MultiCoreSystem:
    """One platform instance: cores, MMUs, crossbars and memories.

    The exact cycle-stepped loop of :meth:`run` executes through the
    program's compiled dispatch table (see the module docstring).
    ``fast_forward`` enables the conflict-free fast-forward execution
    mode (:mod:`repro.platform.fast_forward`): provably conflict-free
    cycles are batch-committed through the same dispatch table, falling
    back to the exact loop whenever a potential bank conflict is
    detected.  Results — architectural state and every
    :class:`SimulationStats` field — are bit-identical in either mode
    (the differential suite in ``tests/platform`` enforces this).
    ``None`` defers to the process default (see
    :func:`set_default_fast_forward`).

    ``translation_blocks`` additionally routes lockstep stretches of the
    fast path through cached basic-block translations
    (:mod:`repro.tamarisc.blocks`); it only takes effect together with
    ``fast_forward`` and carries the identical bit-identity contract.
    ``None`` defers to the process default (see
    :func:`set_default_translation_blocks`).
    """

    def __init__(self, config: ArchConfig | str,
                 fast_forward: bool | None = None,
                 translation_blocks: bool | None = None):
        if isinstance(config, str):
            config = build_config(config)
        self.config = config
        if fast_forward is None:
            fast_forward = _DEFAULT_FAST_FORWARD
        if translation_blocks is None:
            translation_blocks = _DEFAULT_TRANSLATION_BLOCKS
        self.fast_forward = bool(fast_forward)
        self.translation_blocks = bool(translation_blocks)
        #: Loop-trace layer switch (set before :meth:`load`/:meth:`run`).
        #: Traces never run observed anyway; disabling them outright
        #: gives the overhead benchmark a bare run of the observed
        #: shape to compare against.
        self.loop_traces = True
        self._ff_engine: FastForwardEngine | None = None
        self.im_layout = config.im_layout()
        self.dm_layout = config.dm_layout()
        self.cores = [Core(pid=i) for i in range(config.n_cores)]
        self.mmus = [MMU(i, self.dm_layout) for i in range(config.n_cores)]
        self.imem = BankedMemory(config.im_banks, config.im_bank_words,
                                 name="IM", word_mask=_INSTR_MASK)
        self.dmem = BankedMemory(config.dm_banks, config.dm_bank_words,
                                 name="DM")
        self.ixbar = Crossbar(config.n_cores, config.im_banks,
                              broadcast=config.instr_broadcast, name="I-Xbar")
        self.dxbar = Crossbar(config.n_cores, config.dm_banks,
                              broadcast=config.data_broadcast, name="D-Xbar")
        self.decoded = []
        #: Dispatch table of the loaded program (a patched copy after an
        #: IM fault) and the per-core fetch requests of every PC.
        self.compiled = []
        self._im_fetch = []
        self.benchmark: Benchmark | None = None
        self._dreads_committed = 0
        self._dwrites_committed = 0
        #: Probe bus (:mod:`repro.obs.probes`), lazily created by
        #: :meth:`probe_bus`.  ``None`` — the common case — keeps the
        #: run loop on its zero-instrumentation path.
        self.probes = None

    def probe_bus(self):
        """The system's :class:`~repro.obs.probes.ProbeBus` (created on
        first use).  Subscribe before :meth:`run`; an attached bus with
        no subscribers costs nothing measurable."""
        if self.probes is None:
            from repro.obs.probes import ProbeBus
            self.probes = ProbeBus()
        return self.probes

    # -- loading ------------------------------------------------------------------

    def load(self, benchmark: Benchmark) -> None:
        """Load program and data images; applies IM power gating."""
        program = benchmark.program
        if len(program) == 0:
            raise ConfigurationError("empty program")
        layout = self.im_layout
        if self.config.im_org == IMOrganization.PRIVATE:
            if len(program) > self.config.im_bank_words:
                raise ConfigurationError(
                    "program exceeds a private IM bank")
            for bank in range(self.config.im_banks):
                self.imem.load(bank, 0, program.words)
        else:
            if len(program) > layout.total_words:
                raise ConfigurationError("program exceeds instruction memory")
            for pc, word in enumerate(program.words):
                bank, offset = layout.locate(0, pc)
                self.imem.load(bank, offset, [word])
        if self.config.im_power_gating:
            used = {layout.locate(0, pc)[0] for pc in range(len(program))}
            self.imem.gate_unused(used)

        for logical, value in benchmark.data.shared.items():
            bank, offset = self.dm_layout.translate(0, logical)
            self.dmem.load(bank, offset, [value])
        for core, image in benchmark.data.private.items():
            for logical, value in image.items():
                bank, offset = self.dm_layout.translate(core, logical)
                self.dmem.load(bank, offset, [value])

        img_hash, artifacts = program_artifacts(program)
        self.decoded = artifacts.decoded
        self.compiled = artifacts.compiled()
        self._im_fetch = artifacts.fetch_requests(layout,
                                                  self.config.n_cores)
        for core in self.cores:
            core.reset(entry=program.entry)
        # A load starts a fresh measurement window (streaming runs load
        # one block after another on the same machine).
        self.ixbar.reset()
        self.dxbar.reset()
        self.imem.reset_counters()
        self.dmem.reset_counters()
        for mmu in self.mmus:
            mmu.translations = 0
            mmu.private_accesses = 0
            mmu.shared_accesses = 0
        self._dreads_committed = 0
        self._dwrites_committed = 0
        if self.fast_forward:
            self._ff_engine = FastForwardEngine(
                self, self.compiled,
                decoded=self.decoded,
                img_hash=img_hash,
                translation_blocks=self.translation_blocks,
                loop_traces=self.loop_traces)
        else:
            self._ff_engine = None
        self.benchmark = benchmark

    # -- inspection helpers ----------------------------------------------------------

    def read_logical(self, core: int, logical: int) -> int:
        """Read one data word through a core's address map (no counting)."""
        bank, offset = self.dm_layout.translate(core, logical)
        return self.dmem.peek(bank, offset)

    def read_logical_block(self, core: int, base: int, count: int) -> list[int]:
        return [self.read_logical(core, base + i) for i in range(count)]

    def block_summary(self):
        """Translation-block statistics of the last run (``None`` when
        the fast-forward engine never attached)."""
        engine = self._ff_engine
        return engine.block_summary() if engine is not None else None

    # -- simulation --------------------------------------------------------------------

    def run(self, benchmark: Benchmark | None = None,
            max_cycles: int = 20_000_000, faults=None) -> SimulationResult:
        """Run until every core executed HLT (or ``max_cycles`` elapse).

        ``faults`` (a :class:`repro.resilience.faults.FaultSession`)
        injects architectural faults at chosen cycles.  The injection
        points sit between cycles — the fast-forward engine is given
        the next fault cycle as a barrier, so both execution modes
        mutate the same architectural state at the same boundary and
        the bit-identity contract survives injection.
        """
        if benchmark is not None:
            self.load(benchmark)
        if self.benchmark is None:
            raise ConfigurationError("no benchmark loaded")

        n = self.config.n_cores
        cores = self.cores
        mmus = self.mmus
        compiled = self.compiled
        program_len = len(compiled)
        fetch = self._im_fetch
        ixbar = self.ixbar
        dxbar = self.dxbar
        ixbar_grant = ixbar.grant
        dxbar_grant = dxbar.grant
        dm_store = [bank.storage for bank in self.dmem.banks]
        # Each core's read and write port bits in the crossbars' grant
        # masks.
        read_bit = [port_bit(pid, False) for pid in range(n)]
        write_bit = [port_bit(pid, True) for pid in range(n)]
        dreads = dwrites = 0
        core_stats = [CoreStats() for _ in range(n)]
        attempts = [_Attempt() for _ in range(n)]
        running = set(range(n))

        engine = self._ff_engine

        # Observability wiring.  With no subscriber (the common case)
        # this costs one attribute load and the per-cycle/per-event
        # local-boolean checks below — measured <2 % end-to-end by
        # benchmarks/bench_obs_overhead.py.  For each hot event the bus
        # either grants the raw-append ring fast path (batch-only
        # subscribers: ap_* is a bound list.append) or falls back to
        # per-event emit; both are hoisted once per run.
        bus = self.probes
        observing = bus is not None and bus.active
        p_retire = p_stall = p_win = hooked_mmus = False
        ap_retire = ap_stall = mk_retire = mk_stall = None
        rt_ring = rt_data = rt_marks = st_data = None
        # Open retire-ring segment: its stride and the next cycle it
        # covers (see the marking after arbitration below).
        rt_stride = rt_next = 0
        win = 0
        if observing:
            p_retire = bus.wants("core.retire")
            p_stall = bus.wants("core.stall")
            # Telemetry windowing (repro.obs.telemetry): cross a
            # boundary -> flush the rings (so no batch spans it), then
            # emit the boundary snapshot.  Both conditions hoisted; the
            # fast-forward engine applies the same protocol.
            win = bus.window_cycles
            p_win = win > 0 and bus.wants("telemetry.window")
            if p_retire:
                ring = bus.batch("core.retire")
                if ring is not None:
                    ap_retire = ring.data.append
                    mk_retire = ring.marks.append
                    rt_ring = ring
                    rt_data = ring.data
                    rt_marks = ring.marks
            if p_stall:
                ring = bus.batch("core.stall")
                if ring is not None:
                    ap_stall = ring.data.append
                    mk_stall = ring.marks.append
                    st_data = ring.data
            if bus.wants("ixbar.conflict"):
                ring = bus.batch("ixbar.conflict")
                if ring is not None:
                    ixbar.probe_conflict = (
                        lambda bank, masters, _ap=ring.data.append:
                        _ap(bus.now))
                else:
                    ixbar.probe_conflict = (
                        lambda bank, masters:
                        bus.emit("ixbar.conflict", bus.now, bank, masters))
            if bus.wants("dxbar.conflict"):
                ring = bus.batch("dxbar.conflict")
                if ring is not None:
                    dxbar.probe_conflict = (
                        lambda bank, masters, _ap=ring.data.append:
                        _ap(bus.now))
                else:
                    dxbar.probe_conflict = (
                        lambda bank, masters:
                        bus.emit("dxbar.conflict", bus.now, bank, masters))
            if bus.wants("im.broadcast"):
                ring = bus.batch("im.broadcast")
                if ring is not None:
                    ixbar.probe_broadcast = (
                        lambda bank, width, _ap=ring.data.append:
                        _ap(width))
                else:
                    ixbar.probe_broadcast = (
                        lambda bank, width:
                        bus.emit("im.broadcast", bus.now, bank, width))
            if bus.wants("dm.broadcast"):
                ring = bus.batch("dm.broadcast")
                if ring is not None:
                    dxbar.probe_broadcast = (
                        lambda bank, width, _ap=ring.data.append:
                        _ap(width))
                else:
                    dxbar.probe_broadcast = (
                        lambda bank, width:
                        bus.emit("dm.broadcast", bus.now, bank, width))
            if bus.wants("mmu.translate"):
                hooked_mmus = True
                ring = bus.batch("mmu.translate")
                if ring is not None:
                    for mmu in mmus:
                        mmu.probe_ring = ring.data
                else:
                    def mmu_probe(pid, logical, bank, offset, private):
                        bus.emit("mmu.translate", bus.now, pid, logical,
                                 bank, offset, private)
                    for mmu in mmus:
                        mmu.probe = mmu_probe

        cycle = 0
        sync_cycles = 0
        # Fault-injection hooks: ``fault_next`` is the next cycle an
        # injection is due (a barrier for the fast-forward engine),
        # ``stuck`` the live set of clock-stuck cores, ``watchdog`` the
        # hang window (cycles without a single commit fleet-wide).
        fault_next = faults.next_cycle if faults is not None else None
        stuck = faults.stuck_cores if faults is not None else None
        watchdog = faults.watchdog_window if faults is not None else 0
        last_progress = 0
        try:
            while running:
                if fault_next is not None and cycle >= fault_next:
                    faults.apply_due(self, cycle)
                    fault_next = faults.next_cycle
                    # Injection may have swapped the program image or
                    # disabled the engine; refresh the hoisted locals.
                    engine = self._ff_engine
                    compiled = self.compiled
                    program_len = len(compiled)
                    for pid in sorted(faults.dead_cores):
                        if pid in running:
                            core_stats[pid].halted_at = cycle
                            attempts[pid] = _Attempt()
                            running.discard(pid)
                    last_progress = cycle
                    if not running:
                        break
                if engine is not None:
                    # The engine needs every running core at an instruction
                    # boundary (no latched partial grants); mid-stall cycles
                    # stay on the exact path below.
                    for pid in running:
                        if attempts[pid].instr is not None:
                            break
                    else:
                        cycle, sync_cycles = engine.advance(
                            running, attempts, core_stats, cycle,
                            sync_cycles, max_cycles, fault_next)
                        last_progress = cycle
                        rt_next = -1  # the engine wrote its own marks
                        if not running:
                            break
                        if fault_next is not None and cycle >= fault_next:
                            continue  # inject at the boundary, re-enter
                if cycle >= max_cycles:
                    raise CycleLimitError(
                        f"benchmark {self.benchmark.name!r} did not finish "
                        f"within {max_cycles} cycles on {self.config.name}")
                cycle += 1
                if observing:
                    if not (cycle & 0x3FFF):
                        bus.flush()  # bound ring memory on long runs
                    bus.now = cycle - 1

                im_requests = []
                dm_requests = []
                # Sync cycle: every running core fetches the same PC.
                lockstep = len(running) > 1
                sync_pc = -1
                for pid in running:
                    if stuck and pid in stuck:
                        # Clock-stuck: the core holds its state, issues
                        # nothing, and stalls (never a lockstep member).
                        core_stats[pid].stall_cycles += 1
                        lockstep = False
                        continue
                    attempt = attempts[pid]
                    if attempt.instr is None:
                        self._new_attempt(cores[pid], attempt, mmus[pid],
                                          compiled, program_len)
                    if attempt.need_if:
                        pc = attempt.fetch_pc
                        im_requests.append(fetch[pid][pc])
                        if sync_pc != pc:
                            if sync_pc >= 0:
                                lockstep = False
                            sync_pc = pc
                    else:
                        lockstep = False  # mid-instruction: no lockstep
                    if attempt.need_dr:
                        dm_requests.append(attempt.dr_req)
                    if attempt.need_dw:
                        dm_requests.append(attempt.dw_req)
                if lockstep:
                    sync_cycles += 1

                granted_im = ixbar_grant(im_requests) if im_requests else 0
                granted_dm = dxbar_grant(dm_requests) if dm_requests else 0
                # Every request granted (each owns one mask bit): no
                # core stalls, so the per-port bookkeeping is skipped.
                all_granted = \
                    granted_im.bit_count() == len(im_requests) \
                    and granted_dm.bit_count() == len(dm_requests)
                retire_each = p_retire
                if observing:
                    now = cycle - 1
                    if all_granted:
                        if mk_retire is not None:
                            # Every non-stuck core retires: one stride
                            # mark covers a run of such cycles, and a
                            # lockstep cycle stores its shared PC once
                            # (run-length form), as the fast-forward
                            # engine does.
                            if lockstep:
                                stride = -len(running)
                            elif stuck:
                                stride = len(running - stuck)
                            else:
                                stride = len(running)
                            if now != rt_next or stride != rt_stride \
                                    or not rt_marks:  # flushed since
                                mk_retire(now)
                                mk_retire(len(rt_data))
                                mk_retire(stride)
                                rt_stride = stride
                                if lockstep:
                                    rt_ring.rle = True
                            rt_next = cycle
                            if lockstep:
                                ap_retire(sync_pc)
                                retire_each = False
                    else:
                        # Stalls: one (cycle, start_offset, 0) mark per
                        # ring; a cycle's events follow its mark.
                        if mk_retire is not None:
                            mk_retire(now)
                            mk_retire(len(rt_data))
                            mk_retire(0)
                            rt_next = -1
                        if mk_stall is not None:
                            mk_stall(now)
                            mk_stall(len(st_data))
                            mk_stall(0)

                halted_now = []
                for pid in running:
                    if stuck and pid in stuck:
                        continue
                    attempt = attempts[pid]
                    if not all_granted:
                        if attempt.need_if and granted_im & read_bit[pid]:
                            attempt.need_if = False
                        if attempt.need_dr and granted_dm & read_bit[pid]:
                            attempt.need_dr = False
                        if attempt.need_dw and granted_dm & write_bit[pid]:
                            attempt.need_dw = False
                        if attempt.need_if or attempt.need_dr \
                                or attempt.need_dw:
                            core_stats[pid].stall_cycles += 1
                            if p_stall:
                                if ap_stall is not None:
                                    ap_stall(attempt.fetch_pc)
                                else:
                                    bus.emit("core.stall", cycle - 1, pid,
                                             attempt.fetch_pc)
                            continue
                    if retire_each:
                        if ap_retire is not None:
                            ap_retire(attempt.fetch_pc)
                        else:
                            bus.emit("core.retire", cycle - 1, pid,
                                     attempt.fetch_pc)
                    # Commit: data read, retire, data write.
                    core = cores[pid]
                    request = attempt.dr_req
                    if request is None:
                        value = None
                    else:
                        value = dm_store[request[1]][request[2]]
                        dreads += 1
                    store = attempt.instr.commit(core, value)
                    if store is not None:
                        request = attempt.dw_req
                        dm_store[request[1]][request[2]] = store[1] & 0xFFFF
                        dwrites += 1
                    attempt.instr = None
                    last_progress = cycle
                    if core.halted:
                        core_stats[pid].halted_at = cycle
                        halted_now.append(pid)
                for pid in halted_now:
                    running.discard(pid)
                if watchdog and cycle - last_progress >= watchdog:
                    raise HangError(
                        f"sync watchdog: no core retired for {watchdog} "
                        f"cycles (cycle {cycle}) on {self.config.name}")
                if p_win and not cycle % win:
                    bus.flush()
                    bus.emit("telemetry.window", cycle, False, sync_cycles,
                             tuple(core.retired for core in cores),
                             tuple(cs.stall_cycles for cs in core_stats))
        finally:
            self._dreads_committed += dreads
            self._dwrites_committed += dwrites
            if observing:
                ixbar.probe_conflict = ixbar.probe_broadcast = None
                dxbar.probe_conflict = dxbar.probe_broadcast = None
                if hooked_mmus:
                    for mmu in mmus:
                        mmu.probe = None
                        mmu.probe_ring = None
                bus.flush()

        if p_win:
            # Final (possibly partial) window; doubles as the run
            # separator for streaming consumers.  The finally block
            # above already flushed, so every ring event precedes it.
            bus.emit("telemetry.window", cycle, True, sync_cycles,
                     tuple(core.retired for core in cores),
                     tuple(cs.stall_cycles for cs in core_stats))
        return SimulationResult(
            benchmark=self.benchmark,
            stats=self._collect_stats(cycle, sync_cycles, core_stats),
            system=self,
        )

    def _new_attempt(self, core: Core, attempt: _Attempt, mmu: MMU,
                     compiled, program_len: int) -> None:
        pc = core.pc
        if pc >= program_len:
            raise SimulationError(
                f"core {core.pid} ran off the program at PC {pc:#x}")
        handler = compiled[pc]
        preview = handler.preview
        attempt.instr = handler
        attempt.fetch_pc = pc
        attempt.need_if = True
        if preview is None:
            attempt.need_dr = attempt.need_dw = False
            attempt.dr_req = attempt.dw_req = None
            return
        dread, dwrite = preview(core.regs)
        pid = core.pid
        if dread is None:
            attempt.need_dr = False
            attempt.dr_req = None
        else:
            attempt.need_dr = True
            attempt.dr_req = (pid, *mmu.translate(dread), False)
        if dwrite is None:
            attempt.need_dw = False
            attempt.dw_req = None
        else:
            attempt.need_dw = True
            attempt.dw_req = (pid, *mmu.translate(dwrite), True)

    def _collect_stats(self, cycles: int, sync_cycles: int,
                       core_stats: list[CoreStats]) -> SimulationStats:
        for pid, stats in enumerate(core_stats):
            stats.retired = self.cores[pid].retired
        ix, dx = self.ixbar.stats, self.dxbar.stats
        stats = SimulationStats(
            arch=self.config.name,
            total_cycles=cycles,
            cores=core_stats,
            im_bank_accesses=ix.bank_accesses,
            im_fetches=ix.deliveries,
            im_broadcasts=ix.broadcasts,
            im_broadcast_savings=ix.broadcast_savings,
            im_conflict_events=ix.conflict_events,
            im_stalled_requests=ix.stalls,
            im_bank_transitions=ix.total_bank_transitions,
            im_banks_used=self.im_layout.banks_used(
                len(self.decoded), self.config.n_cores),
            im_banks_gated=len(self.imem.gated_banks),
            dm_bank_accesses=dx.bank_accesses,
            dm_broadcasts=dx.broadcasts,
            dm_broadcast_savings=dx.broadcast_savings,
            dm_conflict_events=dx.conflict_events,
            dm_stalled_requests=dx.stalls,
            dm_private_accesses=sum(m.private_accesses for m in self.mmus),
            dm_shared_accesses=sum(m.shared_accesses for m in self.mmus),
            sync_cycles=sync_cycles,
        )
        stats.dm_reads_delivered = self._dreads_committed
        stats.dm_writes_delivered = self._dwrites_committed
        return stats


def build_platform(name_or_config, fast_forward: bool | None = None,
                   translation_blocks: bool | None = None,
                   **overrides) -> MultiCoreSystem:
    """Construct a platform by name ("mc-ref", "ulpmc-int", "ulpmc-bank")
    or from an explicit :class:`ArchConfig`."""
    if isinstance(name_or_config, ArchConfig):
        if overrides:
            raise ConfigurationError(
                "pass overrides with a name, not a config object")
        return MultiCoreSystem(name_or_config, fast_forward=fast_forward,
                               translation_blocks=translation_blocks)
    return MultiCoreSystem(build_config(name_or_config, **overrides),
                           fast_forward=fast_forward,
                           translation_blocks=translation_blocks)


#: Alias matching the name used in project documentation.
MulticoreSimulator = MultiCoreSystem
