"""Decode-cached dispatch table: one specialised handler per instruction.

The generic operand walk of :class:`~repro.tamarisc.cpu.Core` — a
scratch register copy, per-operand mode dispatch and a :class:`Flags`
allocation per ALU result — is the executable specification of the ISA,
and the single-core ISS's step-by-step mode (:mod:`repro.tamarisc.iss`)
still runs on it.  That genericity costs microseconds per retired
instruction, so every platform execution mode — the exact cycle-stepped
loop of :mod:`repro.platform.multicore` and the fast-forward engine
alike — runs on this module instead.

This module compiles a decoded program once into a list of
:class:`CompiledInstruction` handlers.  Each handler carries two
closures specialised at compile time on the instruction's opcode,
addressing modes and register numbers:

* ``preview(regs) -> (dread_addr, dwrite_addr)`` — the effective
  data-memory addresses the instruction will use, *without* mutating
  architectural state (the fast-path analogue of
  :meth:`Core.data_requests`);
* ``commit(core, dread_value) -> store`` — retire the instruction
  exactly like :meth:`Core.execute`: operand side effects, ALU result,
  flags, PC and the ``(addr, value)`` store tuple (or ``None``).

Semantic equivalence with the generic walk is the load-bearing property:
``tests/tamarisc/test_dispatch_properties.py`` checks every handler
against :class:`Core` instruction by instruction, and the differential
suites in ``tests/platform`` and ``tests/tamarisc`` assert bit-identical
architectural outcomes against the single-core ISS over the ECG
workload and a constrained-random program corpus.  Instructions outside
the single-read/single-write port contract (never produced by the
assembler) fall back to the generic :class:`Core` methods rather than
guessing.
"""

from __future__ import annotations

from repro.tamarisc.cpu import Core, PC_MASK
from repro.tamarisc.isa import (
    ALU_OPS,
    BranchMode,
    Cond,
    DstMode,
    Instruction,
    Op,
    REG_XR,
    SRC_MEM_MODES,
    SrcMode,
    WORD_MASK,
)

_M = WORD_MASK

#: Pointer delta applied by each memory source mode (compile-time).
_SRC_DELTA = {
    SrcMode.IND: 0,
    SrcMode.IND_POSTINC: 1,
    SrcMode.IND_POSTDEC: -1,
    SrcMode.IND_PREINC: 1,
    SrcMode.IND_PREDEC: -1,
    SrcMode.IND_IDX: 0,
}
_SRC_PRE = frozenset({SrcMode.IND_PREINC, SrcMode.IND_PREDEC})


class CompiledInstruction:
    """One instruction's specialised fast-path handlers.

    ``preview`` is ``None`` when the instruction touches no data memory
    (pure ALU/branch/halt), letting callers skip the data-port phase
    entirely.  ``reads_mem``/``writes_mem`` mirror
    :meth:`Instruction.reads_mem`/:meth:`Instruction.writes_mem`.
    """

    __slots__ = ("instr", "preview", "commit", "reads_mem", "writes_mem")

    def __init__(self, instr: Instruction, preview, commit,
                 reads_mem: bool, writes_mem: bool):
        self.instr = instr
        self.preview = preview
        self.commit = commit
        self.reads_mem = reads_mem
        self.writes_mem = writes_mem


def compile_program(decoded: list[Instruction]) -> list[CompiledInstruction]:
    """Compile a decoded program into its dispatch table."""
    return [compile_instruction(instr) for instr in decoded]


def compile_instruction(instr: Instruction) -> CompiledInstruction:
    """Build the specialised handlers for one decoded instruction."""
    op = instr.op
    if op == Op.HLT:
        return CompiledInstruction(instr, None, _commit_hlt, False, False)
    if op == Op.BR:
        return CompiledInstruction(instr, None, _compile_branch(instr),
                                   False, False)

    reads = instr.reads_mem()
    writes = instr.writes_mem()
    n_reads = int(instr.s1mode in SRC_MEM_MODES)
    if op != Op.MOV:
        n_reads += int(instr.s2mode in SRC_MEM_MODES)
    if n_reads > 1:
        # Illegal dual-read instruction: defer to the generic core, which
        # raises the same diagnostics the cycle-stepped path would.
        return CompiledInstruction(instr, _generic_preview(instr),
                                   _generic_commit(instr), reads, writes)

    preview = _compile_preview(instr) if (reads or writes) else None
    commit = _compile_commit(instr)
    return CompiledInstruction(instr, preview, commit, reads, writes)


# ---------------------------------------------------------------------------
# Program flow.
# ---------------------------------------------------------------------------

def _commit_hlt(core, value):
    core.halted = True
    core.retired += 1
    return None


def _compile_branch(instr: Instruction):
    cond = instr.cond
    bmode = instr.bmode
    target = instr.target
    if bmode == BranchMode.DIR:
        taken_pc = target & PC_MASK

        def taken(core):
            core.pc = taken_pc
    elif bmode == BranchMode.REL:
        def taken(core):
            core.pc = (core.pc + target) & PC_MASK
    else:  # BranchMode.IND
        def taken(core):
            core.pc = core.regs[target] & PC_MASK

    if cond == Cond.AL:
        def commit(core, value):
            taken(core)
            core.retired += 1
            return None
        return commit

    holds = _COND_FNS[cond]

    def commit(core, value):
        if holds(core.flags):
            taken(core)
        else:
            core.pc = (core.pc + 1) & PC_MASK
        core.retired += 1
        return None
    return commit


#: One closure per flag-dependent condition mode (Cond.AL handled above).
_COND_FNS = {
    Cond.EQ: lambda f: f.z,
    Cond.NE: lambda f: not f.z,
    Cond.CS: lambda f: f.c,
    Cond.CC: lambda f: not f.c,
    Cond.MI: lambda f: f.n,
    Cond.PL: lambda f: not f.n,
    Cond.VS: lambda f: f.v,
    Cond.VC: lambda f: not f.v,
    Cond.HI: lambda f: f.c and not f.z,
    Cond.LS: lambda f: (not f.c) or f.z,
    Cond.GE: lambda f: f.n == f.v,
    Cond.LT: lambda f: f.n != f.v,
    Cond.GT: lambda f: (not f.z) and f.n == f.v,
    Cond.LE: lambda f: f.z or f.n != f.v,
}


# ---------------------------------------------------------------------------
# Operand access closures.
# ---------------------------------------------------------------------------

def _compile_source(mode: SrcMode, val: int):
    """Value getter ``get(regs, dread_value)`` with pointer side effects.

    Mirrors :meth:`Core._source_value`: memory modes apply their pointer
    update and then consume the loaded word.
    """
    if mode == SrcMode.REG:
        return lambda regs, value: regs[val]
    if mode == SrcMode.IMM:
        return lambda regs, value: val
    if mode in (SrcMode.IND, SrcMode.IND_IDX):
        return lambda regs, value: value & _M
    if mode in (SrcMode.IND_POSTINC, SrcMode.IND_PREINC):
        def get(regs, value):
            regs[val] = (regs[val] + 1) & _M
            return value & _M
        return get

    # IND_POSTDEC / IND_PREDEC
    def get(regs, value):
        regs[val] = (regs[val] - 1) & _M
        return value & _M
    return get


def _compile_dest(instr: Instruction):
    """Result writer ``put(regs, result) -> store`` (after side effects)."""
    dreg = instr.dreg
    dmode = instr.dmode
    if dmode == DstMode.REG:
        def put(regs, result):
            regs[dreg] = result
            return None
    elif dmode == DstMode.IND:
        def put(regs, result):
            return (regs[dreg], result)
    elif dmode == DstMode.IND_POSTINC:
        def put(regs, result):
            addr = regs[dreg]
            regs[dreg] = (addr + 1) & _M
            return (addr, result)
    else:  # DstMode.IND_IDX
        def put(regs, result):
            return ((regs[dreg] + regs[REG_XR]) & _M, result)
    return put


# ---------------------------------------------------------------------------
# Commit compilation.
# ---------------------------------------------------------------------------

def _compile_commit(instr: Instruction):
    op = instr.op
    get1 = _compile_source(instr.s1mode, instr.s1val)
    put = _compile_dest(instr)

    if op == Op.MOV:
        def commit(core, value):
            regs = core.regs
            store = put(regs, get1(regs, value))
            core.pc = (core.pc + 1) & PC_MASK
            core.retired += 1
            return store
        return commit

    get2 = _compile_source(instr.s2mode, instr.s2val)
    if op == Op.ADD:
        def commit(core, value):
            regs = core.regs
            a = get1(regs, value)
            b = get2(regs, value)
            full = a + b
            res = full & _M
            flags = core.flags
            flags.c = full > _M
            flags.v = ~(a ^ b) & (a ^ res) & 0x8000 != 0
            flags.z = res == 0
            flags.n = res & 0x8000 != 0
            store = put(regs, res)
            core.pc = (core.pc + 1) & PC_MASK
            core.retired += 1
            return store
    elif op == Op.SUB:
        def commit(core, value):
            regs = core.regs
            a = get1(regs, value)
            b = get2(regs, value)
            res = (a - b) & _M
            flags = core.flags
            flags.c = a >= b
            flags.v = (a ^ b) & (a ^ res) & 0x8000 != 0
            flags.z = res == 0
            flags.n = res & 0x8000 != 0
            store = put(regs, res)
            core.pc = (core.pc + 1) & PC_MASK
            core.retired += 1
            return store
    elif op in (Op.AND, Op.OR, Op.XOR):
        combine = {Op.AND: lambda a, b: a & b,
                   Op.OR: lambda a, b: a | b,
                   Op.XOR: lambda a, b: a ^ b}[op]

        def commit(core, value):
            regs = core.regs
            res = combine(get1(regs, value), get2(regs, value))
            flags = core.flags
            flags.z = res == 0
            flags.n = res & 0x8000 != 0
            store = put(regs, res)
            core.pc = (core.pc + 1) & PC_MASK
            core.retired += 1
            return store
    elif op == Op.SLL:
        def commit(core, value):
            regs = core.regs
            a = get1(regs, value)
            sh = get2(regs, value) & 15
            res = (a << sh) & _M
            flags = core.flags
            flags.c = bool((a >> (16 - sh)) & 1) if sh else False
            flags.z = res == 0
            flags.n = res & 0x8000 != 0
            store = put(regs, res)
            core.pc = (core.pc + 1) & PC_MASK
            core.retired += 1
            return store
    elif op == Op.SRL:
        def commit(core, value):
            regs = core.regs
            a = get1(regs, value)
            sh = get2(regs, value) & 15
            res = (a >> sh) & _M
            flags = core.flags
            flags.c = bool((a >> (sh - 1)) & 1) if sh else False
            flags.z = res == 0
            flags.n = res & 0x8000 != 0
            store = put(regs, res)
            core.pc = (core.pc + 1) & PC_MASK
            core.retired += 1
            return store
    elif op == Op.MUL:
        def commit(core, value):
            regs = core.regs
            full = get1(regs, value) * get2(regs, value)
            res = full & _M
            flags = core.flags
            flags.v = full > _M
            flags.z = res == 0
            flags.n = res & 0x8000 != 0
            store = put(regs, res)
            core.pc = (core.pc + 1) & PC_MASK
            core.retired += 1
            return store
    else:
        raise ValueError(f"cannot compile opcode {op!r}")
    return commit


# ---------------------------------------------------------------------------
# Preview compilation.
# ---------------------------------------------------------------------------

def _compile_preview(instr: Instruction):
    """Build ``preview(regs) -> (dread_addr, dwrite_addr)``.

    The returned closure replicates :meth:`Core._walk_addresses` without
    a scratch register copy: operand evaluation order is source 1,
    source 2, destination, with pointer side effects of earlier operands
    *virtually* visible to later ones (``MOV`` skips source 2).
    """
    op = instr.op
    src_mode, src_reg = None, None
    if instr.s1mode in SRC_MEM_MODES:
        src_mode, src_reg = instr.s1mode, instr.s1val
    elif op != Op.MOV and instr.s2mode in SRC_MEM_MODES:
        src_mode, src_reg = instr.s2mode, instr.s2val
    dst_mem = instr.dmode != DstMode.REG
    dmode, dreg = instr.dmode, instr.dreg

    if src_mode is None:
        # Write-only preview: no earlier side effects to account for.
        if dmode == DstMode.IND_IDX:
            return lambda regs: (None, (regs[dreg] + regs[REG_XR]) & _M)
        return lambda regs: (None, regs[dreg])

    delta = _SRC_DELTA[src_mode]
    pre = src_mode in _SRC_PRE
    idx = src_mode == SrcMode.IND_IDX
    p = src_reg

    if not dst_mem:
        # Read-only preview.
        if idx:
            return lambda regs: ((regs[p] + regs[REG_XR]) & _M, None)
        if pre:
            return lambda regs: ((regs[p] + delta) & _M, None)
        return lambda regs: (regs[p], None)

    # Read + write: the source's pointer update is visible to the
    # destination's address computation when the registers alias.
    def preview(regs):
        vp = regs[p]
        if pre:
            vp = (vp + delta) & _M
            dread = vp
        elif idx:
            dread = (vp + regs[REG_XR]) & _M
        else:
            dread = vp
            if delta:
                vp = (vp + delta) & _M
        base = vp if dreg == p else regs[dreg]
        if dmode == DstMode.IND_IDX:
            xr = vp if p == REG_XR else regs[REG_XR]
            return dread, (base + xr) & _M
        return dread, base
    return preview


# ---------------------------------------------------------------------------
# Generic fallbacks (illegal dual-read instructions only).
# ---------------------------------------------------------------------------

def _generic_preview(instr: Instruction):
    def preview(regs):
        scratch = list(regs)
        dread = None
        addr = Core._source_address(instr.s1mode, instr.s1val, scratch)
        if addr is not None:
            dread = addr
        if instr.op != Op.MOV:
            addr = Core._source_address(instr.s2mode, instr.s2val, scratch)
            if addr is not None:
                dread = addr
        return dread, Core._dest_address(instr, scratch)
    return preview


def _generic_commit(instr: Instruction):
    return lambda core, value: core.execute(instr, value)


#: ALU opcodes, re-exported for the engine's compile-time sanity checks.
COMPILED_ALU_OPS = ALU_OPS
