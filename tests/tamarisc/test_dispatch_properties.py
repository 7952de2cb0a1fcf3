"""The compiled dispatch table against the executable spec, per instruction.

Every platform mode — the exact cycle loop and fast-forward alike —
executes through :mod:`repro.tamarisc.dispatch`, so each handler must
agree with :class:`~repro.tamarisc.cpu.Core` on its own: ``preview``
with :meth:`Core.data_requests`, ``commit`` with :meth:`Core.execute`
(registers, flags, PC, halt, ``retired`` and the store tuple, or the
same error).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.tamarisc.cpu import PC_MASK, Core
from repro.tamarisc.dispatch import compile_instruction
from repro.tamarisc.isa import (
    ALU_OPS,
    Flags,
    Instruction,
    SRC_MEM_MODES,
)

from tests.tamarisc.test_encoding import any_instruction, dst_modes, regs

#: 16-bit words, biased to the edges where flags flip (equal operands,
#: sign bit, carry out).
words = st.one_of(st.sampled_from([0, 1, 2, 0x7FFF, 0x8000, 0xFFFF]),
                  st.integers(min_value=0, max_value=0xFFFF))
mem_modes = st.sampled_from(sorted(SRC_MEM_MODES))


@st.composite
def dual_read_instructions(draw):
    """ALU instructions with two memory sources: never assembled or
    decoded, so the dispatch table falls back to the generic walk."""
    return Instruction(
        op=draw(st.sampled_from(sorted(ALU_OPS))),
        dmode=draw(dst_modes), dreg=draw(regs),
        s1mode=draw(mem_modes), s1val=draw(regs),
        s2mode=draw(mem_modes), s2val=draw(regs))


instructions = st.one_of(any_instruction, dual_read_instructions())


def make_core(reg_values, flags, pc):
    core = Core(pid=3, entry=pc)
    core.regs = list(reg_values)
    core.flags = Flags(*flags)
    return core


def snapshot(core):
    return (list(core.regs), core.flags.as_tuple(), core.pc, core.halted,
            core.retired)


def outcome(step):
    try:
        return ("ok", step())
    except SimulationError as exc:
        return ("raised", type(exc), str(exc))


@settings(max_examples=500, deadline=None)
@given(instructions,
       st.lists(words, min_size=16, max_size=16),
       st.tuples(st.booleans(), st.booleans(), st.booleans(),
                 st.booleans()),
       st.integers(min_value=0, max_value=PC_MASK),
       words)
def test_handler_matches_core(instr, reg_values, flags, pc, loaded):
    spec = make_core(reg_values, flags, pc)
    fast = make_core(reg_values, flags, pc)
    handler = compile_instruction(instr)
    assert handler.instr is instr
    assert handler.reads_mem == instr.reads_mem()
    assert handler.writes_mem == instr.writes_mem()

    dread, dwrite = spec.data_requests(instr)
    expected = (dread.addr if dread is not None else None,
                dwrite.addr if dwrite is not None else None)
    if handler.preview is None:
        assert expected == (None, None)
    else:
        assert handler.preview(fast.regs) == expected
    assert snapshot(fast) == snapshot(spec), "preview mutated the core"

    value = loaded if dread is not None else None
    assert outcome(lambda: handler.commit(fast, value)) \
        == outcome(lambda: spec.execute(instr, value))
    assert snapshot(fast) == snapshot(spec)
