"""Functional interpreter: executes a program, emits a dynamic trace.

The interpreter is purely architectural -- it models registers, memory and
control flow, not timing.  Data-dependent branches therefore behave exactly
as the program's data dictates, which is what makes the gshare predictor in
``repro.frontend`` produce genuine (not synthetic) mispredictions.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.vm.assembler import Program
from repro.vm.isa import (
    FP_REG_BASE,
    NUM_REGS,
    OpClass,
    ZERO_REG,
    StaticInstruction,
)
from repro.vm.trace import DynamicInstruction, effective_sources

WORD_BYTES = 8
_INT_MASK = (1 << 64) - 1


class ExecutionError(RuntimeError):
    """Raised when a program faults (bad address, missing halt, runaway)."""


@dataclass
class MachineState:
    """Architectural state: registers and word-addressed memory."""

    memory_words: int = 1 << 16
    regs: list = field(default_factory=lambda: [0] * NUM_REGS)
    memory: dict[int, float] = field(default_factory=dict)

    def read_reg(self, reg: int) -> float:
        if reg == ZERO_REG:
            return 0
        return self.regs[reg]

    def write_reg(self, reg: int, value: float) -> None:
        if reg == ZERO_REG:
            return
        if reg < FP_REG_BASE:
            value = _to_int64(value)
        self.regs[reg] = value

    def read_mem(self, word_addr: int) -> float:
        self._check_addr(word_addr)
        return self.memory.get(word_addr, 0)

    def write_mem(self, word_addr: int, value: float) -> None:
        self._check_addr(word_addr)
        self.memory[word_addr] = value

    def load_memory(self, words: Mapping[int, float]) -> None:
        """``write_mem`` of every word, with the bounds checked once."""
        if words and not (0 <= min(words) and max(words) < self.memory_words):
            for word_addr in words:
                self._check_addr(word_addr)
        self.memory.update(words)

    def _check_addr(self, word_addr: int) -> None:
        if not 0 <= word_addr < self.memory_words:
            raise ExecutionError(f"memory access out of range: word {word_addr}")


def _to_int64(value: float) -> int:
    """Wrap an integer result to signed 64-bit, Alpha style."""
    v = int(value) & _INT_MASK
    if v >= 1 << 63:
        v -= 1 << 64
    return v


def run(
    program: Program,
    max_instructions: int,
    initial_memory: Mapping[int, float] | None = None,
    initial_regs: Mapping[int, float] | None = None,
    memory_words: int = 1 << 16,
) -> list[DynamicInstruction]:
    """Execute ``program`` and return its dynamic trace.

    Execution stops at ``halt`` or after ``max_instructions`` retired
    instructions, whichever comes first.  Kernels are written as outer loops
    so truncation at the limit is a clean sampling of steady-state behaviour.
    """
    return list(
        iter_trace(
            program,
            max_instructions,
            initial_memory=initial_memory,
            initial_regs=initial_regs,
            memory_words=memory_words,
        )
    )


def iter_trace(
    program: Program,
    max_instructions: int,
    initial_memory: Mapping[int, float] | None = None,
    initial_regs: Mapping[int, float] | None = None,
    memory_words: int = 1 << 16,
) -> Iterable[DynamicInstruction]:
    """Generator form of :func:`run`."""
    if max_instructions <= 0:
        raise ValueError("max_instructions must be positive")
    state = MachineState(memory_words=memory_words)
    if initial_memory:
        state.load_memory(initial_memory)
    if initial_regs:
        for reg, value in initial_regs.items():
            state.write_reg(reg, value)

    pc = 0
    for index in range(max_instructions):
        if not 0 <= pc < len(program):
            raise ExecutionError(f"pc {pc} outside program")
        instr = program[pc]
        next_pc, taken, mem_addr = _execute(instr, state, pc)
        yield DynamicInstruction(
            index=index,
            pc=pc,
            opcode=instr.opcode,
            opclass=instr.opclass,
            dest=instr.dest if instr.dest != ZERO_REG else None,
            srcs=effective_sources(instr.srcs),
            is_branch=instr.is_branch,
            is_conditional_branch=instr.is_conditional_branch,
            taken=taken,
            next_pc=next_pc,
            mem_addr=mem_addr,
        )
        if instr.opcode == "halt":
            return
        pc = next_pc


def _execute(
    instr: StaticInstruction, state: MachineState, pc: int
) -> tuple[int, bool, int | None]:
    """Execute one instruction; return (next_pc, branch_taken, mem_byte_addr)."""
    op = instr.opcode
    next_pc = pc + 1
    taken = False
    mem_addr: int | None = None

    if instr.opclass in (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.FP):
        state.write_reg(instr.dest, _alu(op, instr, state))
    elif instr.is_load:
        word = state.read_reg(instr.mem_base) + instr.mem_offset
        mem_addr = int(word) * WORD_BYTES
        state.write_reg(instr.dest, state.read_mem(int(word)))
    elif instr.is_store:
        word = state.read_reg(instr.mem_base) + instr.mem_offset
        mem_addr = int(word) * WORD_BYTES
        state.write_mem(int(word), state.read_reg(instr.srcs[0]))
    elif op == "br":
        taken = True
        next_pc = instr.target
    elif op == "beq":
        taken = state.read_reg(instr.srcs[0]) == 0
        if taken:
            next_pc = instr.target
    elif op == "bne":
        taken = state.read_reg(instr.srcs[0]) != 0
        if taken:
            next_pc = instr.target
    elif op == "halt":
        pass
    else:  # pragma: no cover - opcode table is closed
        raise ExecutionError(f"unimplemented opcode {op}")
    return next_pc, taken, mem_addr


def _alu(op: str, instr: StaticInstruction, state: MachineState) -> float:
    read = state.read_reg
    srcs = instr.srcs
    if op in ("add", "fadd"):
        return read(srcs[0]) + read(srcs[1])
    if op in ("sub", "fsub"):
        return read(srcs[0]) - read(srcs[1])
    if op in ("mul", "fmul"):
        return read(srcs[0]) * read(srcs[1])
    if op == "and":
        return int(read(srcs[0])) & int(read(srcs[1]))
    if op == "or":
        return int(read(srcs[0])) | int(read(srcs[1]))
    if op == "xor":
        return int(read(srcs[0])) ^ int(read(srcs[1]))
    if op == "sll":
        return int(read(srcs[0])) << (int(read(srcs[1])) & 63)
    if op == "srl":
        return int(read(srcs[0])) >> (int(read(srcs[1])) & 63)
    if op == "cmpeq":
        return int(read(srcs[0]) == read(srcs[1]))
    if op == "cmplt":
        return int(read(srcs[0]) < read(srcs[1]))
    if op == "cmple":
        return int(read(srcs[0]) <= read(srcs[1]))
    if op == "addi":
        return read(srcs[0]) + instr.imm
    if op == "subi":
        return read(srcs[0]) - instr.imm
    if op == "muli":
        return read(srcs[0]) * instr.imm
    if op == "andi":
        return int(read(srcs[0])) & instr.imm
    if op == "ori":
        return int(read(srcs[0])) | instr.imm
    if op == "xori":
        return int(read(srcs[0])) ^ instr.imm
    if op == "slli":
        return int(read(srcs[0])) << (instr.imm & 63)
    if op == "srli":
        return int(read(srcs[0])) >> (instr.imm & 63)
    if op == "cmpeqi":
        return int(read(srcs[0]) == instr.imm)
    if op == "cmplti":
        return int(read(srcs[0]) < instr.imm)
    if op == "cmplei":
        return int(read(srcs[0]) <= instr.imm)
    if op == "li":
        return instr.imm
    if op in ("mov", "cvtif", "cvtfi"):
        value = read(srcs[0])
        return int(value) if op == "cvtfi" else value
    raise ExecutionError(f"unimplemented ALU opcode {op}")  # pragma: no cover
