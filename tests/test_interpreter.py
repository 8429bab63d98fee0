"""Unit tests for the VM interpreter's architectural semantics."""

import pytest

from repro.vm.assembler import assemble
from repro.vm.interpreter import ExecutionError, run



def trace_of(source, n=10_000, memory=None, regs=None):
    return run(assemble(source), n, initial_memory=memory, initial_regs=regs)


class TestArithmetic:
    def test_add_chain_and_halt(self):
        trace = trace_of("li r1, 5\naddi r1, r1, 3\nhalt")
        assert len(trace) == 3
        assert trace[-1].opcode == "halt"

    def test_loop_iterates_expected_count(self):
        trace = trace_of(
            """
            li r1, 0
            loop:
                addi r1, r1, 1
                cmplti r2, r1, 10
                bne r2, loop
            halt
            """
        )
        adds = [t for t in trace if t.opcode == "addi"]
        assert len(adds) == 10

    def test_zero_register_reads_zero_and_ignores_writes(self):
        trace = trace_of(
            """
            li   r31, 99
            add  r1, r31, r31
            cmpeqi r2, r1, 0
            bne  r2, ok
            halt
            ok:
            halt
            """
        )
        # The branch must be taken (r1 == 0), so we reach the second halt.
        assert trace[3].taken
        assert trace[-1].pc == 5

    def test_zero_register_not_a_dependence_source(self):
        trace = trace_of("add r1, r31, r31\nhalt")
        assert trace[0].srcs == ()

    def test_64bit_wraparound(self):
        trace = trace_of(
            """
            li r1, 1
            slli r1, r1, 63
            slli r1, r1, 1
            cmpeqi r2, r1, 0
            bne r2, ok
            halt
            ok:
            halt
            """
        )
        assert trace[-1].pc == 6

    def test_mul_and_compare(self):
        trace = trace_of(
            """
            li r1, 6
            muli r1, r1, 7
            cmpeqi r2, r1, 42
            bne r2, ok
            halt
            ok: halt
            """
        )
        assert trace[-1].pc == 5


class TestMemory:
    def test_load_returns_stored_value(self):
        trace = trace_of(
            """
            li r1, 123
            li r2, 10
            st r1, 0(r2)
            ld r3, 0(r2)
            cmpeq r4, r3, r1
            bne r4, ok
            halt
            ok: halt
            """
        )
        assert trace[-1].pc == 7

    def test_mem_addr_is_byte_address(self):
        trace = trace_of("li r2, 10\nld r3, 2(r2)\nhalt")
        load = trace[1]
        assert load.mem_addr == 12 * 8

    def test_uninitialized_memory_reads_zero(self):
        trace = trace_of(
            """
            li r2, 500
            ld r3, 0(r2)
            bne r3, bad
            halt
            bad: halt
            """
        )
        assert trace[-1].pc == 3

    def test_initial_memory_visible(self):
        trace = trace_of(
            """
            li r2, 7
            ld r3, 0(r2)
            cmpeqi r4, r3, 55
            bne r4, ok
            halt
            ok: halt
            """,
            memory={7: 55},
        )
        assert trace[-1].pc == 5

    def test_out_of_range_initial_word_faults_naming_it(self):
        for word in (-1, 1 << 16):
            memory = {0: 1, word: 5, 7: 2}
            with pytest.raises(ExecutionError, match=f"word {word}$"):
                trace_of("halt", memory=memory)

    def test_initial_memory_loads_every_word(self):
        from repro.vm.interpreter import MachineState

        state = MachineState(memory_words=16)
        state.load_memory({3: 1.5, 0: 7, 15: -2})
        assert state.memory == {3: 1.5, 0: 7, 15: -2}
        assert list(state.memory) == [3, 0, 15]

    def test_out_of_range_access_faults(self):
        with pytest.raises(ExecutionError):
            trace_of("li r2, 200000\nld r3, 0(r2)\nhalt")


class TestControlFlow:
    def test_taken_branch_records_target(self):
        trace = trace_of("li r1, 1\nbne r1, over\nhalt\nover: halt")
        branch = trace[1]
        assert branch.taken
        assert branch.next_pc == 3

    def test_not_taken_branch_falls_through(self):
        trace = trace_of("li r1, 0\nbne r1, over\nhalt\nover: halt")
        branch = trace[1]
        assert not branch.taken
        assert branch.next_pc == 2

    def test_beq_taken_on_zero(self):
        trace = trace_of("li r1, 0\nbeq r1, over\nhalt\nover: halt")
        assert trace[1].taken

    def test_unconditional_branch_always_taken(self):
        trace = trace_of("br over\nhalt\nover: halt")
        assert trace[0].taken

    def test_max_instructions_truncates(self):
        trace = trace_of("loop: addi r1, r1, 1\nbr loop", n=100)
        assert len(trace) == 100

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            trace_of("halt", n=0)


class TestFloatingPoint:
    def test_fp_roundtrip_through_memory(self):
        trace = trace_of(
            """
            li  r2, 3
            fld f1, 0(r2)
            fmul f2, f1, f1
            fst f2, 10(r2)
            ld  r4, 10(r2)
            halt
            """,
            memory={3: 1.5},
        )
        assert len(trace) == 6

    def test_cvtfi_truncates(self):
        trace = trace_of(
            """
            li  r2, 3
            fld f1, 0(r2)
            cvtfi r4, f1
            cmpeqi r5, r4, 2
            bne r5, ok
            halt
            ok: halt
            """,
            memory={3: 2.75},
        )
        assert trace[-1].pc == 6

    def test_initial_fp_registers(self):
        trace = trace_of(
            """
            cvtfi r4, f0
            cmpeqi r5, r4, 4
            bne r5, ok
            halt
            ok: halt
            """,
            regs={32: 4.5},
        )
        assert trace[-1].pc == 4


class TestTraceRecords:
    def test_indices_are_sequential(self):
        trace = trace_of("li r1, 3\nloop: subi r1, r1, 1\nbne r1, loop\nhalt")
        assert [t.index for t in trace] == list(range(len(trace)))

    def test_dest_none_for_stores_and_branches(self):
        trace = trace_of("li r1, 1\nli r2, 5\nst r1, 0(r2)\nhalt")
        assert trace[2].dest is None
        assert trace[3].dest is None
