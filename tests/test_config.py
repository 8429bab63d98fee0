"""Unit tests for machine configurations (Table 1 and its splits)."""

import pytest

from repro.core.config import (
    ClusterConfig,
    MachineConfig,
    clustered_machine,
    monolithic_machine,
)
from repro.vm.isa import OpClass


class TestMonolithic:
    def test_table1_totals(self):
        config = monolithic_machine()
        assert config.num_clusters == 1
        assert config.cluster.issue_width == 8
        assert config.cluster.int_ports == 8
        assert config.cluster.fp_ports == 4
        assert config.cluster.mem_ports == 4
        assert config.cluster.window_size == 128
        assert config.rob_size == 256
        assert config.name == "1x8w"


class TestClusteredSplits:
    @pytest.mark.parametrize(
        "count,width,window", [(2, 4, 64), (4, 2, 32), (8, 1, 16)]
    )
    def test_equal_division(self, count, width, window):
        config = clustered_machine(count)
        assert config.cluster.issue_width == width
        assert config.cluster.window_size == window
        assert config.total_issue_width == 8
        assert config.total_window_size == 128

    def test_8x1w_rounds_up_fp_and_mem(self):
        # Footnote 1: partial resources round up, so every 1-wide cluster
        # keeps a memory port and an FP unit.
        config = clustered_machine(8)
        assert config.cluster.fp_ports == 1
        assert config.cluster.mem_ports == 1

    def test_4x2w_has_single_mem_port(self):
        config = clustered_machine(4)
        assert config.cluster.mem_ports == 1
        assert config.cluster.fp_ports == 1
        assert config.cluster.int_ports == 2

    def test_names(self):
        assert clustered_machine(4).name == "4x2w"
        assert clustered_machine(8).name == "8x1w"

    def test_forwarding_latency_override(self):
        assert clustered_machine(2, forwarding_latency=4).forwarding_latency == 4

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            clustered_machine(3)

    def test_negative_forwarding_rejected(self):
        with pytest.raises(ValueError):
            clustered_machine(2, forwarding_latency=-1)


class TestClusterConfig:
    def test_ports_for_class(self):
        cluster = ClusterConfig(
            issue_width=2, int_ports=2, fp_ports=1, mem_ports=1, window_size=32
        )
        assert cluster.ports_for(OpClass.INT_ALU) == 2
        assert cluster.ports_for(OpClass.INT_MUL) == 2
        assert cluster.ports_for(OpClass.BRANCH) == 2
        assert cluster.ports_for(OpClass.FP) == 1
        assert cluster.ports_for(OpClass.LOAD) == 1
        assert cluster.ports_for(OpClass.STORE) == 1

    def test_nonpositive_resources_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(
                issue_width=0, int_ports=1, fp_ports=1, mem_ports=1, window_size=16
            )

    def test_rob_must_cover_windows(self):
        with pytest.raises(ValueError):
            MachineConfig(
                clusters=(
                    ClusterConfig(
                        issue_width=8,
                        int_ports=8,
                        fp_ports=4,
                        mem_ports=4,
                        window_size=512,
                    ),
                ),
                rob_size=256,
            )
