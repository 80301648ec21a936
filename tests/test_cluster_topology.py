"""Tests for the rack/leaf-spine topology model and partitions."""

from __future__ import annotations

import pytest

from repro.cluster.partition import PartitionSpec, PartitionTable
from repro.cluster.topology import FabricSpec, Locality, Topology
from repro.errors import ConfigError, UnknownNodeError


@pytest.fixture
def topo():
    return Topology.build(
        {"rack-1": ["a", "b"], "rack-2": ["c", "d"]},
        FabricSpec(node_uplink_gbps=100, leaf_uplink_gbps=400, oversubscription=2.0),
    )


class TestTopologyBuild:
    def test_membership(self, topo):
        assert set(topo.rack_ids) == {"rack-1", "rack-2"}
        assert topo.rack_of("a") == "rack-1"
        assert topo.nodes_in_rack("rack-2") == ("c", "d")

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ConfigError, match="multiple racks"):
            Topology.build({"r1": ["a"], "r2": ["a"]})

    def test_empty_rack_rejected(self):
        with pytest.raises(ConfigError, match="no nodes"):
            Topology.build({"r1": []})

    def test_unknown_node(self, topo):
        with pytest.raises(UnknownNodeError):
            topo.rack_of("ghost")

    def test_unknown_rack(self, topo):
        with pytest.raises(ConfigError):
            topo.nodes_in_rack("rack-9")

    def test_bad_fabric_rejected(self):
        with pytest.raises(ConfigError):
            FabricSpec(node_uplink_gbps=0)


class TestLocality:
    def test_same_node(self, topo):
        assert topo.locality("a", "a") is Locality.SAME_NODE

    def test_same_rack(self, topo):
        assert topo.locality("a", "b") is Locality.SAME_RACK

    def test_cross_rack(self, topo):
        assert topo.locality("a", "c") is Locality.CROSS_RACK

    def test_locality_ordering_near_to_far(self):
        assert Locality.SAME_NODE < Locality.SAME_RACK < Locality.CROSS_RACK

    def test_same_node_unknown_id_still_validated(self, topo):
        with pytest.raises(UnknownNodeError):
            topo.locality("ghost", "ghost")


class TestBandwidthAndLatency:
    def test_same_node_bandwidth_infinite(self, topo):
        assert topo.bandwidth_gbps("a", "a") == float("inf")

    def test_same_rack_gets_full_nic(self, topo):
        assert topo.bandwidth_gbps("a", "b") == 100

    def test_cross_rack_pays_oversubscription(self, topo):
        assert topo.bandwidth_gbps("a", "c") == pytest.approx(100.0)
        tight = Topology.build(
            {"r1": ["a"], "r2": ["b"]},
            FabricSpec(node_uplink_gbps=100, leaf_uplink_gbps=100, oversubscription=4.0),
        )
        assert tight.bandwidth_gbps("a", "b") == pytest.approx(25.0)

    def test_latency_ordering(self, topo):
        assert (
            topo.latency_us("a", "a")
            < topo.latency_us("a", "b")
            < topo.latency_us("a", "c")
        )

    def test_hops(self, topo):
        assert topo.hops("a", "a") == 0
        assert topo.hops("a", "b") == 2
        assert topo.hops("a", "c") == 4


class TestSpread:
    def test_single_node(self, topo):
        assert topo.spread(["a", "a"]) is Locality.SAME_NODE

    def test_single_rack(self, topo):
        assert topo.spread(["a", "b"]) is Locality.SAME_RACK

    def test_cross_rack(self, topo):
        assert topo.spread(["a", "c"]) is Locality.CROSS_RACK

    def test_empty_placement_rejected(self, topo):
        with pytest.raises(ConfigError):
            topo.spread([])

    def test_racks_spanned(self, topo):
        assert topo.racks_spanned(["a", "b", "c"]) == 2


class TestPartitions:
    def spec(self, **kwargs):
        defaults = dict(name="p", node_ids=("a", "b"))
        defaults.update(kwargs)
        return PartitionSpec(**defaults)

    def test_admits_within_limits(self):
        partition = self.spec(max_walltime_hours=24.0, max_gpus_per_job=8)
        assert partition.rejection_reason(8, 24.0, "guaranteed") is None
        assert partition.rejection_reason(9, 1.0, "guaranteed") is not None
        assert partition.rejection_reason(1, 25.0, "guaranteed") is not None

    def test_tier_restriction(self):
        partition = self.spec(allowed_tiers=("guaranteed",))
        assert partition.rejection_reason(1, 1.0, "guaranteed") is None
        assert partition.rejection_reason(1, 1.0, "opportunistic") is not None

    def test_rejection_reason_messages(self):
        partition = self.spec(max_gpus_per_job=4)
        assert "caps jobs" in partition.rejection_reason(8, 1.0, "guaranteed")
        assert partition.rejection_reason(2, 1.0, "guaranteed") is None

    def test_empty_partition_rejected(self):
        with pytest.raises(ConfigError):
            PartitionSpec(name="p", node_ids=())

    def test_table_duplicate_rejected(self):
        table = PartitionTable()
        table.add(self.spec())
        with pytest.raises(ConfigError, match="duplicate"):
            table.add(self.spec())

    def test_table_single_default(self):
        table = PartitionTable()
        table.add(self.spec(name="p1", default=True))
        with pytest.raises(ConfigError, match="only one"):
            table.add(self.spec(name="p2", default=True))
        assert table.default_partition().name == "p1"
        assert table.resolve(None).name == "p1"
        assert table.resolve("p1").name == "p1"

    def test_table_unknown_partition(self):
        table = PartitionTable()
        with pytest.raises(ConfigError, match="unknown partition"):
            table.get("nope")

    def test_table_iteration(self):
        table = PartitionTable()
        table.add(self.spec(name="p1"))
        table.add(self.spec(name="p2"))
        assert len(table) == 2
        assert {p.name for p in table} == {"p1", "p2"}
