"""Tests for repro.target: CPU-ID partitioning into emulated nodes."""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.memories.config import CacheNodeConfig
from repro.target.configs import (
    multi_config_machine,
    single_node_machine,
    split_smp_machine,
)
from repro.target.mapping import TargetMachine, TargetNodeSpec

CFG = CacheNodeConfig.create("2MB", procs_per_node=4)


class TestNodeSpec:
    def test_cpu_count_must_match_config(self):
        with pytest.raises(ConfigurationError, match="declares"):
            TargetNodeSpec(config=CFG, cpus=(0, 1))

    def test_duplicate_cpus_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            TargetNodeSpec(config=CFG, cpus=(0, 1, 2, 2))

    def test_empty_cpus_rejected(self):
        with pytest.raises(ConfigurationError):
            TargetNodeSpec(config=CFG, cpus=())

    def test_negative_cpu_rejected(self):
        with pytest.raises(ConfigurationError):
            TargetNodeSpec(config=CFG, cpus=(-1, 1, 2, 3))


class TestTargetMachine:
    def test_overlap_within_group_rejected(self):
        spec = TargetNodeSpec(config=CFG, cpus=(0, 1, 2, 3), group=0)
        with pytest.raises(ConfigurationError, match="same coherence group"):
            TargetMachine(nodes=[spec, spec])

    def test_overlap_across_groups_allowed(self):
        a = TargetNodeSpec(config=CFG, cpus=(0, 1, 2, 3), group=0)
        b = TargetNodeSpec(config=CFG, cpus=(0, 1, 2, 3), group=1)
        machine = TargetMachine(nodes=[a, b])
        assert machine.groups() == {0: [0], 1: [1]}

    def test_more_than_four_nodes_rejected(self):
        one = CacheNodeConfig.create("2MB", procs_per_node=1)
        nodes = [
            TargetNodeSpec(config=one, cpus=(i,), group=0) for i in range(5)
        ]
        with pytest.raises(ConfigurationError, match="node controllers"):
            TargetMachine(nodes=nodes)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            TargetMachine(nodes=[])

    def test_node_for_cpu(self):
        machine = split_smp_machine(CFG, n_cpus=8, procs_per_node=4)
        assert machine.node_for_cpu(0, group=0) == 0
        assert machine.node_for_cpu(5, group=0) == 1
        assert machine.node_for_cpu(9, group=0) == -1

    def test_all_cpus(self):
        machine = split_smp_machine(CFG, n_cpus=8, procs_per_node=4)
        assert machine.all_cpus() == tuple(range(8))

    def test_describe(self):
        text = split_smp_machine(CFG, n_cpus=8, procs_per_node=4).describe()
        assert "node A" in text and "node B" in text

    def test_fingerprint_is_computed_once_and_tracks_the_programming(
        self, monkeypatch
    ):
        """The digest is memoised, which is sound because a machine, its
        node specs and their configs are all frozen."""
        machine = split_smp_machine(CFG, n_cpus=8, procs_per_node=4)
        for frozen in (machine, machine.nodes[0], machine.nodes[0].config):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(frozen, dataclasses.fields(frozen)[0].name, None)
        first = machine.fingerprint()
        monkeypatch.setattr(
            TargetMachine, "to_dict",
            lambda self: pytest.fail("fingerprint recomputed"),
        )
        assert machine.fingerprint() == first
        monkeypatch.undo()
        twin = split_smp_machine(CFG, n_cpus=8, procs_per_node=4)
        assert twin.fingerprint() == first
        renamed = dataclasses.replace(machine, name="other")
        assert renamed.fingerprint() != first
        regrouped = split_smp_machine(CFG, n_cpus=8, procs_per_node=2)
        assert regrouped.fingerprint() != first


class TestProgrammingFiles:
    def test_roundtrip(self, tmp_path):
        machine = split_smp_machine(CFG, n_cpus=8, procs_per_node=4)
        path = tmp_path / "machine.json"
        machine.save(path)
        restored = TargetMachine.load(path)
        assert restored.name == machine.name
        assert len(restored.nodes) == 2
        for original, loaded in zip(machine.nodes, restored.nodes):
            assert loaded.cpus == original.cpus
            assert loaded.group == original.group
            assert loaded.config == original.config

    def test_load_revalidates(self, tmp_path):
        machine = split_smp_machine(CFG, n_cpus=8, procs_per_node=4)
        data = machine.to_dict()
        data["nodes"][1]["cpus"] = data["nodes"][0]["cpus"]  # overlap
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError):
            TargetMachine.load(path)

    def test_malformed_file_rejected(self, tmp_path):
        import json

        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"nodes": [{"cpus": [0]}]}))
        with pytest.raises(ConfigurationError, match="malformed"):
            TargetMachine.load(path)


class TestPresets:
    def test_single_node(self):
        machine = single_node_machine(CacheNodeConfig.create("64MB"), n_cpus=8)
        assert len(machine.nodes) == 1
        assert machine.nodes[0].cpus == tuple(range(8))

    def test_split_geometry(self):
        machine = split_smp_machine(CacheNodeConfig.create("64MB"), 8, 2)
        assert len(machine.nodes) == 4
        assert machine.nodes[3].cpus == (6, 7)
        assert all(node.group == 0 for node in machine.nodes)

    def test_split_indivisible_rejected(self):
        with pytest.raises(ConfigurationError):
            split_smp_machine(CacheNodeConfig.create("64MB"), 8, 3)

    def test_split_too_many_nodes_needs_truncate(self):
        config = CacheNodeConfig.create("64MB")
        with pytest.raises(ConfigurationError, match="truncate"):
            split_smp_machine(config, 8, 1)
        machine = split_smp_machine(config, 8, 1, truncate=True)
        assert len(machine.nodes) == 4
        assert machine.all_cpus() == (0, 1, 2, 3)

    def test_multi_config_groups(self):
        configs = [CacheNodeConfig.create("2MB"), CacheNodeConfig.create("4MB")]
        machine = multi_config_machine(configs, n_cpus=8)
        assert [node.group for node in machine.nodes] == [0, 1]
        assert all(node.cpus == tuple(range(8)) for node in machine.nodes)

    def test_multi_config_limits(self):
        config = CacheNodeConfig.create("2MB")
        with pytest.raises(ConfigurationError):
            multi_config_machine([config] * 5, n_cpus=8)
        with pytest.raises(ConfigurationError):
            multi_config_machine([], n_cpus=8)
