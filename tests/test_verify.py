"""Tests for the repro.verify static analysers.

The checker's acceptance bar is two-sided: every shipped protocol table
must certify clean, and every table in the seeded-broken corpus must be
rejected with a finding that names the violated invariant — for the
model-checked invariants, with a concrete counterexample trace.
"""

import copy
import json

import pytest

from repro.common.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    ValidationError,
)
from repro.memories.config import BUILTIN_PROTOCOLS, CacheNodeConfig
from repro.memories.console import MemoriesConsole
from repro.memories.protocol_table import (
    LineState,
    ProtocolTable,
    load_protocol,
)
from repro.target import single_node_machine, split_smp_machine
from repro.target.mapping import TargetMachine, TargetNodeSpec
from repro.verify import (
    ProtocolModel,
    check_machine,
    check_protocol,
    check_repo,
    require_verified,
)
from repro.verify.model import IncompleteTableError


def mesi_map():
    return load_protocol("mesi").to_map()


def entry(table, op, state):
    return next(
        e for e in table["transitions"] if e["op"] == op and e["state"] == state
    )


# ---------------------------------------------------------------------- #
# Protocol checker: shipped tables certify
# ---------------------------------------------------------------------- #

class TestShippedProtocolsCertify:
    @pytest.mark.parametrize("name", BUILTIN_PROTOCOLS)
    def test_shipped_table_passes(self, name):
        report = check_protocol(name)
        assert report.ok, report.render()
        assert not report.warnings, report.render()

    @pytest.mark.parametrize("name", BUILTIN_PROTOCOLS)
    def test_all_invariants_evaluated(self, name):
        report = check_protocol(name)
        assert set(report.checks_run) >= {
            "structure",
            "completeness",
            "fill-consistency",
            "dirty-writeback",
            "reachability",
            "swmr",
        }

    def test_accepts_table_object_and_name_equally(self):
        by_name = check_protocol("moesi")
        by_object = check_protocol(load_protocol("moesi"))
        assert by_name.ok and by_object.ok

    def test_four_node_model_also_clean(self):
        report = check_protocol("moesi", node_counts=(2, 3, 4))
        assert report.ok, report.render()


# ---------------------------------------------------------------------- #
# Protocol checker: broken corpus is rejected with the right invariant
# ---------------------------------------------------------------------- #

class TestBrokenTablesRejected:
    def check_flags(self, table, invariant):
        report = check_protocol(table)
        assert not report.ok, f"expected {invariant} failure, got PASS"
        flagged = {f.check for f in report.errors}
        assert invariant in flagged, (
            f"expected {invariant}, got {sorted(flagged)}:\n{report.render()}"
        )
        return report

    def test_dropped_entry_breaks_completeness(self):
        table = mesi_map()
        table["transitions"].remove(entry(table, "LOCAL_READ", "SHARED"))
        report = self.check_flags(table, "completeness")
        finding = report.by_check("completeness")[0]
        assert "LOCAL_READ" in finding.message and "SHARED" in finding.message

    def test_stale_dirty_peer_breaks_swmr_with_trace(self):
        table = mesi_map()
        entry(table, "REMOTE_WRITE", "MODIFIED")["next"] = "MODIFIED"
        report = self.check_flags(table, "swmr")
        finding = report.by_check("swmr")[0]
        assert finding.trace, "swmr violations must carry a counterexample"
        assert finding.trace[0].startswith("power-up")
        # The shortest double-dirty trace is two writes from different nodes.
        assert len(finding.trace) == 3
        assert "MODIFIED" in finding.message

    def test_exclusive_shared_fill_breaks_fill_consistency(self):
        table = mesi_map()
        table["fill"]["read_shared"] = "EXCLUSIVE"
        self.check_flags(table, "fill-consistency")

    def test_clean_write_fill_breaks_fill_consistency(self):
        table = mesi_map()
        table["fill"]["write"] = "SHARED"
        self.check_flags(table, "fill-consistency")

    def test_dropped_writeback_breaks_dirty_writeback(self):
        table = load_protocol("moesi").to_map()
        remote_read = entry(table, "REMOTE_READ", "MODIFIED")
        remote_read["next"] = "SHARED"
        remote_read["hit"] = False
        report = self.check_flags(table, "dirty-writeback")
        finding = report.by_check("dirty-writeback")[0]
        assert "REMOTE_READ" in finding.location

    def test_dead_declared_state_breaks_reachability(self):
        table = mesi_map()
        table["states"].append("OWNED")
        for op in ("LOCAL_READ", "LOCAL_WRITE", "LOCAL_CASTOUT",
                   "REMOTE_READ", "REMOTE_WRITE"):
            table["transitions"].append(
                {"op": op, "state": "OWNED", "next": "OWNED", "hit": True}
            )
        report = self.check_flags(table, "reachability")
        assert "OWNED" in report.by_check("reachability")[0].message

    def test_transition_into_undeclared_state_breaks_reachability(self):
        table = load_protocol("msi").to_map()
        entry(table, "LOCAL_WRITE", "SHARED")["next"] = "OWNED"
        self.check_flags(table, "reachability")

    def test_unknown_op_name_breaks_structure(self):
        table = mesi_map()
        table["transitions"][0]["op"] = "LOCAL_FROB"
        self.check_flags(table, "structure")

    def test_declared_invalid_breaks_structure(self):
        table = mesi_map()
        table["states"].append("INVALID")
        self.check_flags(table, "structure")

    def test_missing_section_breaks_structure(self):
        self.check_flags({"name": "hollow", "states": ["SHARED"]}, "structure")

    def test_model_checking_skipped_on_incomplete_table(self):
        table = mesi_map()
        table["transitions"].remove(entry(table, "LOCAL_READ", "SHARED"))
        report = check_protocol(table)
        assert "swmr" not in report.checks_run
        assert any(f.check == "model" for f in report.findings)


# ---------------------------------------------------------------------- #
# Model internals
# ---------------------------------------------------------------------- #

class TestProtocolModel:
    def build(self, name="mesi"):
        from repro.memories.protocol_table import CacheOp

        table = load_protocol(name)
        transitions = {
            (CacheOp(op), LineState(state)): transition
            for (op, state), transition in table.raw_table().items()
        }
        return ProtocolModel(transitions, table.fill)

    def test_node_count_bounds(self):
        model = self.build()
        with pytest.raises(ValidationError):
            model.explore(1)
        with pytest.raises(ValidationError):
            model.explore(5)

    def test_exploration_reaches_all_mesi_states(self):
        exploration = self.build().explore(2)
        assert exploration.line_states_seen == {
            LineState.INVALID,
            LineState.SHARED,
            LineState.EXCLUSIVE,
            LineState.MODIFIED,
        }

    def test_state_space_is_small_and_exhausted(self):
        exploration = self.build("moesi").explore(3)
        # 5 line states per node, owner in {None, 0, 1, 2}.
        assert len(exploration.reachable) <= 5 ** 3 * 4

    def test_trace_reconstruction_is_connected(self):
        exploration = self.build().explore(2)
        some_state = next(iter(exploration.reachable - {((
            LineState.INVALID, LineState.INVALID), None)}))
        trace = exploration.trace_to(some_state)
        assert trace[0] == "power-up: all nodes INVALID"
        assert len(trace) >= 2

    def test_incomplete_table_raises_named_error(self):
        model = self.build("msi")
        del model._table[next(iter(model._table))]
        with pytest.raises(IncompleteTableError):
            model.explore(2)


# ---------------------------------------------------------------------- #
# Machine validator
# ---------------------------------------------------------------------- #

class TestMachineValidator:
    def machine(self, **kwargs):
        config = CacheNodeConfig.create("64MB", **kwargs)
        return split_smp_machine(config, n_cpus=8, procs_per_node=4)

    def test_good_machine_passes(self):
        report = check_machine(self.machine())
        assert report.ok, report.render()
        assert set(report.checks_run) == {
            "structure", "envelope", "counters", "protocol", "ecc", "mapping",
        }

    def test_directory_near_sdram_ceiling_warns(self):
        config = CacheNodeConfig.create("8GB", line_size=256)
        report = check_machine(single_node_machine(config, n_cpus=8))
        assert report.ok
        assert any(
            "SDRAM" in f.message for f in report.warnings
        ), report.render()

    def test_counter_wrap_horizon_warns_on_long_runs(self):
        safe = check_machine(self.machine(), run_hours=24.0)
        assert not safe.by_check("counters") or safe.ok
        long = check_machine(self.machine(), run_hours=48.0)
        wraps = [f for f in long.warnings if f.check == "counters"]
        assert wraps and "wraps after" in wraps[0].message
        # The paper's ">30 hours at 20% utilization" claim, made concrete.
        assert "30.5 h" in wraps[0].message

    def test_overlapping_cpus_in_dict_flagged_as_structure(self):
        machine = self.machine()
        data = machine.to_dict()
        data["nodes"][1]["cpus"] = data["nodes"][0]["cpus"]
        report = check_machine(data)
        assert not report.ok
        assert report.errors[0].check == "structure"
        assert "mapped to nodes" in report.errors[0].message

    def test_unmapped_cpu0_warns(self):
        config = CacheNodeConfig.create("64MB", procs_per_node=2)
        machine = TargetMachine(
            nodes=(TargetNodeSpec(config=config, cpus=(4, 5)),),
            name="offset",
        )
        report = check_machine(machine)
        assert any(
            "CPU 0" in f.message for f in report.warnings
        ), report.render()

    def test_unknown_protocol_name_is_an_error(self):
        config = CacheNodeConfig(64 * 1024 * 1024, protocol="zesi")
        machine = single_node_machine(config, n_cpus=8)
        report = check_machine(machine)
        assert not report.ok
        assert any(
            f.check == "protocol" and "zesi" in f.message
            for f in report.errors
        )

    def test_bad_analysis_parameters_rejected(self):
        report = check_machine(self.machine(), run_hours=-1.0)
        assert not report.ok


# ---------------------------------------------------------------------- #
# Console and require_verified gates
# ---------------------------------------------------------------------- #

class TestVerificationGates:
    def broken_table(self):
        table = mesi_map()
        entry(table, "REMOTE_WRITE", "MODIFIED")["next"] = "MODIFIED"
        table["name"] = "broken-mesi"
        return ProtocolTable.from_map(table)

    def test_require_verified_passes_shipped(self):
        report = require_verified(load_protocol("moesi"))
        assert report.ok

    def test_require_verified_raises_with_findings(self):
        with pytest.raises(ProtocolError, match="swmr"):
            require_verified(self.broken_table())

    def test_console_refuses_broken_upload_unless_forced(self):
        console = MemoriesConsole()
        machine = single_node_machine(
            CacheNodeConfig.create("64MB"), n_cpus=8
        )
        console.power_up(machine)
        with pytest.raises(ProtocolError, match="force=True"):
            console.load_protocol_map(0, self.broken_table())
        console.load_protocol_map(0, self.broken_table(), force=True)
        assert console.board is not None

    def test_power_up_refuses_unverifiable_machine(self):
        config = CacheNodeConfig(64 * 1024 * 1024, protocol="zesi")
        machine = single_node_machine(config, n_cpus=8)
        with pytest.raises(ConfigurationError, match="failed verification"):
            MemoriesConsole().power_up(machine)

    def test_console_verify_command(self):
        console = MemoriesConsole()
        console.power_up(
            single_node_machine(CacheNodeConfig.create("64MB"), n_cpus=8)
        )
        output = console.execute("verify")
        assert "PASS" in output
        assert "checks run" in output


# ---------------------------------------------------------------------- #
# Repo lint
# ---------------------------------------------------------------------- #

class TestRepoLint:
    def test_the_repo_itself_is_clean(self):
        report = check_repo()
        assert report.ok, report.render()

    def lint_source(self, tmp_path, relative, source):
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        return check_repo(tmp_path)

    def test_random_import_flagged(self, tmp_path):
        report = self.lint_source(
            tmp_path, "workload.py", "import random\n"
        )
        assert any(f.check == "rng-discipline" for f in report.errors)

    def test_random_allowed_in_rng_module(self, tmp_path):
        report = self.lint_source(
            tmp_path, "common/rng.py", "import random\n\nSTREAM = random.Random\n"
        )
        assert report.ok, report.render()

    def test_time_time_flagged_outside_shim(self, tmp_path):
        report = self.lint_source(
            tmp_path, "model.py",
            "import time\n\nNOW = time.time()\n",
        )
        assert any(f.check == "time-discipline" for f in report.errors)

    def test_perf_counter_is_allowed(self, tmp_path):
        report = self.lint_source(
            tmp_path, "bench.py",
            "import time\n\nSTART = time.perf_counter()\n",
        )
        assert report.ok, report.render()

    def test_builtin_raise_flagged(self, tmp_path):
        report = self.lint_source(
            tmp_path, "mod.py",
            "def f(x):\n    raise ValueError(x)\n",
        )
        flagged = [f for f in report.errors if f.check == "exception-hierarchy"]
        assert flagged and "ValueError" in flagged[0].message

    def test_not_implemented_error_exempt(self, tmp_path):
        report = self.lint_source(
            tmp_path, "mod.py",
            "def f():\n    raise NotImplementedError\n",
        )
        assert report.ok, report.render()

    def test_orphan_error_class_flagged(self, tmp_path):
        report = self.lint_source(
            tmp_path, "mod.py",
            "class LonelyError(Exception):\n    pass\n",
        )
        assert any(
            f.check == "exception-hierarchy" and "LonelyError" in f.message
            for f in report.errors
        )

    def test_repro_error_descendants_accepted(self, tmp_path):
        report = self.lint_source(
            tmp_path, "mod.py",
            "class ReproError(Exception):\n    pass\n\n\n"
            "class ChildError(ReproError):\n    pass\n\n\n"
            "class GrandchildError(ChildError):\n    pass\n\n\n"
            "def f():\n    raise GrandchildError('x')\n",
        )
        assert report.ok, report.render()

    def test_mutable_default_flagged(self, tmp_path):
        report = self.lint_source(
            tmp_path, "mod.py",
            "def f(items=[]):\n    return items\n",
        )
        assert any(f.check == "mutable-default" for f in report.errors)

    def test_call_replication_flagged(self, tmp_path):
        report = self.lint_source(
            tmp_path, "mod.py",
            "def f(make, n):\n    return [make()] * n\n",
        )
        assert any(f.check == "call-replication" for f in report.errors)

    def test_call_replication_reversed_operands_flagged(self, tmp_path):
        report = self.lint_source(
            tmp_path, "mod.py",
            "def f(make, n):\n    return n * (make(),)\n",
        )
        assert any(f.check == "call-replication" for f in report.errors)

    def test_scalar_replication_clean(self, tmp_path):
        report = self.lint_source(
            tmp_path, "mod.py",
            "def f(n):\n    return [0] * n\n",
        )
        assert report.ok, report.render()

    def test_call_replication_comprehension_clean(self, tmp_path):
        report = self.lint_source(
            tmp_path, "mod.py",
            "def f(make, n):\n    return [make() for _ in range(n)]\n",
        )
        assert report.ok, report.render()

    def test_syntax_error_reported_not_raised(self, tmp_path):
        report = self.lint_source(tmp_path, "mod.py", "def broken(:\n")
        assert any(f.check == "structure" for f in report.errors)


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #

class TestVerifyCli:
    def test_verify_protocol_builtins(self, capsys):
        from repro.cli import main

        assert main(["verify", "protocol"]) == 0
        output = capsys.readouterr().out
        for name in BUILTIN_PROTOCOLS:
            assert f"protocol {name!r}: PASS" in output

    def test_verify_protocol_map_file(self, tmp_path, capsys):
        from repro.cli import main

        broken = mesi_map()
        broken["transitions"].remove(entry(broken, "LOCAL_READ", "SHARED"))
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        assert main(["verify", "protocol", str(path)]) == 1
        assert "completeness" in capsys.readouterr().out

    def test_verify_machine_file(self, tmp_path, capsys):
        from repro.cli import main

        machine = split_smp_machine(
            CacheNodeConfig.create("64MB"), n_cpus=8, procs_per_node=4
        )
        path = tmp_path / "machine.json"
        machine.save(path)
        assert main(["verify", "machine", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_repo(self, capsys):
        from repro.cli import main

        assert main(["verify", "repo"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_usage_errors(self, capsys):
        from repro.cli import main

        assert main(["verify"]) == 2
        assert main(["verify", "nonsense"]) == 2


# ---------------------------------------------------------------------- #
# Exception hierarchy contract
# ---------------------------------------------------------------------- #

class TestValidationError:
    def test_is_both_repro_and_value_error(self):
        from repro.common.units import parse_size

        with pytest.raises(ValueError):
            parse_size("not-a-size")
        with pytest.raises(ReproError):
            parse_size("not-a-size")

    def test_self_check_corpus_is_in_sync(self):
        """The CI corpus script agrees with the checker."""
        import importlib.util
        from pathlib import Path

        script = (
            Path(__file__).resolve().parent.parent
            / "tools" / "verify_selfcheck.py"
        )
        spec = importlib.util.spec_from_file_location("verify_selfcheck", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for _description, base, mutate, expected in module.CORPUS:
            table = copy.deepcopy(load_protocol(base).to_map())
            mutate(table)
            report = check_protocol(table)
            assert not report.ok
            assert expected in {f.check for f in report.errors}
