"""Tests for the engine registry and the static capability prover.

Engine selection is the registry's job alone: the prover inspects a
programmed board (never runs it), each engine declares the capabilities
its bit-identity proof requires, and every rejection is an auditable
report naming the missing capability and the concrete reason.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.engines import (
    ENGINES,
    Capability,
    decide,
    decide_all,
    prove_capabilities,
    select_board_engine,
)
from repro.memories.board import board_for_machine
from repro.memories.compiled import _protocol_runner
from repro.memories.sdram import SdramModel

from tests.test_batched_replay import machine_for


def default_board(**kwargs):
    return board_for_machine(machine_for("split"), **kwargs)


class WeirdPolicy:
    """A replacement class the cache-protocol runner has no code for."""


def sdram_board():
    board = default_board()
    board.firmware.nodes[0].sdram = SdramModel()
    return board


def weird_policy_board(node=0):
    board = default_board()
    board.firmware.nodes[node].directory.policy = WeirdPolicy()
    return board


def refuses_dense_state(board):
    """True when some coherence group of the board has no set lanes
    (``lockstep.plan`` returns None), so the cache-protocol runner
    refuses its firmware and compiled replays it on the generic
    runner."""
    return _protocol_runner(board.firmware) is None


# ---------------------------------------------------------------------- #
# Capability prover
# ---------------------------------------------------------------------- #

class TestCapabilityProver:
    def test_default_board_grants_everything_with_spec(self):
        proof = prove_capabilities(default_board())
        assert proof.granted == frozenset(Capability)
        assert not proof.denials

    def test_ecc_scrubber_denies_inert_tick(self):
        proof = prove_capabilities(default_board(ecc=True))
        assert not proof.grants(Capability.INERT_BACKGROUND_TICK)
        assert any(
            "scrubber" in reason
            for reason in proof.reasons(Capability.INERT_BACKGROUND_TICK)
        )

    def test_capability_names_are_stable_strings(self):
        assert str(Capability.INERT_BACKGROUND_TICK) == "inert_background_tick"
        assert {str(c) for c in Capability} == {"inert_background_tick"}

    # Dense protocol state is decided by ``_protocol_runner`` alone, not
    # by a capability: the prover denies compiled nothing for these
    # boards beyond an active scrubber.

    def test_unknown_policy_denies_dense_protocol_state(self):
        board = weird_policy_board()
        assert refuses_dense_state(board)
        proof = prove_capabilities(board)
        assert proof.granted >= ENGINES["compiled"].requires

    def test_ecc_denies_dense_protocol_state(self):
        board = default_board(ecc=True)
        assert refuses_dense_state(board)
        proof = prove_capabilities(board)
        assert ENGINES["compiled"].requires - proof.granted == {
            Capability.INERT_BACKGROUND_TICK
        }

    def test_sdram_denies_dense_protocol_state(self):
        board = sdram_board()
        assert refuses_dense_state(board)
        proof = prove_capabilities(board)
        assert proof.granted >= ENGINES["compiled"].requires


# ---------------------------------------------------------------------- #
# Registry and decisions
# ---------------------------------------------------------------------- #

class TestRegistry:
    def test_builtin_engines_registered_in_rank_order(self):
        # The scalar fallback first, then the one fast engine.
        assert list(ENGINES) == ["scalar", "compiled"]
        assert ENGINES["scalar"].requires == frozenset()
        assert ENGINES["compiled"].requires == {
            Capability.INERT_BACKGROUND_TICK
        }

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            decide("warp", board=default_board())

    def test_decide_needs_a_subject(self):
        with pytest.raises(ConfigurationError, match="board or a machine"):
            decide("scalar")

    def test_decide_accepts_machine_directly(self):
        decision = decide("compiled", machine=machine_for("split"))
        assert decision.eligible


class TestDecisions:
    def test_scalar_is_always_eligible(self):
        board = board_for_machine(machine_for("split", "random"), ecc=True)
        assert decide("scalar", board=board).eligible

    def test_rejection_report_names_capability_and_reason(self):
        decision = decide("compiled", board=default_board(ecc=True))
        assert not decision.eligible
        assert decision.missing == {Capability.INERT_BACKGROUND_TICK}
        (finding,) = decision.report.errors
        assert finding.rule == "EN301"
        assert finding.location == "capability inert_background_tick"
        assert "scrubber" in finding.message
        assert decision.reason() == finding.message

    def test_granted_capabilities_documented_as_info(self):
        decision = decide("compiled", board=default_board())
        assert decision.eligible
        granted = [
            f.message for f in decision.report.findings
            if f.rule == "EN301" and "granted" in f.message
        ]
        assert len(granted) == len(ENGINES["compiled"].requires)

    def test_compiled_rejection_names_dense_state(self):
        board = sdram_board()
        assert refuses_dense_state(board)
        decision = decide("compiled", board=board)
        assert decision.eligible and not decision.report.errors

    def test_compiled_rejection_names_replacement(self):
        board = weird_policy_board(node=1)
        assert refuses_dense_state(board)
        decision = decide("compiled", board=board)
        assert decision.eligible and not decision.report.errors

    def test_decide_all_covers_every_engine(self):
        decisions = decide_all(board=default_board())
        assert [d.spec.name for d in decisions] == list(ENGINES)
        assert all(d.eligible for d in decisions)

    def test_decision_reports_audit_both_checks(self):
        decision = decide("compiled", board=default_board())
        assert set(decision.report.checks_run) == {"missing-capability"}


# ---------------------------------------------------------------------- #
# Board-scope selection
# ---------------------------------------------------------------------- #

class TestSelectBoardEngine:
    def test_prefers_compiled_when_eligible(self):
        assert select_board_engine(default_board()).name == "compiled"

    def test_random_replacement_selects_compiled(self):
        board = board_for_machine(machine_for("split", "random"))
        assert select_board_engine(board).name == "compiled"

    def test_sdram_node_demotes_to_batched(self):
        # compiled demotes an SDRAM board to the generic runner, which
        # replays it bit-identically to scalar.
        from tests.test_batched_replay import (
            assert_paths_identical,
            full_mix_words,
        )

        assert select_board_engine(sdram_board()).name == "compiled"
        assert_paths_identical(sdram_board, full_mix_words(500, seed=11))

    def test_unknown_policy_selects_compiled(self):
        assert select_board_engine(weird_policy_board()).name == "compiled"

    def test_falls_back_to_scalar_on_denial(self):
        assert select_board_engine(default_board(ecc=True)).name == "scalar"

    def test_preference_flag_forces_scalar(self):
        board = default_board()
        board.batched_replay = False
        assert select_board_engine(board).name == "scalar"

    def test_selected_engine_replays(self):
        from tests.test_batched_replay import full_mix_words

        board = default_board()
        spec = select_board_engine(board)
        words = full_mix_words(500, seed=11)
        assert spec.replay(board, words) == len(words)


class TestOneProofPerCall:
    """Selection proves the board once; the engine it picks proves
    nothing more."""

    @pytest.mark.parametrize("kind", ["stock", "coupled", "ecc"])
    def test_replay_words_proves_once(self, kind, monkeypatch):
        import sys

        from tests.test_batched_replay import full_mix_words

        board = {
            "stock": default_board,
            "coupled": lambda: default_board(assumed_utilization=0.9),
            "ecc": lambda: default_board(ecc=True, scrub_interval=500.0),
        }[kind]()
        calls = []

        def counted(subject):
            calls.append(subject)
            return prove_capabilities(subject)

        # Every repro module's reference, so no call site escapes.
        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] == "repro":
                for attribute, value in list(vars(module).items()):
                    if value is prove_capabilities:
                        monkeypatch.setattr(module, attribute, counted)
        words = full_mix_words(2000, seed=11)
        assert board.replay_words(words) == len(words)
        assert calls == [board]
