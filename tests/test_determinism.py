"""Tests for the determinism analyzer and its reporting pipeline.

Covers the rule registry, the DT2xx rules firing (and staying quiet) on
seeded snippets, inline suppression parsing, lint profiles, severity
ordering, baseline round-trips and the JSON/SARIF output schemas.
"""

import json

import pytest

from repro.common.errors import ValidationError
from repro.verify import (
    PROFILES,
    RULES,
    apply_baseline,
    check_repo,
    load_baseline,
    render_sarif,
    resolve_rule,
    stale_fingerprints,
    to_sarif,
    write_baseline,
)
from repro.verify.findings import Finding, Report, Severity
from repro.verify.rules import RULE_OF_CHECK


def lint_source(tmp_path, source, profile="library", name="case.py"):
    (tmp_path / name).write_text(source, encoding="utf-8")
    return check_repo(tmp_path, profile=profile)


def fired_rules(report):
    return {f.rule for f in report.errors}


# ---------------------------------------------------------------------- #
# Rule registry
# ---------------------------------------------------------------------- #

class TestRuleRegistry:
    def test_check_slugs_are_unique(self):
        slugs = [info.check for info in RULES.values()]
        assert len(slugs) == len(set(slugs))

    def test_resolve_by_id_and_slug(self):
        assert resolve_rule("DT204") == "DT204"
        assert resolve_rule("hash-order-dependence") == "DT204"
        assert resolve_rule("call-replication") == "RP105"
        assert resolve_rule("nonsense") is None

    def test_rule_ids_follow_family_prefixes(self):
        for rule in RULES:
            assert rule[:2] in ("RP", "DT", "EN") and rule[2:].isdigit()

    def test_every_profile_check_has_a_rule(self):
        for profile in PROFILES.values():
            for check in profile:
                assert check in RULE_OF_CHECK


# ---------------------------------------------------------------------- #
# DT2xx rules fire on defects, stay quiet on the deterministic spelling
# ---------------------------------------------------------------------- #

DEFECTS = [
    ("DT201",
     "def to_dict(items):\n"
     "    return {k: 1 for k in set(items)}\n"),
    ("DT202",
     "import time\n\n"
     "def tick():\n"
     "    return time.monotonic_ns()\n"),
    ("DT203",
     "import uuid\n\n"
     "def run_id():\n"
     "    return uuid.uuid4().hex\n"),
    ("DT204",
     "def salt(key):\n"
     "    return hash(key)\n"),
    ("DT205",
     "import math\n\n"
     "def total(values):\n"
     "    return math.fsum(set(values))\n"),
    ("DT206",
     "def fan_out(pool, chunks):\n"
     "    return pool.submit(lambda c: c.sum(), chunks[0])\n"),
]

CLEAN = [
    ("DT201",
     "def to_dict(items):\n"
     "    return {k: 1 for k in sorted(set(items))}\n"),
    ("DT202",
     "import time\n\n"
     "def bench():\n"
     "    return time.perf_counter()\n"),
    ("DT203",
     "import numpy as np\n\n"
     "def stream(seed):\n"
     "    return np.random.default_rng(seed)\n"),
    ("DT204",
     "import hashlib\n\n"
     "def salt(key):\n"
     "    return hashlib.sha256(key).hexdigest()\n"),
    ("DT205",
     "def total(values):\n"
     "    return sum(sorted(set(values)))\n"),
    ("DT206",
     "def chunk_sum(c):\n"
     "    return c.sum()\n\n"
     "def fan_out(pool, chunks):\n"
     "    return pool.submit(chunk_sum, chunks[0])\n"),
]


class TestDeterminismRules:
    @pytest.mark.parametrize("rule,source", DEFECTS, ids=[r for r, _ in DEFECTS])
    def test_defect_fires(self, tmp_path, rule, source):
        report = lint_source(tmp_path, source)
        assert rule in fired_rules(report), report.render(verbose=True)

    @pytest.mark.parametrize("rule,source", CLEAN, ids=[r for r, _ in CLEAN])
    def test_clean_spelling_is_quiet(self, tmp_path, rule, source):
        report = lint_source(tmp_path, source)
        assert report.ok and not report.warnings, report.render(verbose=True)

    def test_set_iteration_outside_serializer_is_quiet(self, tmp_path):
        # Name-scoped: set iteration in a non-serialization routine is
        # legitimate (order never leaks into an artifact).
        report = lint_source(
            tmp_path,
            "def union_size(groups):\n"
            "    total = 0\n"
            "    for item in set(groups):\n"
            "        total += 1\n"
            "    return total\n",
        )
        assert "DT201" not in fired_rules(report)

    def test_time_time_stays_rp102_not_dt202(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()\n",
        )
        assert fired_rules(report) == {"RP102"}

    def test_process_target_lambda_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import multiprocessing\n\n"
            "def launch(state):\n"
            "    p = multiprocessing.Process(target=lambda: state.run())\n"
            "    p.start()\n",
        )
        assert "DT206" in fired_rules(report)


# ---------------------------------------------------------------------- #
# Inline suppressions
# ---------------------------------------------------------------------- #

class TestSuppressions:
    def test_bare_ignore_suppresses_everything(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def salt(key):\n"
            "    return hash(key)  # repro: ignore\n",
        )
        assert report.ok

    def test_named_rule_id_suppresses(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def salt(key):\n"
            "    return hash(key)  # repro: ignore[DT204]\n",
        )
        assert report.ok

    def test_check_slug_suppresses(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def salt(key):\n"
            "    return hash(key)  # repro: ignore[hash-order-dependence]\n",
        )
        assert report.ok

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def salt(key):\n"
            "    return hash(key)  # repro: ignore[DT201]\n",
        )
        assert "DT204" in fired_rules(report)

    def test_multiple_rules_in_one_comment(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import time\n\n"
            "def tick(key):\n"
            "    return hash(key) + time.monotonic()"
            "  # repro: ignore[DT204, DT202]\n",
        )
        assert report.ok

    def test_unknown_rule_name_warns(self, tmp_path):
        report = lint_source(
            tmp_path,
            "x = 1  # repro: ignore[DT999]\n",
        )
        assert any(
            f.rule == "RP100" and "unknown rule" in f.message
            for f in report.warnings
        ), report.render(verbose=True)

    def test_suppression_syntax_in_docstring_is_inert(self, tmp_path):
        report = lint_source(
            tmp_path,
            '"""Docs may quote ``# repro: ignore[DT204]`` freely."""\n\n'
            "def salt(key):\n"
            "    return hash(key)\n",
        )
        assert "DT204" in fired_rules(report)
        assert not report.warnings, report.render(verbose=True)

    def test_suppressed_count_surfaces_as_info(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def salt(key):\n"
            "    return hash(key)  # repro: ignore[DT204]\n",
        )
        assert any(
            f.severity is Severity.INFO and "suppressed" in f.message
            for f in report.findings
        )


# ---------------------------------------------------------------------- #
# Profiles
# ---------------------------------------------------------------------- #

class TestStreamingJsonDump:
    @pytest.mark.parametrize("call", [
        "json.dump(payload, handle)",
        "json.dump(payload, handle, indent=None)",
        "json.dump(payload, handle, sort_keys=True)",
    ])
    def test_unindented_dump_fires(self, tmp_path, call):
        source = f"import json\n\ndef save(payload, handle):\n    {call}\n"
        assert fired_rules(lint_source(tmp_path, source)) == {"RP106"}

    @pytest.mark.parametrize("call", [
        "handle.write(json.dumps(payload))",
        "json.dump(payload, handle, indent=2)",
        "json.dump(payload, handle, **options)",
    ])
    def test_one_shot_or_indented_stays_quiet(self, tmp_path, call):
        source = (
            "import json\n\n"
            f"def save(payload, handle, options):\n    {call}\n"
        )
        assert lint_source(tmp_path, source).ok


class TestProfiles:
    def test_unknown_profile_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown lint profile"):
            check_repo(tmp_path, profile="strictest")

    def test_tests_profile_drops_hash_and_time_rules(self, tmp_path):
        source = (
            "import time\n\n"
            "def probe(key):\n"
            "    return hash(key), time.time()\n"
        )
        library = lint_source(tmp_path, source)
        assert {"DT204", "RP102"} <= fired_rules(library)
        relaxed = lint_source(tmp_path, source, profile="tests")
        assert relaxed.ok, relaxed.render(verbose=True)

    def test_tools_profile_drops_exception_hierarchy_only(self, tmp_path):
        source = "def boom():\n    raise ValueError('nope')\n"
        assert "RP103" in fired_rules(lint_source(tmp_path, source))
        assert lint_source(tmp_path, source, profile="tools").ok

    def test_profile_named_in_subject(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n", encoding="utf-8")
        assert "[tests]" in check_repo(tmp_path, profile="tests").subject
        assert "[" not in check_repo(tmp_path, profile="library").subject

    def test_disabled_checks_not_reported_as_run(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n", encoding="utf-8")
        report = check_repo(tmp_path, profile="tests")
        assert "hash-order-dependence" not in report.checks_run
        assert "mutable-default" in report.checks_run


# ---------------------------------------------------------------------- #
# Severity ordering and fingerprints
# ---------------------------------------------------------------------- #

class TestFindingOrdering:
    def build(self):
        report = Report(subject="ordering")
        report.info("structure", "note", location="z.py:1", rule="RP100")
        report.warning("structure", "warn", location="a.py:5", rule="RP100")
        report.error("hash-order-dependence", "bad", location="b.py:9",
                     rule="DT204")
        report.error("hash-order-dependence", "bad", location="a.py:2",
                     rule="DT204")
        return report

    def test_sorted_findings_most_severe_first(self):
        ordered = self.build().sorted_findings()
        assert [f.severity for f in ordered] == [
            Severity.ERROR, Severity.ERROR, Severity.WARNING, Severity.INFO,
        ]
        # Ties break by path then line for stable serialization.
        assert ordered[0].location == "a.py:2"
        assert ordered[1].location == "b.py:9"

    def test_to_dict_uses_sorted_order(self):
        doc = self.build().to_dict()
        severities = [f["severity"] for f in doc["findings"]]
        assert severities == ["ERROR", "ERROR", "WARNING", "INFO"]
        assert doc["errors"] == 2 and doc["warnings"] == 1

    def test_fingerprint_survives_line_shift(self):
        a = Finding("hash-order-dependence", Severity.ERROR, "bad",
                    location="mod.py:10", rule="DT204")
        b = Finding("hash-order-dependence", Severity.ERROR, "bad",
                    location="mod.py:99", rule="DT204")
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_distinguishes_rule_and_file(self):
        base = Finding("c", Severity.ERROR, "m", location="mod.py:1",
                       rule="DT204")
        other_rule = Finding("c", Severity.ERROR, "m", location="mod.py:1",
                             rule="DT205")
        other_file = Finding("c", Severity.ERROR, "m", location="oth.py:1",
                             rule="DT204")
        prints = {f.fingerprint() for f in (base, other_rule, other_file)}
        assert len(prints) == 3


# ---------------------------------------------------------------------- #
# Baselines
# ---------------------------------------------------------------------- #

class TestBaseline:
    def dirty_report(self, tmp_path):
        return lint_source(
            tmp_path,
            "def salt(key):\n"
            "    return hash(key)\n",
            name="dirty.py",
        )

    def test_round_trip_absorbs_known_findings(self, tmp_path):
        report = self.dirty_report(tmp_path)
        assert not report.ok
        path = tmp_path / "baseline.json"
        count = write_baseline([report], path)
        assert count == 1
        filtered = apply_baseline(report, load_baseline(path))
        assert filtered.ok
        assert any("absorbed" in f.message for f in filtered.findings)
        assert filtered.checks_run == report.checks_run

    def test_new_finding_still_fails_against_baseline(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([self.dirty_report(tmp_path)], path)
        (tmp_path / "dirty.py").write_text(
            "def salt(key):\n"
            "    return hash(key)\n"
            "def fresh(items, acc=[]):\n"
            "    return acc\n",
            encoding="utf-8",
        )
        report = check_repo(tmp_path)
        filtered = apply_baseline(report, load_baseline(path))
        assert not filtered.ok
        assert fired_rules(filtered) == {"RP104"}

    def test_stale_entries_reported(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([self.dirty_report(tmp_path)], path)
        (tmp_path / "dirty.py").write_text("x = 1\n", encoding="utf-8")
        clean = check_repo(tmp_path)
        stale = stale_fingerprints([clean], load_baseline(path))
        assert len(stale) == 1

    def test_file_is_canonical_json(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([self.dirty_report(tmp_path)], path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload["version"] == 1
        entry = next(iter(payload["findings"].values()))
        assert set(entry) == {"rule", "location", "message"}

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_baseline(tmp_path / "absent.json")

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "findings": {}}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="version"):
            load_baseline(path)

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="not JSON"):
            load_baseline(path)


# ---------------------------------------------------------------------- #
# SARIF / JSON output schemas
# ---------------------------------------------------------------------- #

class TestSarifOutput:
    def report(self, tmp_path):
        return lint_source(
            tmp_path,
            "def salt(key):\n"
            "    return hash(key)\n",
            name="dirty.py",
        )

    def test_document_shape(self, tmp_path):
        doc = to_sarif([self.report(tmp_path)])
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-verify"

    def test_rule_table_covers_registry(self, tmp_path):
        (run,) = to_sarif([self.report(tmp_path)])["runs"]
        ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert ids == set(RULES)

    def test_result_carries_location_and_fingerprint(self, tmp_path):
        report = self.report(tmp_path)
        (run,) = to_sarif([report])["runs"]
        result = next(
            r for r in run["results"] if r["ruleId"] == "DT204"
        )
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "dirty.py"
        assert location["region"]["startLine"] == 2
        finding = report.by_rule("DT204")[0]
        assert (
            result["partialFingerprints"]["reproFingerprint/v1"]
            == finding.fingerprint()
        )

    def test_levels_map_all_severities(self, tmp_path):
        report = lint_source(
            tmp_path,
            "x = 1  # repro: ignore[DT999]\n",
        )
        (run,) = to_sarif([report])["runs"]
        levels = {r["level"] for r in run["results"]}
        assert "warning" in levels and "note" in levels

    def test_render_is_canonical(self, tmp_path):
        report = self.report(tmp_path)
        first = render_sarif([report])
        second = render_sarif([report])
        assert first == second and first.endswith("\n")
        json.loads(first)  # well-formed

    def test_json_finding_schema(self, tmp_path):
        doc = self.report(tmp_path).to_dict()
        finding = next(
            f for f in doc["findings"] if f["rule"] == "DT204"
        )
        assert set(finding) == {
            "rule", "check", "severity", "message", "location", "fingerprint",
        }
