"""Tests of the ``repro lint`` static-analysis engine (rules R1-R6).

Each rule gets a quartet of fixture checks — a positive snippet it must
flag, a negative snippet it must not, a pragma-suppressed variant, and a
baselined variant — written into a throwaway ``src/repro/...`` tree so
path-scoped rules (R3's columnar modules, R2's numeric packages) see the
layout they key on.  The suite closes with the self-check the CI gate
relies on: ``repro lint`` over the live tree reports **zero** active
(non-baselined, non-suppressed) findings.
"""

import json
import subprocess
import sys

import pytest

from repro.analysis import (
    counts,
    format_json,
    format_text,
    run_lint,
    write_baseline,
)
from repro.analysis.findings import Finding, parse_pragmas

#: Shared header so snippets parse like real modules.
_HEADER = "import numpy as np\nimport os\n\n"


def lint_snippet(tmp_path, rel, code, rules, baseline=False):
    """Write ``code`` at ``src/repro/<rel>`` under ``tmp_path``, lint it."""
    target = tmp_path / "src" / "repro" / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(_HEADER + code, encoding="utf-8")
    return run_lint(paths=["src"], ref_paths=[], rules=rules,
                    baseline=baseline, root=tmp_path)


def active(findings):
    return [f for f in findings if f.status == "active"]


class TestR1FloatReduceat:
    def test_flags_float_reduceat(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def f(v, s):\n    return np.add.reduceat(v, s)\n", {"R1"})
        assert [f.rule for f in active(findings)] == ["R1"]

    def test_integer_operand_is_legal(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def f(s):\n"
            "    ones = np.ones(8, dtype=np.int32)\n"
            "    return np.add.reduceat(ones, s)\n", {"R1"})
        assert active(findings) == []

    def test_astype_cast_is_legal(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def f(v, s):\n"
            "    return np.add.reduceat(v.astype(np.int64), s)\n", {"R1"})
        assert active(findings) == []

    def test_order_safe_ufunc_is_legal(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def f(v, s):\n"
            "    return np.minimum.reduceat(v, s)\n", {"R1"})
        assert active(findings) == []

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def f(v, s):\n"
            "    # repro-lint: ok(R1): test fixture\n"
            "    return np.add.reduceat(v, s)\n", {"R1"})
        assert active(findings) == []
        assert [f.status for f in findings] == ["suppressed"]


class TestR2Determinism:
    def test_flags_unseeded_global_rng(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "engine/x.py",
            "def f():\n    return np.random.rand(4)\n", {"R2"})
        assert [f.rule for f in active(findings)] == ["R2"]

    def test_seeded_generator_is_legal(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "engine/x.py",
            "def f():\n"
            "    return np.random.default_rng(7).random(4)\n", {"R2"})
        assert active(findings) == []

    def test_unseeded_default_rng_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "engine/x.py",
            "def f():\n    return np.random.default_rng()\n", {"R2"})
        assert len(active(findings)) == 1

    def test_flags_unsorted_glob(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "engine/x.py",
            "def f(root):\n"
            "    return [p for p in root.glob('*.json')]\n", {"R2"})
        assert [f.rule for f in active(findings)] == ["R2"]

    def test_sorted_glob_is_legal(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "engine/x.py",
            "def f(root):\n"
            "    return sorted(root.glob('*.json'))\n", {"R2"})
        assert active(findings) == []

    def test_flags_array_over_set(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def f(s):\n    return np.asarray(set(s))\n", {"R2"})
        assert [f.rule for f in active(findings)] == ["R2"]

    def test_sorted_set_is_legal(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def f(s):\n    return np.asarray(sorted(set(s)))\n", {"R2"})
        assert active(findings) == []

    def test_set_array_outside_numeric_packages_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "workloads/x.py",
            "def f(s):\n    return np.asarray(set(s))\n", {"R2"})
        assert active(findings) == []


class TestR3DtypeDrift:
    def test_flags_dtypeless_zeros_in_columnar_module(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/frameir.py",
            "def f():\n    return np.zeros(4)\n", {"R3"})
        assert [f.rule for f in active(findings)] == ["R3"]

    def test_explicit_dtype_is_legal(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/frameir.py",
            "def f():\n    return np.zeros(4, dtype=np.int64)\n", {"R3"})
        assert active(findings) == []

    def test_non_columnar_module_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/other.py",
            "def f():\n    return np.zeros(4)\n", {"R3"})
        assert active(findings) == []

    def test_flags_bare_literal_in_concatenate(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "hwmodel/caches.py",
            "def f(c):\n"
            "    return np.concatenate(([0], np.cumsum(c)))\n", {"R3"})
        assert [f.rule for f in active(findings)] == ["R3"]

    def test_typed_literal_in_concatenate_is_legal(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "hwmodel/caches.py",
            "def f(c, n):\n"
            "    return np.concatenate(([np.int64(n)], np.cumsum(c)))\n",
            {"R3"})
        assert active(findings) == []

    def test_baseline_grandfathers_finding(self, tmp_path):
        code = "def f():\n    return np.zeros(4)\n"
        findings = lint_snippet(tmp_path, "render/frameir.py", code, {"R3"})
        assert len(active(findings)) == 1
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, findings)
        again = lint_snippet(tmp_path, "render/frameir.py", code, {"R3"},
                             baseline=baseline)
        assert active(again) == []
        assert [f.status for f in again] == ["baselined"]

    def test_baseline_survives_line_drift(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/frameir.py",
            "def f():\n    return np.zeros(4)\n", {"R3"})
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, findings)
        shifted = "X = 1\nY = 2\n\n\ndef f():\n    return np.zeros(4)\n"
        again = lint_snippet(tmp_path, "render/frameir.py", shifted,
                             {"R3"}, baseline=baseline)
        assert active(again) == []


class TestR4Registry:
    def test_flags_unregistered_checkpoint(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "from repro import faults\n\n"
            "def f():\n    return faults.checkpoint('bogus.point')\n",
            {"R4"})
        assert [f.rule for f in active(findings)] == ["R4"]

    def test_registered_checkpoint_is_legal(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "from repro import faults\n\n"
            "def f():\n    return faults.checkpoint('rasterize')\n", {"R4"})
        assert [f for f in active(findings)
                if f.path.endswith("x.py")] == []

    def test_flags_direct_environ_read(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def f():\n    return os.environ.get('REPRO_IR', 'auto')\n",
            {"R4"})
        assert [f.rule for f in active(findings)] == ["R4"]

    def test_flags_environ_subscript(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def f():\n    return os.environ['REPRO_COHERENCE']\n", {"R4"})
        assert len(active(findings)) == 1

    def test_flags_unregistered_knob_name(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "from repro import knobs\n\n"
            "def f():\n    return knobs.env('REPRO_NOPE')\n", {"R4"})
        assert [f.rule for f in active(findings)] == ["R4"]

    def test_registered_knob_read_is_legal(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "from repro import knobs\n\n"
            "def f():\n    return knobs.env('REPRO_FAULTS')\n", {"R4"})
        assert [f for f in active(findings)
                if f.path.endswith("x.py")] == []

    def test_non_repro_environ_read_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def f():\n    return os.environ.get('HOME')\n", {"R4"})
        assert active(findings) == []


class TestR5Oracles:
    def test_flags_undeclared_mode_literal(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def f(ir='bogus'):\n    return ir == 'also-bogus'\n", {"R5"})
        assert {f.rule for f in active(findings)} == {"R5"}
        assert len(active(findings)) == 2
        # Stale callers of the retired strict aliases are flagged too.
        stale = (("ir='frameir'", "rasterize_splats(s, 8, 8, ir='frameir')"),
                 ("coherence='incremental'",
                  "RenderSession(s, coherence='incremental')"))
        for n, (literal, call) in enumerate(stale):
            findings = lint_snippet(
                tmp_path, f"render/stale{n}.py",
                f"def f(s):\n    return {call}\n", {"R5"})
            messages = [f.message for f in active(findings)
                        if f.path.endswith(f"stale{n}.py")]
            assert len(messages) == 1
            assert messages[0].startswith(f"{literal} is not a declared mode")

    def test_declared_mode_literals_are_legal(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def f(ir='auto', coherence='off'):\n"
            "    return ir in ('auto', 'legacy')\n", {"R5"})
        assert [f for f in active(findings)
                if f.path.endswith("x.py")] == []

    def test_untested_oracle_symbol_flagged(self, tmp_path):
        # Defines a declared oracle symbol with no tests/ referencing it.
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def rasterize_splats_scalar():\n    return None\n", {"R5"})
        assert any("never exercised" in f.message
                   for f in active(findings))

    def test_live_tree_oracles_covered(self):
        findings = run_lint(rules={"R5"})
        assert active(findings) == []


class TestR6SharedState:
    _WRITER = ("_MEMO = {}\n\n"
               "def run_frames(tasks):\n    return list(tasks)\n\n"
               "def f(k, v):\n    _MEMO[k] = v\n")

    def test_flags_unlocked_global_write(self, tmp_path):
        findings = lint_snippet(tmp_path, "engine/x.py", self._WRITER,
                                {"R6"})
        assert [f.rule for f in active(findings)] == ["R6"]

    def test_locked_write_is_legal(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "engine/x.py",
            "import threading\n\n"
            "_MEMO = {}\n_LOCK = threading.RLock()\n\n"
            "def run_frames(tasks):\n    return list(tasks)\n\n"
            "def f(k, v):\n"
            "    with _LOCK:\n        _MEMO[k] = v\n", {"R6"})
        assert active(findings) == []

    def test_unreachable_module_ignored(self, tmp_path):
        # No run_frames definition/call and no import path to one.
        findings = lint_snippet(
            tmp_path, "workloads/x.py",
            "_MEMO = {}\n\ndef f(k, v):\n    _MEMO[k] = v\n", {"R6"})
        assert active(findings) == []

    def test_mutating_method_call_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "engine/x.py",
            "_SEEN = []\n\n"
            "def run_frames(tasks):\n    return list(tasks)\n\n"
            "def f(v):\n    _SEEN.append(v)\n", {"R6"})
        assert [f.rule for f in active(findings)] == ["R6"]

    def test_pragma_suppresses(self, tmp_path):
        code = self._WRITER.replace(
            "    _MEMO[k] = v",
            "    # repro-lint: ok(R6): test fixture\n    _MEMO[k] = v")
        findings = lint_snippet(tmp_path, "engine/x.py", code, {"R6"})
        assert active(findings) == []


class TestEngine:
    def test_unknown_rule_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="R99"):
            lint_snippet(tmp_path, "render/x.py", "X = 1\n", {"R99"})

    def test_finding_key_ignores_line_numbers(self):
        a = Finding("R1", "error", "src/x.py", 10, 0, "m", scope="f",
                    source="np.add.reduceat(v, s)")
        b = Finding("R1", "error", "src/x.py", 99, 4, "m", scope="f",
                    source="  np.add.reduceat(v,  s)  ")
        assert a.key() == b.key()

    def test_pragma_parser_multi_rule(self):
        pragmas = parse_pragmas(
            ["x = 1  # repro-lint: ok(R1, R6): both apply"])
        assert pragmas == {1: {"R1", "R6"}}

    def test_json_report_is_stable(self, tmp_path):
        code = "def f(v, s):\n    return np.add.reduceat(v, s)\n"
        first = format_json(lint_snippet(tmp_path, "render/x.py", code,
                                         {"R1"}))
        second = format_json(lint_snippet(tmp_path, "render/x.py", code,
                                          {"R1"}))
        assert first == second
        payload = json.loads(first)
        assert payload["counts"]["active"] == 1
        assert payload["findings"][0]["rule"] == "R1"

    def test_text_report_has_location_and_summary(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "render/x.py",
            "def f(v, s):\n    return np.add.reduceat(v, s)\n", {"R1"})
        text = format_text(findings)
        assert "src/repro/render/x.py:5" in text
        assert "1 active" in text


class TestLiveTree:
    def test_live_tree_has_zero_active_findings(self):
        """The CI gate: the committed tree lints clean."""
        findings = run_lint()
        assert active(findings) == [], format_text(findings)

    def test_cli_exit_codes(self):
        clean = subprocess.run(
            [sys.executable, "-m", "repro", "lint"],
            capture_output=True, text=True)
        assert clean.returncode == 0, clean.stdout + clean.stderr

    def test_cli_json_round_trips(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--format", "json"],
            capture_output=True, text=True)
        payload = json.loads(out.stdout)
        assert payload["counts"]["active"] == 0
        assert set(payload["rules"]) == {"R1", "R2", "R3", "R4", "R5",
                                         "R6"}

    def test_cli_nonzero_on_new_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n\n"
            "def f(v, s):\n    return np.add.reduceat(v, s)\n",
            encoding="utf-8")
        run = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(bad)],
            capture_output=True, text=True)
        assert run.returncode == 1
        assert "R1" in run.stdout

    def test_counts_helper(self):
        findings = run_lint()
        summary = counts(findings)
        assert summary["active"] == 0
        assert set(summary) == {"active", "suppressed", "baselined"}
