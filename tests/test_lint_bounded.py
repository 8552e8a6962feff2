"""cdebound (CDE018–CDE019): facts, matching, mutations, determinism.

Fixture-level behaviour (bad trees fire / good trees are clean / rule
isolation) lives in test_lint_rules.py with the rest of the corpus.
This file covers the machinery underneath — alloc/open fact extraction
and the hot-path matcher — plus a **single-statement mutation test**
that copies the real ``src/repro`` tree, reintroduces the regression
CDE019 exists to block, and asserts it is caught with the expected
witness, byte-identically at any cache temperature.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.lint.bounded import extract_bounded_facts
from repro.lint.rules.hot_loop_allocation import hot_path_match

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )


def _facts_of(source: str):
    tree = ast.parse(source)
    func = next(n for n in tree.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return extract_bounded_facts(func, aliases={"os": "os"})


# ---------------------------------------------------------------------------
# fact extraction: allocations and opens
# ---------------------------------------------------------------------------

class TestAllocAndOpenFacts:
    def test_cold_raise_paths_are_exempt(self):
        facts = _facts_of(
            "def f(x):\n"
            "    if x < 0:\n"
            "        raise ValueError(f'bad value {x}')\n"
            "    return f'row-{x}'\n")
        assert len(facts.allocs) == 1
        assert facts.allocs[0].kind == "f-string"
        assert facts.allocs[0].line == 4

    def test_assigned_comprehension_is_not_flagged(self):
        # The sanctioned idiom: binding a comprehension is list-building
        # on purpose; only a throwaway genexp fed straight to a call is a
        # hoistable per-iteration frame.
        facts = _facts_of(
            "def f(xs, out):\n"
            "    kept = [x for x in xs]\n"
            "    out.extend(x for x in xs)\n")
        assert [s.kind for s in facts.allocs] == ["comprehension"]

    def test_part_path_resolves_through_local_assignment(self):
        facts = _facts_of(
            "def f(path, blob):\n"
            "    part = path + '.part'\n"
            "    with open(part, 'wb') as handle:\n"
            "        handle.write(blob)\n"
            "    os.replace(part, path)\n")
        assert len(facts.opens) == 1
        assert facts.opens[0].part and facts.opens[0].mode == "wb"
        assert facts.renames

    def test_read_mode_opens_are_not_recorded(self):
        facts = _facts_of(
            "def f(path):\n"
            "    with open(path, 'r') as handle:\n"
            "        return handle.read()\n")
        assert facts.opens == ()
        assert not facts.renames


# ---------------------------------------------------------------------------
# matchers
# ---------------------------------------------------------------------------

class TestHotPathMatcher:
    SPECS = ("repro/study/engine.py::_fused_probe",
             "repro/study/engine.py::ShardLane._lane_turns")

    def test_function_and_suffix_match(self):
        assert hot_path_match("src/repro/study/engine.py", "_fused_probe",
                              self.SPECS)
        assert hot_path_match("repro/study/engine.py",
                              "ShardLane._lane_turns", self.SPECS)

    def test_nested_scopes_of_a_hot_function_are_hot(self):
        assert hot_path_match("repro/study/engine.py",
                              "_fused_probe.helper", self.SPECS)

    def test_other_files_and_functions_are_cold(self):
        assert not hot_path_match("repro/study/parallel.py", "_fused_probe",
                                  self.SPECS)
        assert not hot_path_match("repro/study/engine.py", "_fused_probes",
                                  self.SPECS)


# ---------------------------------------------------------------------------
# mutation tests over the real tree
# ---------------------------------------------------------------------------

def _copy_src(tmp_path: Path) -> Path:
    target = tmp_path / "src"
    shutil.copytree(SRC / "repro", target / "repro")
    return target


def _mutate(path: Path, old: str, new: str) -> None:
    source = path.read_text()
    assert source.count(old) == 1, f"ambiguous mutation anchor in {path}"
    path.write_text(source.replace(old, new))


def _drop_chunk_publish_rename(tmp_path: Path) -> Path:
    root = _copy_src(tmp_path)
    _mutate(root / "repro/study/export.py",
            "            handle.write(blob)\n"
            "        os.replace(part, path)\n",
            "            handle.write(blob)\n")
    return root


def test_cde019_catches_dropped_atomic_rename(tmp_path):
    """Deleting the chunk publish rename breaks the resume contract; the
    per-function rename fact must not be satisfied by the manifest
    writer's own ``os.replace`` elsewhere in the file."""
    root = _drop_chunk_publish_rename(tmp_path)
    result = run_cli("--no-cache", "--no-config", "--select", "CDE019",
                     "--json", str(root))
    assert result.returncode == 1, result.stdout + result.stderr
    findings = json.loads(result.stdout)["findings"]
    assert len(findings) == 1
    finding = findings[0]
    assert finding["rule"] == "CDE019"
    assert finding["symbol"] == "CensusWriter._flush_chunk"
    assert "never publishes" in finding["message"]


def test_mutated_finding_is_cache_temperature_independent(tmp_path):
    """The same mutation, reported from cold summaries and then replayed
    warm from one cache dir, yields byte-identical findings."""
    root = _drop_chunk_publish_rename(tmp_path)
    cache = str(tmp_path / "cache")
    args = ("--cache-dir", cache, "--no-config", "--select", "CDE019",
            "--json", str(root))
    cold = run_cli(*args)
    warm = run_cli(*args)
    assert cold.returncode == warm.returncode == 1, cold.stdout + cold.stderr
    assert cold.stdout == warm.stdout


# ---------------------------------------------------------------------------
# determinism: cold == warm, byte for byte
# ---------------------------------------------------------------------------

def test_cold_and_warm_reports_are_byte_identical(tmp_path):
    """The cdebound facts live in the summary cache; replaying them warm
    must reproduce the cold JSON report exactly."""
    cache = str(tmp_path / "cache")
    args = ("--cache-dir", cache, "--select", "CDE018,CDE019",
            "--json", "src")
    cold = run_cli(*args)
    warm = run_cli(*args)
    assert cold.returncode == 0, cold.stdout + cold.stderr
    assert cold.stdout == warm.stdout


# ---------------------------------------------------------------------------
# CLI surface: --stats and the CDE014 audit
# ---------------------------------------------------------------------------

def test_stats_prints_per_rule_timings_to_stderr(tmp_path):
    snippet = tmp_path / "clean.py"
    snippet.write_text("def f() -> int:\n    return 1\n")
    plain = run_cli("--no-cache", "--no-config", "--json", str(snippet))
    stats = run_cli("--no-cache", "--no-config", "--json", "--stats",
                    str(snippet))
    assert stats.returncode == 0
    # stdout is byte-identical with and without the flag...
    assert stats.stdout == plain.stdout
    # ...and stderr carries one timing row per rule that ran, plus total.
    assert "per-rule analysis time" in stats.stderr
    for rule_id in ("CDE018", "CDE019", "total"):
        assert rule_id in stats.stderr
    assert "ms" in stats.stderr


def test_unused_cde019_suppression_is_audited(tmp_path):
    snippet = tmp_path / "waiver.py"
    snippet.write_text("def f() -> int:\n"
                       "    return 1  # cdelint: disable=CDE019\n")
    result = run_cli("--no-cache", "--no-config",
                     "--warn-unused-suppressions", str(snippet))
    assert result.returncode == 1
    assert "CDE014" in result.stdout and "CDE019" in result.stdout


def test_used_cde018_suppression_waives_and_is_not_audited(tmp_path):
    tree = tmp_path / "repro" / "study"
    tree.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (tree / "__init__.py").write_text("")
    (tree / "engine.py").write_text(
        "def _leg(x: int) -> str:\n"
        "    return f\"leg-{x}\"  # cdelint: disable=CDE018\n")
    result = run_cli("--no-cache", "--no-config",
                     "--warn-unused-suppressions", str(tmp_path / "repro"))
    assert result.returncode == 0, result.stdout + result.stderr
