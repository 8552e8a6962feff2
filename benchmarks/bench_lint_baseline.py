"""Regenerate the committed clean lint baseline (``LINT_baseline.json``).

Runs ``python -m repro.lint src/ --json`` in benchmarks mode — i.e. the
report is written to the repo root as a committed artifact — so future
changes can diff findings against the clean tree.  The report is fully deterministic (sorted findings, sorted
keys, no timestamps), which is what makes the byte-level diff in CI
meaningful.

Usage::

    python benchmarks/bench_lint_baseline.py

Also runs under pytest (``pytest benchmarks/bench_lint_baseline.py``),
where it asserts the tree is clean and the committed baseline is current.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "LINT_baseline.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lint import LintConfig, run_lint  # noqa: E402


def generate_report() -> dict:
    config = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
    report = run_lint([REPO_ROOT / "src"], config=config)
    payload = report.to_json()
    # Paths relative to the repo root, independent of the invoking cwd.
    for finding in payload["findings"]:
        finding["path"] = finding["path"].replace(
            REPO_ROOT.as_posix() + "/", "")
    return payload


def write_baseline() -> dict:
    payload = generate_report()
    BASELINE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def test_tree_is_clean_and_baseline_current() -> None:
    payload = generate_report()
    assert payload["findings"] == [], payload["findings"]
    assert payload["parse_errors"] == []
    committed = json.loads(BASELINE.read_text())
    assert committed == payload, (
        "LINT_baseline.json is stale — regenerate with "
        "`python benchmarks/bench_lint_baseline.py`"
    )


if __name__ == "__main__":
    result = write_baseline()
    status = "clean" if not result["findings"] else (
        f'{len(result["findings"])} finding(s)')
    print(f"wrote {BASELINE.name}: {result['files_checked']} files, {status}")
    sys.exit(0 if not result["findings"] else 1)
