"""The instrument catalogue has no stale rows.

OBS002 checks that every literal instrument name in ``src/repro/`` is
catalogued in ``docs/observability.md``. This checks the other
direction: every name in the catalogue tables (and the event list) must
still be produced somewhere under ``src/repro/`` — as a string literal,
or as the literal prefix of an f-string (``f"latency.eval.{key}"``) — so
deleting an instrument cannot leave a dead row behind. ``benchmarks/``
counts too: the ``retrain_perf.*`` gauges its CI-gated perf benchmark
sets are catalogued there.
"""

import ast
import re
from pathlib import Path

from repro.lint.context import extract_obs_names

ROOT = Path(__file__).resolve().parents[2]
CATALOGUE = ROOT / "docs" / "observability.md"
SOURCES = (ROOT / "src" / "repro", ROOT / "benchmarks")

_EVENT_BULLET = re.compile(r"^- `([a-z_]+)` —")


def catalogued_names(text):
    """First-column names of every table row plus the event bullets of
    the "Structured events" section."""
    names = set()
    section = ""
    for line in text.splitlines():
        if line.startswith("## "):
            section = line[3:].strip()
        if line.startswith("|") and "`" in line:
            names |= extract_obs_names(line.split("|")[1])
        match = _EVENT_BULLET.match(line)
        if match and section == "Structured events":
            names.add(match.group(1))
    return names


def source_literals():
    """String literals and f-string literal prefixes in ``SOURCES``."""
    literals, prefixes = set(), set()
    for path in sorted(p for root in SOURCES for p in root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
            elif isinstance(node, ast.JoinedStr) and node.values:
                head = node.values[0]
                if isinstance(head, ast.Constant) and head.value:
                    prefixes.add(head.value)
    return literals, prefixes


def test_parser_reads_tables_and_event_bullets():
    text = (
        "## Metric catalogue\n"
        "| Name | Meaning |\n|---|---|\n"
        "| `exbox.poll_network` / `revalidator.poll` | round |\n"
        "| `sim.time` | clock; see `obs.enabled` |\n"
        "- `not_an_event` — outside the events section\n"
        "## Structured events\n"
        "- `admission_decision` — one per arrival\n"
    )
    assert catalogued_names(text) == {
        "exbox.poll_network",
        "revalidator.poll",
        "sim.time",
        "admission_decision",
    }


def test_every_catalogued_name_is_produced_by_the_code():
    names = catalogued_names(CATALOGUE.read_text(encoding="utf-8"))
    assert "admission_decision" in names and "admittance.retrain" in names
    literals, prefixes = source_literals()
    stale = sorted(
        name
        for name in names
        if name not in literals and not any(name.startswith(p) for p in prefixes)
    )
    assert stale == [], f"catalogue rows no code produces: {stale}"
