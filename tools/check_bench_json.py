#!/usr/bin/env python3
"""Guard the checked-in bench trajectories.

Every ``BENCH_*.json`` file named in CHANGES.md is a commitment: the
repo root must contain it, it must parse as JSON, and it must hold at
least one row (a non-empty list of objects, or a dict with a non-empty
``rows`` list — both shapes TextTable::to_json has emitted). A bench
rerun that crashed half-way or wrote somewhere else fails CI here
instead of silently shipping a stale or missing trajectory.

Usage: python3 tools/check_bench_json.py [repo_root]
Exit code 0 if every named trajectory is present and parsable, 1
otherwise (with one line per problem on stderr).
"""

import json
import re
import sys
from pathlib import Path


def named_trajectories(changes_text: str) -> list[str]:
    names = re.findall(r"\bBENCH_[A-Za-z0-9_]+\.json\b", changes_text)
    # Preserve first-mention order, drop duplicates.
    return list(dict.fromkeys(names))


def truthy_cell(value) -> bool:
    """TextTable emits booleans as yes/no strings in some columns and as
    JSON booleans/ints in others; accept the union."""
    if value in (True, 1):
        return True
    return isinstance(value, str) and value.lower() in {"yes", "true", "1", "on"}


def check_batched_rows(name: str, doc, problems: list[str]) -> None:
    """BENCH_convergence.json must record the bit-sliced engine: every row
    carries a ``batched`` key and at least one row ran batched. A rerun
    that silently fell back to the scalar engines (or was regenerated with
    ``--batched off``) fails Release CI here instead of shipping a
    trajectory that no longer measures the batch engine."""
    if not isinstance(doc, list):
        problems.append(f"{name}: expected a row list to check batched coverage")
        return
    missing = [i for i, row in enumerate(doc)
               if not isinstance(row, dict) or "batched" not in row]
    if missing:
        problems.append(
            f"{name}: rows {missing[:5]} lack the 'batched' column")
        return
    if not any(truthy_cell(row["batched"]) for row in doc):
        problems.append(
            f"{name}: no row ran with the batched engine "
            "(regenerate without --batched off)")


def check_spill_rows(name: str, doc, problems: list[str]) -> None:
    """BENCH_modelcheck.json must track the out-of-core tier: every row
    carries ``spill_bytes`` (0 for the in-RAM modes) and at least one row
    actually ran ``mode == "spill"`` with a nonzero stream. A rerun that
    dropped the column or never exercised the spill backend fails CI here
    instead of shipping a trajectory that no longer measures Phase B's
    disk tier."""
    if not isinstance(doc, list):
        problems.append(f"{name}: expected a row list to check spill coverage")
        return
    missing = [i for i, row in enumerate(doc)
               if not isinstance(row, dict) or "spill_bytes" not in row]
    if missing:
        problems.append(
            f"{name}: rows {missing[:5]} lack the 'spill_bytes' column")
        return
    def spilled(row):
        try:
            return row.get("mode") == "spill" and int(row["spill_bytes"]) > 0
        except (TypeError, ValueError):
            return False
    if not any(spilled(row) for row in doc):
        problems.append(
            f"{name}: no row ran the spill storage mode with a nonzero "
            "stream; regenerate with the out-of-core rows enabled")


def check_multiring_rows(name: str, doc, problems: list[str]) -> None:
    """BENCH_multiring.json must chart the reactor scaling claim: at least
    three scale rows, each carrying ``rings``, ``handovers_per_sec`` and
    ``p99_us``. A rerun that dropped the 100k row or renamed the latency
    column fails CI here instead of shipping a trajectory that no longer
    backs E27."""
    if not isinstance(doc, list):
        problems.append(f"{name}: expected a row list of scale points")
        return
    if len(doc) < 3:
        problems.append(
            f"{name}: only {len(doc)} scale rows; need >= 3 (1k/10k/100k)")
        return
    required = ("rings", "handovers_per_sec", "p99_us")
    for i, row in enumerate(doc):
        missing = [k for k in required
                   if not isinstance(row, dict) or k not in row]
        if missing:
            problems.append(f"{name}: row {i} lacks columns {missing}")
            return


def check_cst_rows(name: str, doc, problems: list[str]) -> None:
    """BENCH_cst.json must chart the sharded-engine scaling claim: at
    least three scale rows, each carrying ``n``, ``workers`` and
    ``events_per_sec``. A rerun that dropped the million-node row or
    renamed the throughput column fails CI here instead of shipping a
    trajectory that no longer backs E28."""
    if not isinstance(doc, list):
        problems.append(f"{name}: expected a row list of scale points")
        return
    if len(doc) < 3:
        problems.append(
            f"{name}: only {len(doc)} scale rows; need >= 3 (10^4/10^5/10^6)")
        return
    required = ("n", "workers", "events_per_sec")
    for i, row in enumerate(doc):
        missing = [k for k in required
                   if not isinstance(row, dict) or k not in row]
        if missing:
            problems.append(f"{name}: row {i} lacks columns {missing}")
            return


def row_count(doc) -> int:
    """Rows in either emitted shape: a bare list of row objects
    (TextTable::to_json) or a dict wrapping one or more row lists under
    keys like ``rows``/``runs`` (the telemetry benches)."""
    if isinstance(doc, list):
        return len(doc)
    if isinstance(doc, dict):
        list_lens = [len(v) for v in doc.values() if isinstance(v, list)]
        if list_lens:
            return max(list_lens)
        return 1 if doc else 0
    return 0


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent
    changes = root / "CHANGES.md"
    if not changes.is_file():
        print(f"error: {changes} not found", file=sys.stderr)
        return 1
    names = named_trajectories(changes.read_text(encoding="utf-8"))
    if not names:
        print("check_bench_json: CHANGES.md names no BENCH_*.json; nothing to do")
        return 0
    problems = []
    for name in names:
        path = root / name
        if not path.is_file():
            problems.append(f"{name}: named in CHANGES.md but missing from the repo root")
            continue
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            problems.append(f"{name}: unparsable JSON ({err})")
            continue
        rows = row_count(doc)
        if rows == 0:
            problems.append(f"{name}: parsed but holds no rows")
            continue
        if name == "BENCH_convergence.json":
            before = len(problems)
            check_batched_rows(name, doc, problems)
            if len(problems) > before:
                continue
        if name == "BENCH_modelcheck.json":
            before = len(problems)
            check_spill_rows(name, doc, problems)
            if len(problems) > before:
                continue
        if name == "BENCH_multiring.json":
            before = len(problems)
            check_multiring_rows(name, doc, problems)
            if len(problems) > before:
                continue
        if name == "BENCH_cst.json":
            before = len(problems)
            check_cst_rows(name, doc, problems)
            if len(problems) > before:
                continue
        print(f"check_bench_json: {name} ok ({rows} rows)")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
