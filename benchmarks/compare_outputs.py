"""Compare two ``experiments_output`` directories answer by answer.

    python3 benchmarks/compare_outputs.py PARENT_DIR CHANGE_DIR

Both directories come from ``python -m repro.experiments all --small``
under the same seed and master, one per commit. Every ``*.json`` of
either side must exist in both, with the same keys in the same order and
equal non-numbers; numbers must agree to 1e-9 relative. ``time_ms``
(efficiency's wall clock) is skipped. Prints each mismatch and the count
of numbers compared; exits 1 on any mismatch.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REL = 1e-9
SKIP = frozenset({"time_ms"})


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk(a, b, path: str, out: list[str]) -> int:
    """Append the mismatches of ``a`` vs ``b`` to ``out``; count numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            out.append(f"{path}: keys {list(a)} != {list(b)}")
            return 0
        return sum(_walk(a[k], b[k], f"{path}.{k}", out) for k in a if k not in SKIP)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
            return 0
        return sum(_walk(x, y, f"{path}[{i}]", out) for i, (x, y) in enumerate(zip(a, b)))
    if _is_number(a) and _is_number(b):
        if not math.isclose(a, b, rel_tol=REL, abs_tol=0.0):
            out.append(f"{path}: {a!r} != {b!r}")
        return 1
    if a != b or type(a) is not type(b):
        out.append(f"{path}: {a!r} != {b!r}")
    return 0


def compare(parent: Path, change: Path) -> tuple[int, list[str]]:
    """(numbers compared, mismatches) over every JSON file of both dirs."""
    names = sorted({p.name for d in (parent, change) for p in d.glob("*.json")})
    mismatches: list[str] = []
    n = 0
    for name in names:
        a, b = parent / name, change / name
        if not (a.exists() and b.exists()):
            mismatches.append(f"{name}: only in {a.parent if a.exists() else b.parent}")
            continue
        n += _walk(json.loads(a.read_text()), json.loads(b.read_text()), name, mismatches)
    return n, mismatches


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    n, mismatches = compare(args.parent, args.change)
    for m in mismatches:
        print(m)
    print(f"{n} numbers compared, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
