"""Shared experiment plumbing: caching, block sizes and table formatting."""
from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from pyspark.sql import DataFrame


@contextmanager
def cached(df: DataFrame) -> Iterator[DataFrame]:
    """Cache ``df`` for the body of a ``with`` block, then unpersist it."""
    df = df.cache()
    try:
        yield df
    finally:
        df.unpersist()


def round_robin_sizes(n: int, b: int) -> dict[int, int]:
    """|B_j| for the ``id % b`` block assignment of the generators.

    Block j holds the ids ≡ j (mod b) in [0, n), i.e. ⌈(n − j)/b⌉ rows.
    Passing these as metadata mirrors the paper's assumption that M and
    block sizes come from the catalog, and skips a count job.
    """
    return {j: (n - j + b - 1) // b for j in range(b)}


def fmt_table(headers: list[str], rows: list[list]) -> str:
    """Render a result grid as GitHub-flavoured markdown."""
    def cell(x) -> str:
        if isinstance(x, float):
            return f"{x:.4f}"
        return str(x)

    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for r in rows:
        out.append("| " + " | ".join(cell(x) for x in r) + " |")
    return "\n".join(out)
