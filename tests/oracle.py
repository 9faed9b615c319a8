"""DuckDB correctness oracle, and the pandas data it is fed.

``assert_equivalent(spark_df, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``spark_df`` (the
Spark result). This catches wrong results from a rewritten plan or a
custom operator — "it ran" is not "it is correct".

``tables`` may be Spark or pandas DataFrames; Spark inputs are
collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.

``blocked_normal_pdf``/``blocked_uniform_pdf`` build the small pandas
frames that both sides read: the same ``block``/``v`` schema and block
layout as the Spark generators in :mod:`repro.synth_data`, drawn with
numpy so the input is identical on the Spark and the DuckDB side.
"""
import duckdb
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = spark_df.toPandas()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def blocked_normal_pdf(
    *, n: int, b: int = 10, mu: float = 100.0, sigma: float = 20.0,
    seed: int = 0,
) -> pd.DataFrame:
    """pandas twin of :func:`repro.synth_data.blocked_normal` for
    oracle-diffed tests."""
    g = _rng(seed)
    return pd.DataFrame(
        {"block": (np.arange(n) % b).astype("int32"), "v": mu + sigma * g.standard_normal(n)}
    )


def blocked_uniform_pdf(
    *, n: int, b: int = 10, lo: float = 1.0, hi: float = 199.0, seed: int = 0
) -> pd.DataFrame:
    """pandas twin of :func:`repro.synth_data.blocked_uniform`."""
    g = _rng(seed)
    return pd.DataFrame(
        {"block": (np.arange(n) % b).astype("int32"), "v": g.uniform(lo, hi, n)}
    )
