"""Small-scale integration runs of every table experiment.

These verify structure and the paper's qualitative *shape* at reduced n
(the benchmark-scale runs that populate EXPERIMENTS.md use the full
defaults).
"""
import pytest
from pyspark.sql import functions as F

import repro.experiments as experiments
from repro.baselines import mv_avg, uniform_avg
from repro.core import ISLAConfig, isla_avg
from repro.experiments import (
    EXPERIMENTS,
    fmt_table,
    grid,
    run_datasize,
    run_efficiency,
    run_noniid,
    run_realdata,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
)
from repro.experiments.__main__ import main


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, spark):
        return run_table3(spark, n=120_000, n_datasets=2, e=0.5)

    def test_structure(self, result):
        assert len(result["ISLA"]) == 2
        assert len(result["MV"]) == 2
        assert len(result["MVB"]) == 2

    def test_isla_within_precision(self, result):
        # At e=0.5 the estimator std is ≈0.4, so "within e" holds in
        # expectation, not surely — assert 2e per dataset.
        for ans in result["ISLA"]:
            assert abs(ans - 100.0) < 1.0

    def test_mv_shows_sigma2_over_mu_bias(self, result):
        """Table III shape: MV ≈ 104 on N(100, 20²)."""
        for ans in result["MV"]:
            assert ans == pytest.approx(104.0, abs=1.0)

    def test_ordering_isla_best_mv_worst(self, result):
        isla_err = abs(result["ISLA_avg"] - 100.0)
        mvb_err = abs(result["MVB_avg"] - 100.0)
        mv_err = abs(result["MV_avg"] - 100.0)
        assert isla_err < mv_err
        assert mvb_err < mv_err


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self, spark):
        return run_table4(spark, n=120_000, e=0.5)

    def test_structure(self, result):
        assert len(result["blocks"]) == 10
        assert len(result["ISLA"]) == 10
        assert len(result["MV"]) == 10
        assert len(result["MVB"]) == 10

    def test_isla_partials_modulated_toward_mu(self, result):
        """Table IV shape: every ISLA partial lands near μ (bounded by
        the sketch CI clamp, t_e·e = 1.5 here, plus sketch error) while
        MV partials carry the ≈+4 bias."""
        for p in result["ISLA"]:
            assert abs(p - 100.0) < 2.5
        for p in result["MV"]:
            assert p == pytest.approx(104.0, abs=2.0)

    def test_sketch0_recorded(self, result):
        assert abs(result["sketch0"] - 100.0) < 2.0


class TestTable5:
    @pytest.fixture(scope="class")
    def result(self, spark):
        return run_table5(spark, n=120_000, n_datasets=2, e=0.5)

    def test_structure(self, result):
        assert len(result["ISLA"]) == len(result["US"]) == len(result["STS"]) == 2

    def test_all_near_precision(self, result):
        # ISLA at r/3 has std ≈ 0.4 vs the bound 0.5 — assert errors of
        # mean-within-e and each-within-2e (the paper's 5 reported runs
        # all landed inside e; that is the lucky half of this spread).
        for k in ("ISLA", "US", "STS"):
            errs = [abs(a - 100.0) for a in result[k]]
            assert max(errs) < 1.0
            assert sum(errs) / len(errs) < 0.5

    def test_isla_uses_about_a_third_of_the_samples(self, result):
        """§VIII-B: ISLA draws r/3 and only S∪L of those participate."""
        for part, full in zip(result["isla_samples"], result["us_samples"]):
            assert part < 0.30 * full


class TestTable6:
    @pytest.fixture(scope="class")
    def result(self, spark):
        return run_table6(spark, n=120_000, gammas=(0.1, 0.2), e=0.1)

    def test_mv_doubles_the_mean(self, result):
        """Table VI shape: MV ≈ 2/γ on Exp(γ)."""
        for acc, mv in zip(result["Accurate"], result["MV"]):
            assert mv == pytest.approx(2 * acc, rel=0.05)

    def test_isla_closest(self, result):
        for acc, isla, mv, mvb in zip(
            result["Accurate"], result["ISLA"], result["MV"], result["MVB"]
        ):
            assert abs(isla - acc) < abs(mv - acc)
            assert abs(isla - acc) < 0.15 * acc


class TestTable7:
    @pytest.fixture(scope="class")
    def result(self, spark):
        return run_table7(spark, n=120_000, n_datasets=2, e=0.5)

    def test_mv_biased_to_132(self, result):
        for mv in result["MV"]:
            assert mv == pytest.approx(132.7, abs=1.5)

    def test_isla_much_closer_than_competitors(self, result):
        for isla, mv, mvb in zip(result["ISLA"], result["MV"], result["MVB"]):
            assert abs(isla - 100.0) < abs(mv - 100.0)
            assert abs(isla - 100.0) < abs(mvb - 100.0) + 0.5
            assert abs(isla - 100.0) < 2.0


class TestNonIID:
    def test_within_precision(self, spark):
        res = run_noniid(spark, n_per_block=20_000, n_runs=1, e=0.5)
        assert res["accurate"] == 100.0
        for ans in res["ISLA"]:
            assert abs(ans - 100.0) < 1.5


class TestDataSize:
    def test_answers_stable_across_sizes(self, spark):
        res = run_datasize(spark, sizes=(60_000, 120_000), e=0.5)
        assert len(res["ISLA"]) == 2
        for ans in res["ISLA"]:
            assert abs(ans - 100.0) < 0.5
        # Eq. (1): m depends only on σ̂/e/β, not on M — the two runs'
        # m differ only through pilot noise in σ̂ (m ∝ σ̂², so ~±10–20%).
        assert res["m_required"][0] == pytest.approx(
            res["m_required"][1], rel=0.3
        )


class TestEfficiency:
    @pytest.fixture(scope="class")
    def result(self, spark):
        return run_efficiency(spark, sf=0.01, repeats=1, e=2000.0)

    def test_all_methods_timed(self, result):
        assert set(result["time_ms"]) == {"ISLA", "MV", "MVB", "US", "STS"}
        assert all(t > 0 for t in result["time_ms"].values())

    def test_unbiased_methods_near_truth(self, result):
        acc = result["accurate"]
        for k in ("US", "STS"):
            assert result["answers"][k] == pytest.approx(acc, rel=0.05)
        # ISLA on the (uniform-ish) price column stays in the ballpark.
        assert result["answers"]["ISLA"] == pytest.approx(acc, rel=0.10)

    def test_mv_overestimates_on_price(self, result):
        """Measure-biased weighting overshoots on any dispersed positive
        column: E[v²]/E[v] > E[v]."""
        assert result["answers"]["MV"] > result["accurate"]


class TestRealData:
    @pytest.fixture(scope="class")
    def result(self, spark):
        return run_realdata(
            spark, n_salary=60_000, n_tlc=60_000, m_target=5_000
        )

    @pytest.mark.parametrize("name", ["salary", "tlc"])
    def test_structure(self, result, name):
        r = result[name]
        for k in ("accurate", "ISLA", "MV", "MVB", "US", "STS"):
            assert k in r

    def test_mv_overestimates_skewed_data(self, result):
        for name in ("salary", "tlc"):
            r = result[name]
            assert r["MV"] > r["accurate"] * 1.2

    def test_isla_beats_mv(self, result):
        for name in ("salary", "tlc"):
            r = result[name]
            assert abs(r["ISLA"] - r["accurate"]) < abs(r["MV"] - r["accurate"])


class TestGrid:
    """The contract every comparison table rests on: ISLA at the
    dataset's seed, each baseline at ``seed + offset`` and ISLA's rate."""

    def test_answers_match_direct_calls(self, spark):
        data = spark.range(60_000).select(
            (F.col("id") % 6).cast("int").alias("block"),
            (F.col("id") % 997).cast("double").alias("v"),
        )
        sizes = {j: 10_000 for j in range(6)}
        cfg = ISLAConfig(e=5.0)
        answers, (res,) = grid(cfg, [(41, sizes, data)], {"US": 5, "MV": 6})
        assert list(answers) == ["ISLA", "US", "MV"]
        assert res.answer == isla_avg(
            data, "v", "block", cfg, block_sizes=sizes, seed=41
        ).answer
        assert answers["ISLA"] == [res.answer]
        assert answers["US"] == [uniform_avg(data, "v", res.pre.rate, seed=46)]
        assert answers["MV"] == [mv_avg(data, "v", res.pre.rate, seed=47)]


class TestFmtTable:
    def test_markdown_shape(self):
        md = fmt_table(["a", "b"], [[1, 2.34567], ["x", 0.5]])
        lines = md.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "2.3457" in lines[2]
        assert lines[3].startswith("| x |")


class TestEntryPoint:
    """``python -m repro.experiments``: registry and argument handling
    (no Spark session is started)."""

    def test_every_name_maps_to_an_exported_runner(self):
        for runner, _, _ in EXPERIMENTS.values():
            assert getattr(experiments, runner.__name__) is runner

    def test_every_experiment_but_datasize_has_a_bench_check(self):
        """A new experiment cannot silently lose its full-scale check."""
        from benchmarks.bench_experiments import SHAPE_CHECKS

        assert list(SHAPE_CHECKS) == [n for n in EXPERIMENTS if n != "datasize"]

    @pytest.mark.parametrize("argv", [["table99"], []])
    def test_unknown_name_exits_nonzero(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code != 0
