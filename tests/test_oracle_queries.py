"""Extra DuckDB-oracle checks over the synthetic datasets: the Spark
statistics the cleaner consumes agree with plain SQL over the same
input, on real (generated) data rather than toy frames."""
import pytest

from repro.core.compensatory import corr_counts, tuple_confidence
from repro.core.cpt import cpt_counts, value_counts
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def hosp(spark, hospital_task):
    return spark.createDataFrame(hospital_task.dirty).cache()


def test_hospital_prior_counts_oracle(spark, hosp, hospital_task):
    [out] = cpt_counts(hosp, [["State"]])
    assert_equivalent(
        spark.createDataFrame(out),
        "SELECT State, COUNT(*)::BIGINT AS cnt FROM t "
        "WHERE State IS NOT NULL AND State <> '' GROUP BY State",
        t=hospital_task.dirty,
    )


def test_hospital_cpt_counts_oracle(spark, hosp, hospital_task):
    [out] = cpt_counts(hosp, [["City", "State"]])
    assert_equivalent(
        spark.createDataFrame(out),
        "SELECT City, State, COUNT(*)::BIGINT AS cnt FROM t "
        "WHERE City <> '' AND State <> '' GROUP BY City, State",
        t=hospital_task.dirty,
    )


def test_hospital_stateavg_cpt_two_parents_oracle(spark, hosp,
                                                  hospital_task):
    [out] = cpt_counts(hosp, [["State", "MeasureCode", "StateAvg"]])
    assert_equivalent(
        spark.createDataFrame(out),
        "SELECT State, MeasureCode, StateAvg, COUNT(*)::BIGINT AS cnt "
        "FROM t WHERE State <> '' AND MeasureCode <> '' AND StateAvg <> '' "
        "GROUP BY State, MeasureCode, StateAvg",
        t=hospital_task.dirty,
    )


def test_hospital_value_counts_oracle(spark, hosp, hospital_task):
    out = value_counts(hosp, ["City", "State"])
    assert_equivalent(
        spark.createDataFrame(out),
        """
        SELECT attr, value, COUNT(*)::BIGINT AS cnt FROM (
          SELECT 'City' AS attr, City AS value FROM t WHERE City <> ''
          UNION ALL SELECT 'State', State FROM t WHERE State <> ''
        ) GROUP BY attr, value
        """,
        t=hospital_task.dirty,
    )


def test_hospital_corr_pair_counts_oracle(spark, hosp, hospital_task):
    out = corr_counts(hosp, ["City", "State", "ZipCode"], {})
    sub = out[(out["attr_i"] == "City") & (out["attr_j"] == "State")]
    assert_equivalent(
        spark.createDataFrame(
            sub[["c", "e", "cnt"]].rename(columns={"c": "city",
                                                   "e": "state"})),
        "SELECT City AS city, State AS state, COUNT(*)::BIGINT AS cnt "
        "FROM t WHERE City <> '' AND State <> '' GROUP BY City, State",
        t=hospital_task.dirty,
    )


def test_confidence_count_consistency(spark, hosp, hospital_task):
    t = hospital_task
    conf = tuple_confidence(hosp, t.attrs, t.ucs, lam=1.0).toPandas()
    assert len(conf) == len(t.dirty)
    assert conf["conf"].between(0, 1).all()
    # every fully-clean tuple must have confidence 1 under the UCs
    clean_rows = (t.dirty.set_index("tid")[t.attrs]
                  == t.clean.set_index("tid")[t.attrs]).all(axis=1)
    ok = conf.set_index("tid")["conf"][clean_rows[clean_rows].index]
    assert (ok == 1.0).all()
