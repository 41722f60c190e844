"""Extra DuckDB-oracle checks over the synthetic datasets: the
statistics the cleaner consumes, decoded to strings, agree with plain
SQL over the same input, on real (generated) data rather than toy
frames."""
import numpy as np
import pandas as pd
import pytest

from repro.core.compensatory import (corr_counts, encode, tuple_confidence,
                                     uc_verdicts)
from repro.core.constraints import uc_mask
from repro.core.cpt import cpt_counts, value_counts
from repro.core.model import build_vocab, encode_frame, normalize_missing
from repro.oracle import assert_equivalent
from tests.test_cpt import decoded, long_counts


@pytest.fixture(scope="module")
def hosp(hospital_task):
    """The hospital data's vocabularies, codes and code frame."""
    dirty = normalize_missing(hospital_task.dirty)
    vocab, code = build_vocab(dirty, hospital_task.attrs)
    return vocab, code, encode_frame(dirty, code)


def test_hospital_prior_counts_oracle(hosp, hospital_task):
    vocab, _, codes = hosp
    [out] = cpt_counts(codes, [["State"]])
    assert_equivalent(
        decoded(out, vocab),
        "SELECT State, COUNT(*)::BIGINT AS cnt FROM t "
        "WHERE State IS NOT NULL AND State <> '' GROUP BY State",
        t=hospital_task.dirty,
    )


def test_hospital_cpt_counts_oracle(hosp, hospital_task):
    vocab, _, codes = hosp
    [out] = cpt_counts(codes, [["City", "State"]])
    assert_equivalent(
        decoded(out, vocab),
        "SELECT City, State, COUNT(*)::BIGINT AS cnt FROM t "
        "WHERE City <> '' AND State <> '' GROUP BY City, State",
        t=hospital_task.dirty,
    )


def test_hospital_stateavg_cpt_two_parents_oracle(hosp, hospital_task):
    vocab, _, codes = hosp
    [out] = cpt_counts(codes, [["State", "MeasureCode", "StateAvg"]])
    assert_equivalent(
        decoded(out, vocab),
        "SELECT State, MeasureCode, StateAvg, COUNT(*)::BIGINT AS cnt "
        "FROM t WHERE State <> '' AND MeasureCode <> '' AND StateAvg <> '' "
        "GROUP BY State, MeasureCode, StateAvg",
        t=hospital_task.dirty,
    )


def test_hospital_value_counts_oracle(hosp, hospital_task):
    vocab, code, codes = hosp
    sub = {a: code[a] for a in ["City", "State"]}
    got, counts = value_counts(normalize_missing(hospital_task.dirty), sub)
    assert got.equals(codes[["City", "State"]])
    assert_equivalent(
        long_counts(counts, vocab),
        """
        SELECT attr, value, COUNT(*)::BIGINT AS cnt FROM (
          SELECT 'City' AS attr, City AS value FROM t WHERE City <> ''
          UNION ALL SELECT 'State', State FROM t WHERE State <> ''
        ) GROUP BY attr, value
        """,
        t=hospital_task.dirty,
    )


def test_hospital_corr_pair_counts_oracle(spark, hospital_task):
    attrs = ["City", "State", "ZipCode"]
    dirty = normalize_missing(hospital_task.dirty)
    out = corr_counts(spark, dirty, attrs, {})
    sub = out[(out["attr_i"] == "City") & (out["attr_j"] == "State")]
    vocab, _ = encode(dirty, attrs)
    assert_equivalent(
        spark.createDataFrame(pd.DataFrame({
            "city": vocab["City"][sub["c"]], "state": vocab["State"][sub["e"]],
            "cnt": sub["cnt"]})),
        "SELECT City AS city, State AS state, COUNT(*)::BIGINT AS cnt "
        "FROM t WHERE City <> '' AND State <> '' GROUP BY City, State",
        t=hospital_task.dirty,
    )


def test_confidence_count_consistency(hospital_task):
    """Eq. 3 over the vocabulary equals ``uc_mask`` on every cell of the
    hospital data, and every fully-clean tuple has confidence 1."""
    t = hospital_task
    m = len(t.attrs)
    vocab, codes = encode(normalize_missing(t.dirty), t.attrs)
    conf = tuple_confidence(
        codes, [uc_verdicts(t.ucs, a, vocab[a]) for a in t.attrs], lam=1.0)
    ok = sum(uc_mask(t.ucs, a, t.dirty[a]).astype("int64") for a in t.attrs)
    assert conf.tolist() == np.maximum(0.0, (ok - (m - ok)) / m).tolist()
    assert ((conf >= 0) & (conf <= 1)).all()
    # every fully-clean tuple must have confidence 1 under the UCs
    clean_rows = (t.dirty.set_index("tid")[t.attrs]
                  == t.clean.set_index("tid")[t.attrs]).all(axis=1)
    assert clean_rows.any()
    assert (conf[clean_rows.to_numpy()] == 1.0).all()
