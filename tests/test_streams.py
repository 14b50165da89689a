"""Reproducibility of the keyed random streams."""

import numpy as np

from gosman import streams


def test_same_key_same_draws():
    a = streams.stream(7, 3, 0, streams.MEASUREMENT)
    b = streams.stream(7, 3, 0, streams.MEASUREMENT)
    assert np.array_equal(a.random(100), b.random(100))


def test_different_keys_differ():
    a = streams.stream(7, 3, 0, streams.MEASUREMENT)
    b = streams.stream(7, 3, 0, streams.FILTER_PD)
    c = streams.stream(7, 3, 1, streams.MEASUREMENT)
    x = a.random(20)
    assert not np.array_equal(x, b.random(20))
    assert not np.array_equal(x, c.random(20))


def test_purpose_codes_distinct():
    codes = [streams.TRUTH, streams.MEASUREMENT, streams.FILTER_PD,
             streams.PLAN_TREE]
    assert len(set(codes)) == len(codes)
