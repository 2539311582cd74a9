import numpy as np

from mixlimit import rngstreams


def test_first_draws_of_a_stream_are_pinned():
    # every Monte Carlo report is a function of these streams: a change of
    # bit generator or of key derivation fails here by name
    assert rngstreams.stream_key(0, "x", 0) == (0, 11744054336188686374)
    g = rngstreams.stream(0, "x", 0)
    assert isinstance(g.bit_generator, np.random.SFC64)
    assert g.bit_generator.random_raw(3).tolist() == [
        2902873928433372647, 3508121269413940898, 13505553919929679023]
    assert rngstreams.stream(0, "x", 0).standard_normal(3).tolist() == [
        -0.650291316734866, 0.9262576135723369, 1.6097891714033843]


def test_distinct_label_tuples_give_distinct_streams():
    tuples = [(0,), (1,), (0, "x"), (1, "x"), (0, "y"), (0, "x", 0), (0, "x", 1),
              (0, "x", 0, 0), (0, 0, "x"), (0, "xy"), (0, "x", "y"), (2**64 - 1, "x"),
              (0, "path", "35abcd9f21f7eda2", 0), (0, "path", "35abcd9f21f7eda2", 1)]
    keys = {rngstreams.stream_key(*t) for t in tuples}
    draws = {tuple(rngstreams.stream(*t).bit_generator.random_raw(4).tolist()) for t in tuples}
    assert len(keys) == len(draws) == len(tuples)


def test_a_stream_reproduces():
    a = rngstreams.stream(7, "bdlp-integral", 3).standard_normal(1000)
    b = rngstreams.stream(7, "bdlp-integral", 3).standard_normal(1000)
    assert a.tobytes() == b.tobytes()
