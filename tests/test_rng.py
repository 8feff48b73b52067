import numpy as np

from ccc.rng import RngStream

# Frozen once from the chosen generator (PCG64 behind sha256-derived keys).
GOLDEN_SEED0 = [
    0.493826989824391,
    0.4896440812809192,
    0.9938528629487524,
    0.6693565802703803,
    0.09445572458652518,
]


def test_same_seed_same_sequence():
    a = RngStream(42).uniform(100)
    b = RngStream(42).uniform(100)
    assert np.array_equal(a, b)


def test_split_tags_differ():
    s = RngStream(42)
    a = s.split("a").uniform(50)
    b = s.split("b").uniform(50)
    assert not np.array_equal(a, b)


def test_split_is_deterministic():
    a = RngStream(7).split("x").split("y").uniform(10)
    b = RngStream(7).split("x").split("y").uniform(10)
    assert np.array_equal(a, b)


def test_split_does_not_disturb_parent():
    s = RngStream(5)
    first = RngStream(5).uniform(4)
    s.split("child")
    assert np.array_equal(s.uniform(4), first)


def test_golden_sequence_seed0():
    got = RngStream(0).uniform(5)
    assert np.array_equal(got, np.array(GOLDEN_SEED0))


def test_scalar_and_vector_draws_agree():
    vec = RngStream(0).uniform(5)
    s = RngStream(0)
    scalars = np.array([s.uniform() for _ in range(5)])
    assert np.array_equal(vec, scalars)


def test_permutation_deterministic():
    assert np.array_equal(RngStream(9).permutation(20), RngStream(9).permutation(20))


def test_uniform_ahead_reads_past_skip_without_moving():
    s = RngStream(12)
    s.uniform(3)  # an odd offset, so the read-ahead starts mid-stream
    state = s.gen.bit_generator.state
    ahead = s.uniform_ahead(1000, (40, 3))
    assert s.gen.bit_generator.state == state
    s.uniform(1000)
    assert np.array_equal(ahead, s.uniform((40, 3)))


def test_uniform_ahead_of_zero_is_the_next_draw():
    s = RngStream(13)
    assert np.array_equal(s.uniform_ahead(0, 5), s.uniform(5))
