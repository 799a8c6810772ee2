import io
import math
import random

import pytest

from bloommap import (
    InvalidDistribution,
    UnknownValue,
    ValueDistribution,
    entropy,
    integer_counts,
    load_distribution,
    new_distribution,
    uniform_distribution,
)


def test_new_distribution_normalizes():
    d = new_distribution([1, 1], ["A", "B"])
    assert d.probs == (0.5, 0.5)
    assert d.labels == (b"A", b"B")

    d = new_distribution([2, 1, 1], ["A", "B", "C"])
    assert d.probs == (0.5, 0.25, 0.25)
    assert d.labels == (b"A", b"B", b"C")


def test_new_distribution_sorts_and_keeps_ties_stable():
    d = new_distribution([1, 3, 1, 3], ["a", "b", "c", "d"])
    assert d.probs == (0.375, 0.375, 0.125, 0.125)
    # equal weights keep their input order after the sort
    assert d.labels == (b"b", b"d", b"a", b"c")


def test_new_distribution_drops_zero_weights():
    d = new_distribution([3, 0, 1], ["x", "y", "z"])
    assert d.labels == (b"x", b"z")
    assert d.probs == (0.75, 0.25)


def test_new_distribution_rejects_bad_weights():
    with pytest.raises(InvalidDistribution):
        new_distribution([0, 0], ["A", "B"])
    with pytest.raises(InvalidDistribution):
        new_distribution([1, -2], ["A", "B"])
    with pytest.raises(InvalidDistribution):
        new_distribution([1, math.nan], ["A", "B"])
    with pytest.raises(InvalidDistribution):
        new_distribution([1, 2], ["A"])
    with pytest.raises(InvalidDistribution):
        new_distribution([], [])


def test_value_distribution_validation():
    with pytest.raises(InvalidDistribution):
        ValueDistribution(probs=(0.25, 0.75), labels=(b"a", b"b"))  # not sorted
    with pytest.raises(InvalidDistribution):
        ValueDistribution(probs=(0.7, 0.2), labels=(b"a", b"b"))  # sums to 0.9
    with pytest.raises(InvalidDistribution):
        ValueDistribution(probs=(0.5, 0.5), labels=(b"a", b"a"))  # dup labels
    with pytest.raises(InvalidDistribution):
        ValueDistribution(probs=(1.0, 0.0), labels=(b"a", b"b"))  # zero entry
    with pytest.raises(InvalidDistribution, match="normal"):
        ValueDistribution(probs=(1.0, 1e-310), labels=(b"a", b"b"))  # subnormal


def test_index_of():
    d = new_distribution([2, 1], ["big", "small"])
    assert d.index_of("big") == 0
    assert d.index_of(b"small") == 1
    with pytest.raises(UnknownValue):
        d.index_of("missing")


def test_entropy_basics():
    assert entropy(new_distribution([1, 1], "ab")) == 1.0
    assert entropy(new_distribution([1], "a")) == 0.0
    assert entropy(new_distribution([2, 1, 1], "abc")) == 1.5
    d = new_distribution([4, 2, 1, 1], "abcd")
    assert entropy(d) == pytest.approx(1.75)


def test_entropy_maximized_by_uniform():
    rnd = random.Random(11)
    for b in (1, 2, 4, 8):
        assert entropy(uniform_distribution(b)) == pytest.approx(math.log2(b) if b > 1 else 0.0)
        # any lopsided distribution over the same alphabet scores lower
        if b > 1:
            weights = [rnd.randint(1, 50) for _ in range(b)]
            weights[0] += 25
            d = new_distribution(weights, [f"v{i}" for i in range(b)])
            assert entropy(d) < math.log2(b)


def test_entropy_permutation_invariant():
    # same multiset of probabilities, different label attachment
    a = new_distribution([5, 3, 2], "xyz")
    b = new_distribution([2, 5, 3], "xyz")
    assert entropy(a) == pytest.approx(entropy(b), abs=1e-15)


def test_integer_counts_examples():
    assert integer_counts(new_distribution([5, 3, 2], "abc"), 10) == (5, 3, 2)
    # largest remainder, first index wins the tie
    assert integer_counts(new_distribution([1, 1], "ab"), 3) == (2, 1)
    assert integer_counts(new_distribution([1], "a"), 7) == (7,)


def test_integer_counts_sum_property():
    rnd = random.Random(42)
    for _ in range(1000):
        b = rnd.randint(1, 9)
        weights = [rnd.randint(1, 100) for _ in range(b)]
        d = new_distribution(weights, [f"v{i}" for i in range(b)])
        n = rnd.randint(1, 10_000)
        counts = integer_counts(d, n)
        assert sum(counts) == n
        assert all(c >= 0 for c in counts)
        # a value expecting at least one key gets at least one key
        for p, c in zip(d.probs, counts):
            if p * n >= 1:
                assert c >= 1


def test_new_distribution_output_is_always_valid():
    rnd = random.Random(9)
    for _ in range(500):
        b = rnd.randint(1, 12)
        weights = [rnd.random() for _ in range(b)]
        weights[rnd.randrange(b)] += 0.5  # keep at least one clearly positive
        d = new_distribution(weights, [f"v{i}" for i in range(b)])
        assert all(x >= y for x, y in zip(d.probs, d.probs[1:]))
        assert all(p > 0 for p in d.probs)
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-9)


def test_uniform_distribution():
    d = uniform_distribution(4)
    assert d.probs == (0.25,) * 4
    assert d.labels == (b"v0", b"v1", b"v2", b"v3")
    with pytest.raises(InvalidDistribution):
        uniform_distribution(0)


def test_load_distribution_from_stream_and_file(tmp_path):
    text = "high\t6\nlow\t2\n\nmid\t2\n"
    d = load_distribution(io.StringIO(text))
    assert d.labels == (b"high", b"low", b"mid")
    assert d.probs == (0.6, 0.2, 0.2)

    path = tmp_path / "dist.tsv"
    path.write_text(text, encoding="utf-8")
    assert load_distribution(path).probs == d.probs


def test_load_distribution_errors():
    with pytest.raises(InvalidDistribution):
        load_distribution(io.StringIO("only-one-column\n"))
    with pytest.raises(InvalidDistribution):
        load_distribution(io.StringIO("a\tnot-a-number\n"))
    with pytest.raises(InvalidDistribution):
        load_distribution(io.StringIO(""))
    with pytest.raises(InvalidDistribution, match="binary stream BytesIO"):
        load_distribution(io.BytesIO(b"a\t1\n"))
