"""Deterministic RNG streams."""

from repro.common.rng import rng_stream


def test_same_keys_same_stream():
    a = rng_stream(42, "thread", 3).random(8)
    b = rng_stream(42, "thread", 3).random(8)
    assert list(a) == list(b)


def test_different_keys_differ():
    a = rng_stream(42, "thread", 3).random(8)
    b = rng_stream(42, "thread", 4).random(8)
    assert list(a) != list(b)


def test_different_seeds_differ():
    a = rng_stream(1, "x").random(4)
    b = rng_stream(2, "x").random(4)
    assert list(a) != list(b)


def test_key_types_are_distinguished():
    # int 3 and str "3" should hash identically by design (str() based)
    # so the stable contract is documented behaviour:
    assert list(rng_stream(1, 3).random(4)) == list(rng_stream(1, "3").random(4))
    assert list(rng_stream(1, "a", "b").random(4)) != list(
        rng_stream(1, "ab").random(4)
    )
