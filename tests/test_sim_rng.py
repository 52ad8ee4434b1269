"""Unit tests for the named random-stream registry."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry


def test_same_seed_same_stream():
    a = RngRegistry(7).stream("x")
    b = RngRegistry(7).stream("x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    reg = RngRegistry(7)
    a = [reg.stream("a").random() for _ in range(5)]
    b = [reg.stream("b").random() for _ in range(5)]
    assert a != b


def test_stream_is_cached():
    reg = RngRegistry(7)
    assert reg.stream("x") is reg.stream("x")


def test_consuming_one_stream_does_not_perturb_another():
    reg1 = RngRegistry(7)
    reg1.stream("noise").random()
    value1 = reg1.stream("signal").random()

    reg2 = RngRegistry(7)
    value2 = reg2.stream("signal").random()
    assert value1 == value2


def test_different_seeds_differ():
    a = RngRegistry(1).stream("x").random()
    b = RngRegistry(2).stream("x").random()
    assert a != b


def test_fork_is_deterministic():
    a = RngRegistry(7).fork("child").stream("x").random()
    b = RngRegistry(7).fork("child").stream("x").random()
    assert a == b


def test_fork_differs_from_parent():
    parent = RngRegistry(7)
    child = parent.fork("child")
    assert parent.stream("x").random() != child.stream("x").random()


def test_derive_seed_is_stable_across_calls():
    reg = RngRegistry(42)
    assert reg.derive_seed("name") == reg.derive_seed("name")


def test_derive_seed_is_64_bit():
    seed = RngRegistry(0).derive_seed("x")
    assert 0 <= seed < 2**64


@given(st.integers(), st.text(max_size=50))
def test_derivation_never_collides_with_distinct_suffix(seed, name):
    reg = RngRegistry(seed)
    assert reg.derive_seed(name) != reg.derive_seed(name + "!")


def test_creation_order_does_not_change_a_stream():
    """Streams are hash-derived from (seed, name): one first requested
    after 10 000 others draws what it would have drawn requested first —
    the licence for agents to resolve their stream on the first draw."""
    first = RngRegistry(7).stream("agent:r42")
    expected = [first.random() for _ in range(5)] + [first.uniform(2.0, 3.0)]

    crowded = RngRegistry(7)
    for index in range(10_000):
        crowded.stream(f"agent:other{index}")
    late = crowded.stream("agent:r42")
    assert [late.random() for _ in range(5)] + [late.uniform(2.0, 3.0)] == expected
