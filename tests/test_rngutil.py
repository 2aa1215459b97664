import numpy as np
import pytest

from attacksearch.rngutil import MAX_SEED, Stream

STREAMS = [(0, ()), (1234, ()), (7, (3, 1)), (MAX_SEED, (0, 5, 2)), (42, (1, 1, 1, 1))]


def draws(stream: Stream) -> list[int]:
    return stream.generator().integers(0, 2**32, 8).tolist()


@pytest.mark.parametrize("seed,path", STREAMS)
def test_one_stream_reused_matches_fresh_streams(seed, path):
    """Generator and fingerprint share one sequence: any call order, any
    number of calls, gives what a fresh Stream gives."""
    expected_draws = draws(Stream(seed, path))
    expected_state = Stream(seed, path).state_u64()
    generator_first = Stream(seed, path)
    assert draws(generator_first) == expected_draws
    assert generator_first.state_u64() == expected_state
    assert draws(generator_first) == expected_draws
    state_first = Stream(seed, path)
    assert state_first.state_u64() == expected_state
    assert draws(state_first) == expected_draws
    assert state_first.state_u64() == expected_state
    assert draws(state_first) == expected_draws


def test_generators_of_one_stream_are_independent_objects():
    stream = Stream(5, (2,))
    first, second = stream.generator(), stream.generator()
    first.random(100)
    assert second.random() == Stream(5, (2,)).generator().random()


@pytest.mark.parametrize("seed,path,state,head", [
    (0, (), 15793235383387715774, [582496169, 60417458, 4027530181]),
    (7, (3, 1), 14655934997966864248, [125007999, 536439966, 3914784157]),
    (MAX_SEED, (0, 5, 2), 10334646394090787194, [1499498098, 3203002531, 1793677352]),
])
def test_stream_derivation_pinned(seed, path, state, head):
    """Literal fingerprints and first draws: any change to how a stream is
    derived changes every trial log, and fails here first."""
    stream = Stream(seed, path)
    assert stream.state_u64() == state
    assert stream.generator().integers(0, 2**32, 3).tolist() == head


def test_child_extends_path_and_equality_ignores_cache():
    parent = Stream(9, (1,))
    parent.state_u64()
    child = parent.child(2, np.int64(3))
    assert child == Stream(9, (1, 2, 3))
    assert child.path == (1, 2, 3) and all(type(p) is int for p in child.path)
    assert child.state_u64() == Stream(9, (1, 2, 3)).state_u64()
    assert parent == Stream(9, (1,)) and hash(parent) == hash(Stream(9, (1,)))
