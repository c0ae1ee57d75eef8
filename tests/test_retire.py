"""Property tests of the simulation's retirement pass against a plain-Python
reference that tallies and compacts the paths one slot at a time."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, example, settings = hypothesis.given, hypothesis.example, \
    hypothesis.settings

from ruinwalk.oracle import _retire  # noqa: E402

WALKS = (np.int16, np.int32)


def reference(running, maxes, u_sorted, floor):
    """(running, maxes, tally, floored) after one pass, path by path.

    A path whose maximum reached max(u) fails every u and leaves no count;
    one at or below the floor leaves as a survivor of each u above its
    maximum. With `keep` paths left, slot i < keep holds its own path if
    that stays, else the next survivor from slots keep on, in slot order.
    """
    u_big = u_sorted[-1]
    tally, floored, stays = [0] * len(u_sorted), 0, []
    for r, mx in zip(running, maxes):
        if mx >= u_big:
            stays.append(False)
        elif floor is not None and r <= floor:
            stays.append(False)
            tally = [n + (mx < u) for n, u in zip(tally, u_sorted)]
            floored += 1
        else:
            stays.append(True)
    keep = sum(stays)
    late = iter(i for i in range(keep, len(stays)) if stays[i])
    slots = [i if stays[i] else next(late) for i in range(keep)]
    return ([running[i] for i in slots], [maxes[i] for i in slots], tally,
            floored)


@st.composite
def passes(draw):
    """(walk dtype, running, maxes, u_sorted, floor): positions and maxima
    near the u, some at the dtype's minimum, and a floor that is None,
    below every path that is not at the minimum, above every path,
    anywhere between, or 2**40, past the dtype's maximum."""
    walk = draw(st.sampled_from(WALKS))
    low = int(np.iinfo(walk).min)
    value = st.one_of(st.integers(-12, 12), st.just(low))
    n = draw(st.integers(0, 40))
    running = draw(st.lists(value, min_size=n, max_size=n))
    maxes = draw(st.lists(value, min_size=n, max_size=n))
    u_sorted = sorted(draw(st.sets(st.one_of(st.integers(-12, 12),
                                             st.just(2 ** 40)),
                                   min_size=1, max_size=5)))
    floor = draw(st.one_of(
        st.none(),
        st.just(max(min(running, default=0) - 1, low)),
        st.just(max(running, default=0)),
        st.integers(-12, 12),
        st.just(2 ** 40)))
    return walk, running, maxes, u_sorted, floor


@settings(deadline=None)
@given(passes())
# nothing retires
@example((np.int16, [3, 1, 4], [5, 2, 6], [10], None))
# everything retires: at max(u), or at the floor
@example((np.int32, [0, -5, 3], [10, -1, 12], [0, 10], -5))
@example((np.int16, [-9, -9, -40], [-1, 2, 9], [0, 5, 10], 0))
# every hole lies at or past keep, so nothing moves
@example((np.int16, [1, 2, 3, 4, -6], [1, 2, 3, 10, -6], [5, 10], -6))
# a floor past the dtype's maximum: every path retires, failed or not
@example((np.int16, [3, -2, 7], [5, 1, 12], [0, 10], 2 ** 40))
def test_retire_matches_the_reference(case):
    walk, running, maxes, u_sorted, floor = case
    want_running, want_maxes, want_tally, want_floored = reference(
        running, maxes, u_sorted, floor)
    got_r = np.array(running, dtype=walk)
    got_m = np.array(maxes, dtype=walk)
    survived = np.full(len(u_sorted), 3, dtype=np.int64)
    flag = np.zeros(len(running) + 1, dtype=bool)
    out_running, out_maxes, floored = _retire(got_r, got_m, u_sorted,
                                              survived, floor, flag)
    assert out_running.tolist() == want_running
    assert out_maxes.tolist() == want_maxes
    assert survived.tolist() == [3 + n for n in want_tally]
    assert floored == want_floored
    # views of the inputs: nothing is reallocated
    for got, given_ in ((out_running, got_r), (out_maxes, got_m)):
        assert got is given_ or got.base is given_
