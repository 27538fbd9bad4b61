"""Who owns the arrays of a value: every value type keeps a read-only float64
array that no caller can still write, taking over a handed-over array as it
is and copying anything else once."""

import tracemalloc

import numpy as np
import pytest

from dualpairs import fields
from dualpairs.bridge import CovectorField
from dualpairs.fields import (
    CellTwoForm,
    ChainSource,
    GridSource,
    MapField,
    StreamFunction,
    TangentField,
    left_act,
    nodewise_linear,
)
from dualpairs.peakons import FilamentState, SingularState
from dualpairs.symplectic import FlowSpec, Observable

SRC = GridSource(4)
ALPHA = 1.0


# the harmonic oscillator h = |m|^2 / 2
OSCILLATOR = Observable(lambda m: 0.5 * np.einsum("...i,...i->...", m, m), lambda m: m.copy())


def _circle(nodes: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(nodes) / nodes
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def _ramp(shape) -> np.ndarray:
    return 1.0 + np.arange(np.prod(shape), dtype=float).reshape(shape) / 8.0


# name -> (a valid input, the array the value built from an input keeps)
CASES = {
    "map": (_ramp((4, 4, 2)), lambda a: MapField(SRC, a).values),
    "tangent": (_ramp((4, 4, 2)), lambda a: TangentField(SRC, a).values),
    "stream": (_ramp((4, 4)), lambda a: StreamFunction(SRC, a).values),
    "cell": (_ramp((4, 4)), lambda a: CellTwoForm(SRC, a).values),
    "covector-q": (_ramp((4, 4, 2)), lambda a: CovectorField(SRC, a, np.zeros((4, 4, 2))).q),
    "covector-p": (_ramp((4, 4, 2)), lambda a: CovectorField(SRC, np.zeros((4, 4, 2)), a).p),
    "singular-q": (_ramp((3, 1)), lambda a: SingularState(a, np.ones((3, 1)), ALPHA).q),
    "singular-p": (_ramp((3, 1)), lambda a: SingularState(np.zeros((3, 1)), a, ALPHA).p),
    "filament-q": (_circle(5), lambda a: FilamentState(a, np.ones((5, 2)), ALPHA).q),
    "filament-p": (_ramp((5, 2)), lambda a: FilamentState(_circle(5), a, ALPHA).p),
}


@pytest.mark.parametrize("name", list(CASES))
def test_a_value_never_aliases_a_writeable_array(name):
    good, build = CASES[name]
    arr = good.copy()
    kept = build(arr)
    assert arr.flags.writeable and not kept.flags.writeable
    assert not np.shares_memory(kept, arr)
    arr *= 3.0
    assert np.array_equal(kept, good)
    # a view into a larger array: a later write to its base leaves the value as it was
    base = np.stack([good, good])
    kept = build(base[0])
    base *= 3.0
    assert np.array_equal(kept, good)


@pytest.mark.parametrize("name", list(CASES))
def test_a_value_takes_over_a_handed_over_array(name):
    good, build = CASES[name]
    arr = good.copy()
    arr.flags.writeable = False
    assert build(arr) is arr
    # read-only but a view, not float64 or not C-ordered: the value holds a copy that is all three
    for other in (np.stack([good, good])[0], good.astype(np.float32), np.array(good, order="F")):
        other.flags.writeable = False
        kept = build(other)
        assert kept.flags.owndata and kept.flags.c_contiguous and kept.dtype == np.float64
        assert not kept.flags.writeable and np.array_equal(kept, other)


@pytest.mark.parametrize("name", list(CASES))
def test_a_value_of_the_wrong_shape_is_refused(name):
    good, build = CASES[name]
    with pytest.raises(ValueError, match="shape"):
        build(np.ones((good.shape[0] + 1,) + good.shape[1:]))


def test_a_state_keeps_its_one_dimensional_input_as_one_row():
    state = SingularState(np.array([0.0, 1.5]), np.array([1.0, 2.0]), ALPHA)
    assert state.q.shape == state.p.shape == (1, 2)
    assert state.q.flags.owndata and not state.q.flags.writeable


@pytest.mark.parametrize("read_only", [True, False])
def test_left_act_hands_the_endpoint_to_the_new_map(monkeypatch, read_only):
    f = MapField(SRC, _ramp((4, 4, 2)))
    endpoint = np.full(f.values.shape, 0.5)  # fresh, as advance returns it
    endpoint.flags.writeable = not read_only
    monkeypatch.setattr(fields, "advance", lambda h, state, spec: endpoint)
    values = left_act(f, OSCILLATOR, FlowSpec("implicit-midpoint", 0.1, 1)).values
    assert values is endpoint and not values.flags.writeable


def test_left_act_of_zero_steps_shares_the_immutable_values():
    f = MapField(SRC, _ramp((4, 4, 2)))
    assert left_act(f, OSCILLATOR, FlowSpec("implicit-midpoint", 0.1, 0)).values is f.values


def test_nodewise_linear_hands_its_fresh_result_to_the_new_map(monkeypatch):
    f = MapField(SRC, _ramp((4, 4, 2)))
    handed = []
    monkeypatch.setattr(fields, "MapField", lambda source, values: handed.append(values) or MapField(source, values))
    out = nodewise_linear(f, np.array([[1.0, 0.0], [-0.5, 1.0]])).values
    assert out is handed[0]
    assert out.flags.owndata and out.flags.c_contiguous and not out.flags.writeable
    assert not np.shares_memory(out, f.values)


@pytest.mark.parametrize("block_cells", [1, 1 << 14])
def test_pullback_omega_hands_its_fresh_density_to_the_form(monkeypatch, block_cells):
    f = MapField(SRC, _ramp((4, 4, 2)) ** 2)
    monkeypatch.setattr(fields, "_BLOCK_CELLS", block_cells)  # one block of cell rows, or one per row
    handed = []
    monkeypatch.setattr(fields, "CellTwoForm", lambda source, values: handed.append(values) or CellTwoForm(source, values))
    out = fields.pullback_omega(f).values
    assert out is handed[0]
    assert out.flags.owndata and out.flags.c_contiguous and not out.flags.writeable
    assert not np.shares_memory(out, f.values)


@pytest.mark.parametrize("source", [GridSource(4), ChainSource(5)], ids=["grid", "chain"])
def test_source_weights_are_one_read_only_array(source):
    w = source.weights
    assert w is source.weights
    assert w.shape == source.node_shape and not w.flags.writeable
    assert np.all(w == 1.0 / w.size)
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_default_weights_are_one_array_handed_over():
    q = np.zeros((1 << 18, 1))  # 2 MB, as a 512 x 512 grid
    q.flags.writeable = False
    builds = (lambda: GridSource(512), lambda: ChainSource(1 << 18), lambda: SingularState(q, q, ALPHA))
    for build in builds:
        tracemalloc.start()
        try:
            w = build().weights
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.flags.owndata and not w.flags.writeable
        assert w.nbytes <= peak < 1.25 * w.nbytes
