"""Pinching combinatorics and dimension counts."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from collardiff.errors import InvalidMoveError, ValidationError
from collardiff.topology import (NONSEPARATING, SEPARATING, PinchMove,
                                 SurfaceTopology, degeneration_dims,
                                 enumerate_moves, hol_dimension, load_moves,
                                 load_topology, max_short_geodesics,
                                 moves_from_json, pinch, topology_from_json,
                                 topology_to_json)


def test_dimension_table():
    assert hol_dimension(SurfaceTopology.closed(2)) == 3
    assert hol_dimension(SurfaceTopology(((1, 2),))) == 2
    assert hol_dimension(SurfaceTopology(((0, 3),))) == 0
    assert hol_dimension(SurfaceTopology(((1, 1), (0, 4)))) == 2
    # closed genus g: the classical 3g - 3
    for g in range(2, 8):
        assert hol_dimension(SurfaceTopology.closed(g)) == 3 * g - 3


def test_max_short_geodesics():
    assert max_short_geodesics(SurfaceTopology.closed(2)) == 3
    assert max_short_geodesics(SurfaceTopology(((1, 1),))) == 1
    assert max_short_geodesics(SurfaceTopology(((0, 3),))) == 0
    assert max_short_geodesics(SurfaceTopology(((2, 1), (0, 4)))) == 5


def test_surface_validation():
    with pytest.raises(ValidationError):
        SurfaceTopology(())
    with pytest.raises(ValidationError):
        SurfaceTopology(((0, 2),))  # 2g + k = 2, not general type
    with pytest.raises(ValidationError):
        SurfaceTopology(((1, 0),))
    with pytest.raises(ValidationError):
        SurfaceTopology(((-1, 5),))
    assert SurfaceTopology(((0, 3), (2, 0))).canonical() == ((0, 3), (2, 0))
    assert SurfaceTopology(((2, 0), (0, 3))).canonical() == ((0, 3), (2, 0))


def test_counts_are_integers_not_bools_or_floats():
    # a float is rejected, not truncated; numpy integers are integers
    for comps in (((2.7, 1),), ((True, 3),), ((2, 1.0),)):
        with pytest.raises(ValidationError, match="must be integers"):
            SurfaceTopology(comps)
    assert SurfaceTopology(((np.int64(2), 1),)).components == ((2, 1),)
    for comp in (0.9, True, None):
        with pytest.raises(ValidationError, match="component"):
            PinchMove(comp, NONSEPARATING)
    with pytest.raises(ValidationError, match="split entries"):
        PinchMove(0, SEPARATING, ((1, 0), (1, 0.5)))


def test_move_validation():
    with pytest.raises(ValidationError):
        PinchMove(0, "twist")
    with pytest.raises(ValidationError):
        PinchMove(0, SEPARATING)  # no split given
    with pytest.raises(ValidationError):
        PinchMove(0, NONSEPARATING, ((1, 0), (1, 0)))


def test_nonseparating_pinch():
    t = SurfaceTopology.closed(2)
    t2 = pinch(t, PinchMove(0, NONSEPARATING))
    assert t2.components == ((1, 2),)
    assert hol_dimension(t2) == hol_dimension(t) - 1
    with pytest.raises(InvalidMoveError):
        pinch(SurfaceTopology(((0, 3),)), PinchMove(0, NONSEPARATING))
    with pytest.raises(InvalidMoveError):
        pinch(t, PinchMove(5, NONSEPARATING))


def test_separating_pinch():
    t = SurfaceTopology.closed(2)
    t2 = pinch(t, PinchMove(0, SEPARATING, ((1, 0), (1, 0))))
    assert t2.canonical() == ((1, 1), (1, 1))
    assert hol_dimension(t2) == 2
    # bad partitions and non-general-type children
    with pytest.raises(InvalidMoveError):
        pinch(t, PinchMove(0, SEPARATING, ((1, 0), (2, 0))))
    with pytest.raises(InvalidMoveError):
        pinch(t, PinchMove(0, SEPARATING, ((0, 0), (2, 0))))  # (0,1) child
    with pytest.raises(InvalidMoveError):
        pinch(SurfaceTopology(((1, 2),)),
              PinchMove(0, SEPARATING, ((0, 1), (1, 1))))  # (0,2) child


def test_every_enumerated_move_drops_dim_by_one():
    seeds = [SurfaceTopology.closed(3), SurfaceTopology(((1, 2), (0, 4))),
             SurfaceTopology(((2, 1),))]
    for t in seeds:
        moves = enumerate_moves(t)
        assert moves
        for mv in moves:
            t2 = pinch(t, mv)
            assert hol_dimension(t2) == hol_dimension(t) - 1


def test_enumerate_moves_closed_genus2():
    moves = enumerate_moves(SurfaceTopology.closed(2))
    kinds = sorted(m.kind for m in moves)
    assert kinds == [NONSEPARATING, SEPARATING]
    sep = next(m for m in moves if m.kind == SEPARATING)
    assert sep.split == ((1, 0), (1, 0))


@given(st.integers(2, 6))
def test_full_degeneration_reaches_zero(g):
    # greedily pinch until no move is valid; dim must hit exactly 0 after
    # hol_dimension(start) moves, and the end is a union of (0, 3)'s
    t = SurfaceTopology.closed(g)
    steps = 0
    while True:
        moves = enumerate_moves(t)
        if not moves:
            break
        t = pinch(t, moves[0])
        steps += 1
    assert steps == 3 * (g - 1)
    assert hol_dimension(t) == 0
    assert all(c == (0, 3) for c in t.components)


def test_degeneration_dims_script_and_error_index():
    t = SurfaceTopology.closed(2)
    script = [PinchMove(0, NONSEPARATING),
              PinchMove(0, NONSEPARATING),
              PinchMove(0, SEPARATING, ((0, 2), (0, 2)))]
    assert degeneration_dims(t, script) == [2, 1, 0]
    bad = [PinchMove(0, NONSEPARATING), PinchMove(3, NONSEPARATING)]
    with pytest.raises(InvalidMoveError) as exc:
        degeneration_dims(t, bad)
    assert exc.value.index == 1


def test_topology_json(tmp_path):
    t = SurfaceTopology(((1, 2), (0, 3)))
    assert topology_from_json(topology_to_json(t)) == t
    p = tmp_path / "t.json"
    p.write_text(json.dumps(topology_to_json(t)))
    assert load_topology(p) == t
    with pytest.raises(ValidationError):
        topology_from_json({"components": [{"genus": 1.5, "punctures": 0}]})
    with pytest.raises(ValidationError):
        topology_from_json({"components": [{"genus": True, "punctures": 3}]})
    with pytest.raises(ValidationError):
        topology_from_json([[1, 2]])
    with pytest.raises(ValidationError, match="genus/punctures keys"):
        topology_from_json({"components": [{"genus": 2}]})
    for comps in (5, None, "1,2", {"genus": 1, "punctures": 2}):
        with pytest.raises(ValidationError, match="JSON array"):
            topology_from_json({"components": comps})
    bad = tmp_path / "bad.json"
    bad.write_text("]")
    with pytest.raises(ValidationError):
        load_topology(bad)


def test_moves_json(tmp_path):
    raw = [{"component": 0, "kind": "nonseparating"},
           {"component": 0, "kind": "separating", "split": [[0, 2], [0, 2]]}]
    moves = moves_from_json(raw)
    assert moves[0] == PinchMove(0, NONSEPARATING)
    assert moves[1].split == ((0, 2), (0, 2))
    p = tmp_path / "m.json"
    p.write_text(json.dumps(raw))
    assert load_moves(p) == moves
    with pytest.raises(ValidationError):
        moves_from_json([{"component": 0}])
    with pytest.raises(ValidationError):
        moves_from_json([{"component": 0, "kind": "separating", "split": [[1]]}])
    with pytest.raises(ValidationError):
        moves_from_json([{"component": 0, "kind": "bogus"}])
    with pytest.raises(ValidationError):
        moves_from_json({"component": 0})
    # split entries are integers: no truncated floats, no booleans
    for split in ([[1.5, 0], [1.5, 0]], [[1, True], [0, 1]],
                  [[1, 0], [0, "2"]], [[1, 0], [0, None]]):
        with pytest.raises(ValidationError, match="move 0: split entries"):
            moves_from_json([{"component": 0, "kind": "separating",
                              "split": split}])
