"""The window slide: cases, round trips, and the frame statistics."""
import pytest

from invpat import boards, slide
from invpat.boards import graph_of, make_placement, symmetric_full_placements
from invpat.errors import InvalidInputError, InvalidPlacementError, InvalidShapeError
from invpat.slide import (
    classify_slide_case,
    flank_avoiding_count,
    inner_shape,
    slide_context,
    slide_inverse,
    slide_transform,
    slide_transform_with_trace,
    top_row_dot_count,
)


def test_inner_shape_examples():
    assert inner_shape((8, 8, 8, 8, 7, 5, 5, 4)) == (6, 6, 6, 6, 4, 4)
    assert inner_shape((2, 1)) == ()
    assert inner_shape((1,)) == ()
    assert inner_shape((4, 4, 4, 3)) == (2, 2)


def test_inner_shape_rejects_squares_and_empty():
    with pytest.raises(InvalidShapeError):
        inner_shape((3, 3, 3))
    with pytest.raises(InvalidShapeError):
        inner_shape(())
    with pytest.raises(InvalidShapeError):
        inner_shape((3, 2))  # not self-conjugate


def test_top_row_dot_counts_three_by_three():
    sq = (3, 3, 3)
    assert top_row_dot_count(sq, "123", 1) == 1
    assert top_row_dot_count(sq, "321", 1) == 2
    with pytest.raises(InvalidInputError):
        top_row_dot_count(sq, "123", 4)
    with pytest.raises(InvalidInputError):
        top_row_dot_count(sq, "132", 1)


def test_flank_count_basics():
    assert flank_avoiding_count((), "123", 0) == 1
    sq = (3, 3, 3)
    assert flank_avoiding_count(sq, "123", 0) == flank_avoiding_count(sq, "123", 1)
    assert flank_avoiding_count(sq, "123", 3) == 1  # only the antidiagonal
    with pytest.raises(InvalidInputError):
        flank_avoiding_count(sq, "123", 4)


def test_slide_preconditions():
    p = graph_of((2, 1, 3))
    with pytest.raises(InvalidInputError):
        slide_transform(p, 0, 1)
    with pytest.raises(InvalidInputError):
        slide_transform(p, 1, 3)  # j beyond the board
    with pytest.raises(InvalidInputError):
        slide_transform(p, 1, 2)  # window 1..2 contains 21
    with pytest.raises(InvalidInputError):
        slide_transform(graph_of((3, 2, 1)), 1, 1)  # contains 321


def test_slide_identity_case():
    p = graph_of((1, 2, 3))
    out, moves = slide_transform_with_trace(p, 1, 2)
    assert out == p and moves == []


def test_slide_merge_split_case():
    # diagonal fixed point trades places with a mirror pair
    p = graph_of((1, 3, 2, 4))
    ctx = slide_context(p, 1, 2)
    assert classify_slide_case(ctx) == "V"
    out = slide_transform(p, 1, 2)
    assert out == graph_of((2, 1, 3, 4))
    assert slide_inverse(out, 1, 2) == p


@pytest.mark.parametrize(
    "bad, failure",
    [
        (graph_of((3, 2, 1, 4)), "contains 321"),
        (make_placement((4, 4, 4, 4), [(1, 2), (2, 3), (3, 1), (4, 4)]), "symmetric"),
    ],
)
def test_slide_postconditions_raise_named_error(monkeypatch, bad, failure):
    # a case map that breaks the slide's contract is caught by name
    monkeypatch.setattr(slide, "_merge_split", lambda p, ctx: (bad, []))
    with pytest.raises(InvalidPlacementError, match=failure):
        slide_transform(graph_of((1, 3, 2, 4)), 1, 2)


def test_window_columns_must_reach_full_height(monkeypatch):
    monkeypatch.setattr(boards, "column_heights", lambda shape: (1,) * len(shape))
    with pytest.raises(InvalidPlacementError, match="are not all 3 high"):
        slide_context(graph_of((1, 2, 3)), 1, 2)


def test_window_dots_must_be_ordered_by_diagonal_side(monkeypatch):
    # a full placement could not rise from above the diagonal to below it
    # within the window; one with empty window columns can
    monkeypatch.setattr(boards, "is_symmetric", lambda p: True)
    monkeypatch.setattr(boards, "is_full", lambda p: True)
    p = make_placement((5,) * 5, [(1, 2), (4, 3), (5, 5)])
    with pytest.raises(InvalidPlacementError, match="not ordered below, on, above"):
        slide_context(p, 1, 4)


@pytest.mark.parametrize(
    "case, failure",
    [
        ("II", "no window dot lies above w=3"),
        ("V", "w=3 is not the leftmost above-diagonal dot"),
    ],
)
def test_case_maps_check_their_premise(monkeypatch, case, failure):
    # an identity-case input sent to the reseat or to the merge/split
    monkeypatch.setattr(slide, "classify_slide_case", lambda ctx: case)
    with pytest.raises(InvalidPlacementError, match=failure):
        slide_transform(graph_of((1, 2, 3)), 1, 2)


def test_all_six_cases_appear():
    seen = set()
    for shape in sorted(boards.enumerate_self_conjugate_shapes(6)):
        narrow = shape[-1] if shape else 0
        if narrow < 2:
            continue
        for p in symmetric_full_placements(shape):
            if boards.placement_contains(p, (3, 2, 1)):
                continue
            for i in range(1, narrow):
                for j in range(1, narrow - i + 1):
                    if boards.placement_contains(p, (2, 1), columns=range(i, i + j)):
                        continue
                    seen.add(classify_slide_case(slide_context(p, i, j)))
    assert seen == {"I", "II", "III", "IV", "V", "VI"}


def test_slide_round_trip_sweep():
    for shape in [(4, 4, 4, 4), (4, 4, 4, 3), (5, 5, 3, 2, 2)]:
        narrow = shape[-1]
        pool = [
            p
            for p in symmetric_full_placements(shape)
            if not boards.placement_contains(p, (3, 2, 1))
        ]
        for i in range(1, narrow):
            for j in range(1, narrow - i + 1):
                domain = [
                    p
                    for p in pool
                    if not boards.placement_contains(p, (2, 1), columns=range(i, i + j))
                ]
                image = {
                    p
                    for p in pool
                    if not boards.placement_contains(
                        p, (2, 1), columns=range(i + 1, i + j + 1)
                    )
                }
                sent = [slide_transform(p, i, j) for p in domain]
                assert set(sent) == image
                assert len(set(sent)) == len(domain)
                for p, q in zip(domain, sent):
                    assert slide_inverse(q, i, j) == p


def test_slide_inverse_validates_input():
    # 321-containing placements are outside the codomain entirely
    p = make_placement((3, 3, 3), [(1, 3), (2, 2), (3, 1)])
    with pytest.raises(InvalidInputError):
        slide_inverse(p, 1, 2)
    # and the shifted window must avoid 21
    q = make_placement((3, 3, 3), [(1, 1), (2, 3), (3, 2)])
    with pytest.raises(InvalidInputError):
        slide_inverse(q, 1, 2)
