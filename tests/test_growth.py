"""The transfer count over partitions against the hook-length sum and boards."""
import pytest

from invpat import boards
from invpat.avoidance import hook_length_sum
from invpat.errors import InvalidShapeError
from invpat.growth import monotone_count


def _up(k):
    return tuple(range(1, k + 1))


@pytest.mark.parametrize("k", range(1, 9))
def test_the_square_count_is_the_hook_length_sum(k):
    # transposing the tableau swaps the first row and the first column, so
    # 12...k and k...1 share the sum of f^λ over λ1 < k
    for n in range(31):
        want = hook_length_sum(n, k)
        assert monotone_count(boards.square(n), k) == want, n
        assert monotone_count(boards.square(n), None, k) == want, n


def test_with_no_bound_the_square_counts_every_involution():
    # t(n) = t(n - 1) + (n - 1) t(n - 2): n is fixed, or paired with one of n - 1
    want = [1, 1]
    for n in range(2, 31):
        want.append(want[-1] + (n - 1) * want[-2])
    assert [monotone_count(boards.square(n)) for n in range(31)] == want


def test_both_bounds_at_n_13():
    # Erdős–Szekeres: λ1 < 4 and ℓ(λ) < 4 leave at most 9 boxes
    assert monotone_count(boards.square(13), 4, 4) == 0
    # the box hook-length sum over λ ⊢ 13 with λ1 < 6 and ℓ(λ) < 4
    assert monotone_count(boards.square(13), 6, 4) == 6006


def _shapes():
    return [mu for mu in boards.enumerate_self_conjugate_shapes(7) if mu]


@pytest.mark.parametrize("shape", _shapes(), ids=boards.shape_to_text)
def test_every_board_of_side_7_matches_its_placements(shape):
    placements = boards.symmetric_full_placements(shape)
    assert monotone_count(shape) == len(placements)
    for k in range(2, 6):
        up = [_up(k)]
        down = [_up(k)[::-1]]
        assert monotone_count(shape, k) == len(boards.avoiding(placements, up)), k
        assert monotone_count(shape, None, k) == len(boards.avoiding(placements, down)), k
    for a in range(2, 5):
        for b in range(2, 5):
            both = [_up(a), _up(b)[::-1]]
            want = len(boards.avoiding(placements, both))
            assert monotone_count(shape, a, b) == want, (a, b)


@pytest.mark.parametrize("shape", [(2, 1, 1), (3, 1), (0,), (1, 2)])
def test_a_shape_that_is_not_self_conjugate_is_refused(shape):
    with pytest.raises(InvalidShapeError):
        monotone_count(shape, 3)
