import math
from fractions import Fraction
from random import Random

import pytest

from matroidkit import greedy, uniform_matroid
from oracles import brute_max_basis_weight, random_matroid, round_greedy


def test_greedy_fano_mixed_weights(fano):
    weights = [0, math.log(2), Fraction(4, 3), 1, -4, 2, math.pi]
    assert greedy(fano, weights) == [6, 5, 3]


def test_greedy_ties_pick_smallest_index(running_example):
    assert greedy(running_example, [1, 1, 1, 1]) == [0, 1]


def test_greedy_zero_weights_fano(fano):
    # {0,1,2} is a nonbasis, so index 2 is skipped in favor of 3
    assert greedy(fano, [0] * 7) == [0, 1, 3]


def test_greedy_length_mismatch(fano):
    with pytest.raises(ValueError):
        greedy(fano, [1, 2, 3])


def test_greedy_returns_a_basis(fano):
    selection = greedy(fano, [5, -1, 3, 3, 0, 2, 2])
    assert len(selection) == fano.rank
    mask = 0
    for e in selection:
        mask |= 1 << e
    assert mask in set(fano.basis_masks)


def test_greedy_is_optimal():
    rng = Random(17)
    checked = 0
    while checked < 60:
        m = random_matroid(rng, max_n=7)
        if len(m.bases) > 20:
            continue
        weights = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m.n)]
        selection = greedy(m, weights)
        assert sum(weights[e] for e in selection) == brute_max_basis_weight(m, weights)
        checked += 1


def test_greedy_affine_invariance():
    rng = Random(23)
    for _ in range(40):
        m = random_matroid(rng, max_n=7)
        weights = [Fraction(rng.randint(-5, 5)) for _ in range(m.n)]
        scaled = [3 * w + 7 for w in weights]
        assert greedy(m, weights) == greedy(m, scaled)


def test_greedy_rank_zero():
    assert greedy(uniform_matroid(0, 3), [1, 2, 3]) == []


def test_greedy_matches_round_greedy():
    """The one-pass greedy picks the same elements in the same order as the
    round-by-round rule, with weights drawn from a few values so ties abound."""
    rng = Random(29)
    kinds = [
        lambda: rng.randint(-2, 2),
        lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
        lambda: rng.choice([-1.5, 0.0, 0.25, 2.0]),
    ]
    for i in range(240):
        m = random_matroid(rng, max_n=8)
        draw = kinds[i % 3]
        weights = [draw() for _ in range(m.n)]
        assert greedy(m, weights) == round_greedy(m, weights)
