"""Divisor chart models: ideal generators, multiplicity, frames."""

import numpy as np
import pytest

from egl.divisors import DivisorLocalModel, residue_model_frame


def test_ideal_generator_examples():
    smooth = DivisorLocalModel(n=4, k=1)
    assert smooth.ideal_generator([0.1, 0.2, 0.0, 0.0]) == 0.0
    assert smooth.ideal_generator([0.0, 0.0, 3.0, 4.0]) == pytest.approx(25.0)
    nc = DivisorLocalModel(n=4, k=2)
    # |z1|^2 |z2|^2 with z1 = 1, z2 = 2i
    assert nc.ideal_generator([1.0, 0.0, 0.0, 2.0]) == pytest.approx(4.0)


def test_multiplicity_exact_zero_test():
    model = DivisorLocalModel(n=6, k=3)
    assert model.multiplicity([1.0, 0.1, 0.0, 0.0, 0.5, 3.0]) == 1
    assert model.multiplicity([0.0, 0.0, 0.0, 0.0, 0.0, 0.0]) == 3
    assert model.multiplicity([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]) == 0


def test_frame_values_on_and_off_divisor():
    model = DivisorLocalModel(n=2, k=1)
    frame = model.algebroid_frame([1.0, 0.0])
    assert np.allclose(frame, [[1.0, 0.0], [0.0, 1.0]])
    frame0 = model.algebroid_frame([0.0, 0.0])
    assert not frame0.any()


def test_frame_rank_drops_by_two_per_vanishing_factor(rng):
    model = DivisorLocalModel(n=6, k=2)
    points = []
    for _ in range(50):
        p = rng.uniform(-1, 1, size=6)
        for j in range(2):
            if rng.uniform() < 0.4:
                p[2 + 2 * j] = p[3 + 2 * j] = 0.0
        frame = model.algebroid_frame(p)
        assert np.linalg.matrix_rank(frame) == 6 - 2 * model.multiplicity(p)
        assert (model.ideal_generator(p) == 0) == (model.multiplicity(p) >= 1)
        points.append(p)
    # a block of points: one frame per point, and one rank per frame
    block = model.algebroid_frame(tuple(np.array(points).T))
    assert block.shape == (50, 6, 6)
    assert np.linalg.matrix_rank(block).tolist() == [6 - 2 * model.multiplicity(p) for p in points]


def test_frame_rank_mixed_example():
    model = DivisorLocalModel(n=6, k=2)
    frame = model.algebroid_frame([0.5, -0.5, 0.0, 0.0, 1.0, 1.0])
    assert np.linalg.matrix_rank(frame) == 4


def test_frame_preserves_ideal_along_rays():
    # directional derivative of the generator along each frame field,
    # divided by the generator, stays bounded approaching the divisor
    model = DivisorLocalModel(n=4, k=1)
    h = 1e-6
    for radius in [1.0, 0.1, 0.01, 1e-3]:
        p = np.array([0.3, 0.4, radius, 0.0])
        for v in model.algebroid_frame(p):
            if not v.any():
                continue
            deriv = (model.ideal_generator(p + h * v)
                     - model.ideal_generator(p - h * v)) / (2 * h)
            ratio = deriv / model.ideal_generator(p)
            assert abs(ratio) < 10.0


def test_residue_frames():
    nonzero = residue_model_frame("nonzero")
    assert np.allclose(nonzero([1.0, 0.0]), np.eye(2))
    assert not nonzero([0.0, 0.0]).any()
    zero = residue_model_frame("zero")
    rows = zero([1.0, 0.0, 5.0, -3.0])
    assert np.linalg.matrix_rank(rows) == 4
    assert not zero([0.0, 0.0, 5.0, -3.0]).any()
    with pytest.raises(ValueError):
        residue_model_frame("other")


def test_dimension_constraint():
    with pytest.raises(ValueError):
        DivisorLocalModel(n=3, k=2)
