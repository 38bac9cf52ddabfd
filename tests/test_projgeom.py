import pytest

from pgcodes.projgeom import (
    Flat,
    ProjectiveSpace,
    containing_count,
    gaussian_coefficient,
    num_points,
    span,
)


def test_num_points():
    assert num_points(5, 2) == 63
    assert num_points(0, 2) == 1
    assert num_points(2, 3) == 13
    assert num_points(8, 2) == 511
    with pytest.raises(ValueError):
        num_points(-1, 2)
    with pytest.raises(ValueError):
        num_points(3, 1)


def test_gaussian_coefficient():
    assert gaussian_coefficient(4, 3, 2) == 31
    assert gaussian_coefficient(5, 0, 2) == 63
    assert gaussian_coefficient(3, 2, 2) == 15
    assert gaussian_coefficient(5, 2, 2) == 1395
    assert gaussian_coefficient(7, 6, 2) == 255
    assert gaussian_coefficient(2, 1, 3) == 13
    with pytest.raises(ValueError):
        gaussian_coefficient(3, 4, 2)


def test_containing_count():
    # hyperplanes through a point / line / plane of PG(5, 2)
    assert containing_count(5, 0, 4, 2) == 31
    assert containing_count(5, 1, 4, 2) == 15
    assert containing_count(5, 2, 4, 2) == 7


def test_every_hyperplane_has_31_points(space5):
    for h in space5.hyperplanes:
        count = sum(1 for p in space5.points if space5.incident(p, h))
        assert count == 31


def test_duality_symmetry(space5):
    assert space5.n_points == space5.n_hyperplanes == 63
    for p, h in ((1, 5), (17, 63), (42, 42)):
        assert space5.incident(p, h) == space5.incident(h, p)


def test_span_single_point():
    f = span([13])
    assert f.dimension == 0 and f.points == (13,)


def test_span_line():
    f = span([1, 2])
    assert f.dimension == 1
    assert f.points == (1, 2, 3)


def test_span_plane():
    f = span([1, 2, 4])
    assert f.dimension == 2
    assert f.points == (1, 2, 3, 4, 5, 6, 7)
    # same flat regardless of which independent triple generated it
    assert span([3, 5, 7]) == f


def test_span_rejects_bad_input():
    with pytest.raises(ValueError):
        span([])
    with pytest.raises(ValueError):
        span([0, 1])


def test_flat_validation():
    with pytest.raises(ValueError):
        Flat(dimension=1, points=(1, 2), basis=(1, 2))


def test_planes_of_pg5(space5):
    planes = space5.planes()
    assert len(planes) == 1395
    assert all(len(pl.points) == 7 for pl in planes)
    assert all(pl.dimension == 2 for pl in planes)
    # deterministic, sorted, indexable order
    assert list(planes) == sorted(planes, key=lambda f: f.points)


def test_each_plane_in_seven_hyperplanes(space5):
    for pl in space5.planes()[::97]:
        assert len(space5.hyperplanes_through(pl)) == 7


def test_hyperplanes_through_counts(space5):
    assert len(space5.hyperplanes_through(span([9]))) == 31
    assert len(space5.hyperplanes_through(span([9, 22]))) == 15
    line = span([1, 2])
    for h in space5.hyperplanes_through(line):
        assert all(space5.incident(p, h) for p in line.points)


def test_point_not_on_plane_sees_at_most_three_of_its_hyperplanes(space5):
    # spot check of the exhaustive lemma suite in the acceptance tests
    for pl in space5.planes()[::211]:
        hs = space5.hyperplanes_through(pl)
        for q in space5.points:
            if q in pl.points:
                continue
            assert sum(1 for h in hs if space5.incident(q, h)) <= 3


def test_small_space_masks():
    sp = ProjectiveSpace(2)
    # Fano plane: 7 points, every "hyperplane" (line) has 3 points
    assert sp.n_points == 7
    assert all(sp.hyperplane_degree(p) == 3 for p in sp.points)
