import numpy as np
import pytest

from pgcodes.tanner import build_graph


def test_cardinalities(graph5):
    assert graph5.n_side == 63
    assert graph5.degree == 31
    assert graph5.n_edges == 1953
    assert graph5.point_adj.shape == (63, 31)


def test_adjacency_sorted_and_incident(graph5):
    sp = graph5.space
    for v in range(1, 64):
        row = graph5.point_adj[v - 1].tolist()
        assert row == sorted(row)
        assert all(sp.incident(v, h) for h in row)
    for h in range(1, 64):
        row = graph5.point_adj[h - 1].tolist()  # points on hyperplane h
        assert row == sorted(row)
        assert all(sp.incident(p, h) for p in row)


def test_label_formula_and_sequences(graph5):
    assert graph5.label_of(1, 1) == 1
    assert graph5.label_of(1, 2) == 64
    assert graph5.label_of(1, 31) == 1891
    assert graph5.label_of(2, 1) == 2
    assert graph5.label_of(2, 2) == 65
    assert [graph5.label_of(1, k) for k in range(1, 32)] == list(range(1, 1954, 63))


def test_labels_are_a_bijection(graph5):
    labels = [label for label, _, _ in graph5.edges()]
    assert labels == list(range(1, 1954))
    # and the index arrays partition the symbol range on both sides
    assert sorted(graph5.point_edge_idx.ravel().tolist()) == list(range(1953))
    assert sorted(graph5.hpl_edge_idx.ravel().tolist()) == list(range(1953))


def test_position_of_inverts_label_of(graph5):
    assert graph5.position_of(64) == (1, 2)
    for label in (1, 63, 64, 1000, 1953):
        v, k = graph5.position_of(label)
        assert graph5.label_of(v, k) == label


def test_label_range_errors(graph5):
    with pytest.raises(ValueError):
        graph5.label_of(0, 1)
    with pytest.raises(ValueError):
        graph5.label_of(1, 32)
    with pytest.raises(ValueError):
        graph5.position_of(1954)
    with pytest.raises(ValueError):
        graph5.label_of_pair(1, 1)  # not incident


def test_edge_index_consistency(graph5):
    # the hyperplane-side view of an edge lands on the same symbol slot
    for label in (1, 77, 500, 1953):
        p, h = graph5.edge_endpoints(label)
        assert label - 1 in graph5.point_edge_idx[p - 1]
        assert label - 1 in graph5.hpl_edge_idx[h - 1]


def test_gram_check_and_second_eigenvalue(graph5):
    assert graph5.gram_check() == (31, 15)
    assert graph5.second_eigenvalue() == 4.0
    N = graph5.incidence_matrix
    M = N @ N.T
    assert np.all(np.diag(M) == 31)
    off = M[~np.eye(63, dtype=bool)]
    assert np.all(off == 15)


def test_two_points_share_15_hyperplanes_exhaustive(graph5):
    masks = graph5.space.incidence_masks
    for a in range(1, 64):
        for b in range(a + 1, 64):
            assert (masks[a] & masks[b]).bit_count() == 15


def test_eigenvalue_ratio_satisfies_zemor_condition(graph5):
    k, lam_design = graph5.gram_check()
    assert 3 * graph5.second_eigenvalue() <= graph5.degree


def test_any_126_consecutive_labels_touch_each_point_at_most_twice(graph5):
    vertex_of = [(label - 1) % 63 + 1 for label in range(1, 1954)]
    for start in range(0, 1953 - 126 + 1):
        window = vertex_of[start : start + 126]
        counts = {}
        for v in window:
            counts[v] = counts.get(v, 0) + 1
        assert max(counts.values()) <= 2


def test_edge_lines_export(graph5):
    lines = graph5.edge_lines()
    assert len(lines) == 1953
    assert lines[0].split() == ["1", "1", str(graph5.point_adj[0, 0])]
    # deterministic by label
    assert [int(line.split()[0]) for line in lines] == list(range(1, 1954))


def test_small_odd_dimension():
    g = build_graph(3)
    assert g.n_side == 15
    assert g.degree == 7
    assert g.n_edges == 105
    assert g.gram_check() == (7, 3)
    assert g.second_eigenvalue() == 2.0


def test_dvd_dimension_counts():
    g = build_graph(8)
    assert g.n_side == 511
    assert g.degree == 255
    assert g.n_edges == 130305


def test_rejects_dimension_below_two():
    with pytest.raises(ValueError):
        build_graph(1)
