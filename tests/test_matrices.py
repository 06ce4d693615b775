import itertools
import math
import re

import numpy as np
import pytest

from pnpstab.errors import (
    NegativeEntryError,
    NotIrreducibleError,
    NotSquareError,
    NotSymmetricError,
    RowSumViolationError,
)
from pnpstab.matrices import (
    is_positive_semidefinite,
    left_perron_vector,
    read_matrix,
    structure,
    validate_stochastic,
    write_matrix,
)
from pnpstab.operators import kernel_affinity, kernel_denoiser, make_family


def test_accepts_permutation_matrix():
    w = validate_stochastic([[0, 1], [1, 0]], tol=1e-12)
    np.testing.assert_array_equal(w.matrix, [[0, 1], [1, 0]])


def test_accepts_identity_with_zero_tolerance():
    w = validate_stochastic(np.eye(3), tol=0.0)
    np.testing.assert_array_equal(w.matrix, np.eye(3))


def test_rejects_bad_row_sum():
    with pytest.raises(RowSumViolationError) as exc:
        validate_stochastic([[0.5, 0.6], [0.5, 0.4]], tol=1e-12)
    assert exc.value.row == 0
    assert exc.value.row_sum == pytest.approx(1.1)


def test_rejects_negative_entry():
    with pytest.raises(NegativeEntryError) as exc:
        validate_stochastic([[1.1, -0.1], [0.5, 0.5]], tol=1e-12)
    assert exc.value.index == (0, 1)


def test_rejects_non_square():
    with pytest.raises(NotSquareError):
        validate_stochastic(np.ones((2, 3)) / 3)


def test_clamps_tiny_negatives_and_renormalizes():
    eps = 1e-12
    w = validate_stochastic([[1.0 + eps, -eps], [0.25, 0.75]], tol=1e-10)
    assert w.matrix.min() >= 0.0
    np.testing.assert_allclose(w.matrix.sum(axis=1), 1.0, rtol=0, atol=2e-16)


def test_rows_renormalized_exactly():
    rng = np.random.default_rng(5)
    m = rng.uniform(0.1, 1.0, size=(6, 6))
    m /= m.sum(axis=1, keepdims=True)
    w = validate_stochastic(m)
    e = np.ones(6)
    np.testing.assert_allclose(w.matrix @ e, e, rtol=0, atol=1e-15)


def test_structure_of_permutation_is_irreducible_not_primitive():
    info = structure(validate_stochastic([[0, 1], [1, 0]]))
    assert info.irreducible and not info.primitive
    assert info.doubly_stochastic


def test_structure_of_positive_matrix_is_primitive():
    info = structure(validate_stochastic(np.array([[7, 3], [6, 4]]) / 10))
    assert info.primitive and info.irreducible
    assert not info.doubly_stochastic


def test_structure_of_identity_is_reducible():
    info = structure(validate_stochastic(np.eye(2)))
    assert not info.irreducible and not info.primitive


def test_primitive_implies_irreducible_on_random_patterns():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        pattern = rng.random((n, n)) < 0.4
        pattern[np.arange(n), rng.integers(0, n, size=n)] = True  # no zero rows
        w = validate_stochastic(pattern / pattern.sum(axis=1, keepdims=True))
        info = structure(w)
        assert not info.primitive or info.irreducible


# -- independent graph oracle for irreducibility/primitivity ----------------


def _bfs_dist(adj, start, n):
    dist = [None] * n
    dist[start] = 0
    queue = [start]
    while queue:
        u = queue.pop(0)
        for v in range(n):
            if adj[u][v] and dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _oracle_irreducible(adj, n):
    for s in range(n):
        if any(d is None for d in _bfs_dist(adj, s, n)):
            return False
    return True


def _oracle_primitive(adj, n):
    # strongly connected + aperiodic: gcd over edges of d(u) + 1 - d(v) is 1
    if not _oracle_irreducible(adj, n):
        return False
    dist = _bfs_dist(adj, 0, n)
    period = 0
    for u in range(n):
        for v in range(n):
            if adj[u][v]:
                period = math.gcd(period, dist[u] + 1 - dist[v])
    return abs(period) == 1


def _primitive_by_powers(pattern, n):
    # Definition: some power up to the Wielandt bound (n-1)^2 + 1 is positive.
    a = pattern.astype(np.int64)
    power = a
    for _ in range((n - 1) ** 2 + 1):
        if power.all():
            return True
        power = (power @ a > 0).astype(np.int64)
    return False


def _pattern_agrees_with_oracle(pattern, n):
    w = validate_stochastic(pattern / pattern.sum(axis=1, keepdims=True))
    info = structure(w)
    adj = pattern.astype(bool).tolist()
    assert info.irreducible == _oracle_irreducible(adj, n)
    assert info.primitive == _oracle_primitive(adj, n)
    assert info.primitive == _primitive_by_powers(pattern, n)


@pytest.mark.parametrize("n", [2, 3])
def test_structure_matches_graph_oracle_exhaustively(n):
    row_choices = [c for c in itertools.product([0.0, 1.0], repeat=n) if any(c)]
    for rows in itertools.product(row_choices, repeat=n):
        _pattern_agrees_with_oracle(np.array(rows), n)


def test_structure_matches_graph_oracle_exhaustively_4x4():
    row_choices = [c for c in itertools.product([0.0, 1.0], repeat=4) if any(c)]
    for rows in itertools.product(row_choices, repeat=4):
        _pattern_agrees_with_oracle(np.array(rows), 4)


@pytest.mark.parametrize("n", [255, 256, 512])
def test_positive_w_is_primitive_past_255(n):
    # Path counts of a positive n x n pattern exceed 255 from n = 256 on.
    signal = np.random.default_rng(n).uniform(0.0, 1.0, size=n)
    for w in (validate_stochastic(np.ones((n, n)) / n), kernel_denoiser(signal, bandwidth=0.5)):
        info = structure(w)
        assert info.irreducible and info.primitive
        assert make_family(w, np.eye(n)).perron.pi.min() > 0


def _long_cycle(n, chord=False, cut=False):
    # Directed n-cycle i -> i+1; `chord` adds 0 -> 2, `cut` turns n-1 -> 0 into a self-loop.
    m = np.roll(np.eye(n), 1, axis=1)
    if chord:
        m[0, 2] = 1.0
    if cut:
        m[n - 1] = 0.0
        m[n - 1, n - 1] = 1.0
    return validate_stochastic(m / m.sum(axis=1, keepdims=True))


@pytest.mark.parametrize(
    "kwargs, irreducible, primitive",
    [({}, True, False), ({"chord": True}, True, True), ({"cut": True}, False, False)],
    ids=["cycle", "cycle_plus_chord", "cycle_cut"],
)
def test_structure_of_long_cycles(kwargs, irreducible, primitive):
    info = structure(_long_cycle(1000, **kwargs))
    assert (info.irreducible, info.primitive) == (irreducible, primitive)


# -- Perron vectors ----------------------------------------------------------


def test_perron_vector_of_counterexample_pair():
    w = validate_stochastic(np.array([[7, 3], [6, 4]]) / 10)
    data = left_perron_vector(w, tol=1e-13)
    np.testing.assert_allclose(data.pi, [2 / 3, 1 / 3], rtol=0, atol=1e-13)
    assert data.residual <= 1e-13


def test_perron_vector_of_doubly_stochastic_is_uniform():
    rng = np.random.default_rng(3)
    m = rng.uniform(0.1, 1.0, size=(5, 5))
    for _ in range(400):
        m /= m.sum(axis=1, keepdims=True)
        m /= m.sum(axis=0, keepdims=True)
    w = validate_stochastic(m / m.sum(axis=1, keepdims=True), tol=1e-8)
    data = left_perron_vector(w)
    np.testing.assert_allclose(data.pi, np.full(5, 0.2), rtol=0, atol=1e-9)


def test_perron_vector_closed_form_2x2():
    # pi W = pi for W = [[0,1],[1/2,1/2]] forces pi2 = 2 pi1, so pi = (1/3, 2/3).
    w = validate_stochastic(np.array([[0, 2], [1, 1]]) / 2)
    data = left_perron_vector(w, tol=1e-13)
    np.testing.assert_allclose(data.pi, [1 / 3, 2 / 3], rtol=0, atol=1e-13)


def test_perron_vector_periodic_pattern_uses_solve_fallback():
    # Period-2 pattern with unequal weights: plain power iteration cycles.
    w = validate_stochastic([[0, 0, 0.3, 0.7], [0, 0, 0.8, 0.2], [0.4, 0.6, 0, 0], [0.9, 0.1, 0, 0]])
    data = left_perron_vector(w, tol=1e-12)
    assert data.residual <= 1e-12
    assert data.pi.min() > 0
    assert data.pi.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [5, 64, 256])
def test_perron_vector_of_kernel_denoiser_matches_degree_closed_form(n, seed):
    # W = D^-1 K with K symmetric is reversible, so pi = d / sum(d) for d = K e.
    signal = np.random.default_rng(seed).uniform(0.0, 1.0, size=n)
    d = kernel_affinity(signal, bandwidth=0.5).sum(axis=1)
    want = d / d.sum()
    pi = left_perron_vector(kernel_denoiser(signal, bandwidth=0.5)).pi
    assert np.max(np.abs(pi - want) / want) <= 1e-12


def test_perron_vector_rejects_reducible():
    w = validate_stochastic(np.eye(3))
    with pytest.raises(NotIrreducibleError):
        left_perron_vector(w)


def test_perron_invariants_on_random_irreducible():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        m = rng.uniform(0.05, 1.0, size=(n, n))
        w = validate_stochastic(m / m.sum(axis=1, keepdims=True))
        data = left_perron_vector(w, tol=1e-12)
        assert np.max(np.abs(data.pi @ w.matrix - data.pi)) <= 1e-12
        assert data.pi.min() > 0


# -- positive semidefiniteness ------------------------------------------------


def test_psd_rank_one_ones_matrix():
    assert is_positive_semidefinite(np.ones((2, 2)) / 2)


def test_psd_counterexample_data_matrix():
    # trace 16 > 0 and det (34*126 - 65^2)/100 = 0.59 > 0: both eigenvalues positive
    assert is_positive_semidefinite(np.array([[34, -65], [-65, 126]]) / 10)


def test_not_psd_indefinite():
    assert not is_positive_semidefinite(np.array([[1.0, -3.0], [-3.0, 1.0]]))


def test_psd_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        is_positive_semidefinite(np.array([[1.0, 2.0], [0.0, 1.0]]), tol=1e-10)


def test_gram_matrices_are_psd():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        g = rng.normal(size=(n, n))
        assert is_positive_semidefinite(g.T @ g, tol=1e-8)


# -- norm contraction ----------------------------------------------------------


def test_stochastic_contracts_max_norm():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        m = rng.uniform(0, 1, size=(n, n)) + 0.01
        w = validate_stochastic(m / m.sum(axis=1, keepdims=True))
        v = rng.normal(size=n) * 10
        assert np.max(np.abs(w.matrix @ v)) <= np.max(np.abs(v)) + 1e-12


def test_doubly_stochastic_contracts_euclidean_norm_complex():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        m = rng.uniform(0.1, 1.0, size=(n, n))
        for _ in range(300):
            m /= m.sum(axis=1, keepdims=True)
            m /= m.sum(axis=0, keepdims=True)
        w = validate_stochastic(m / m.sum(axis=1, keepdims=True), tol=1e-8)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.linalg.norm(w.matrix @ v) <= np.linalg.norm(v) + 1e-12


# -- text format ----------------------------------------------------------------


def test_matrix_file_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(29)
    m = rng.normal(size=(4, 7)) * np.exp(rng.uniform(-20, 20, size=(4, 7)))
    path = tmp_path / "m.txt"
    write_matrix(path, m)
    back = read_matrix(path)
    assert np.array_equal(back, m)


def test_matrix_file_supports_comments(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# a 2x2 matrix\n2 2\n1 2  # trailing note\n3 4\n")
    np.testing.assert_array_equal(read_matrix(path), [[1, 2], [3, 4]])


def test_matrix_file_rejects_wrong_row_count(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 2\n")
    with pytest.raises(ValueError):
        read_matrix(path)


def test_matrix_file_rejects_ragged_row(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 2\n3\n")
    with pytest.raises(ValueError):
        read_matrix(path)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("# only a comment\n\n", id="empty"),
        pytest.param("2 2 2\n1 2\n3 4\n", id="bad_header"),
        pytest.param("2 two\n1 2\n3 4\n", id="non_integer_header"),
        pytest.param("0 2\n", id="non_positive_dimensions"),
        pytest.param("3 2\n1 2\n3 4\n", id="wrong_row_count"),
        pytest.param("2 2\n1 2\n3\n", id="ragged_row"),
        pytest.param("2 2\n1 2 3\n4 5 6\n", id="rows_too_wide"),
        pytest.param("2 2\n1 x\n3 4\n", id="non_numeric_entry"),
    ],
)
def test_malformed_matrix_file_error_names_the_path(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_matrix(path)
