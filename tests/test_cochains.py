"""Coboundary, adjoint, pairing, harmonic forms, and the dimension identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeforms import _linalg
from treeforms.cochains import (Cochain, adjoint, basis_manifest, coboundary,
                                coboundary_rank, cochain_to_csv, h1c_dimension,
                                harmonic_space, incidence_rows,
                                intersect_harmonic_exact, pairing)
from treeforms.tower import apply_automorphism, num_components
from treeforms.tree import random_automorphism

from conftest import ball, tower

ZERO = Fraction(0)
ONE = Fraction(1)


def dense_matvec(matrix, vec, n):
    return [sum((row.get(j, ZERO) * vec.get(j, ZERO) for j in row), ZERO)
            for row in matrix][:n]


def rand_cochain(rng, level, n, size=4):
    return Cochain(level, {rng.randrange(n): Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
                           for _ in range(size)})


class TestCochainBasics:
    def test_zero_dropped(self):
        c = Cochain(0, {3: ZERO, 4: ONE})
        assert set(c.support) == {4}

    def test_bad_level(self):
        with pytest.raises(ValueError):
            Cochain(2, {})

    def test_arithmetic(self):
        a = Cochain(1, {0: ONE, 1: ONE})
        b = Cochain(1, {1: -ONE, 2: ONE})
        assert (a + b).data == {0: ONE, 2: ONE}
        assert (a - a).is_zero()
        assert a.scale(3)(0) == 3

    def test_support_validation(self):
        pg = tower(2, 1, 0)
        with pytest.raises(ValueError):
            coboundary(pg, Cochain(0, {99: ONE}))
        with pytest.raises(ValueError):
            adjoint(pg, Cochain(1, {99: ONE}))


class TestCoboundary:
    def test_zero(self):
        pg = tower(2, 2, 1)
        assert coboundary(pg, Cochain.zero(0)).is_zero()

    def test_indicator_formula(self):
        pg = tower(2, 2, 1)
        for s in range(pg.num_vertices):
            df = coboundary(pg, Cochain.indicator(0, s))
            for a in range(pg.num_edges):
                expected = (ONE if pg.head[a] == s else ZERO) - (ONE if pg.tail[a] == s else ZERO)
                assert df(a) == expected

    def test_constant_on_component_killed(self):
        pg = tower(2, 2, 2)
        from treeforms.tower import components
        comp = components(pg)[0]
        f = Cochain(0, {s: Fraction(7, 3) for s in comp})
        assert coboundary(pg, f).is_zero()

    def test_kernel_dimension_is_component_count(self):
        pg = tower(2, 2, 2)
        from treeforms import _linalg
        rank = _linalg.rank_of_rows(incidence_rows(pg))
        assert pg.num_vertices - rank == num_components(pg)


class TestAdjoint:
    def test_zero(self):
        pg = tower(2, 2, 1)
        assert adjoint(pg, Cochain.zero(1)).is_zero()

    def test_single_edge(self):
        pg = tower(2, 2, 1)
        a = 5
        ds = adjoint(pg, Cochain.indicator(1, a))
        assert ds(pg.head[a]) == 1
        assert ds(pg.tail[a]) == -1
        assert len(ds.data) == 2

    def test_laplacian_dense_oracle(self):
        """d* d f computed sparsely equals the dense matrix product."""
        pg = tower(2, 2, 1)
        rng = random.Random(1)
        rows = list(incidence_rows(pg))  # edge -> vertex row of d
        for _ in range(20):
            f = rand_cochain(rng, 0, pg.num_vertices)
            df_dense = {a: sum((row.get(s, ZERO) * f(s) for s in row), ZERO)
                        for a, row in enumerate(rows)}
            lap_dense = {}
            for a, row in enumerate(rows):
                for s, c in row.items():
                    lap_dense[s] = lap_dense.get(s, ZERO) + c * df_dense[a]
            got = adjoint(pg, coboundary(pg, f))
            assert got.data == {s: v for s, v in lap_dense.items() if v}


class TestPairing:
    def test_zero_pairing(self):
        assert pairing(Cochain.zero(1), Cochain(1, {3: ONE})) == 0

    def test_indicator_self(self):
        assert pairing(Cochain.indicator(1, 2), Cochain.indicator(1, 2)) == 1

    def test_level_mismatch(self):
        with pytest.raises(ValueError):
            pairing(Cochain.zero(0), Cochain.zero(1))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_adjointness(self, seed):
        pg = tower(2, 3, 1)
        rng = random.Random(seed)
        f = rand_cochain(rng, 0, pg.num_vertices)
        w = rand_cochain(rng, 1, pg.num_edges)
        assert pairing(w, coboundary(pg, f)) == pairing(adjoint(pg, w), f)

    def test_l2_norm(self):
        w = Cochain(1, {0: Fraction(3), 1: Fraction(-4)})
        assert pairing(w, w) == 25
        assert pairing(Cochain.zero(1), Cochain.zero(1)) == 0
        assert pairing(Cochain.indicator(1, 7), Cochain.indicator(1, 7)) == 1


def dense_nullspace_dim_of_adjoint(pg):
    """Independent oracle: dense RREF of the vertex-by-edge matrix of d*."""
    from test_linalg import dense_rref_rank
    matrix = [[ZERO] * pg.num_edges for _ in range(pg.num_vertices)]
    for a in range(pg.num_edges):
        matrix[pg.head[a]][a] += ONE
        matrix[pg.tail[a]][a] -= ONE
    return pg.num_edges - dense_rref_rank(matrix)


class TestHarmonicSpace:
    def test_acyclic_graph_empty_basis(self):
        # level 2R has vertices but no edges: trivially acyclic
        pg = tower(2, 1, 2)
        assert pg.num_edges == 0
        assert harmonic_space(pg) == []

    def test_ball21_k0_dimension(self):
        pg = tower(2, 1, 0)
        basis = harmonic_space(pg)
        assert len(basis) == 3 == pg.num_edges - pg.num_vertices + 1

    @pytest.mark.parametrize("q,radius,k", [(2, 1, 0), (2, 2, 1), (2, 2, 2), (3, 1, 1)])
    def test_every_element_harmonic_and_independent(self, q, radius, k):
        pg = tower(q, radius, k)
        basis = harmonic_space(pg)
        for w in basis:
            assert adjoint(pg, w).is_zero()
        from treeforms import _linalg
        assert _linalg.rank_of_rows([w.data for w in basis]) == len(basis)

    @pytest.mark.parametrize("q,radius,k", [(2, 1, 0), (2, 2, 1), (3, 1, 1), (2, 2, 2)])
    def test_dimension_against_dense_oracle(self, q, radius, k):
        pg = tower(q, radius, k)
        assert len(harmonic_space(pg)) == dense_nullspace_dim_of_adjoint(pg)

    def test_ball22_k1_euler(self):
        pg = tower(2, 2, 1)
        assert len(harmonic_space(pg)) == 24 - 18 + num_components(pg)


class TestDimensionIdentities:
    @pytest.mark.parametrize("q,radius,k", [(2, 1, 0), (2, 2, 0), (2, 2, 1),
                                            (2, 3, 2), (3, 2, 1), (3, 2, 3)])
    def test_h1c_equals_harmonic_dim(self, q, radius, k):
        pg = tower(q, radius, k)
        assert h1c_dimension(pg) == len(harmonic_space(pg))

    def test_acyclic_h1c_zero(self):
        pg = tower(2, 1, 2)
        assert h1c_dimension(pg) == 0

    def test_ball21_k0(self):
        assert h1c_dimension(tower(2, 1, 0)) == 3

    @pytest.mark.parametrize("q,radius,k", [(2, 1, 0), (2, 2, 1), (2, 3, 2), (3, 2, 2)])
    def test_harmonic_meets_coboundaries_trivially(self, q, radius, k):
        assert intersect_harmonic_exact(tower(q, radius, k)) == 0


class TestCertifiedRanks:
    """The GF(p) certificates agree with the Fraction elimination they skip."""

    @pytest.mark.parametrize("q,radius,k", [(2, 2, 0), (2, 3, 1), (2, 2, 2),
                                            (2, 3, 4), (3, 2, 2)])
    def test_agree_with_fraction_elimination(self, q, radius, k, monkeypatch):
        pg = tower(q, radius, k)
        d_rows = list(incidence_rows(pg))
        dstar_rows = [{} for _ in range(pg.num_vertices)]
        for a, row in enumerate(d_rows):
            for s, x in row.items():
                dstar_rows[s][a] = x
        cycles = [w.data for w in harmonic_space(pg)]
        dim_a = _linalg.rank_of_rows(cycles)
        dim_b = _linalg.rank_of_rows(dstar_rows)
        oracle = dim_a + dim_b - _linalg.rank_of_rows(cycles + dstar_rows)
        assert coboundary_rank(pg) == _linalg.rank_of_rows(d_rows) == dim_b
        assert intersect_harmonic_exact(pg) == oracle == 0
        # A certificate that is never met sends both through the Fraction route.
        monkeypatch.setattr(_linalg, "rank_mod_p", lambda rows, p=_linalg.MODULUS: -1)
        assert coboundary_rank(pg) == dim_b
        assert intersect_harmonic_exact(pg) == oracle


class TestEquivariance:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_d_and_adjoint_commute_with_action(self, seed):
        b = ball(2, 2)
        pg = tower(2, 2, 1)
        g = random_automorphism(b, seed)
        vmap, emap = apply_automorphism(pg, g)
        rng = random.Random(seed)
        for _ in range(10):
            f = rand_cochain(rng, 0, pg.num_vertices)
            w = rand_cochain(rng, 1, pg.num_edges)
            assert coboundary(pg, f.permuted(vmap)) == coboundary(pg, f).permuted(emap)
            assert adjoint(pg, w.permuted(emap)) == adjoint(pg, w).permuted(vmap)


class TestExports:
    def test_csv_round_trip_values(self):
        w = Cochain(1, {2: Fraction(-5, 3), 0: ONE})
        csv = cochain_to_csv(w)
        lines = csv.strip().splitlines()
        assert lines[0] == "kind,id,numerator,denominator"
        assert lines[1] == "E,0,1,1"
        assert lines[2] == "E,2,-5,3"

    def test_manifest_dimension(self):
        pg = tower(2, 1, 0)
        basis = harmonic_space(pg)
        import json
        payload = json.loads(basis_manifest(pg, basis, [f"v{i}.csv" for i in range(len(basis))]))
        assert payload["dimension"] == 3
        assert payload["edges"] - payload["vertices"] + payload["components"] == 3
