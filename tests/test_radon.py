"""Radon transform: apartments, kernel, exactness, loop integrals, primitives."""

import dataclasses
import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from treeforms import _linalg, checks, radon
from treeforms.cochains import Cochain, coboundary
from treeforms.radon import (ApartmentFamily, MarginError, OrientedApartment,
                             PathDependenceError, WalkWithSigns, enlarged_support,
                             exactness_check, fundamental_loops,
                             induced_apartments, interior_edges, interior_family,
                             interior_vertices, path_integral, primitive,
                             radon_kernel_interior, radon_transform,
                             random_loops, span_check, _certified_dims, _kernel_rows,
                             _subspace_dims)
from treeforms.tower import build_path_graph
from treeforms.tree import (TreeParams, build_ball, enumerate_oriented_diameters,
                            geodesic_between, random_automorphism)

import reference
from conftest import apartments, ball, is_loop, spy_calls, through, tower
from test_cochains import (HARMONIC_GRID, assert_int_form, edge_cochains, ref_graph, same_values,
                           vertex_cochains)

ZERO = Fraction(0)
ONE = Fraction(1)


@functools.cache
def ref_apartments(pg, aps):
    """The reference's apartments of a family's own sequences, with the
    family's ids: each window recomputed from the sequence."""
    g = ref_graph(pg)
    return tuple((ap.id, ap.base, reference.windows(g, ap.base)) for ap in aps)


class TestInducedApartments:
    def test_ball21_k0_windows(self):
        aps = apartments(2, 1, 0)
        assert len(aps) == 6
        for ap in aps:
            assert len(ap.edges) == 2

    def test_full_length_window_single(self):
        # k = diameter length - 1: one window per (long enough) diameter.
        # ball(2,2) has 24 length-4 diameters and 6 length-2 ones between
        # sibling leaves; the short ones carry no level-3 window.
        aps = apartments(2, 2, 3)
        assert len(aps) == 24
        for ap in aps:
            assert len(ap.edges) == 1
        short = apartments(2, 2, 1)
        assert sum(1 for ap in short if len(ap.edges) == 1) == 6

    def test_k_too_large_empty(self):
        b = ball(2, 1)
        pg = build_path_graph(b, 2)  # no 3-paths in radius-1 ball
        aps = induced_apartments(pg, enumerate_oriented_diameters(b))
        assert len(aps) == 0

    def test_one_pass_inputs_give_the_lists_family(self):
        """The input is read once: an iterator, a generator and a tuple of
        the same diameters give the list's family."""
        pg = tower(2, 3, 1)
        diams = enumerate_oriented_diameters(pg.ball)
        assert len(induced_apartments(pg, diams[::2])) == 66
        for part in (diams, diams[::2]):
            want = induced_apartments(pg, part)
            for other in (iter(part), (seg for seg in part), tuple(part)):
                got = induced_apartments(pg, other)
                assert ((got.apartments, got._through, got.complete)
                        == (want.apartments, want._through, want.complete))

    def test_windows_are_contiguous_oriented(self):
        pg = tower(2, 2, 1)
        for ap in apartments(2, 2, 1):
            for a in ap.edges:
                e = pg.edges[a]
                n = len(e)
                base = ap.base
                assert any(base[i:i + n] == e for i in range(len(base) - n + 1))
            # consecutive windows chain head-to-tail: constant +1 incidence
            for a, b_ in zip(ap.edges, ap.edges[1:]):
                assert pg.edges[b_][:-1] == pg.edges[a][1:]

    def test_reversed_diameter_reverses_edges(self):
        pg = tower(2, 2, 1)
        aps = apartments(2, 2, 1)
        by_base = {ap.base: ap for ap in aps}
        for ap in aps:
            rev = by_base[tuple(reversed(ap.base))]
            rev_seqs = [tuple(reversed(pg.edges[a])) for a in rev.edges]
            assert rev_seqs == [pg.edges[a] for a in reversed(ap.edges)]


class TestApartmentsThrough:
    def test_ball21_root_edge(self):
        pg = tower(2, 1, 0)
        aps = apartments(2, 1, 0)
        a = pg.edges.index((0, 1))
        passing = [aps.apartments[i] for i in through(aps, a)]
        assert len(passing) == 2
        # the two apartments end at leaf 1 coming from the other two leaves
        assert {ap.base for ap in passing} == {(2, 0, 1), (3, 0, 1)}

    def test_full_window_selects_single_apartment(self):
        pg = tower(2, 2, 3)
        aps = apartments(2, 2, 3)
        for ap in aps:
            assert through(aps, ap.edges[0]) == [ap.id]

    def test_membership_by_construction(self):
        aps = apartments(2, 2, 1)
        for ap in aps:
            for a in ap.edges:
                assert ap.id in through(aps, a)

    def test_unknown_edge(self):
        aps = apartments(2, 1, 0)
        with pytest.raises(ValueError):
            through(aps, 999)


def per_window_apartments(pg, diameters):
    """The reference's (id, base, edges) triples and edge -> ids index, or
    the type of the exception its window lookups raise."""
    g = ref_graph(pg)
    try:
        triples = reference.apartments(g, diameters)
    except KeyError as err:
        return type(err)
    return triples, {a: ids for a, ids in enumerate(reference.through(triples, g.num_edges))
                     if ids}


def chain_apartments(pg, diameters):
    """induced_apartments in the reference's terms."""
    try:
        aps = induced_apartments(pg, diameters)
    except Exception as err:  # noqa: BLE001 - the type is the answer
        return type(err)
    triples = [(ap.id, ap.base, ap.edges) for ap in aps]
    assert all((ap.leaf_from, ap.leaf_to) == (ap.base[0], ap.base[-1]) for ap in aps)
    return triples, {a: through(aps, a) for a in range(pg.num_edges) if through(aps, a)}


SMALL_BALLS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]


class TestRootChainWindows:
    """induced_apartments against the reference: ids, bases, windows and
    ``through`` for every edge, or the same exception type."""

    @pytest.mark.parametrize("q,radius", SMALL_BALLS + [(2, 4), (3, 3)])
    def test_diameters_match_oracle(self, q, radius):
        diams = enumerate_oriented_diameters(ball(q, radius))
        for k in range(2 * radius + 1):
            pg = tower(q, radius, k)
            assert chain_apartments(pg, diams) == per_window_apartments(pg, diams)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_geodesic_families_match_oracle(self, data):
        """Segments between arbitrary vertices, some reversed, some repeated,
        some too short for a window, in any order."""
        q, radius = data.draw(st.sampled_from(SMALL_BALLS))
        b = ball(q, radius)
        pg = tower(q, radius, data.draw(st.integers(0, 2 * radius)))
        vertex = st.integers(0, b.num_vertices - 1)
        segs = [geodesic_between(b, u, v)
                for u, v in data.draw(st.lists(st.tuples(vertex, vertex), max_size=10))]
        segs += [tuple(seg[::-1]) for seg in segs[::2]] + segs[:3]
        family = data.draw(st.permutations(segs))
        assert chain_apartments(pg, family) == per_window_apartments(pg, family)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_other_sequences_match_oracle(self, data):
        """Geodesics with one entry replaced, two geodesics joined end to end
        (a walk that may backtrack), and arbitrary ids, some outside the
        ball; one at a time and as one family."""
        q, radius = data.draw(st.sampled_from(SMALL_BALLS))
        b = ball(q, radius)
        pg = tower(q, radius, data.draw(st.integers(0, 2)))
        vertex = st.integers(0, b.num_vertices - 1)
        anything = st.integers(-2, b.num_vertices + 1)
        family = []
        for u, v, w, i, z in data.draw(st.lists(
                st.tuples(vertex, vertex, vertex, st.integers(0, 99), anything),
                min_size=1, max_size=4)):
            first = geodesic_between(b, u, v)
            changed = list(first)
            changed[i % len(first)] = z
            family += [tuple(changed),
                       tuple(first + geodesic_between(b, v, w)[1:])]
        family += [tuple(seq)
                   for seq in data.draw(st.lists(st.lists(anything, max_size=8), max_size=2))]
        for seg in family:
            assert chain_apartments(pg, [seg]) == per_window_apartments(pg, [seg])
        family = data.draw(st.permutations(family))
        assert chain_apartments(pg, family) == per_window_apartments(pg, family)

    @pytest.mark.parametrize("q,radius", [(2, 2), (2, 3), (3, 2)])
    def test_backtracking_walk(self, q, radius):
        """Up from a leaf and back down the same branch: at k >= 1 the
        windows at the turn are no paths of the ball, a KeyError as in the
        reference; at k = 0 every window is an edge."""
        b = ball(q, radius)
        leaf = b.leaves[-1]
        for climb in range(1, radius + 1):
            up = b.chains[leaf][:climb + 1]
            walk = tuple(up + up[-2::-1])
            for k in range(2 * climb):
                pg = tower(q, radius, k)
                if k == 0:
                    aps = induced_apartments(pg, [walk])
                    assert ([(ap.id, ap.base, ap.edges) for ap in aps]
                            == per_window_apartments(pg, [walk])[0])
                else:
                    with pytest.raises(KeyError):
                        induced_apartments(pg, [walk])
                    assert per_window_apartments(pg, [walk]) is KeyError


class TestRadonTransform:
    def test_zero(self):
        pg = tower(2, 1, 0)
        assert radon_transform(pg, apartments(2, 1, 0), Cochain.zero(1)) == {}

    def test_indicator_gives_characteristic_function(self):
        pg = tower(2, 2, 1)
        aps = apartments(2, 2, 1)
        for a in range(0, pg.num_edges, 3):
            image = radon_transform(pg, aps, Cochain.indicator(1, a))
            assert image == {i: ONE for i in through(aps, a)}

    def test_kills_interior_coboundaries(self):
        pg = tower(2, 2, 1)
        aps = apartments(2, 2, 1)
        rng = random.Random(4)
        inner = interior_vertices(pg, 0)
        for _ in range(50):
            f = Cochain(0, {rng.choice(inner): Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                            for _ in range(3)})
            assert radon_transform(pg, aps, coboundary(pg, f)) == {}

    def test_boundary_coboundary_telescopes(self):
        """On a truncation the image of d(leaf indicator) is the telescoped
        end-window difference, not zero."""
        pg = tower(2, 1, 0)
        aps = apartments(2, 1, 0)
        leaf_path = pg.vert_index[(1,)]
        image = radon_transform(pg, aps, coboundary(pg, Cochain.indicator(0, leaf_path)))
        expected = {}
        for ap in aps:
            v = (1 if ap.base[-1] == 1 else 0) - (1 if ap.base[0] == 1 else 0)
            if v:
                expected[ap.id] = Fraction(v)
        assert image == expected


MIXED = st.sampled_from([Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3, 4, 6)])


class TestIntegerTransform:
    """The int-accumulated transform against the reference's Fraction sums."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), inst=st.sampled_from([(2, 2, 1), (2, 3, 0), (3, 2, 1), (2, 3, 2)]))
    def test_matches_naive_fraction_sum(self, data, inst):
        pg = tower(*inst)
        aps = apartments(*inst)
        values = data.draw(st.dictionaries(st.integers(0, pg.num_edges - 1), MIXED,
                                           max_size=8))
        # Adding a coboundary cancels values along every leaf-avoiding stretch.
        potential = data.draw(st.dictionaries(st.sampled_from(interior_vertices(pg, 0)),
                                              MIXED, max_size=4))
        omega = Cochain(1, values) + coboundary(pg, Cochain(0, potential))
        image = radon_transform(pg, aps, omega)
        naive = {}
        for ap in aps:
            v = sum((omega(a) for a in ap.edges), ZERO)
            if v:
                naive[ap.id] = v
        assert image == naive
        assert list(image.items()) == list(reference.transform(
            ref_graph(pg), reference.family(ref_graph(pg)), omega.data).items())
        assert all(type(v) is Fraction for v in image.values())

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), inst=st.sampled_from([(2, 2, 1), (2, 3, 0), (3, 2, 1), (2, 3, 2)]))
    def test_apartment_through_one_support_edge_holds_its_object(self, data, inst):
        """Each value is a new object, so `is` tells the cochain's own
        value from an equal one the transform built."""
        pg = tower(*inst)
        aps = apartments(*inst)
        fresh = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))
        values = data.draw(st.dictionaries(st.integers(0, pg.num_edges - 1), fresh,
                                           min_size=1, max_size=8))
        assume(len(set(values.values())) == len(values))
        omega = Cochain(1, values)
        image = radon_transform(pg, aps, omega)
        for ap in aps:
            reached = [a for a in ap.edges if a in omega.data]
            if len(reached) == 1:
                assert image[ap.id] is omega.data[reached[0]]

    def test_out_of_range_edge_rejected(self):
        pg = tower(2, 2, 1)
        aps = apartments(2, 2, 1)
        for bad in (-1, pg.num_edges):
            with pytest.raises(ValueError):
                radon_transform(pg, aps, Cochain(1, {0: ONE, bad: Fraction(1, 2)}))

    def test_family_on_another_path_graph_rejected(self):
        """A level-0 family with a level-1 cochain: edge 0 is an edge id at
        both levels, so only the family's graph tells them apart."""
        pg = tower(2, 2, 1)
        aps = apartments(2, 2, 0)
        with pytest.raises(ValueError, match="another path graph"):
            radon_transform(pg, aps, Cochain.indicator(1, 0))
        with pytest.raises(ValueError, match="another path graph"):
            radon_transform(tower(2, 2, 0), apartments(2, 2, 1), Cochain.zero(1))


def change_permuted(monkeypatch, name, position, change):
    """Patch ``checks.<name>`` so that in each pair of calls, the one at
    ``position`` (the call on the permuted cochain) has its first value
    replaced by ``change(value)``.  Returns the list of changed keys."""
    real = getattr(checks, name)
    calls, changed = [], []

    def patched(*args):
        out = real(*args)
        calls.append(None)
        data = out.data if isinstance(out, Cochain) else out
        if (len(calls) - 1) % 2 != position or not data:
            return out
        first = next(iter(data))
        changed.append(first)
        data = {**data, first: change(data[first])}
        return Cochain(out.level, data) if isinstance(out, Cochain) else data

    monkeypatch.setattr(checks, name, patched)
    return changed


# check_equivariance calls radon_transform on w, then on g.w, and
# coboundary on g.f, then on f.
PERMUTED_CALLS = [("radon_transform", 1, "radon"), ("coboundary", 0, "coboundary")]


class TestEquivarianceCheck:
    """The check compares values, so sharing objects cannot hide a
    mismatch: an equal value in a new object passes, a changed one fails."""

    @pytest.mark.parametrize("name, position", [call[:2] for call in PERMUTED_CALLS])
    def test_equal_value_in_a_new_object_passes(self, monkeypatch, name, position):
        changed = change_permuted(monkeypatch, name, position,
                                  lambda x: Fraction(x.numerator, x.denominator))
        passed, report = checks.check_equivariance(2, 3, 0, seed=1, samples=2)
        assert changed and passed and report["failures"] == []

    @pytest.mark.parametrize("name, position, kind", PERMUTED_CALLS)
    def test_changed_value_fails(self, monkeypatch, name, position, kind):
        changed = change_permuted(monkeypatch, name, position, lambda x: x + 1)
        passed, report = checks.check_equivariance(2, 3, 0, seed=1, samples=2)
        assert changed and not passed
        assert {f["kind"] for f in report["failures"]} == {kind}


def random_sparse_oracle(rng, level, ids, size):
    """The route that copies ``ids`` to a list and builds a new Fraction
    per draw."""
    ids = list(ids)
    data = {}
    for _ in range(min(size, len(ids))):
        data[rng.choice(ids)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
    return Cochain(level, data)


class TestRandomSparse:
    """``_random_sparse`` draws from the sequence itself and takes cached
    values; the draws, their order and their values are the oracle's."""

    @pytest.mark.parametrize("ids", [range(0), range(1), range(3), range(40),
                                     range(5, 12), [7], [2, 9, 4], list(range(0, 60, 3))],
                             ids=repr)
    @pytest.mark.parametrize("size", range(7))
    def test_matches_list_copying_oracle(self, ids, size):
        for seed in range(25):
            ours, theirs = random.Random(seed), random.Random(seed)
            got = checks._random_sparse(ours, seed % 2, ids, size)
            want = random_sparse_oracle(theirs, seed % 2, ids, size)
            assert got == want and list(got.data) == list(want.data)
            assert all(type(x) is Fraction for x in got.data.values())
            assert ours.getstate() == theirs.getstate()


def apartment_images_reference(q, radius, k, g):
    """id -> id of the reference apartment whose base is g's image of an
    apartment's base, None where there is none."""
    aps = reference.family(reference.graph(q, radius, k))
    base_of = {base: i for i, base, _ in aps}
    return {i: base_of.get(tuple(g.perm[v] for v in base)) for i, base, _ in aps}


class TestApartmentImages:
    """check_equivariance maps each apartment by the images of its two ends."""

    @pytest.mark.parametrize("q,radius", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                          (3, 1), (3, 2), (3, 3)])
    def test_end_map_matches_base_tuple_reference(self, q, radius):
        for k in range(2 * radius + 1):
            aps = interior_family(tower(q, radius, k), 0)
            by_ends = checks._by_ends(aps)
            ids = sorted(ap.id for ap in aps)
            for seed in range(4):
                g = random_automorphism(ball(q, radius), 100 * k + seed)
                images = checks._apartment_images(aps, by_ends, g)
                assert images == apartment_images_reference(q, radius, k, g), (k, seed)
                assert sorted(images.values()) == ids, (k, seed)

    def test_image_outside_the_family_is_reported(self, monkeypatch):
        """A family that lacks one apartment's image fails with its own kind.
        A transform value carried onto the dropped apartment's image is also
        a "radon" mismatch, so that kind may be reported too."""
        def short_family(pg, margin):
            aps = interior_family(pg, margin)
            return ApartmentFamily(pg, aps.apartments[:-1])

        monkeypatch.setattr(checks, "interior_family", short_family)
        passed, report = checks.check_equivariance(2, 3, 0, seed=1, samples=3)
        assert not passed
        assert "apartment image missing" in {f["kind"] for f in report["failures"]}


# q in {2, 3}, R <= 3 (R <= 4 at q = 2), every level k <= 2R.
EQUIVARIANCE_GRID = [(q, radius, k) for q, rmax in ((2, 4), (3, 3))
                     for radius in range(1, rmax + 1) for k in range(2 * radius + 1)]


def scan_images(monkeypatch, q, radius, k):
    """Patch ``checks._apartment_images`` with a scan oracle: map the whole
    family of (q, R, k) with the real function, then restrict the result
    to the apartments asked for."""
    real = checks._apartment_images
    family = interior_family(tower(q, radius, k), 0)

    def oracle(aps, by_ends, g):
        whole = real(family, by_ends, g)
        return {ap.id: whole[ap.id] for ap in aps}

    monkeypatch.setattr(checks, "_apartment_images", oracle)


class TestSupportImages:
    """check_equivariance maps only the transform's support."""

    def test_family_holds_every_leaf_pair_that_carries_a_window(self):
        for q, radius, k in EQUIVARIANCE_GRID:
            if q == 2 and radius == 4:
                continue
            b = ball(q, radius)
            pairs = sum(1 for x in b.leaves for y in b.leaves
                        if x != y and b.distance(x, y) >= k + 1)
            aps = interior_family(tower(q, radius, k), 0)
            assert aps.complete and len(aps) == pairs, (q, radius, k)

    @pytest.mark.parametrize("q,radius,k", EQUIVARIANCE_GRID)
    def test_support_map_is_the_scan_restricted(self, q, radius, k):
        pg = tower(q, radius, k)
        aps = interior_family(pg, 0)
        by_ends = checks._by_ends(aps)
        rng = random.Random(100 * k + radius)
        for seed in range(3):
            g = random_automorphism(pg.ball, 1000 * q + 100 * k + seed)
            scan = checks._apartment_images(aps, by_ends, g)
            for _ in range(3):
                w = checks._random_sparse(rng, 1, range(pg.num_edges), 4)
                before = radon_transform(pg, aps, w)
                support = checks._apartment_images(map(aps.apartments.__getitem__, before),
                                                   by_ends, g)
                assert support == {i: scan[i] for i in before}, seed
                assert None not in support.values()

    @pytest.mark.parametrize("q,radius,k", EQUIVARIANCE_GRID)
    def test_report_equals_the_scan_route(self, monkeypatch, q, radius, k):
        for seed in (0, 3):
            with monkeypatch.context() as patch:
                calls = spy_calls(patch, checks, "_apartment_images",
                                  lambda aps, by_ends, g: isinstance(aps, ApartmentFamily))
                support = checks.check_equivariance(q, radius, k, seed)
                assert calls and not any(calls), "a whole family was mapped"
            with monkeypatch.context() as patch:
                scan_images(patch, q, radius, k)
                scan = checks.check_equivariance(q, radius, k, seed)
            assert support == scan and support[0], seed

    @pytest.mark.parametrize("kept", ["head", "tail"])
    def test_swapped_edge_images_name_the_first_bad_edge(self, monkeypatch, kept):
        """The whole-list comparison reports the edge the edge-by-edge loop
        would: the first a with head or tail of emap[a] not the image of a's.
        The two swapped edges share their head, or their tail, so only the
        other map is wrong."""
        pg = tower(2, 3, 1)
        same, other = (pg.head, pg.tail) if kept == "head" else (pg.tail, pg.head)
        real = checks.apply_automorphism
        expected = []

        def swapped(pg_, g):
            vmap, emap = real(pg_, g)
            x = len(emap) // 3
            y = next(y for y in range(len(emap)) if same[emap[y]] == same[emap[x]]
                     and other[emap[y]] != other[emap[x]])
            emap[x], emap[y] = emap[y], emap[x]
            expected.append(next(a for a in range(pg.num_edges)
                                 if pg.head[emap[a]] != vmap[pg.head[a]]
                                 or pg.tail[emap[a]] != vmap[pg.tail[a]]))
            return vmap, emap

        monkeypatch.setattr(checks, "apply_automorphism", swapped)
        for seed in range(4):
            expected.clear()
            passed, report = checks.check_equivariance(2, 3, 1, seed=seed, samples=1)
            assert not passed and report["failures"][0] == {"auto": 0, "kind": "incidence",
                                                            "edge": expected[0]}

    @pytest.mark.parametrize("drop", [0, 17, -1])
    def test_complete_flag_on_a_short_family_reports_the_missed_lookup(self, monkeypatch,
                                                                       drop):
        """A short family takes the support route too; a lookup that misses
        is reported, and nothing raises.  The ids of the kept apartments are
        not renumbered."""
        def short_family(pg, margin):
            kept = list(interior_family(pg, margin).apartments)
            del kept[drop]
            return ApartmentFamily(pg, kept)

        monkeypatch.setattr(checks, "interior_family", short_family)
        calls = spy_calls(monkeypatch, checks, "_apartment_images",
                          lambda aps, by_ends, g: isinstance(aps, ApartmentFamily))
        passed, report = checks.check_equivariance(2, 3, 0, seed=1)
        assert not passed and not any(calls)
        assert "apartment image missing" in {f["kind"] for f in report["failures"]}


class TestInterior:
    def test_interior_edges_small_margin(self):
        pg = tower(2, 4, 0)
        # margin 2: doubled edges of the radius-2 subball
        assert len(interior_edges(pg, 2)) == 18
        assert len(interior_vertices(pg, 2)) == 4

    def test_empty_interior(self):
        pg = tower(2, 3, 2)
        assert interior_edges(pg, 4) == []

    @pytest.mark.parametrize("q,radius,k", [(2, 4, 1), (2, 3, 0), (2, 3, 3), (3, 3, 2)])
    def test_coboundary_of_interior_vertex_stays_interior(self, q, radius, k):
        pg = tower(q, radius, k)
        for margin in range(radius + 2):
            inner_edges = set(interior_edges(pg, margin))
            for s in interior_vertices(pg, margin):
                df = coboundary(pg, Cochain.indicator(0, s))
                assert set(df.support) <= inner_edges


class TestRadonKernel:
    def test_empty_interior_rejected(self):
        pg = tower(2, 3, 2)
        aps = apartments(2, 3, 2)
        with pytest.raises(MarginError):
            radon_kernel_interior(pg, aps, 4)

    @pytest.mark.parametrize("q,radius,k,margin,dim", [
        (2, 1, 0, 0, 1),   # star ball: kernel is spanned by d(root indicator)
        (2, 4, 0, 2, 4),
        (3, 3, 0, 2, 1),
        (2, 4, 1, 3, 0),
    ])
    def test_kernel_dimensions(self, q, radius, k, margin, dim):
        pg = tower(q, radius, k)
        aps = apartments(q, radius, k)
        assert len(radon_kernel_interior(pg, aps, margin)) == dim

    def test_kernel_elements_killed_and_interior(self):
        pg = tower(2, 4, 0)
        aps = apartments(2, 4, 0)
        inner = set(interior_edges(pg, 2))
        for w in radon_kernel_interior(pg, aps, 2):
            assert radon_transform(pg, aps, w) == {}
            assert set(w.support) <= inner

    def test_kernel_against_reference(self):
        pg, g = tower(2, 4, 0), reference.graph(2, 4, 0)
        inner = reference.interior_edges(g, 2)
        rank = reference.rank(reference.kernel_rows(reference.family(g), inner))
        assert len(radon_kernel_interior(pg, apartments(2, 4, 0), 2)) == len(inner) - rank


class TestKernelRows:
    @pytest.mark.parametrize("q,radius,k", [(2, 3, 0), (2, 4, 1), (3, 3, 1), (2, 4, 2)])
    def test_match_reference(self, q, radius, k):
        pg, g = tower(q, radius, k), reference.graph(q, radius, k)
        aps = apartments(q, radius, k)
        for margin in range(k + 3):
            inner = interior_edges(pg, margin)
            assert inner == reference.interior_edges(g, margin)
            assert interior_vertices(pg, margin) == reference.interior_vertices(g, margin)
            got = _kernel_rows(aps, inner)
            want = reference.kernel_rows(reference.family(g), inner)
            assert [list(r.items()) for r in got] == [list(r.items()) for r in want]


class TestExactness:
    GRID = [(2, 3, 0), (2, 3, 1), (2, 3, 2),
            (2, 4, 0), (2, 4, 1), (2, 4, 2),
            (3, 3, 0), (3, 3, 1), (3, 3, 2)]

    @pytest.mark.parametrize("q,radius,k", GRID)
    def test_grid_equal_at_default_margin(self, q, radius, k):
        pg = tower(q, radius, k)
        aps = apartments(q, radius, k)
        rep = exactness_check(pg, aps, k + 2)
        assert rep.equal
        assert rep.kernel_dim == rep.image_dim

    def test_acyclic_interior_trivially_equal(self):
        pg = tower(2, 3, 2)
        aps = apartments(2, 3, 2)
        rep = exactness_check(pg, aps, 4)
        assert rep.equal and rep.kernel_dim == 0 and rep.image_dim == 0

    def test_nonvacuous_cells(self):
        expected = {(2, 4, 0): 4, (2, 3, 0): 1, (3, 3, 0): 1}
        for (q, radius, k), dim in expected.items():
            rep = exactness_check(tower(q, radius, k), apartments(q, radius, k), k + 2)
            assert rep.equal and rep.kernel_dim == dim

    def test_subspaces_not_just_dimensions(self):
        """Kernel basis and coboundary image span the same space exactly."""
        pg = tower(2, 4, 0)
        aps = apartments(2, 4, 0)
        kernel = [w.data for w in radon_kernel_interior(pg, aps, 2)]
        image = [coboundary(pg, Cochain.indicator(0, s)).data
                 for s in interior_vertices(pg, 2)]
        assert reference.rank(kernel) == reference.rank(image) == reference.rank(kernel + image)

    def test_larger_ball_nonvacuous_level1(self):
        """At radius 5 the level-1 check has genuine content (dim 6)."""
        pg = tower(2, 5, 1)
        aps = apartments(2, 5, 1)
        rep = exactness_check(pg, aps, 3)
        assert rep.equal and rep.kernel_dim == 6

    def test_minimal_margin_scan(self):
        _, report = checks.check_exactness(2, 4, 0, 2, scan=True)
        assert report["minimal_passing_margin"] == 0


class TestExactnessScan:
    """``check_exactness`` probes each margin at most once, each on its own
    ``interior_family``, and its scan answers as the first passing margin of
    the complete family's checks did."""

    @staticmethod
    def spy(monkeypatch, equal=None) -> list[int]:
        """The margins probed, in call order, whether ``checks`` or ``radon``
        makes the call; ``equal``, if given, overrides each report's verdict."""
        probed = []

        def probe(pg, aps, margin):
            assert list(aps) == list(interior_family(pg, margin))
            probed.append(margin)
            rep = exactness_check(pg, aps, margin)
            return rep if equal is None else dataclasses.replace(rep, equal=equal(margin))

        monkeypatch.setattr(checks, "exactness_check", probe)
        monkeypatch.setattr(radon, "exactness_check", probe)
        return probed

    @pytest.mark.parametrize("q,radius,k", [(2, 3, 0), (2, 4, 1), (3, 2, 0)])
    @pytest.mark.parametrize("scan", [False, True])
    def test_each_margin_probed_at_most_once(self, monkeypatch, q, radius, k, scan):
        for margin in range(radius + 2):
            with monkeypatch.context() as patch:
                probed = self.spy(patch)
                _, report = checks.check_exactness(q, radius, k, margin, scan=scan)
            assert probed[0] == margin and len(set(probed)) == len(probed)
            assert len(probed) <= (margin + 1 if scan else 1)
            if scan:
                full = apartments(q, radius, k)
                expected = next((m for m in range(margin + 1)
                                 if exactness_check(tower(q, radius, k), full, m).equal), None)
                assert report["minimal_passing_margin"] == expected

    def test_margin_zero_scan_probes_once(self, monkeypatch):
        probed = self.spy(monkeypatch)
        _, report = checks.check_exactness(2, 4, 0, 0, scan=True)
        assert probed == [0] and report["minimal_passing_margin"] == 0

    @pytest.mark.parametrize("first,expected", [(1, 1), (2, 2), (3, None)])
    def test_answer_when_small_margins_fail(self, monkeypatch, first, expected):
        """The first passing margin below the report's, else the report's own
        if it passes, else None."""
        probed = self.spy(monkeypatch, equal=lambda m: m >= first)
        passed, report = checks.check_exactness(2, 3, 0, 2, scan=True)
        assert probed == [2, 0, 1] and passed == (first <= 2)
        assert report["minimal_passing_margin"] == expected


def ref_exactness(pg, aps, margin):
    """(kernel_dim, image_dim, equal) of the reference, on the family's
    own sequences."""
    return reference.exactness(ref_graph(pg), ref_apartments(pg, aps), margin)


class TestExactnessAgainstOracle:
    """``exactness_check`` against the reference."""

    GRID = TestExactness.GRID

    def test_ranks_alone_do_not_certify(self):
        # Both ranks fit (1 = 2 - 1), but the row does not annihilate the
        # image, so im d = span(e0) is not inside K = span(e1).
        assert _subspace_dims([{0: ONE}], [{0: ONE}], 2) == (1, 1, False)
        assert _subspace_dims([{0: ONE}], [{1: ONE}], 2) == (1, 1, True)
        assert _subspace_dims([{0: ONE, 1: ONE}], [{0: ONE, 1: -ONE}], 2) == (1, 1, True)

    @pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
    @pytest.mark.parametrize("q,radius,k", GRID)
    def test_matches_oracle(self, q, radius, k, half):
        """At every margin 0..k+2, for the whole family and for every other
        apartment; half the apartments leave a kernel larger than im d at
        margin 0."""
        pg = tower(q, radius, k)
        aps = apartments(q, radius, k)
        if half:
            aps = ApartmentFamily(pg, aps.apartments[::2])
        reports = [exactness_check(pg, aps, m) for m in range(k + 3)]
        for m, rep in enumerate(reports):
            got = (rep.kernel_dim, rep.image_dim, rep.equal)
            assert got == ref_exactness(pg, aps, m)
        if half and k >= 1:
            assert not reports[0].equal
            assert reports[0].kernel_dim > reports[0].image_dim


def coboundary_columns(pg, interior, verts):
    """Each d1_s of the given vertices s in interior-column terms, from
    ``coboundary``."""
    col = {a: j for j, a in enumerate(interior)}
    return [{col[a]: int(v) for a, v in coboundary(pg, Cochain.indicator(0, s)).data.items()}
            for s in verts]


def certificate_inputs(pg, aps, margin):
    """What exactness_check hands ``_certified_dims`` for aps's own rows:
    interior edges and vertices, kernel rows and image rows."""
    interior, verts = interior_edges(pg, margin), interior_vertices(pg, margin)
    return interior, verts, _kernel_rows(aps, interior), coboundary_columns(pg, interior, verts)


# Every k <= 2R and margin <= R cell of these balls is decided by the
# certificate.
CERTIFIED_BALLS = [(2, radius) for radius in range(1, 6)] + [(3, radius) for radius in range(1, 4)]


class TestCertificate:
    """``_certified_dims``: a forest and a peel decide ``ker R = im d_int``
    before any elimination, and refuse whenever a step of the proof fails."""

    @pytest.mark.parametrize("q,radius", CERTIFIED_BALLS)
    def test_decides_every_cell(self, monkeypatch, q, radius):
        """With the elimination route raising, every cell still gets its
        report, and it is the reference's."""
        def refuse(*args):
            raise AssertionError("exactness_check fell back to elimination")

        monkeypatch.setattr(radon, "_subspace_dims", refuse)
        for k in range(2 * radius + 1):
            pg, aps = tower(q, radius, k), apartments(q, radius, k)
            for margin in range(radius + 1):
                rep = exactness_check(pg, aps, margin)
                assert (rep.kernel_dim, rep.image_dim, rep.equal) == ref_exactness(pg, aps, margin)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn_subfamilies(self, data):
        """A sub-family of the complete family, built by hand: the report is
        the reference's, whichever route decides.  Sparse ones stall the peel."""
        q = data.draw(st.integers(2, 3))
        radius = data.draw(st.integers(1, 4 if q == 2 else 3))
        k = data.draw(st.integers(0, 2 * radius))
        pg, full = tower(q, radius, k), apartments(q, radius, k)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        percent = data.draw(st.integers(0, 100))
        aps = ApartmentFamily(pg, [ap for ap in full if rng.randrange(100) < percent])
        margin = data.draw(st.integers(0, radius))
        rep = exactness_check(pg, aps, margin)
        assert (rep.kernel_dim, rep.image_dim, rep.equal) == ref_exactness(pg, aps, margin)

    @pytest.mark.parametrize("q,radius,k", [(2, 3, 1), (2, 4, 1), (3, 3, 1), (2, 4, 2), (3, 3, 2)])
    def test_stalled_peel_refuses(self, q, radius, k):
        """Every other apartment leaves a kernel larger than im d at margin
        0, while the rows still kill every d1_s: only the peel can refuse,
        and the elimination then reports the spaces unequal."""
        pg = tower(q, radius, k)
        aps = ApartmentFamily(pg, apartments(q, radius, k).apartments[::2])
        interior, verts, rows, image = certificate_inputs(pg, aps, 0)
        assert radon._annihilated(rows, image)
        assert _certified_dims(pg, interior, verts, rows, image) is None
        kernel_dim, image_dim, equal = ref_exactness(pg, aps, 0)
        assert kernel_dim > image_dim == len(verts) and not equal
        rep = exactness_check(pg, aps, 0)
        assert (rep.kernel_dim, rep.image_dim, rep.equal) == (kernel_dim, image_dim, equal)

    def test_row_that_misses_a_coboundary_refuses(self):
        """A unit row at an edge of the first interior vertex keeps the
        forest and the peel (it adds a row), but does not kill that
        vertex's d1_s: only the annihilation test can refuse."""
        pg, aps = tower(2, 3, 0), apartments(2, 3, 0)
        interior, verts, rows, image = certificate_inputs(pg, aps, 0)
        n = len(verts)
        assert _certified_dims(pg, interior, verts, rows, image) == (n, n, True)
        doctored = rows + [{next(iter(image[0])): 1}]
        assert _certified_dims(pg, interior, verts, doctored, image) is None
        assert _subspace_dims(doctored, image, len(interior))[2] is False

    def test_unreached_interior_vertices_refuse(self):
        """Two doctored interiors the forest cannot cover.  q2-R1-k2 has no
        edge, so a vertex declared interior has d1_s = 0 and im d is 0, not
        one-dimensional.  All of the connected q2-R2-k0 declared interior
        leaves no root, and its V coboundaries span only V - 1 dimensions."""
        pg = tower(2, 1, 2)
        assert pg.num_edges == 0
        assert _certified_dims(pg, [], [0], [], [{}]) is None
        assert _subspace_dims([], [{}], 0) == (0, 0, True)
        pg, aps = tower(2, 2, 0), apartments(2, 2, 0)
        interior, _, rows, _ = certificate_inputs(pg, aps, 0)
        assert interior == list(range(pg.num_edges))
        everything = list(range(pg.num_vertices))
        image = coboundary_columns(pg, interior, everything)
        assert _certified_dims(pg, interior, everything, rows, image) is None
        assert _subspace_dims(rows, image, len(interior))[1] == pg.num_vertices - 1


def assert_family_matches_reference(pg, margin):
    got = interior_family(pg, margin)
    g = reference.graph(pg.ball.params.q, pg.ball.params.radius, pg.k)
    want = reference.family(g, margin)
    assert got.apartments == list(want)
    assert got._through == reference.through(want, g.num_edges)
    assert got.complete is (margin == 0)
    assert all(type(ap) is OrientedApartment for ap in got)
    # Each base is the ball memo's own tuple, not a copy.
    depth = max(pg.ball.params.radius - margin, 0)
    bases = [seq for seq in pg.ball._diameters[depth] if len(seq) >= pg.k + 2]
    assert len(bases) == len(got) and all(ap.base is seq for ap, seq in zip(got, bases))


# q = 4 and 5 stop at R = 3: at R = 4 their families at every level take
# about 0.1 and 0.5 GB.
FAMILY_BALLS = ([(2, radius) for radius in range(1, 6)] + [(3, radius) for radius in range(1, 5)]
                + [(q, radius) for q in (4, 5) for radius in range(1, 4)])


class TestPeakedWindows:
    """interior_family, with its peaked windows looked up once per end pair,
    against the reference's geodesic windows."""

    @pytest.mark.parametrize("q,radius", FAMILY_BALLS)
    def test_families_match_the_reference(self, q, radius):
        b = build_ball(TreeParams(q, radius))
        for k in range(2 * radius + 2):
            pg = build_path_graph(b, k)
            for margin in range(radius + 2):
                assert_family_matches_reference(pg, margin)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn_levels_and_margins(self, data):
        """Balls up to q = 8, wider than the grid's, at a drawn level and
        drawn margins."""
        q = data.draw(st.integers(2, 8))
        radius = data.draw(st.integers(1, 2 if q > 3 else 3))
        pg = build_path_graph(build_ball(TreeParams(q, radius)),
                              data.draw(st.integers(0, 2 * radius + 1)))
        for margin in data.draw(st.lists(st.integers(0, radius + 1), min_size=1, max_size=3)):
            assert_family_matches_reference(pg, margin)


ROW_GRID = [(q, radius, k) for q, radius in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3))
            for k in range(3)]


def family_route(pg, ref_aps, margin):
    """What exactness_check and radon_kernel_interior give from a family's
    own kernel rows, by the reference on its apartments ``ref_aps``:
    (kernel_dim, image_dim, equal), and the basis vectors as (edge, value)
    item lists."""
    g = ref_graph(pg)
    if not reference.interior_edges(g, margin):
        return (0, 0, True), None
    return (reference.exactness(g, ref_aps, margin),
            [list(vec.items()) for vec in reference.interior_kernel(g, ref_aps, margin)])


class TestInteriorRoute:
    """A complete family has its kernel rows read from
    ``interior_family`` at margin >= 1; every other family, and margin 0,
    reads its own.  Both routes give the same rows, so the same answers."""

    @pytest.mark.parametrize("q,radius,k", ROW_GRID)
    def test_rows_match_full_family(self, q, radius, k):
        pg = tower(q, radius, k)
        full = apartments(q, radius, k)
        assert full.complete
        for margin in range(radius + 1):
            inner = interior_edges(pg, margin)
            got = _kernel_rows(interior_family(pg, margin), inner)
            want = _kernel_rows(full, inner)
            assert [list(r.items()) for r in got] == [list(r.items()) for r in want]

    def test_interior_family_ends(self):
        pg = tower(2, 3, 0)
        assert interior_family(pg, 0).apartments == apartments(2, 3, 0).apartments
        assert interior_family(pg, 0).complete
        for margin in (1, 2):
            assert not interior_family(pg, margin).complete
        for margin in (3, 4):
            assert len(interior_family(pg, margin)) == 0
        with pytest.raises(ValueError):
            interior_family(pg, -1)

    @staticmethod
    def library_route(monkeypatch, pg, aps, margin):
        """exactness_check's and radon_kernel_interior's answers in
        family_route's terms, with the families their rows were read from."""
        seen = []

        def spy(family, interior):
            seen.append(family)
            return _kernel_rows(family, interior)

        monkeypatch.setattr(radon, "_kernel_rows", spy)
        rep = exactness_check(pg, aps, margin)
        basis = None
        if rep.interior_edge_count:
            basis = [list(w.data.items()) for w in radon_kernel_interior(pg, aps, margin)]
        monkeypatch.undo()
        return ((rep.kernel_dim, rep.image_dim, rep.equal), basis), seen

    @staticmethod
    def other_families(q, radius, k):
        """Families that must keep the family route, by name."""
        pg, b = tower(q, radius, k), ball(q, radius)
        full, diams = apartments(q, radius, k), enumerate_oriented_diameters(b)
        others = len(b.leaves) - 1
        shuffled = diams[:]
        random.Random(q * 100 + radius * 10 + k).shuffle(shuffled)
        families = {
            "half": induced_apartments(pg, diams[::2]),
            "half by hand": ApartmentFamily(pg, full.apartments[::2]),
            "whole by hand": ApartmentFamily(pg, full.apartments),
            "permuted": induced_apartments(pg, shuffled),
            # Same first ends, the last ends of each block reversed.
            "blocks reversed": induced_apartments(
                pg, [seg for i in range(0, len(diams), others)
                     for seg in diams[i:i + others][::-1]]),
            "one dropped": induced_apartments(pg, diams[:5] + diams[6:]),
            "duplicates": induced_apartments(pg, diams + diams[:3]),
        }
        x, y = b.leaves[0], b.leaves[1]
        t = next(t for t, seg in enumerate(diams) if seg[::len(seg) - 1] == (x, y))
        if k == 0:
            # One step up past the meet of two sibling leaves and back down:
            # a walk that backtracks at its apex.
            walk = tuple(b.chains[x][:3] + b.chains[y][1::-1])
            families["backtracking"] = induced_apartments(pg, diams[:t] + [walk] + diams[t + 1:])
        else:
            # Too short to keep, unlike the geodesic it stands in for.
            families["short stand-in"] = induced_apartments(
                pg, diams[:t] + [(x, y)] + diams[t + 1:])
        return families

    @pytest.mark.parametrize("q,radius,k", [(2, 3, 0), (2, 4, 0), (2, 4, 1), (2, 4, 2),
                                            (3, 3, 0), (3, 3, 1)])
    def test_routes(self, monkeypatch, q, radius, k):
        pg = tower(q, radius, k)
        full = apartments(q, radius, k)
        families = self.other_families(q, radius, k)
        # The ball's diameters again, as new segments of a second ball.
        rebuilt = induced_apartments(pg, [
            tuple(seg)
            for seg in enumerate_oriented_diameters(build_ball(TreeParams(q, radius)))])
        assert rebuilt.complete
        ref_families = {name: ref_apartments(pg, fam) for name, fam in families.items()}
        for margin in range(radius + 1):
            interior = bool(interior_edges(pg, margin))
            got, seen = self.library_route(monkeypatch, pg, full, margin)
            assert got == family_route(pg, ref_apartments(pg, full), margin)
            if margin == 0:
                assert seen == [full, full]
            elif interior:
                want = [ap.base for ap in interior_family(pg, margin)]
                assert len(seen) == 2
                assert all(fam is not full and [ap.base for ap in fam] == want for fam in seen)
            again, seen_again = self.library_route(monkeypatch, pg, rebuilt, margin)
            assert again == got
            assert ([[ap.base for ap in fam] for fam in seen_again]
                    == [[ap.base for ap in fam] for fam in seen])
            assert (rebuilt in seen_again) == (margin == 0)
            for name, fam in families.items():
                assert not fam.complete, name
                got, seen = self.library_route(monkeypatch, pg, fam, margin)
                assert got == family_route(pg, ref_families[name], margin), name
                # With no interior, only exactness_check reads rows.
                assert seen == ([fam, fam] if interior else [fam]), name


class TestWalksAndIntegrals:
    def test_sign_convention(self):
        pg = tower(2, 2, 1)
        a = 0
        t, h = pg.tail[a], pg.head[a]
        walk = WalkWithSigns.from_itinerary(pg, [a], [t, h])
        assert walk.signs == (1,)
        walk_rev = WalkWithSigns.from_itinerary(pg, [a], [h, t])
        assert walk_rev.signs == (-1,)
        assert path_integral(Cochain.indicator(1, a), walk) == 1
        assert path_integral(Cochain.indicator(1, a), walk_rev) == -1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), inst=st.sampled_from([(2, 2, 0), (2, 3, 1), (3, 2, 1), (2, 3, 2)]))
    def test_matches_fraction_sum(self, data, inst):
        """The int sum equals a plain Fraction sum, and is ZERO itself when
        the walk meets no support edge."""
        pg = tower(*inst)
        assume(pg.num_edges)
        incident = {}
        for a in range(pg.num_edges):
            incident.setdefault(pg.tail[a], []).append((a, pg.head[a]))
            incident.setdefault(pg.head[a], []).append((a, pg.tail[a]))
        vertices = [data.draw(st.sampled_from(sorted(incident)))]
        edges = []
        for _ in range(data.draw(st.integers(0, 12))):
            a, nxt = data.draw(st.sampled_from(incident[vertices[-1]]))
            edges.append(a)
            vertices.append(nxt)
        walk = WalkWithSigns.from_itinerary(pg, edges, vertices)
        value = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)
        omega = Cochain(1, data.draw(st.dictionaries(
            st.sampled_from(sorted(set(edges)) or [0]) | st.integers(0, pg.num_edges - 1),
            value, max_size=8)))
        got = path_integral(omega, walk)
        want = sum((omega(a) * sign for a, sign in zip(walk.edges, walk.signs)), ZERO)
        assert type(got) is Fraction and got == want
        if not set(walk.edges) & set(omega.data):
            assert got is radon.ZERO

    def test_malformed_walk(self):
        pg = tower(2, 2, 1)
        with pytest.raises(ValueError):
            WalkWithSigns.from_itinerary(pg, [0], [0, 17])

    def test_coboundary_loop_integral_vanishes(self):
        pg = tower(2, 2, 0)
        inner = interior_edges(pg, 0)
        loops = fundamental_loops(pg, inner) + random_loops(pg, inner, 30, seed=9)
        rng = random.Random(2)
        for _ in range(20):
            f = Cochain(0, {rng.randrange(pg.num_vertices): Fraction(rng.randrange(-5, 6))
                            for _ in range(4)})
            df = coboundary(pg, f)
            for loop in loops:
                assert is_loop(loop)
                assert path_integral(df, loop) == 0

    def test_kernel_loop_integrals_vanish(self):
        pg = tower(2, 4, 0)
        aps = apartments(2, 4, 0)
        inner = interior_edges(pg, 2)
        basis = radon_kernel_interior(pg, aps, 2)
        loops = fundamental_loops(pg, inner) + random_loops(pg, inner, 200, seed=3)
        assert loops
        for w in basis:
            for loop in loops:
                assert path_integral(w, loop) == 0

    def test_fundamental_loops_cover_cycle_space(self):
        pg = tower(2, 2, 0)
        inner = list(range(pg.num_edges))
        loops = fundamental_loops(pg, inner)
        # cycle count = E - V + C for the whole doubled tree
        from treeforms.tower import num_components
        assert len(loops) == pg.num_edges - pg.num_vertices + num_components(pg)

    def test_empty_edge_set_has_no_loops(self):
        pg = tower(2, 2, 1)
        assert fundamental_loops(pg, []) == []
        assert random_loops(pg, [], 3, 1) == []


@st.composite
def walks(draw, pg):
    """A walk of up to 12 steps from a drawn vertex with an edge."""
    incident = {}
    for a in range(pg.num_edges):
        incident.setdefault(pg.tail[a], []).append((a, pg.head[a]))
        incident.setdefault(pg.head[a], []).append((a, pg.tail[a]))
    vertices = [draw(st.sampled_from(sorted(incident)))]
    edges = []
    for _ in range(draw(st.integers(0, 12))):
        a, nxt = draw(st.sampled_from(incident[vertices[-1]]))
        edges.append(a)
        vertices.append(nxt)
    return WalkWithSigns.from_itinerary(pg, edges, vertices)


class TestCarriedIntFormInRadon:
    """The transform and path integrals read the carried int form; each
    gives the reference's values, holding the cochain's own objects, on
    the harmonic-grid sizes."""

    @settings(max_examples=60, deadline=None)
    @given(inst=st.sampled_from(HARMONIC_GRID), data=st.data())
    def test_radon_transform(self, inst, data):
        pg, aps = tower(*inst), apartments(*inst)
        w = data.draw(edge_cochains(pg))
        df = coboundary(pg, data.draw(vertex_cochains(pg)))
        for omega in (w, df, df + w):
            want = reference.transform(ref_graph(pg), reference.family(ref_graph(pg)), omega.data)
            same_values(radon_transform(pg, aps, omega), want, omega.data.values())

    @settings(max_examples=100, deadline=None)
    @given(inst=st.sampled_from(HARMONIC_GRID), data=st.data())
    def test_path_integral(self, inst, data):
        pg = tower(*inst)
        walk = data.draw(walks(pg))
        on_walk = data.draw(st.dictionaries(st.sampled_from(walk.edges or (0,)), MIXED,
                                            max_size=6))
        df = coboundary(pg, data.draw(vertex_cochains(pg)))
        for omega in (Cochain(1, on_walk), data.draw(edge_cochains(pg)), df):
            got = path_integral(omega, walk)
            assert got == reference.path_integral(omega.data, walk.edges, walk.signs)
            assert type(got) is Fraction

    @pytest.mark.parametrize("q,radius,k,margin", [(2, 1, 0, 0), (2, 4, 0, 2), (3, 3, 0, 2)])
    def test_kernel_vectors_carry_their_form(self, q, radius, k, margin):
        basis = radon_kernel_interior(tower(q, radius, k), apartments(q, radius, k), margin)
        assert basis
        for w in basis:
            assert_int_form(w, built=True)


class TestEnlargedSupport:
    @pytest.mark.parametrize("q,radius", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                          (3, 1), (3, 2), (3, 3), (4, 2)])
    def test_matches_reference(self, q, radius):
        """Scattered and clustered supports at every level below 2R."""
        rng = random.Random(q * 10 + radius)
        for k in range(2 * radius):
            pg = tower(q, radius, k)
            for _ in range(12):
                size = rng.choice((1, 2, 3, 5, 8))
                if rng.random() < 0.5:
                    support = rng.sample(range(pg.num_edges), min(size, pg.num_edges))
                else:
                    first = rng.randrange(pg.num_edges)
                    support = range(first, min(first + size, pg.num_edges))
                omega = Cochain(1, {a: Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
                                    for a in support})
                assert enlarged_support(pg, omega) == reference.enlarged_support(
                    reference.graph(q, radius, k), omega.data)

    def test_zero_cochain(self):
        assert enlarged_support(tower(2, 2, 0), Cochain.zero(1)) == set()


class TestPrimitive:
    def test_zero_cochain(self):
        pg = tower(2, 2, 0)
        aps = apartments(2, 2, 0)
        f = primitive(pg, aps, Cochain.zero(1), base=0)
        assert f.is_zero()

    def test_coboundary_of_interior_indicator_recovered(self):
        pg = tower(2, 4, 0)
        aps = apartments(2, 4, 0)
        s = pg.vert_index[(0,)]  # the root, deep interior
        omega = coboundary(pg, Cochain.indicator(0, s))
        base = pg.num_vertices - 1  # a leaf path, far from the support
        f = primitive(pg, aps, omega, base)
        assert f == Cochain.indicator(0, s)

    def test_kernel_basis_primitives_match_solve_reference(self):
        pg = tower(2, 4, 0)
        aps = apartments(2, 4, 0)
        g = reference.graph(2, 4, 0)
        comp_of = reference.components(g)
        for w in radon_kernel_interior(pg, aps, 2):
            enlarged = enlarged_support(pg, w)
            base = max(s for s in range(pg.num_vertices) if s not in enlarged)
            f = primitive(pg, aps, w, base)
            # df = omega on every edge
            for a in range(pg.num_edges):
                assert f(pg.head[a]) - f(pg.tail[a]) == w(a)
            # support inside the enlarged region
            assert set(f.support) <= enlarged
            # matches an exact linear solve up to one constant per component
            sol = reference.solve(reference.d_rows(g), [w(a) for a in range(pg.num_edges)],
                                  pg.num_vertices)
            assert sol is not None
            deltas = {}
            for s in range(pg.num_vertices):
                deltas.setdefault(comp_of[s], set()).add(f(s) - sol.get(s, ZERO))
            assert all(len(vals) == 1 for vals in deltas.values())

    def test_base_inside_enlarged_region_rejected(self):
        pg = tower(2, 4, 0)
        aps = apartments(2, 4, 0)
        w = radon_kernel_interior(pg, aps, 2)[0]
        inside = min(enlarged_support(pg, w))
        with pytest.raises(MarginError):
            primitive(pg, aps, w, inside)

    def test_non_kernel_cochain_reports_loop(self):
        pg = tower(2, 3, 0)
        aps = apartments(2, 3, 0)
        bad = Cochain.indicator(1, 0)  # a single directed edge is not closed
        with pytest.raises(PathDependenceError) as err:
            primitive(pg, aps, bad, base=pg.num_vertices - 1)
        loop = err.value.loop
        assert is_loop(loop)
        assert path_integral(bad, loop) != 0

    def test_check_primitive_computes_each_region_once(self, monkeypatch):
        """The suite chooses each base from the enlarged region and hands
        that region on, so primitive does not compute it again."""
        calls = []

        def counting(pg, omega):
            calls.append(omega)
            return enlarged_support(pg, omega)

        monkeypatch.setattr(checks, "enlarged_support", counting)
        monkeypatch.setattr(radon, "enlarged_support", counting)
        passed, report = checks.check_primitive(2, 5, 1, 3)
        assert passed and report["kernel_dim"] == 6
        assert len(calls) == 6


class TestSpan:
    def test_true_at_full_depth_false_at_zero(self):
        b = ball(2, 2)
        diams = enumerate_oriented_diameters(b)
        pgs = [tower(2, 2, k) for k in range(4)]
        assert span_check(pgs, diams) is True
        assert span_check(pgs[:1], diams) is False

    def test_top_level_alone_misses_short_diameters(self):
        """Level 3 separates only the 24 long diameters; the 6 sibling-leaf
        diameters need their level-1 full windows."""
        b = ball(2, 2)
        diams = enumerate_oriented_diameters(b)
        assert span_check([tower(2, 2, 3)], diams) is False
        assert span_check([tower(2, 2, 1), tower(2, 2, 3)], diams) is True

    def test_single_diameter_family(self):
        """One diameter, its full-length window level: a 1x1 identity."""
        from treeforms.tree import geodesic_between
        b = ball(2, 2)
        diam = geodesic_between(b, 4, 6)  # length 4
        assert span_check([tower(2, 2, 3)], [diam]) is True

    def test_manifest_counts(self):
        aps = apartments(2, 2, 1)
        payload = json.loads(aps.to_manifest_json())
        assert len(payload) == 30
        assert all(set(entry) == {"id", "leaf_from", "leaf_to", "induced_edges"}
                   for entry in payload)


def ref_spans(pgs, diameters):
    """The reference's verdict: the rank of every edge's characteristic
    function against the number of sequences."""
    return reference.spans([ref_graph(pg) for pg in pgs], diameters)


# Where the reference stays cheap; q4-R3 and q5-R3 (6320 and 22350
# diameters) take seconds per call.
SPAN_GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
             (4, 1), (4, 2), (5, 1), (5, 2)]

# Level subsets that neither certificate decides: too many edges to rule
# out, and some diameter's own level missing.  At q2-R1 level 0 has as
# many edges as there are diameters, 6.
FALLBACK_CASES = [(2, 1, (0,), False), (2, 2, (0, 1, 2), False), (2, 2, (0, 3), True),
                  (2, 2, (0, 2, 3), True), (3, 2, (0, 2, 3), False),
                  (2, 3, (0, 3, 5), True), (2, 3, (0, 1, 2, 3, 4), False)]


@st.composite
def level_lists(draw):
    """A grid instance and distinct levels from 0..2R-1."""
    q, radius = draw(st.sampled_from(SPAN_GRID))
    levels = draw(st.lists(st.integers(0, 2 * radius - 1), unique=True))
    return q, radius, levels


def span_inputs(q, radius, levels):
    return ([tower(q, radius, k) for k in levels],
            enumerate_oriented_diameters(ball(q, radius)))


class TestSpanCertificates:
    @pytest.mark.parametrize("q, radius", SPAN_GRID)
    def test_named_subsets_match_oracle(self, q, radius):
        top = 2 * radius
        for levels in (range(top), [0], range(1, top, 2), range(0, top, 2)):
            pgs, diams = span_inputs(q, radius, levels)
            assert span_check(pgs, diams) == ref_spans(pgs, diams), list(levels)

    @settings(max_examples=40, deadline=None)
    @given(case=level_lists())
    def test_random_subsets_match_oracle(self, case):
        pgs, diams = span_inputs(*case)
        assert span_check(pgs, diams) == ref_spans(pgs, diams)

    def test_repeated_diameter_never_spans(self):
        """Both copies of a diameter share every row, so the copy's own
        level-(n - 2) row is not a unit row."""
        pgs, diams = span_inputs(2, 2, range(4))
        assert span_check(pgs, diams + [diams[0]]) is False
        assert span_check(pgs, [diams[0]] * 2) is False

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), inst=st.sampled_from([(2, 2), (3, 2), (2, 3)]))
    def test_other_geodesics_match_oracle(self, data, inst):
        """Geodesics between any distinct vertices, repeats allowed: a
        short one can lie inside a longer one."""
        q, radius = inst
        b = ball(q, radius)
        pair = st.tuples(st.integers(0, b.num_vertices - 1),
                         st.integers(0, b.num_vertices - 1)).filter(lambda p: p[0] != p[1])
        geos = [geodesic_between(b, u, v) for u, v in data.draw(st.lists(pair, max_size=12))]
        levels = data.draw(st.lists(st.integers(0, 2 * radius - 1), unique=True))
        pgs = [tower(q, radius, k) for k in levels]
        assert span_check(pgs, geos) == ref_spans(pgs, geos)

    @pytest.mark.parametrize("q, radius, levels, verdict", FALLBACK_CASES)
    def test_fallback_cases(self, monkeypatch, q, radius, levels, verdict):
        eliminations = spy_calls(monkeypatch, _linalg, "Eliminator")
        pgs, diams = span_inputs(q, radius, levels)
        assert span_check(pgs, diams) is verdict
        assert len(eliminations) == 1
        assert ref_spans(pgs, diams) is verdict

    # q2-R1's spans_at_0 is the first of FALLBACK_CASES.
    @pytest.mark.parametrize("q, radius", [x for x in SPAN_GRID if x != (2, 1)]
                             + [(4, 3), (5, 3)])
    def test_check_span_needs_no_elimination(self, monkeypatch, q, radius):
        def refuse():
            raise AssertionError("a certificate should have decided")

        monkeypatch.setattr(_linalg, "Eliminator", refuse)
        passed, report = checks.check_span(q, radius)
        assert passed and report["spans_at_K"] and not report["spans_at_0"]

    @pytest.mark.parametrize("q, radius, levels, verdict", FALLBACK_CASES)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_fallback_ignores_level_order(self, q, radius, levels, verdict, data):
        order = data.draw(st.permutations(levels))
        assert span_check(*span_inputs(q, radius, order)) is verdict
