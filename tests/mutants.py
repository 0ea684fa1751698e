"""Mutation table: each entry weakens one guard or one route of treeforms
and names the tests that must then fail.

Run from the repository root with ``python tests/mutants.py`` (standard
library only; pytest does not collect this file).  The runner first runs
the union of the named tests on an unmodified copy of ``src/`` and
``tests/``, and they must pass.  Then, for each entry, it applies the one
edit to a fresh temporary copy (the old text must occur in the file exactly
once) and runs only that entry's tests there: every named test must fail.
A mutant under which a named test passes has survived.  The exit status is
0 when every mutant is killed by every test named for it, 1 otherwise.

Test data selection by mutants: DeMillo, Lipton and Sayward, "Hints on
test data selection", IEEE Computer 11 (1978).
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

T_TREE, T_TOWER, T_COCH = "tests/test_tree.py", "tests/test_tower.py", "tests/test_cochains.py"
T_LIN, T_RADON, T_PADIC = "tests/test_linalg.py", "tests/test_radon.py", "tests/test_padic.py"
SHARED = f"{T_COCH}::TestSharedForest"

# (file under src/treeforms, exact old text, new text, killing test ids)
MUTANTS = [
    # The automorphism parent test checks one orientation of each edge only.
    ("tree.py", "if (chains[iv][1] != iu) if iu < iv else (chains[iu][1] != iv):",
     "if iu < iv and chains[iv][1] != iu:",
     [f"{T_TREE}::TestAutomorphisms::test_parent_test_matches_edge_set_reference"]),
    # check equivariance drops the tail list from the incidence comparison.
    ("checks.py",
     "                or list(map(tail.__getitem__, emap)) != list(map(vmap.__getitem__, tail))):",
     "                ):",
     [f"{T_RADON}::TestSupportImages::test_swapped_edge_images_name_the_first_bad_edge[head]"]),
    # check equivariance carries on past a missed apartment lookup.
    ("checks.py", """            if None in images.values():
                failures.append({"auto": i, "kind": "apartment image missing"})
                break
""", "",
     [f"{T_RADON}::TestSupportImages::test_complete_flag_on_a_short_family_reports_the_missed_lookup",
      f"{T_RADON}::TestApartmentImages::test_image_outside_the_family_is_reported"]),
    # Tail and head swapped in the end-pair edge lookup.
    ("tower.py", "zip(map(image, pg.tail), map(image, pg.head))",
     "zip(map(image, pg.head), map(image, pg.tail))",
     [f"{T_TOWER}::TestEndPairAction::test_matches_reference[2-2-1]",
      f"{T_TOWER}::TestEndPairAction::test_matches_reference_on_group_elements"]),
    # First and last swapped in the end-pair vertex lookup.
    ("tower.py", "zip(map(image, firsts), map(image, lasts))",
     "zip(map(image, lasts), map(image, firsts))",
     [f"{T_TOWER}::TestEndPairAction::test_matches_reference[2-2-1]",
      f"{T_TOWER}::TestEndPairAction::test_matches_reference_on_group_elements"]),
    # permuted carries the unpermuted int form.
    ("cochains.py", "(den, {perm[i]: n for i, n in nums.items()}))", "(den, nums))",
     [f"{T_COCH}::TestCarriedIntForm::test_every_cochain_carries_the_form_of_its_data"]),
    # _summed gives its output den 1.
    ("cochains.py", "return _cochain(level, data, (den, sums))",
     "return _cochain(level, data, (1, sums))",
     [f"{T_COCH}::TestCarriedIntForm::test_every_cochain_carries_the_form_of_its_data",
      f"{T_COCH}::TestCarriedIntForm::test_coboundary_adjoint_and_pairing",
      f"{T_RADON}::TestCarriedIntFormInRadon::test_path_integral"]),
    # The own-object table keyed by each value's numerator, not over den.
    ("cochains.py",
     "own = source and dict(zip(source.int_form[1].values(), source.data.values()))",
     "own = source and {x.numerator: x for x in source.data.values()}",
     [f"{T_COCH}::TestCarriedIntForm::test_coboundary_adjoint_and_pairing",
      f"{T_COCH}::TestIntOperatorsAgainstReference::test_coboundary_and_adjoint"]),
    # pairing divides by one den only.
    ("cochains.py", "Fraction(total, dx * dy)", "Fraction(total, dx)",
     [f"{T_COCH}::TestIntOperatorsAgainstReference::test_pairing",
      f"{T_COCH}::TestCarriedIntForm::test_coboundary_adjoint_and_pairing"]),
    # The peaked-window cache keyed by its first vertex alone.
    ("radon.py", "key = seq[lo], seq[hi + width - 2]", "key = seq[lo]",
     [f"{T_RADON}::TestPeakedWindows::test_families_match_the_reference[2-3]",
      f"{T_RADON}::TestPeakedWindows::test_families_match_the_reference[3-3]"]),
    # The right run of other ends starts one id early.
    ("tree.py", "runs += [(dm, starts[dm + 1] + blocks[dm + 1], starts[dm] + blocks[dm])",
     "runs += [(dm, starts[dm + 1] + blocks[dm + 1] - 1, starts[dm] + blocks[dm])",
     [f"{T_TREE}::TestMeetDepthRuns::test_runs_match_the_reference[2-3]",
      f"{T_RADON}::TestPeakedWindows::test_families_match_the_reference[2-3]"]),
    # The left run of other ends ends one id late.
    ("tree.py", "runs = [(dm, starts[dm], starts[dm + 1]) for dm in range(depth)]",
     "runs = [(dm, starts[dm], starts[dm + 1] + 1) for dm in range(depth)]",
     [f"{T_TREE}::TestMeetDepthRuns::test_runs_match_the_reference[2-3]",
      f"{T_RADON}::TestPeakedWindows::test_families_match_the_reference[2-3]"]),
    # induced_apartments reads its diameters twice.
    ("radon.py", "    diameters = list(diameters)\n", "",
     [f"{T_RADON}::TestInducedApartments::test_one_pass_inputs_give_the_lists_family"]),
    # The peel takes a row with two live columns.
    ("radon.py", "if len(js) == 1:", "if len(js) in (1, 2):",
     [f"{T_RADON}::TestCertificate::test_stalled_peel_refuses[3-3-2]",
      f"{T_RADON}::TestExactnessAgainstOracle::test_matches_oracle[3-3-2-half]",
      f"{T_RADON}::TestInteriorRoute::test_routes[2-4-2]"]),
    # An interior vertex is made a root of the certificate's forest.
    ("radon.py", "(pg.tail[a], pg.head[a])} - inner)",
     "(pg.tail[a], pg.head[a])} - inner) + int_verts[:1]",
     [f"{T_RADON}::TestCertificate::test_decides_every_cell[2-1]",
      f"{T_RADON}::TestCertificate::test_decides_every_cell[3-3]",
      f"{T_RADON}::TestCertificate::test_row_that_misses_a_coboundary_refuses"]),
    # The certificate no longer asks every interior vertex to be reached.
    ("radon.py", "if None in parents or not forest.checked():", "if not forest.checked():",
     [f"{T_RADON}::TestCertificate::test_unreached_interior_vertices_refuse"]),
    # The certificate skips its annihilation test.
    ("radon.py", "    if not _annihilated(rows, image):\n        return None\n    return len(int_verts)",
     "    return len(int_verts)",
     [f"{T_RADON}::TestCertificate::test_row_that_misses_a_coboundary_refuses"]),
    # The harmonic verdict is kept even when the certificate fails.
    ("cochains.py",
     "    return _linalg.nullspace(_adjoint_rows(pg, range(pg.num_vertices)), pg.num_edges), False",
     "    forest.certified = True\n"
     "    return _linalg.nullspace(_adjoint_rows(pg, range(pg.num_vertices)), pg.num_edges), False",
     [f"{SHARED}::test_failed_certificate_is_never_kept",
      f"{T_COCH}::TestCertifiedRanks::test_doctored_forest_takes_exact_route"]),
    # The verdict is set before the cycle check.
    ("cochains.py", """        cycles = _fundamental_cycles(forest)
        if len(cycles) == pg.num_edges - rank and _unit_circulations(pg, cycles):
            forest.certified = True
""", """        cycles = _fundamental_cycles(forest)
        forest.certified = True
        if len(cycles) == pg.num_edges - rank and _unit_circulations(pg, cycles):
""",
     [f"{SHARED}::test_failed_certificate_is_never_kept[flipped_sign-True]",
      f"{T_COCH}::TestCertifiedRanks::test_doctored_cycles_take_exact_route"]),
    # intersect_harmonic_exact ignores the kept verdict.
    ("cochains.py", "    if pg.forest.certified:\n        return 0\n", "",
     [f"{SHARED}::test_one_graph_builds_one_forest"]),
    # _harmonic_basis ignores the kept verdict.
    ("cochains.py",
     "    if forest.certified:\n        return [vec for _, vec in _fundamental_cycles(forest)], True\n",
     "", [f"{SHARED}::test_one_graph_builds_one_forest"]),
    # PathGraph.forest is rebuilt on each read.
    ("tower.py", "    @functools.cached_property\n    def forest(self)",
     "    @property\n    def forest(self)",
     [f"{SHARED}::test_one_graph_builds_one_forest",
      f"{T_COCH}::TestCertifiedRanks::test_doctored_forest_takes_exact_route"]),
    # The forest holds its graph.
    ("tower.py", "self.head, self.tail = pg.head, pg.tail",
     "self.head, self.tail, self.pg = pg.head, pg.tail, pg",
     [f"{SHARED}::test_no_reference_cycle_keeps_a_graph_alive"]),
    # -- routes whose old oracles the reference model replaced ----------------
    # The distance subtracts the common prefix once.
    ("tree.py", "return len(a) + len(b) - 2 * k", "return len(a) + len(b) - k",
     [f"{T_TREE}::TestGeodesics::test_distance_and_geodesic_match_reference",
      f"{T_TREE}::TestGeodesics::test_length_matches_bfs_reference"]),
    # The geodesic repeats its meet.
    ("tree.py", "ball.chains[v][::-1][dm + 1:]", "ball.chains[v][::-1][dm:]",
     [f"{T_TREE}::TestGeodesics::test_distance_and_geodesic_match_reference",
      f"{T_TREE}::TestOrientedDiameters::test_end_depth_against_geodesics"]),
    # Paths of two vertices may backtrack.
    ("tower.py", "if len(p) < 2 or w != p[-2]", "if len(p) < 3 or w != p[-2]",
     [f"{T_TOWER}::TestEnumeration::test_against_reference"]),
    # The spanning forest walks outgoing edges only.
    ("tower.py", "steps = ((pg.edges_out_of, pg.head), (pg.edges_into, pg.tail))",
     "steps = ((pg.edges_out_of, pg.head),)",
     [f"{T_TOWER}::TestComponents::test_against_bfs_reference",
      f"{T_TOWER}::TestSpanningForest::test_roots_share_one_queue"]),
    # The back substitution clears the first pivot column first.
    ("_linalg.py", "for j in sorted(holders, reverse=True):", "for j in sorted(holders):",
     [f"{T_LIN}::TestReducedPivots::test_incidence_grid[2-3]"]),
    # The eliminator reduces at the largest column.
    ("_linalg.py", "            j = min(row)\n            piv = self.pivots.get(j)",
     "            j = max(row)\n            piv = self.pivots.get(j)",
     [f"{T_LIN}::TestRank::test_matches_reference",
      f"{T_LIN}::TestDeepestFirst::test_incidence_rank[2-3]"]),
    # The nullspace basis takes the wrong sign.
    ("_linalg.py", "vec[j] = Fraction(-c)", "vec[j] = Fraction(c)",
     [f"{T_LIN}::TestAgainstReference::test_rank_and_nullspace"]),
    # solve takes the wrong sign.
    ("_linalg.py", "sol[j] = Fraction(-c, scale)", "sol[j] = Fraction(c, scale)",
     [f"{T_LIN}::TestAgainstReference::test_incidence_solve_grid[2-3]"]),
    # integrate's walk subtracts where it should add.
    ("cochains.py", "values[s] = values.get(tail[a], 0) + wn.get(a, 0)",
     "values[s] = values.get(tail[a], 0) - wn.get(a, 0)",
     [f"{T_COCH}::TestCarriedIntForm::test_integrate",
      f"{T_COCH}::TestIntegrate::test_coboundary_is_integrated_without_elimination"]),
    # induced_apartments drops each sequence's last window.
    ("radon.py", "for i in range(len(seq) - width + 1)])", "for i in range(len(seq) - width)])",
     [f"{T_RADON}::TestRootChainWindows::test_backtracking_walk[2-2]",
      f"{T_RADON}::TestRootChainWindows::test_geodesic_families_match_oracle"]),
    # The transform builds new objects for the cochain's own values.
    ("radon.py",
     "return shared_fractions(sums, den, dict(zip(nums.values(), omega.data.values())))",
     "return shared_fractions(sums, den)",
     [f"{T_RADON}::TestCarriedIntFormInRadon::test_radon_transform",
      f"{T_RADON}::TestIntegerTransform::test_apartment_through_one_support_edge_holds_its_object"]),
    # Path integrals ignore the direction of each step.
    ("radon.py", "sum([sign * n for a, sign", "sum([n for a, sign",
     [f"{T_RADON}::TestCarriedIntFormInRadon::test_path_integral",
      f"{T_RADON}::TestWalksAndIntegrals::test_matches_fraction_sum"]),
    # Kernel rows are not deduplicated.
    ("radon.py", "        if key in seen:\n            continue\n", "",
     [f"{T_RADON}::TestKernelRows::test_match_reference[2-3-0]"]),
    # Apartment images looked up by the first end twice.
    ("checks.py", "by_ends.get((perm[ap.base[0]], perm[ap.base[-1]]))",
     "by_ends.get((perm[ap.base[0]], perm[ap.base[0]]))",
     [f"{T_RADON}::TestApartmentImages::test_end_map_matches_base_tuple_reference[2-2]"]),
    # The support region's radius rounds down.
    ("radon.py", "for _ in range((n + 1) // 2):", "for _ in range(n // 2):",
     [f"{T_RADON}::TestEnlargedSupport::test_matches_reference[2-3]"]),
    # span_check's elimination stops one rank short of spanning.
    ("radon.py", "if elim.insert(rows[i]) and elim.rank == ndiam:",
     "if elim.insert(rows[i]) and elim.rank >= ndiam - 1:",
     [f"{T_RADON}::TestSpanCertificates::test_fallback_cases",
      f"{T_RADON}::TestSpanCertificates::test_random_subsets_match_oracle"]),
    # Column reduction keeps the column whose lower entry is deeper.
    ("padic.py", "_int_valuation(c, p) < _int_valuation(d, p)):",
     "_int_valuation(c, p) > _int_valuation(d, p)):",
     [f"{T_PADIC}::TestIntegerKernel::test_fix_test_matches_least_conjugate_valuation",
      f"{T_PADIC}::TestIntegerRoute::test_matches_reference"]),
    # The distance ignores the relative level of the two classes.
    ("padic.py", "e1 = dn if dn < 0 else 0", "e1 = 0",
     [f"{T_PADIC}::TestDistance::test_closed_form_matches_elementary_divisors",
      f"{T_PADIC}::TestIntegerKernel::test_distance_matches_reference"]),
    # The superlattice neighbour keeps u modulo p^n.
    ("padic.py", "[LatticeClassVertex(n - 1, _residue(U, D, n - 1, p))]",
     "[LatticeClassVertex(n - 1, _residue(U, D, n, p))]",
     [f"{T_PADIC}::TestIntegerKernel::test_residues_and_neighbours_match_reference"]),
    # Integral residues vanish at level 1.
    ("padic.py", "return U % p ** n if n > 0 else 0", "return U % p ** n if n > 1 else 0",
     [f"{T_PADIC}::TestResidue::test_congruence_property",
      f"{T_PADIC}::TestIntegerKernel::test_residues_and_neighbours_match_reference"]),
    # The action drops Q from the class matrix's upper-right entry.
    ("padic.py", "PD, UQ, DQ = P * D, U * Q, D * Q", "PD, UQ, DQ = P * D, U, D * Q",
     [f"{T_PADIC}::TestIntegerKernel::test_act_matches_the_reference_product"]),
    # The fix test skips its lower-left clause.
    ("padic.py", "if e > 0 and c and (e >= c.bit_length() or c % p ** e):", "if False:",
     [f"{T_PADIC}::TestFixGuards::test_each_divisibility_clause[c p^n-2]",
      f"{T_PADIC}::TestIntegerKernel::test_fix_test_matches_least_conjugate_valuation"]),
    # Path stabilizers stop testing the deeper digits.
    ("padic.py", "if not due[j] or _fixes_all(g, due[j], p)]", "if True]",
     [f"{T_PADIC}::TestTransitivity::test_lifting_matches_reference_on_every_short_path[2-3]",
      f"{T_PADIC}::TestTransitivity::test_lifting_matches_reference_on_every_short_path[3-2]"]),
    # Units are decoded one off.
    ("padic.py", "a += a // q + 1", "a += a // q",
     [f"{T_PADIC}::TestUniformSamplers::test_indices_decode_one_to_one_onto_the_reference_set"
      "[2-2-1-True]"]),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def run_tests(where: Path, ids) -> tuple[int, str]:
    """pytest's exit code and output for the given ids, in a copy."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", *ids],
        cwd=where, env={**os.environ, "PYTHONPATH": str(where / "src")},
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def failed_ids(output: str) -> set[str]:
    return set(re.findall(r"^FAILED (.*?)(?: - |$)", output, flags=re.M))


def main() -> int:
    start = time.monotonic()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        ids = sorted({i for *_, entry_ids in MUTANTS for i in entry_ids})
        code, out = run_tests(base, ids)
        if code:
            print(out)
            problems.append("the named tests fail with no mutant applied")
        for n, (name, old, new, entry_ids) in enumerate(MUTANTS):
            path = base / "src" / "treeforms" / name
            text = path.read_text()
            if text.count(old) != 1:
                problems.append(f"mutant {n}: old text occurs {text.count(old)} times in {name}")
                continue
            work = Path(tmp) / f"mutant{n}"
            copy_tree(work)
            (work / "src" / "treeforms" / name).write_text(text.replace(old, new))
            code, out = run_tests(work, entry_ids)
            failed = failed_ids(out)
            alive = [i for i in entry_ids
                     if not any(f == i or f.startswith(i + "[") for f in failed)]
            status = "killed" if code == 1 and not alive else "SURVIVED"
            print(f"mutant {n:2d} {status}: {name}: {old.strip().splitlines()[0][:60]!r}",
                  flush=True)
            if alive:
                problems.append(f"mutant {n} in {name} survives {', '.join(alive)}")
            shutil.rmtree(work)
    print(f"{len(MUTANTS)} mutants in {time.monotonic() - start:.1f} s")
    for problem in problems:
        print("FAIL:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
