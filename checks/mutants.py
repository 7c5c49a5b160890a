"""Mutation check: each recorded mutant of `src/` must fail the tests named for it.

A mutant is an exact substitution (file, old text, new text) plus the pytest node
ids that must fail once it is applied. The script first runs every named id on a
clean copy, where all must pass. Then, for each mutant, it copies `src/`, `tests/`
and `pyproject.toml` to a fresh temporary directory, applies the substitution
there and runs that mutant's ids; the checkout itself is never edited. It exits
1 if an old text does not occur exactly once in its file, or if a mutant
survives: a named id passes under it, or it names none.

Stdlib only; the tests need pytest, hypothesis and sympy, as the suite does.

    python checks/mutants.py            # every mutant
    python checks/mutants.py NAME ...   # the named mutants only
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "level_of_bisect_right",
        "src/crtdhss/params.py",
        "bisect.bisect_left(self.prefix_counts, participant)",
        "bisect.bisect_right(self.prefix_counts, participant)",
        (
            "tests/test_params.py::TestAccessStructure::test_prefix_counts",
            "tests/test_params.py::TestAccessStructure"
            "::test_level_of_matches_a_scan_of_the_prefix_counts[two_levels]",
        ),
    ),
    Mutant(
        "crt_bruteforce_unbudgeted",
        "src/crtdhss/oracle.py",
        "    budget.check(p**total_degree)\n",
        "",
        ("tests/test_oracle.py::TestCrtBruteforce::test_budget",),
    ),
    Mutant(
        "residue_rows_before_after_swapped",
        "src/crtdhss/oracle.py",
        "before, after = sum(alpha_lens[: level - 1]), sum(alpha_lens[level:])",
        "after, before = sum(alpha_lens[: level - 1]), sum(alpha_lens[level:])",
        (
            "tests/test_oracle.py::TestSolve::test_the_dealt_digits_meet_every_check[three_levels]",
            "tests/test_oracle.py::TestSolve::test_the_dealt_digits_meet_every_check[two_levels]",
        ),
    ),
    Mutant(
        "open_degree_cap_off_by_one",
        "src/crtdhss/scheme.py",
        "if f.degree >= degree_cap:",
        "if f.degree > degree_cap:",
        ("tests/test_scheme.py::TestReconstruct::test_tampered_share_detected_with_surplus",),
    ),
    Mutant(
        "unmask_digests_untrimmed",
        "src/crtdhss/scheme.py",
        "_add(_trim(family.hash_vector(use_level, share.coeffs)), entry.coeffs, p)",
        "_add(tuple(family.hash_vector(use_level, share.coeffs)), entry.coeffs, p)",
        (
            "tests/test_scheme.py::TestMaskNormalization::test_entries_and_unmasked_shares[crypto]",
            "tests/test_scheme.py::TestMaskNormalization::test_entries_and_unmasked_shares[table]",
        ),
    ),
    Mutant(
        "poly_hash_uncached",
        "src/crtdhss/fieldpoly.py",
        "        try:\n"
        "            return self._hash\n"
        "        except AttributeError:\n"
        '            object.__setattr__(self, "_hash", hash((self.p, self.coeffs)))\n'
        "            return self._hash\n",
        "        return hash((self.p, self.coeffs))\n",
        ("tests/test_params.py::TestValidateOnce::test_hash_is_computed_once_and_keys_the_memo",),
    ),
    Mutant(
        "power_columns_one_bit_narrower",
        "src/crtdhss/fieldpoly.py",
        "w = (length * max(m.degree for m in moduli) * (p - 1) ** 3).bit_length()",
        "w = (length * max(m.degree for m in moduli) * (p - 1) ** 3).bit_length() - 1",
        (
            "tests/test_fieldpoly.py::TestPowerColumns::test_cross_pairs",
            "tests/test_fieldpoly.py::TestPowerColumns::test_rows_of_one_modulus",
        ),
    ),
    Mutant(
        "add_untrimmed",
        "src/crtdhss/fieldpoly.py",
        "return tuple(out) + a[len(b):] if len(a) > len(b) else _trim(out)",
        "return tuple(out) + a[len(b):] if len(a) > len(b) else tuple(out)",
        ("tests/test_fieldpoly.py::TestTrustedResults::test_cancellation_leaves_no_trailing_zero",),
    ),
    Mutant(
        "divmod_remainder_unreduced",
        "src/crtdhss/fieldpoly.py",
        "return _trim(quot), _trim([c % p for c in rem[:db]])",
        "return _trim(quot), _trim(rem[:db])",
        ("tests/test_fieldpoly.py::TestTrustedResults::test_every_public_result_is_normalized",),
    ),
    Mutant(
        "irreducible_frobenius_not_advanced",
        "src/crtdhss/params.py",
        "u = _compose_mod(u, frobenius, f)",
        "u = frobenius",
        (
            "tests/test_params.py::TestIrreducibility::test_matches_trial_division_small_fields",
            "tests/test_params.py::TestIrreducibility::test_reducible_without_linear_factor",
        ),
    ),
    Mutant(
        "parity_sign_dropped",
        "src/crtdhss/params.py",
        "disc = (-1) ** (d * (d - 1) // 2) * _resultant",
        "disc = _resultant",
        (
            "tests/test_params.py::TestDiscriminantParity::test_never_refuses_an_irreducible[3-2]",
            "tests/test_params.py::TestDiscriminantParity::test_never_refuses_an_irreducible[7-3]",
            "tests/test_params.py::TestDiscriminantParity"
            "::test_stickelberger_against_sympy_factor_counts[2305843009213693951]",
        ),
    ),
    Mutant(
        "parity_targets_swapped",
        "src/crtdhss/params.py",
        "(1 if d % 2 else p - 1)",
        "(p - 1 if d % 2 else 1)",
        (
            "tests/test_params.py::TestDiscriminantParity::test_never_refuses_an_irreducible[5-2]",
            "tests/test_params.py::TestDiscriminantParity"
            "::test_stickelberger_against_sympy_factor_counts[18446744073709551557]",
            "tests/test_params.py::TestIrreducibility::test_matches_trial_division_small_fields",
        ),
    ),
    Mutant(
        "parity_check_at_p_2",
        "src/crtdhss/params.py",
        "if p > 2 and d % p:",
        "if d % p:",
        ("tests/test_params.py::TestDiscriminantParity::test_never_refuses_an_irreducible[2-3]",),
    ),
    Mutant(
        "resultant_lc_power_skipped",
        "src/crtdhss/fieldpoly.py",
        "* res * pow(b[-1], len(a) - len(r), p) % p",
        "* res % p",
        (
            "tests/test_fieldpoly.py::TestSympyCrossCheck::test_resultant",
            "tests/test_params.py::TestDiscriminantParity::test_never_refuses_an_irreducible[5-4]",
            "tests/test_params.py::TestDiscriminantParity::test_never_refuses_an_irreducible[7-4]",
        ),
    ),
    Mutant(
        "degenerate_seed_any_for_all",
        "src/crtdhss/hashing.py",
        "if all(self._digests(i, (v,)) == self._digests(j, (v,)) for v in range(self.p)):",
        "if any(self._digests(i, (v,)) == self._digests(j, (v,)) for v in range(self.p)):",
        (
            "tests/test_hashing.py::TestDigestFormula::test_degenerate_verdict_is_exact[2]",
            "tests/test_hashing.py::TestDigestFormula::test_degenerate_verdict_is_exact[3]",
        ),
    ),
    Mutant(
        "solve_without_back_substitution",
        "src/crtdhss/oracle.py",
        "pivots[above] = [(a - pivot[col] * b) % p for a, b in zip(pivot, row)]",
        "pivots[above] = pivot",
        (
            "tests/test_oracle.py::TestSolve::test_solution_set_equals_brute_force",
            "tests/test_oracle.py::TestDealerReplay::test_member_above_the_bottom_level",
        ),
    ),
    Mutant(
        "solve_ignores_contradiction",
        "src/crtdhss/oracle.py",
        "            if row[n]:\n                return None  # 0 = want != 0\n",
        "",
        (
            "tests/test_oracle.py::TestSolve::test_solution_set_equals_brute_force",
            "tests/test_oracle.py::TestSolve::test_overdetermined_level_with_a_tampered_share[coalition]",
            "tests/test_oracle.py::TestSolve::test_overdetermined_level_with_a_tampered_share[full]",
        ),
    ),
    Mutant(
        "scan_fibers_skips_residue_recheck",
        "src/crtdhss/oracle.py",
        "[sum(map(mul, row, g)) % p for row in rows] != want",
        "False",
        ("tests/test_oracle.py::TestTupleCounts::test_candidate_breaking_a_pinned_residue_is_refused",),
    ),
    Mutant(
        "coprime_product_not_accumulated",
        "src/crtdhss/fieldpoly.py",
        "        product *= f\n",
        "        product = f\n",
        (
            "tests/test_fieldpoly.py::TestPairwiseCoprime::test_every_small_list_over_f2",
            "tests/test_fieldpoly.py::TestPairwiseCoprime::test_factor_shared_only_by_non_neighbours",
        ),
    ),
    Mutant(
        "master_alpha_before_secret",
        "src/crtdhss/scheme.py",
        "digits = secret + _draw_vector(rng, params.p, alpha_len)",
        "digits = _draw_vector(rng, params.p, alpha_len) + secret",
        (
            "tests/test_scheme.py::TestDeal::test_masters_are_the_secret_then_alpha_digits[2]",
            "tests/test_scheme.py::TestDeal::test_masters_are_the_secret_then_alpha_digits[3]",
            "tests/test_yang.py::TestYangReconstruct::test_mixed_coalition_needs_its_mask",
        ),
    ),
    Mutant(
        "yang_zero_mask_read_as_absent",
        "src/crtdhss/yang.py",
        "if entry is None and share.level != level:",
        "if not entry and share.level != level:",
        ("tests/test_yang.py::TestYangReconstruct::test_a_zero_mask_is_still_a_mask",),
    ),
    Mutant(
        "crt_basis_one_bit_narrower",
        "src/crtdhss/fieldpoly.py",
        "w = ((len(total) - 1) * (p - 1) ** 2).bit_length()",
        "w = ((len(total) - 1) * (p - 1) ** 2).bit_length() - 1",
        (
            "tests/test_fieldpoly.py::TestCrtColumns::test_small_fields_on_full_residues[2]",
            "tests/test_fieldpoly.py::TestCrtColumns::test_cross_pairs[2-2305843009213693951]",
        ),
    ),
    Mutant(
        "layout_every_share_random",
        "src/crtdhss/scheme.py",
        "n_random = prefix[-2] if structure.m > 1 else 0",
        "n_random = prefix[-1]",
        (
            "tests/test_scheme.py::TestDeal::test_single_level_has_empty_bulletin_and_residue_shares",
            "tests/test_scheme.py::TestDeal::test_bulletin_index_set_is_exact",
            "tests/test_scheme.py::TestUnmask::test_bottom_level_share_passes_through",
        ),
    ),
    Mutant(
        "residues_one_slot_short",
        "src/crtdhss/fieldpoly.py",
        "tuple(itertools.islice(slots, m.degree))",
        "tuple(itertools.islice(slots, m.degree - 1))",
        (
            "tests/test_fieldpoly.py::TestPowerColumns::test_cross_pairs",
            "tests/test_scheme.py::TestDeal::test_masters_are_the_secret_then_alpha_digits[3]",
        ),
    ),
    Mutant(
        "mulmod_one_bit_narrower",
        "src/crtdhss/fieldpoly.py",
        "w = 2 * p.bit_length() + d.bit_length() + 1",
        "w = 2 * p.bit_length() + d.bit_length()",
        (
            "tests/test_fieldpoly.py::TestPackingWidth::test_near_full_operands[3]",
            "tests/test_fieldpoly.py::TestPackingWidth::test_near_full_operands[5]",
        ),
    ),
    Mutant(
        "mulmod_fold_skips_top_slot",
        "src/crtdhss/fieldpoly.py",
        "for k in range(2 * d - 1, d - 1, -1)]",
        "for k in range(2 * d - 2, d - 1, -1)]",
        (
            "tests/test_fieldpoly.py::TestPackingWidth::test_near_full_shifted_square[3]",
            "tests/test_fieldpoly.py::TestPackingWidth::test_frobenius_over_mersenne_61[2]",
        ),
    ),
    Mutant(
        "pow_mod_shifts_on_zero_bits",
        "src/crtdhss/fieldpoly.py",
        "result = mulmod(result, result, 0, one and by_x)",
        "result = mulmod(result, result, 0, by_x)",
        (
            "tests/test_fieldpoly.py::TestPackingWidth::test_near_full_shifted_square[2]",
            "tests/test_params.py::TestIrreducibility::test_matches_trial_division_small_fields",
        ),
    ),
    Mutant(
        "divmod_inverse_skipped_for_non_monic",
        "src/crtdhss/fieldpoly.py",
        "inv = 1 if n < 1 or b[-1] == 1 else pow(b[-1], -1, p)",
        "inv = 1",
        (
            "tests/test_fieldpoly.py::TestSympyCrossCheck::test_division",
            "tests/test_fieldpoly.py::TestPowMod::test_non_monic_modulus_and_high_degree_base[2]",
        ),
    ),
    Mutant(
        "rows_one_row_short",
        "src/crtdhss/fieldpoly.py",
        "total = sum(m.degree for m in moduli)\n",
        "total = sum(m.degree for m in moduli) - 1\n",
        (
            "tests/test_fieldpoly.py::TestPowerColumns::test_rows_of_one_modulus",
            "tests/test_oracle.py::TestCrtBruteforce::test_inconsistent_non_coprime_system",
        ),
    ),
    Mutant(
        "x_multiples_top_slot_unreduced",
        "src/crtdhss/fieldpoly.py",
        "col = (col & below) + (col >> d * w) % p * low",
        "col = (col & below) + (col >> d * w) * low",
        ("tests/test_fieldpoly.py::TestPowerColumns::test_cross_pairs",),
    ),
    Mutant(
        "count_states_counts_points",
        "src/crtdhss/oracle.py",
        "histogram[secret] = histogram.get(secret, 0) + weight",
        "histogram[secret] = histogram.get(secret, 0) + 1",
        (
            "tests/test_oracle.py::TestEnumerateConsistent"
            "::test_histogram_total_factorizes_through_tuple_count",
            "tests/test_oracle.py::TestDealerReplay::test_tiny_setup_both_modes",
        ),
    ),
    Mutant(
        "check_system_skips_residue_fields",
        "src/crtdhss/fieldpoly.py",
        "    for f in (*moduli, *residues):\n",
        "    for f in moduli:\n",
        (
            "tests/test_oracle.py::TestCrtBruteforce"
            "::test_malformed_system_refused_as_crt_combine_refuses[mixed-residue]",
        ),
    ),
    Mutant(
        "draw_moduli_keeps_repeats",
        "src/crtdhss/params.py",
        "if key not in seen and (linear or is_irreducible(Poly(p, key + (1,)))):",
        "if linear or is_irreducible(Poly(p, key + (1,))):",
        (
            "tests/test_params.py::TestGenerateModuli"
            "::test_recorded_outputs[case7-coeffs7-3621853979]",
            "tests/test_params.py::TestGenerateModuli"
            "::test_recorded_outputs[case8-coeffs8-4199394388]",
        ),
    ),
    Mutant(
        "draw_moduli_linear_root_may_be_zero",
        "src/crtdhss/params.py",
        "key = rng.randrange(1, p) if linear",
        "key = rng.randrange(p) if linear",
        (
            "tests/test_params.py::TestGenerateModuli"
            "::test_recorded_outputs[case7-coeffs7-3621853979]",
        ),
    ),
    Mutant(
        "draw_moduli_refuses_a_whole_class",
        "src/crtdhss/params.py",
        "if count > available:",
        "if count >= available:",
        (
            "tests/test_params.py::TestGenerateModuli::test_distinct_linear_moduli[f3_whole_class]",
            "tests/test_params.py::TestGenerateModuli::test_every_quadratic_over_f3",
        ),
    ),
    Mutant(
        "exit_table_generic_row_first",
        "src/crtdhss/cli.py",
        "_ERRORS_TO_EXIT = (\n",
        "_ERRORS_TO_EXIT = (\n    ((ValueError, KeyError, OSError), 2),\n",
        (
            "tests/test_cli.py::TestGenParams::test_exhausted_degree_class_exit_3",
            "tests/test_cli.py::TestDealReconstruct::test_corrupted_share_exit_5",
        ),
    ),
    Mutant(
        "yang_deal_shares_from_bottom_master",
        "src/crtdhss/yang.py",
        "Share(i, level, residues[level - 1][i - 1])",
        "Share(i, level, residues[-1][i - 1])",
        (
            "tests/test_yang.py::TestYangDeal::test_share_assignment_by_level",
            "tests/test_scheme.py::TestDeal::test_masters_are_the_secret_then_alpha_digits[2]",
            "tests/test_scheme.py::TestDeal::test_masters_are_the_secret_then_alpha_digits[3]",
        ),
    ),
    Mutant(
        "deal_masks_from_bottom_master",
        "src/crtdhss/scheme.py",
        "_sub(residues[level - 1][i - 1], digests, params.p)",
        "_sub(residues[-1][i - 1], digests, params.p)",
        (
            "tests/test_scheme.py::TestUnmask::test_masked_share_reduces_to_master_residue",
            "tests/test_scheme.py::TestMaskNormalization::test_entries_and_unmasked_shares[table]",
            "tests/test_scheme.py::TestMaskNormalization::test_entries_and_unmasked_shares[crypto]",
        ),
    ),
)

# A node id may hold spaces (a parametrized id such as "[degree overflow]"); a failure's
# summary line appends " - " and the error.
_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (.+?)(?: - .*)?$")


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _outcomes(tree: Path, ids: tuple[str, ...]) -> dict[str, str]:
    """{node id: PASSED | FAILED | ERROR} for `ids` run with pytest in `tree`."""
    if not ids:
        return {}  # pytest without ids would run the whole suite
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True, timeout=1800,
    )
    found = {}
    for line in run.stdout.splitlines():
        match = _OUTCOME.match(line)
        if match and match.group(2) in ids:
            found.setdefault(match.group(2), match.group(1))
    missing = [i for i in ids if i not in found]
    if missing:
        sys.exit(f"error: pytest ran no test for {missing}:\n{run.stdout[-2000:]}{run.stderr}")
    return found


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"error: no mutant named {sorted(unknown)}")
    mutants = [m for m in MUTANTS if not names or m.name in names]
    for mutant in mutants:
        count = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            print(f"error: {mutant.name}: old text occurs {count} times in {mutant.path}")
            return 1
    start, survived = time.perf_counter(), []
    with tempfile.TemporaryDirectory(prefix="mutants-clean-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        ids = tuple(dict.fromkeys(i for m in mutants for i in m.tests))
        failing = sorted(i for i, outcome in _outcomes(tree, ids).items() if outcome != "PASSED")
        if failing:
            print(f"error: named tests fail on the clean tree: {failing}")
            return 1
    for mutant in mutants:
        with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
            tree = Path(tmp)
            _copy_tree(tree)
            _apply(tree, mutant)
            passed = [i for i, o in _outcomes(tree, mutant.tests).items() if o == "PASSED"]
        if passed or not mutant.tests:
            survived.append(mutant.name)
            print(f"SURVIVED {mutant.name}: " + (f"passed {passed}" if passed else "no test named"))
        else:
            print(f"killed   {mutant.name}: {len(mutant.tests)} named test(s) fail")
    wall = time.perf_counter() - start
    print(f"{len(mutants) - len(survived)} of {len(mutants)} mutants killed in {wall:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
