"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

The graph suite is the one from conftest: complete graphs K_3..K_8, cycles
C_4..C_12, windmills for eta=2..5 and k=3..5, the 3-cube, glued-4-cycle
graphs for n=3..5, and 100 seeded random connected min-degree-2 graphs with
n <= 40.  Every identity/inequality is asserted in exact arithmetic with zero
tolerance.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import time
from fractions import Fraction

from centrel import (all_pairs, average_clustering, check_lemma1,
                     check_lemma2, check_lemma3, check_thm2, check_thm3,
                     check_thm4, check_thm5, check_thm6,
                     check_cor_sandwich, compute_report, generate,
                     global_clustering, local_efficiency, oracle_measures,
                     oracle_neighborhood_profiles, sweep_windmill)
from centrel.centralities import CentralityReport, betweenness_and_stress
from centrel.graphs import FamilySpec
from centrel.neighborhood import profiles
from centrel.oracle import betweenness_definitional, stress_definitional

from conftest import family_suite_specs, random_suite_specs


def report_line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_local_efficiency_identity():
    specs = family_suite_specs() + random_suite_specs()
    start = time.monotonic()
    worst = Fraction(0)
    for spec in specs:
        g = generate(spec)
        dd = all_pairs(g)
        slack = abs(local_efficiency(dd) - (1 + average_clustering(g)) / 2)
        worst = max(worst, slack)
    elapsed = time.monotonic() - start
    ok = worst == 0 and elapsed < 10.0
    report_line(1, ok, f"local-efficiency identity on {len(specs)} graphs, "
                       f"worst slack {worst}, {elapsed:.2f}s (< 10s)")


def test_c02_neighborhood_path_identity(full_suite_dd):
    worst = Fraction(0)
    for name, g, dd in full_suite_dd:
        r = check_lemma1(dd)
        worst = max(worst, r.slack)
    ok = worst == 0
    report_line(2, ok, f"per-vertex 2-c identity on {len(full_suite_dd)} "
                       f"graphs, worst slack {worst}")


def test_c03_stress_bound(full_suite_dd):
    all_hold = True
    diam2_equalities = 0
    bad = []
    for name, g, dd in full_suite_dd:
        r = check_thm2(dd)
        all_hold &= r.holds
        if r.equality_expected:  # diameter <= 2
            diam2_equalities += 1
            if r.slack != 0:
                bad.append(name)
    ok = all_hold and not bad
    report_line(3, ok, f"stress bound holds everywhere; equality exact on "
                       f"{diam2_equalities} diam<=2 instances"
                       + (f"; FAILED {bad}" if bad else ""))


def test_c04_betweenness_bound_and_equality_detector(full_suite_dd):
    all_hold = True
    detector_agrees = True
    clique_families_equal = True
    for name, g, dd in full_suite_dd:
        r = check_thm3(dd)
        all_hold &= r.holds
        detector_agrees &= (r.equality_expected == (r.slack == 0))
        if name.startswith(("complete(", "windmill(")):
            clique_families_equal &= (r.equality_expected and r.slack == 0)
    ok = all_hold and detector_agrees and clique_families_equal
    report_line(4, ok, "betweenness bound holds; structural detector and "
                       "numeric equality agree; complete/windmill at equality")


def test_c05_sandwich(full_suite_dd):
    worst = None
    for name, g, dd in full_suite_dd:
        r = check_cor_sandwich(dd)
        if worst is None or r.slack < worst:
            worst = r.slack
    ok = worst is not None and worst >= 0
    report_line(5, ok, f"per-vertex sandwich holds, worst margin {worst}")


def test_c06_closeness_and_radiality_relations(full_suite_dd):
    ok = True
    for name, g, dd in full_suite_dd:
        for checker in (check_lemma2, check_thm4, check_lemma3, check_thm5):
            r = checker(dd)
            ok &= r.holds
            if r.direction == "eq":
                ok &= r.slack == 0
    r5 = check_thm5(all_pairs(generate(FamilySpec("windmill", (2, 3)))))
    hand_values = (r5.notes[0] == "complete neighborhoods: 4 of 5"
                   and r5.lhs == Fraction(13, 15)
                   and r5.rhs == Fraction(16, 15) - 1 + Fraction(4, 5))
    ok &= hand_values
    report_line(6, ok, "closeness/radiality bounds and identities exact; "
                       "windmill(2,3) hand values confirmed")


def test_c07_clustering_comparison(full_suite):
    ok = True
    detail = []
    for name, g in full_suite:
        degrees = set(g.degrees())
        if len(degrees) == 1:
            r = check_thm6(all_pairs(g))
            if not (r.relation == "cor_regular" and r.slack == 0):
                ok = False
                detail.append(f"regular {name}")
        elif name.startswith("windmill("):
            r = check_thm6(all_pairs(g))
            if not (r.relation == "cor_thm6" and r.hypothesis_met
                    and r.lhs >= r.rhs):
                ok = False
                detail.append(f"windmill {name}")
    for n in (3, 4, 5):
        g = generate(FamilySpec("complete-with-glued-4-cycles", (n,)))
        if not average_clustering(g) < global_clustering(g):
            ok = False
            detail.append(f"glued({n})")
    report_line(7, ok, "regular equality, windmill >= with anti-monotone "
                       "ordering, glued-4-cycle graphs strictly reversed"
                       + (f"; FAILED {detail}" if detail else ""))


def test_c08_windmill_divergence():
    start = time.monotonic()
    result = sweep_windmill(50, 3)
    elapsed = time.monotonic() - start
    final_eta, final_avg, final_glob = result.rows[-1]
    ok = (result.avg_strictly_increasing and result.glob_strictly_decreasing
          and final_eta == 50 and final_avg > Fraction(95, 100)
          and final_glob < Fraction(5, 100) and elapsed < 5.0)
    report_line(8, ok, f"sweep eta=2..50 k=3: avg rises to "
                       f"{float(final_avg):.4f} (> 0.95), global falls to "
                       f"{float(final_glob):.4f} (< 0.05), {elapsed:.2f}s (< 5s)")


def test_c09_oracle_equivalence(family_suite):
    start = time.monotonic()
    graphs = [(f"random[{i}]",
               generate(FamilySpec("random-min-degree-2", (5 + i % 6,), seed=i)))
              for i in range(200)]
    graphs += [(name, g) for name, g in family_suite if g.n <= 12]
    mismatched = []
    for name, g in graphs:
        an = all_pairs(g)
        fast = compute_report(an)
        slow = oracle_measures(g)
        for field in CentralityReport.FIELDS_PER_VERTEX + CentralityReport.FIELDS_GRAPH:
            if getattr(fast, field) != getattr(slow, field):
                mismatched.append(f"{name}.{field}")
        for fp, sp in zip(profiles(an), oracle_neighborhood_profiles(g)):
            for field in fp.FIELDS:
                if getattr(fp, field) != getattr(sp, field):
                    mismatched.append(f"{name}.neighborhood.{field}")
    elapsed = time.monotonic() - start
    ok = not mismatched and elapsed < 60.0
    report_line(9, ok, f"fast == brute force on {len(graphs)} graphs "
                       f"({elapsed:.1f}s < 60s)"
                       + (f"; MISMATCH {mismatched[:5]}" if mismatched else ""))


def test_c10_brandes_definitional_cross_check(full_suite_dd):
    bad = []
    for name, g, dd in full_suite_dd:
        bc, st = betweenness_and_stress(dd)
        if bc != betweenness_definitional(g):
            bad.append(f"{name}.betweenness")
        if st != stress_definitional(g):
            bad.append(f"{name}.stress")
    ok = not bad
    report_line(10, ok, f"dependency accumulation equals definition-level "
                        f"sums on {len(full_suite_dd)} graphs"
                        + (f"; FAILED {bad[:5]}" if bad else ""))
