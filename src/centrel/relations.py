"""Mechanical verification of the clustering/centrality relations.

Each checker computes both sides of one relation in exact arithmetic,
decides whether it holds (zero tolerance), measures the slack, and detects
the structural equality condition where one exists.  The relations are
stated for minimum degree 2, and ``check_all`` alone refuses a degree-1
vertex unless overridden; a checker applies the degree-1 conventions to any
analysis and reports the outcome honestly (several relations do not survive
the conventions).

Values read from the pass are computed once per orbit and weighted by its
size; degrees and local clusterings stay per vertex (see ``Analysis``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import NamedTuple

from .centralities import (betweenness_and_stress, closeness, clustering,
                           local_efficiency, prefix_clusterings, radiality,
                           require_global)
from .graphs import (FamilyParameterError, FamilySpec, Graph, PreconditionError,
                     generate)
from .neighborhood import bc_loc, clo_loc, profiles, rad_loc
from .paths import Analysis, all_pairs, avg_path_length, diameter, weighted_mean


@dataclass
class RelationReport:
    """Outcome of one relation check.

    ``direction`` is "eq", "le", "ge" (lhs vs rhs) or "none" when no
    direction was asserted.  For inequalities ``slack`` is the margin in the
    asserted direction (holds iff slack >= 0); for identities it is the worst
    absolute deviation (holds iff slack == 0).
    """

    relation: str
    direction: str
    lhs: Fraction
    rhs: Fraction
    holds: bool
    slack: Fraction
    equality_expected: bool
    equality_observed: bool
    hypothesis_met: bool = True
    notes: list[str] = field(default_factory=list)


# Field order of every output format; CSV has no column for the free-text notes.
RelationReport.FIELDS = tuple(f.name for f in fields(RelationReport))
RelationReport.CSV_FIELDS = tuple(f for f in RelationReport.FIELDS if f != "notes")


def _report(relation: str, direction: str, lhs: Fraction, rhs: Fraction,
            expected: bool, slack: Fraction | None = None,
            notes: list[str] | None = None) -> RelationReport:
    """The report of ``lhs direction rhs`` at zero tolerance.

    ``slack`` defaults to |rhs - lhs| for "eq", rhs - lhs for "le" and
    lhs - rhs for "ge".  An identity holds at slack 0 and an inequality at
    slack >= 0; equality is observed at slack 0 either way.
    """
    if slack is None:
        slack = {"eq": abs(rhs - lhs), "le": rhs - lhs, "ge": lhs - rhs}[direction]
    holds = slack == 0 if direction == "eq" else slack >= 0
    return RelationReport(relation, direction, lhs, rhs, holds, slack,
                          equality_expected=expected,
                          equality_observed=slack == 0, notes=notes or [])


def _eligible(g: Graph) -> tuple[list[int], list[str]]:
    """Vertices with the degree-normalized quantities defined, and a note
    on the vertices skipped, if any."""
    eligible = [i for i in range(g.n) if g.degree(i) >= 2]
    notes = [f"skipped {g.n - len(eligible)} vertices of degree <= 1 "
             "(degree-1 convention)"] if len(eligible) < g.n else []
    return eligible, notes


def check_lemma1(an: Analysis) -> RelationReport:
    """Per-vertex identity: neighborhood average path length = 2 - c_i,
    each vertex's shared profile against its own clustering.

    With L(N(i)) = p/q and c_i = a/b in lowest terms it holds at i iff
    p*b == q*(2b - a); a deviation is kept as the integer ratio
    |p*b - q*(2b - a)| / (q*b), and made a Fraction only when reported."""
    g = an.g
    eligible, notes = _eligible(g)
    profs = profiles(an)
    local = clustering(an)[0]
    worst, rhs_terms = (0, 1), []
    for i in eligible:
        p, q = profs[i].avg_path.as_integer_ratio()
        a, b = local[i].as_integer_ratio()
        r = 2 * b - a  # 2 - c_i = r/b, in lowest terms
        rhs_terms.append((r, b, 1))
        gap = abs(p * b - q * r)
        if gap * worst[1] > worst[0] * q * b:
            worst = gap, q * b
            notes.append(f"vertex {i}: L(N)={profs[i].avg_path} vs 2-c={Fraction(r, b)}")
    lhs = an.orbit_mean(lambda i: profs[i].avg_path, lambda i: g.degree(i) >= 2)
    return _report("lemma1", "eq", lhs, weighted_mean(rhs_terms), True,
                   slack=Fraction(*worst), notes=notes)


def check_thm1(an: Analysis) -> RelationReport:
    """Identity: local efficiency = (1 + average clustering) / 2."""
    lhs = local_efficiency(an)
    rhs = (1 + clustering(an)[1]) / 2
    return _report("thm1", "eq", lhs, rhs, True)


def check_thm2(an: Analysis) -> RelationReport:
    """Bound: average clustering >= 1 - mean of Str(i)/(d_i(d_i-1)).

    Equality is expected whenever the diameter is at most 2 (every
    through-path then has length exactly 2).
    """
    _, stress = betweenness_and_stress(an)
    lhs = clustering(an)[1]
    rhs = 1 - an.pair_mean(stress.__getitem__)
    return _report("thm2", "ge", lhs, rhs, diameter(an) <= 2)


def neighborhoods_unique_two_paths(an: Analysis) -> bool:
    """True iff every non-adjacent neighbor pair, in every neighborhood, is
    joined by a single shortest path (exactly one common neighbor)."""
    # the non-adjacent pairs of distinct neighbors are those at distance 2
    return all(paths == 1 for detours in an.detours for paths in detours)


def check_thm3(an: Analysis) -> RelationReport:
    """Bound: average clustering <= 1 - local betweenness.

    Equality is expected exactly when every non-adjacent neighbor pair has a
    unique shortest (2-hop) path; that implies, and is stronger than, every
    neighborhood splitting into disjoint cliques.
    """
    lhs = clustering(an)[1]
    rhs = 1 - bc_loc(an)
    return _report("thm3", "le", lhs, rhs, neighborhoods_unique_two_paths(an))


def check_cor_sandwich(an: Analysis) -> RelationReport:
    """Per-vertex sandwich:
    BC(i,N(i))/(d(d-1)) <= L(N(i)) - 1 <= Str(i)/(d(d-1)), each side and
    the margin computed once per orbit."""
    g = an.g
    _, stress = betweenness_and_stress(an)
    eligible, notes = _eligible(g)
    profs = profiles(an)

    def sandwich(i: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        pair_count = g.degree(i) * (g.degree(i) - 1)
        left, right = profs[i].betweenness / pair_count, Fraction(stress[i], pair_count)
        mid = profs[i].avg_path - 1
        return left, mid, right, min(mid - left, right - mid)
    sides = an.per_orbit(lambda i: sandwich(i) if g.degree(i) >= 2 else None)

    def side(k: int) -> Fraction:
        return an.orbit_mean(lambda i: sides[i][k], lambda i: sides[i] is not None)
    worst: Fraction | None = None
    for i in eligible:
        left, mid, right, margin = sides[i]
        if worst is None or margin < worst:
            worst = margin
            if margin < 0:
                notes.append(f"vertex {i}: {left} <= {mid} <= {right} fails")
    return _report("cor_sandwich", "le", side(0), side(2), False,
                   slack=Fraction(0) if worst is None else worst, notes=notes)


def check_lemma2(an: Analysis) -> RelationReport:
    """Bound: mean closeness >= 1 / average path length.

    Equality is expected when all per-vertex distance sums agree.
    """
    lhs = an.orbit_mean(lambda v: closeness(an, v))
    rhs = 1 / avg_path_length(an)
    return _report("lemma2", "ge", lhs, rhs, len(set(an.row_sums)) == 1)


def check_thm4(an: Analysis) -> RelationReport:
    """Bound: 1/(2 - average clustering) <= mean neighborhood closeness."""
    lhs = 1 / (2 - clustering(an)[1])
    return _report("thm4", "le", lhs, clo_loc(an), False)


def check_lemma3(an: Analysis) -> RelationReport:
    """Identity: mean radiality = diameter + 1 - average path length."""
    lhs = an.orbit_mean(lambda v: radiality(an, v))
    rhs = diameter(an) + 1 - avg_path_length(an)
    return _report("lemma3", "eq", lhs, rhs, True)


def check_thm5(an: Analysis) -> RelationReport:
    """Identity: average clustering = local radiality - 1 + (complete
    neighborhoods) / n."""
    lhs = clustering(an)[1]
    complete = sum(1 for p in profiles(an) if p.is_complete)
    rhs = rad_loc(an) - 1 + Fraction(complete, an.n)
    return _report("thm5", "eq", lhs, rhs, True,
                   notes=[f"complete neighborhoods: {complete} of {an.n}"])


def check_thm6(an: Analysis) -> RelationReport:
    """Chebyshev ordering between average and global clustering.

    Co-monotone degree/clustering sequences give C_WS <= C, anti-monotone
    ones C_WS >= C, regular graphs (and graphs with all clusterings equal)
    exact equality.  Ties in degree force equal clustering for either
    ordering to hold; when neither holds no direction is asserted.
    """
    local, lhs, glob = clustering(an)
    rhs = require_global(glob)
    by_degree: dict[int, set[tuple[int, int]]] = {}  # degree -> its c_i in lowest terms
    for d, c in zip(an.g.degrees(), local):
        by_degree.setdefault(d, set()).add(c.as_integer_ratio())
    classes = [cs for _, cs in sorted(by_degree.items())]
    if len(classes) == 1:
        return _report("cor_regular", "eq", lhs, rhs, True, notes=["regular graph"])
    if all(len(cs) == 1 for cs in classes):
        reps = [Fraction(*c) for cs in classes for c in cs]
        if len(set(reps)) == 1:
            return _report("thm6", "eq", lhs, rhs, True,
                           notes=["all local clusterings equal"])
        if reps == sorted(reps):
            return _report("thm6", "le", lhs, rhs, False,
                           notes=["co-monotone degree/clustering ordering"])
        if reps == sorted(reps, reverse=True):
            return _report("cor_thm6", "ge", lhs, rhs, False,
                           notes=["anti-monotone degree/clustering ordering"])
    return RelationReport("thm6", "none", lhs, rhs, holds=True,
                          slack=Fraction(0), equality_expected=False,
                          equality_observed=lhs == rhs, hypothesis_met=False,
                          notes=["no degree/clustering ordering holds; "
                                 "no direction asserted"])


CHECKERS = (check_lemma1, check_thm1, check_thm2, check_thm3,
            check_cor_sandwich, check_lemma2, check_thm4, check_lemma3,
            check_thm5, check_thm6)


def check_all(g: Graph, allow_pendant: bool = False) -> list[RelationReport]:
    """Run every checker on one analysis of ``g``.

    A degree-1 vertex is refused before the analysis is built, unless
    ``allow_pendant`` is set and the degree-1 conventions apply.
    """
    if not allow_pendant and g.min_degree() < 2:
        raise PreconditionError(
            "graph has a vertex of degree < 2; rerun with the pendant override "
            "to apply the degree-1 conventions")
    an = all_pairs(g)
    return [chk(an) for chk in CHECKERS]


# ---------------------------------------------------------------------------
# Windmill divergence sweep
# ---------------------------------------------------------------------------

class SweepRow(NamedTuple):
    """Average clustering C_WS and global clustering C of windmill(eta, k)."""

    eta: int
    avg_clustering: Fraction
    global_clustering: Fraction

    FIELDS = ("eta", "avg_clustering", "global_clustering", "difference")

    @property
    def difference(self) -> Fraction:
        return self.avg_clustering - self.global_clustering


@dataclass
class SweepResult:
    """Per-size clustering values for a windmill family sweep.

    Trend flags cover the eta >= 2 rows; the eta = 1 point is a single
    clique where both coefficients are 1.
    """

    k: int
    rows: list[SweepRow]
    avg_strictly_increasing: bool
    glob_strictly_decreasing: bool


SweepResult.FIELDS = tuple(f.name for f in fields(SweepResult))


def sweep_windmill(eta_max: int, k: int, eta_min: int = 2) -> SweepResult:
    """Tabulate average vs global clustering for windmill(eta, k).

    Builds windmill(eta_max, k) once and reads each windmill(eta, k) as its
    first 1 + eta(k - 1) vertices.  Before that graph is built, raises
    ``FamilyParameterError`` for k < 3 or a bad eta range, and ``generate``
    raises ``PreconditionError`` for a largest windmill past the size cap."""
    if k < 3 or eta_min < 1 or eta_max < eta_min:
        raise FamilyParameterError(f"sweep needs k >= 3 and a valid eta range, "
                                   f"got k={k}, eta={eta_min}..{eta_max}")
    g = generate(FamilySpec("windmill", (eta_max, k)))
    etas = range(eta_min, eta_max + 1)
    rows = [SweepRow(eta, *c) for eta, c in
            zip(etas, prefix_clusterings(g, [1 + eta * (k - 1) for eta in etas])[0])]
    trend_rows = [r for r in rows if r.eta >= 2]
    pairs = list(zip(trend_rows, trend_rows[1:]))
    inc = all(a.avg_clustering < b.avg_clustering for a, b in pairs)
    dec = all(a.global_clustering > b.global_clustering for a, b in pairs)
    return SweepResult(k=k, rows=rows, avg_strictly_increasing=inc,
                       glob_strictly_decreasing=dec)
