"""Interval reports composing the known relations between chi, the
orientation covering number, the elbow number, and eq of the line graph.

Every interval endpoint carries a provenance tag naming the relation
that produced it, and constructive upper endpoints come with the
certificate that realizes them, so a report is an auditable chain of
reasoning rather than a bare number.

Relations used (n = vertex count, c = chromatic number):
  - sigma <= 1 exactly when no edge joins two vertices of degree >= 2,
    and sigma <= 2 exactly for bipartite graphs (two-source
    construction), both decided in closed form;
  - elb <= 1 exactly for bipartite graphs: one orientation from one
    side to the other directs every 2-edge path into or out of its
    middle vertex;
  - past that, elb <= k exactly when c <= 2^(2^(k-1)), so elb is read
    off c by that integer rule, through the reader ``solve`` uses for
    sigma and elb (``exact._cover_interval``) given the chromatic
    search's coloring and lower end and a zero budget, with c raised
    to 3 off bipartite graphs;
  - sigma = 3 exactly when 3 <= c <= 4, sigma = 4 exactly when
    5 <= c <= 12 (the upper half of the second window is known
    non-constructively);
  - any graph with a size-k orientation covering, k >= 3, satisfies
    c <= M(k), the number of maximal intersecting families on [k]
    (4, 12, 81, 2646 for k = 3..6), which lower-bounds sigma from c;
  - elb <= sigma <= 2 elb; above c = 12 the pullback witness meets
    this upper bound, or beats it for c <= 16, so its size is the upper
    end of sigma;
  - eq(L) <= sigma <= 3 eq(L), with equality eq(L) = sigma on
    triangle-free graphs;
  - the degree-based equivalence-number window
    log2(n) - log2(n - delta - 1) <= eq <= 2 e^2 (n - delta)^2 ln n.

The eq(L) witness is read off G: each orientation of the sigma witness
contributes its out-stars as one equivalence subgraph of L(G), so the
report never builds the line graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

from .construct import out_star_eq_cover
from .exact import Budget, SolveResult, _cover_interval, exact_chromatic, greedy_clique
from .graphs import Coloring, Graph, find_triangle


class AlonBounds(NamedTuple):
    """Degree-based window for the equivalence number of a graph itself.

    ``lower`` is +inf when delta = n - 1 (the formula degenerates to
    log of zero); consumers substitute the trivial eq >= 1.
    """

    lower: float
    upper: float
    degenerate: bool


def alon_bounds(n: int, delta: int) -> AlonBounds:
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= delta <= n - 1:
        raise ValueError(f"delta must lie in [0, {n - 1}], got {delta}")
    upper = 2.0 * math.e**2 * (n - delta) ** 2 * math.log(n)
    if n - delta - 1 == 0:
        return AlonBounds(math.inf, upper, True)
    lower = math.log2(n) - math.log2(n - delta - 1)
    return AlonBounds(lower, upper, False)


@dataclass(frozen=True)
class BoundValue:
    lo: int
    hi: int
    lo_provenance: str
    hi_provenance: str

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def render(self) -> str:
        if self.exact:
            return str(self.lo)
        return f"{self.lo}..{self.hi}"

    def provenance(self) -> str:
        if self.exact and self.lo_provenance == self.hi_provenance:
            return self.lo_provenance
        return f"lo: {self.lo_provenance}; hi: {self.hi_provenance}"


def _exact_bv(value: int, provenance: str) -> BoundValue:
    return BoundValue(value, value, provenance, provenance)


@dataclass
class BoundsReport:
    n: int
    m: int
    triangle_free: bool
    chi: BoundValue
    sigma: BoundValue
    elb: BoundValue
    eq_line: BoundValue
    alon: Optional[AlonBounds]
    notes: List[str]
    witnesses: Dict[str, object]
    nodes: int

    def lines(self) -> List[str]:
        out = [f"graph: n={self.n} m={self.m}"]
        out.append(f"triangle_free: {'yes' if self.triangle_free else 'no'}")
        for name, bv in (
            ("chi", self.chi),
            ("sigma", self.sigma),
            ("elb", self.elb),
            ("eq_line_graph", self.eq_line),
        ):
            out.append(f"{name}: {bv.render()} [{bv.provenance()}]")
        if self.alon is not None:
            if self.alon.degenerate:
                out.append(
                    "alon_eq_lower: unbounded-by-formula "
                    "[substituted trivial eq >= 1]"
                )
            else:
                out.append(f"alon_eq_lower: {self.alon.lower:.4f} [degree formula]")
            out.append(f"alon_eq_upper: {self.alon.upper:.4f} [degree formula]")
        for key in sorted(self.witnesses):
            out.append(f"{key}_witness: {self._witness_size(key)}")
        for note in self.notes:
            out.append(f"note: {note}")
        return out

    def _witness_size(self, key: str) -> str:
        w = self.witnesses[key]
        return f"palette {w.palette_size}" if isinstance(w, Coloring) else f"size {w.k}"

    def to_dict(self) -> dict:
        def bv(b: BoundValue) -> dict:
            return {
                "lo": b.lo,
                "hi": b.hi,
                "exact": b.exact,
                "lo_provenance": b.lo_provenance,
                "hi_provenance": b.hi_provenance,
            }

        data = {
            "graph": {"n": self.n, "m": self.m},
            "triangle_free": self.triangle_free,
            "chi": bv(self.chi),
            "sigma": bv(self.sigma),
            "elb": bv(self.elb),
            "eq_line_graph": bv(self.eq_line),
            "alon": (
                None
                if self.alon is None
                else {
                    "lower": None if self.alon.degenerate else self.alon.lower,
                    "upper": self.alon.upper,
                    "degenerate": self.alon.degenerate,
                }
            ),
            "witnesses": {k: self._witness_size(k) for k in sorted(self.witnesses)},
            "notes": list(self.notes),
            "search_nodes": self.nodes,
        }
        return data


def bounds_report(g: Graph, budget: Optional[Budget] = None) -> BoundsReport:
    """Compose everything known about one graph into interval bounds.

    Exact chromatic search runs within the shared budget; whatever it
    resolves cascades through the windows above.  Quantities the budget
    leaves unresolved appear as intervals.  sigma and elb are asked
    solve's colour-threshold questions with a zero budget, so any k that
    would need a search ends their interval, and the budget bounds only
    the chromatic search.
    """
    budget = budget or Budget()
    notes: List[str] = []

    triangle_free = find_triangle(g) is None
    chi_res: SolveResult = exact_chromatic(g, budget)
    chi_exact = chi_res.status == "exact"
    witnesses: Dict[str, object] = {"chi": chi_res.witness}
    if chi_exact:
        chi = _exact_bv(chi_res.lo, "exact search")
    else:
        # the search starts at the clique bound and refutes each k it passes
        from_clique = chi_res.lo == max(2, len(greedy_clique(g)))
        lo_provenance = "clique bound" if from_clique else "coloring search"
        chi = BoundValue(chi_res.lo, chi_res.hi, lo_provenance, "greedy coloring")
        notes.append("chromatic search truncated by budget")

    sigma_res = _cover_interval(g, "orientation", chi_res.witness, chi_res.lo, Budget(0))
    elb_res = _cover_interval(g, "elbow", chi_res.witness, chi_res.lo, Budget(0))
    pairs = g.has_incidence_pairs()
    if pairs:
        witnesses["sigma"] = sigma_res.witness
        witnesses["elb"] = elb_res.witness
    bipartite = elb_res.hi <= 1  # elb <= 1 exactly on bipartite graphs
    if not bipartite and chi.lo < 3:
        chi = BoundValue(3, chi.hi, "contains an odd cycle", chi.hi_provenance)

    if not pairs:
        sigma = _exact_bv(0, "no incident edge pairs")
        elb = _exact_bv(0, "no 2-edge paths")
    elif bipartite:
        # sigma is 1 in closed form, else 2: the two-source pullback of the bipartition
        hi_prov = "closed form at k=1" if sigma_res.hi == 1 else "two-source bipartite covering"
        sigma = BoundValue(sigma_res.hi, sigma_res.hi, "closed form at k=1", hi_prov)
        elb = BoundValue(1, 1, "has 2-edge paths", "one-way bipartite orientation")
    else:
        bound = "coloring bound for size-k coverings"
        sigma_lo_prov = bound if sigma_res.lo > 3 else "not bipartite"
        if chi.hi <= 4:
            sigma_hi, sigma_hi_prov = 3, "chi window 3..4"
        elif chi.hi <= 12:
            sigma_hi, sigma_hi_prov = 4, "chi window 5..12 (non-constructive)"
        else:
            sigma_hi, sigma_hi_prov = sigma_res.hi, "constructive pullback witness"
        sigma = BoundValue(sigma_res.lo, sigma_hi, sigma_lo_prov, sigma_hi_prov)

        if chi_exact:
            elb = _exact_bv(elb_res.lo, "loglog formula on exact chi")
        else:
            elb = BoundValue(
                elb_res.lo,
                elb_res.hi,
                "loglog formula at chi lower bound",
                "loglog formula at chi upper bound",
            )

    if not pairs:
        eq_line = _exact_bv(0, "line graph has no edges")
    elif triangle_free:
        eq_line = BoundValue(
            sigma.lo,
            sigma.hi,
            f"triangle-free equality; {sigma.lo_provenance}",
            f"triangle-free equality; {sigma.hi_provenance}",
        )
    else:
        eq_line = BoundValue(
            max(1, -(-sigma.lo // 3)),
            sigma.hi,
            "sigma <= 3 eq(L)",
            "eq(L) <= sigma",
        )
    if "sigma" in witnesses:
        # eq(L) <= sigma: the out-stars of each orientation of the sigma
        # witness form one equivalence subgraph of L(G)
        witnesses["eq_line_graph"] = out_star_eq_cover(g, witnesses["sigma"])

    alon: Optional[AlonBounds] = None
    if g.n >= 1:
        alon = alon_bounds(g.n, g.min_degree())
        if alon.degenerate:
            notes.append(
                "degree formula lower bound degenerates (delta = n - 1); "
                "trivial eq >= 1 applies"
                if g.m > 0
                else "degree formula lower bound degenerates (delta = n - 1)"
            )
    if triangle_free:
        notes.append("triangle-free: eq(L) equals sigma exactly")

    return BoundsReport(
        n=g.n,
        m=g.m,
        triangle_free=triangle_free,
        chi=chi,
        sigma=sigma,
        elb=elb,
        eq_line=eq_line,
        alon=alon,
        notes=notes,
        witnesses=witnesses,
        nodes=budget.nodes,
    )
