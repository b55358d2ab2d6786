"""Coin accounting over a traced run and its decomposition.

Reads the trace's one cached replay (``RunTrace.replay``), checks that
every step is a min-greedy or free-variant step, derives every transfer (with
cancellations) and donation, tallies per-component credit/debit coins, and
checks the balance bounds plus the auxiliary structural predicates on the
concrete execution.  Any violation is reported as a counterexample, not
raised, so a failing run can be inspected.

All coin arithmetic is exact: counts are integers and the coin value
theta = 1/(2(2*delta-3)) is a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomposition import Decomposition, PATH, SINGLETON
from .graphs import Edge, norm_edge
from .matchers import MODE_DEGREE, MODE_FREE, ReplayedStep, RunTrace


class TraceMismatchError(ValueError):
    """Trace and decomposition disagree, or the trace is not a valid run of
    the degree-rule heuristics."""


def theta(delta: int) -> Fraction:
    """Coin value for max degree delta."""
    if delta < 3:
        raise ValueError("delta must be >= 3")
    return Fraction(1, 2 * (2 * delta - 3))


def target_ratio(delta: int) -> Fraction:
    return Fraction(delta - 1, 2 * delta - 3)


@dataclass(frozen=True)
class Transfer:
    """One coin moved over an F-edge from a just-matched node to a path
    endpoint whose degree dropped to at most 1 in that step."""

    source: int
    endpoint: int
    step: int
    cancelled: bool


@dataclass(frozen=True)
class Donation:
    """Coins moved from the degree-1 node selected right after a path's
    creation step (in another component) back to that path."""

    source: int
    recipient: int
    step: int
    creation_step: int
    kind: str  # "static" or "dynamic"
    coins: int


@dataclass(frozen=True)
class EndpointClasses:
    """Endpoint bookkeeping at a path creation step with selection degree >= 3.

    Partitions the high-degree endpoints adjacent to the matched pair by
    their degree right after the step and, for those dropping to degree 1,
    by how many of their removed edges were F-edges.
    """

    creation_step: int
    adjacent: tuple[int, ...]          # W
    deg1_two_f: tuple[int, ...]        # W_1^2
    deg1_one_f: tuple[int, ...]        # W_1^1
    deg2: tuple[int, ...]              # W_2
    deg3_plus: tuple[int, ...]         # W_>=3
    edges_to_adjacent: tuple[Edge, ...]  # E(W)


@dataclass
class _PathInfo:
    comp: int
    creation_step: int
    selected: int
    partner: int
    sel_degree: int
    k_coins: int          # non-cancelled debits paid by the matched pair
    raw_debits: int       # including cancelled
    deg1_after: bool
    next_selected: int | None = None   # node selected in the following step
    next_partner: int | None = None
    donation: Donation | None = None
    classes: EndpointClasses | None = None


@dataclass
class Check:
    name: str
    subject: str
    lhs: object
    rel: str
    rhs: object
    ok: bool


class Report:
    """Ordered list of checks with pass/fail rendering."""

    def __init__(self, checks: list[Check] | None = None):
        self.checks: list[Check] = checks or []

    def add(self, name: str, subject: str, lhs, rel: str, rhs, ok: bool) -> None:
        self.checks.append(Check(name, subject, lhs, rel, rhs, bool(ok)))

    def require(self, name: str, subject: str, lhs, rel: str, rhs) -> None:
        ok = {
            "<=": lambda a, b: a <= b,
            ">=": lambda a, b: a >= b,
            "==": lambda a, b: a == b,
            "in": lambda a, b: a in b,
        }[rel](lhs, rhs)
        self.add(name, subject, lhs, rel, rhs, ok)

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    def text(self) -> str:
        out = []
        for c in self.checks:
            verdict = "PASS" if c.ok else "FAIL"
            out.append(f"chk {c.name} {c.subject} {c.lhs} {c.rel} {c.rhs} {verdict}")
        return "\n".join(out) + "\n"

    def csv(self) -> str:
        rows = ["name,subject,lhs,rel,rhs,verdict"]
        for c in self.checks:
            verdict = "PASS" if c.ok else "FAIL"
            rows.append(f"{c.name},{c.subject},{c.lhs},{c.rel},{c.rhs},{verdict}")
        return "\n".join(rows) + "\n"


class ChargingLedger:
    """Full coin accounting of one traced run against one decomposition."""

    def __init__(self, trace: RunTrace, dec: Decomposition, delta: int):
        self.trace = trace
        self.dec = dec
        self.delta = delta
        self.theta = theta(delta)
        self.steps: tuple[ReplayedStep, ...] = ()
        self.step_of_node: dict[int, int] = {}
        self.transfers: list[Transfer] = []
        self.donations: list[Donation] = []
        self.paths: dict[int, _PathInfo] = {}   # component index -> info
        self._build()

    # -- construction -------------------------------------------------------

    def _check_steps(self) -> None:
        """Replay the trace (once per trace) and check the step rules."""
        try:
            self.steps = self.trace.replay
        except ValueError as exc:
            raise TraceMismatchError(str(exc)) from None
        for rec in self.steps:
            if rec.mode == MODE_DEGREE:
                if rec.sel_degree != rec.min_before:
                    raise TraceMismatchError(
                        f"step {rec.index}: degree-rule step selected degree "
                        f"{rec.sel_degree}, minimum is {rec.min_before}"
                    )
            elif rec.mode == MODE_FREE:
                if rec.min_before < 3:
                    raise TraceMismatchError(
                        f"step {rec.index}: free step taken at minimum degree {rec.min_before}"
                    )
            else:
                raise TraceMismatchError(f"step {rec.index}: unknown mode {rec.mode}")
            self.step_of_node[rec.selected] = rec.index
            self.step_of_node[rec.partner] = rec.index

    def _build(self) -> None:
        dec = self.dec
        if dec.matching.pairs != self.trace.result.pairs:
            raise TraceMismatchError("decomposition matching differs from trace result")
        if self.trace.graph != dec.graph:
            raise TraceMismatchError("decomposition graph differs from trace graph")
        if self.delta < max(3, dec.graph.delta):
            raise ValueError("delta must be at least max(3, graph max degree)")
        self._check_steps()
        self.comp_of = dec.component_of
        self.endpoints = dec.endpoints
        f_edges = dec.f_edges

        # Transfers per the degree-drop rule, then cancellations in step order.
        raw: list[tuple[int, int, int]] = []   # (step, source, endpoint)
        for rec in self.steps:
            pair = {rec.selected, rec.partner}
            for e in rec.removed:
                if e not in f_edges:
                    continue
                a, b = e
                ins = [x for x in e if x in pair]
                if len(ins) != 1:
                    continue  # F-edge cannot join the matched pair itself
                source = ins[0]
                w = b if a == source else a
                if w in self.endpoints and rec.deg_after[w] <= 1:
                    raw.append((rec.index, source, w))
        raw.sort()

        received: dict[int, int] = {}   # endpoint -> non-cancelled credits so far
        pending: dict[int, list[Transfer]] = {}
        cancelled_once: set[int] = set()
        by_step = {rec.index: rec for rec in self.steps}
        for step, source, w in raw:
            rec = by_step[step]
            earlier = sum(
                1 for t in pending.get(w, ())
                if t.step < step and not t.cancelled
            )
            cancel = rec.deg_before[w] == 1 and earlier >= 2
            if cancel:
                assert w not in cancelled_once, "second cancellation at one endpoint"
                cancelled_once.add(w)
            pending.setdefault(w, []).append(Transfer(source, w, step, cancel))
        for w in sorted(pending):
            self.transfers.extend(pending[w])
        self.transfers.sort(key=lambda t: (t.step, t.source, t.endpoint))

        # Per-path creation bookkeeping.
        step_of_edge = {st.edge: st.index for st in self.trace.steps}
        for ci, comp in enumerate(dec.components):
            if comp.kind != PATH:
                continue
            creation = min(step_of_edge[e] for e in comp.m_edges)
            rec = by_step[creation]
            u, v = rec.selected, rec.partner
            k = sum(
                1 for t in self.transfers
                if not t.cancelled and t.step == creation and t.source in (u, v)
            )
            raw_k = sum(
                1 for t in self.transfers
                if t.step == creation and t.source in (u, v)
            )
            # Some path endpoint sits at degree exactly 1 once the creation
            # step finishes.  Every node has degree >= 2 when the step
            # starts (the selected node realizes the minimum), so any such
            # endpoint lost an edge to the matched pair and was touched.
            deg1_after = any(
                w in self.endpoints and d_after == 1
                for w, d_after in rec.deg_after.items()
            )
            info = _PathInfo(ci, creation, u, v, rec.sel_degree, k, raw_k, deg1_after)
            nxt = by_step.get(creation + 1)
            if nxt is not None:
                info.next_selected = nxt.selected
                info.next_partner = nxt.partner
            self.paths[ci] = info

        # Donations (only meaningful when delta >= 4; coins move via
        # transfers alone at delta == 3).
        if self.delta >= 4:
            for ci, info in self.paths.items():
                if info.k_coins <= 0 or not info.deg1_after:
                    continue
                assert info.next_selected is not None, (
                    "a degree-1 endpoint exists, so the run cannot have stopped"
                )
                u2 = info.next_selected
                if self.comp_of[u2] == ci:
                    continue
                rec = by_step[info.creation_step]
                links = [
                    x for x in (info.selected, info.partner)
                    if norm_edge(u2, x) in f_edges and norm_edge(u2, x) in rec.removed
                ]
                assert links, "next selected node lost no F-edge to the matched pair"
                if info.sel_degree == 2:
                    # The selected node has no alive F-edge at degree 2, so
                    # the donor can only hang off the partner.
                    assert links == [info.partner]
                    donation = Donation(
                        u2, info.partner, info.creation_step + 1,
                        info.creation_step, "static", self.delta - 3,
                    )
                else:
                    donation = Donation(
                        u2, links[0], info.creation_step + 1,
                        info.creation_step, "dynamic", info.k_coins,
                    )
                info.donation = donation
                self.donations.append(donation)

        # Endpoint classes at high-degree path creations (delta >= 4 regime).
        if self.delta >= 4:
            for ci, info in self.paths.items():
                if info.sel_degree < 3 or not info.deg1_after:
                    continue
                info.classes = self._endpoint_classes(by_step[info.creation_step])

        # Coin tallies.
        ncomp = len(dec.components)
        self.credits_in = [0] * ncomp
        self.debits_out = [0] * ncomp
        for t in self.transfers:
            if t.cancelled:
                continue
            self.debits_out[self.comp_of[t.source]] += 1
            self.credits_in[self.comp_of[t.endpoint]] += 1
        for d in self.donations:
            self.debits_out[self.comp_of[d.source]] += d.coins
            self.credits_in[self.comp_of[d.recipient]] += d.coins

    def _endpoint_classes(self, rec: ReplayedStep) -> EndpointClasses:
        pair = (rec.selected, rec.partner)
        f_edges = self.dec.f_edges
        adjacent = []
        deg1_two_f, deg1_one_f, deg2, deg3_plus = [], [], [], []
        edges_to_adjacent = []
        for w in sorted(self.endpoints):
            links = [norm_edge(x, w) for x in pair if norm_edge(x, w) in rec.removed]
            if not links or rec.deg_before.get(w, 0) < 3:
                continue
            adjacent.append(w)
            edges_to_adjacent.extend(links)
            after = rec.deg_after[w]
            if after == 1:
                f_count = sum(1 for e in links if e in f_edges)
                (deg1_two_f if f_count == 2 else deg1_one_f).append(w)
            elif after == 2:
                deg2.append(w)
            else:
                deg3_plus.append(w)
        return EndpointClasses(
            rec.index, tuple(adjacent), tuple(deg1_two_f), tuple(deg1_one_f),
            tuple(deg2), tuple(deg3_plus), tuple(sorted(edges_to_adjacent)),
        )

    # -- derived quantities --------------------------------------------------

    def c_X(self, ci: int) -> int:
        return self.credits_in[ci]

    def d_X(self, ci: int) -> int:
        return self.debits_out[ci]

    def D_X(self, ci: int) -> int:
        return 2 * self.dec.components[ci].m_count * (self.delta - 2)

    def balance(self, ci: int) -> int:
        return self.credits_in[ci] - self.debits_out[ci]

    def coins_from_node(self, x: int) -> int:
        coins = sum(1 for t in self.transfers if not t.cancelled and t.source == x)
        coins += sum(d.coins for d in self.donations if d.source == x)
        return coins

    def raw_debits_from_node(self, x: int) -> int:
        return sum(1 for t in self.transfers if t.source == x)

    def credits_to_endpoint(self, w: int, include_cancelled: bool = False) -> int:
        return sum(
            1 for t in self.transfers
            if t.endpoint == w and (include_cancelled or not t.cancelled)
        )

    def local_ratio(self, ci: int) -> Fraction:
        comp = self.dec.components[ci]
        return (comp.m_count + self.theta * self.balance(ci)) / comp.opt_count

    def step_record(self, index: int) -> ReplayedStep:
        return self.steps[index - 1]


def build_ledger(trace: RunTrace, dec: Decomposition, delta: int) -> ChargingLedger:
    """Construct the full coin accounting for one run.

    The trace must be a valid run of the degree-rule family (plain or free
    variant) on the decomposition's graph, and dec must be canonicalized.
    """
    return ChargingLedger(trace, dec, delta)


# ---------------------------------------------------------------------------
# Balance bounds
# ---------------------------------------------------------------------------


def verify_bounds(ledger: ChargingLedger) -> Report:
    """Check the four balance bounds, the implied local ratios, coin
    conservation, and the global ratio."""
    rep = Report()
    delta = ledger.delta
    dec = ledger.dec
    edge_cap = 2 * (delta - 2)

    for ci, comp in enumerate(dec.components):
        tag = f"comp{ci}"
        if comp.kind == SINGLETON:
            rep.require("singleton_balance", tag, -ledger.d_X(ci), ">=", -2 * (delta - 1) + 2)
        else:
            for e in comp.m_edges:
                coins = ledger.coins_from_node(e[0]) + ledger.coins_from_node(e[1])
                rep.require("edge_coin_cap", f"{tag}:e{e[0]}-{e[1]}", coins, "<=", edge_cap)
            rep.require("path_credit_floor", tag, ledger.c_X(ci), ">=", 2)
            rep.require(
                "path_balance", tag,
                ledger.balance(ci), ">=", 2 - ledger.D_X(ci) + edge_cap,
            )
        rep.require("local_ratio", tag, ledger.local_ratio(ci), ">=", target_ratio(delta))

    rep.require(
        "coin_conservation", "global",
        sum(ledger.credits_in), "==", sum(ledger.debits_out),
    )
    m_size = len(dec.matching)
    opt_size = len(dec.m_star)
    if opt_size:
        rep.require(
            "global_ratio_identity", "global",
            Fraction(m_size, opt_size), "==",
            Fraction(sum(c.m_count for c in dec.components),
                     sum(c.opt_count for c in dec.components)) if dec.components else Fraction(1),
        )
        rep.require(
            "global_ratio_bound", "global",
            Fraction(m_size, opt_size), ">=", target_ratio(delta),
        )
    return rep


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------


def verify_lemma_predicates(ledger: ChargingLedger) -> Report:
    """Instantiate every auxiliary predicate whose preconditions hold on this
    run; preconditions are recomputed, never assumed."""
    rep = Report()
    delta = ledger.delta
    dec = ledger.dec
    g = dec.graph
    f_edges = dec.f_edges
    edge_cap = 2 * (delta - 2)

    # Endpoints are never matched, keep graph degree >= 2, and obey the
    # credit floor/caps around cancellation.
    for w in sorted(ledger.endpoints):
        tag = f"w{w}"
        rep.require("endpoint_graph_degree", tag, g.degree(w), ">=", 2)
        raw_credits = ledger.credits_to_endpoint(w, include_cancelled=True)
        net_credits = ledger.credits_to_endpoint(w)
        rep.require("endpoint_min_credit", tag, net_credits, ">=", 1)
        rep.require("endpoint_precancel_cap", tag, raw_credits, "<=", 3)
        rep.require("endpoint_postcancel_cap", tag, net_credits, "<=", 2)
        if raw_credits == 3:
            shape = _triple_credit_shape(ledger, w)
            rep.add("endpoint_triple_credit_shape", tag, shape, "==", True, shape is True)
        if raw_credits != net_credits:
            rep.require("cancelled_endpoint_two_credits", tag, net_credits, "==", 2)

    # Raw debit caps from F-edge counting.
    for ci, comp in enumerate(dec.components):
        tag = f"comp{ci}"
        if comp.kind == SINGLETON:
            e = comp.m_edges[0]
            debits = ledger.raw_debits_from_node(e[0]) + ledger.raw_debits_from_node(e[1])
            rep.require("singleton_debit_cap", tag, debits, "<=", 2 * (delta - 1))
        else:
            for e in comp.m_edges:
                debits = ledger.raw_debits_from_node(e[0]) + ledger.raw_debits_from_node(e[1])
                rep.require("path_edge_debit_cap", f"{tag}:e{e[0]}-{e[1]}", debits, "<=", edge_cap)
            credits = sum(ledger.credits_to_endpoint(w) for w in comp.endpoints)
            rep.require("path_min_credits", tag, credits, ">=", 2)

    if delta == 3:
        _delta3_checks(ledger, rep)
    _creation_step_checks(ledger, rep)
    _donation_checks(ledger, rep)
    _transfer_recheck(ledger, rep)
    return rep


def _triple_credit_shape(ledger: ChargingLedger, w: int) -> bool:
    """Three raw credits arrive only as two F-edges on a 3 -> 1 drop followed
    by one F-edge on the final 1 -> 0 drop."""
    ts = sorted(
        (t for t in ledger.transfers if t.endpoint == w),
        key=lambda t: (t.step, t.source),
    )
    if len(ts) != 3:
        return False
    first, second, third = ts
    if first.step != second.step or second.step == third.step:
        return False
    rec1 = ledger.step_record(first.step)
    rec2 = ledger.step_record(third.step)
    return (
        rec1.deg_before[w] == 3
        and rec1.deg_after[w] == 1
        and rec2.deg_before[w] == 1
        and rec2.deg_after[w] == 0
    )


def _delta3_checks(ledger: ChargingLedger, rep: Report) -> None:
    """Missing-debit and extra-credit predicates for the degree-3 regime."""
    dec = ledger.dec
    for ci, comp in enumerate(dec.components):
        tag = f"comp{ci}"
        if comp.kind == SINGLETON:
            cap = 2 * (ledger.delta - 1)
            rep.require("missing_debits_singleton", tag, ledger.d_X(ci), "<=", cap - 2)
            continue
        info = ledger.paths[ci]
        if info.sel_degree == 1 or info.sel_degree == 3:
            rep.require(
                "missing_debits_path", tag, ledger.d_X(ci), "<=", ledger.D_X(ci) - 2
            )
        if ledger.d_X(ci) == 2 * comp.m_count - 1:
            credits = sum(ledger.credits_to_endpoint(w) for w in comp.endpoints)
            rep.require("extra_credit_path", tag, credits, ">=", 3)


def _creation_step_checks(ledger: ChargingLedger, rep: Report) -> None:
    """Predicates about the step following a path creation."""
    dec = ledger.dec
    for ci, info in ledger.paths.items():
        tag = f"comp{ci}"
        # A debit paid at a creation step with selection degree >= 3 leaves a
        # degree-1 endpoint behind.
        if info.sel_degree >= 3 and info.raw_debits > 0:
            rep.require("deg3_debit_makes_deg1", tag, info.deg1_after, "==", True)
        if info.sel_degree == 2 and info.raw_debits > 0 and not info.deg1_after:
            shape = _deg2_exception_shape(ledger, info)
            rep.add("deg2_exception_shape", tag, shape, "==", True, shape)
        if not info.deg1_after:
            if ledger.delta >= 4 and info.k_coins >= 1:
                ok = _fallback_disjunction(ledger, ci, info)
                rep.add("no_deg1_path_fallback", tag, ok, "==", True, ok)
            continue
        # The node selected next has degree 1 and sits in this path via an
        # optimum edge, or in another component via an F-edge.
        u2 = info.next_selected
        nxt = ledger.step_record(info.creation_step + 1)
        rep.require("deg1_next_selection_degree", tag, nxt.sel_degree, "==", 1)
        rec = ledger.step_record(info.creation_step)
        pair = (info.selected, info.partner)
        if ledger.comp_of.get(u2) == ci:
            ok = any(
                norm_edge(u2, x) in rec.removed
                and norm_edge(u2, x) in dec.m_star.pairs
                for x in pair
            )
            rep.add("next_selected_in_path_via_opt", tag, ok, "==", True, ok)
        else:
            ok = any(
                norm_edge(u2, x) in rec.removed and norm_edge(u2, x) in dec.f_edges
                for x in pair
            )
            rep.add("next_selected_outside_via_f", tag, ok, "==", True, ok)
        _paired_step_checks(ledger, ci, info, rep)


def _paired_step_checks(ledger: ChargingLedger, ci: int, info: _PathInfo, rep: Report) -> None:
    """Combined coin caps across a creation step and the following step."""
    if ledger.delta < 4:
        return
    tag = f"comp{ci}"
    cap = 2 * (ledger.delta - 2)
    d_uv = info.k_coins
    v2 = info.next_partner
    # Coins actually paid by the follow-up partner; cancelled transfers move
    # nothing, and only a selected node can be a donation source.
    l = ledger.coins_from_node(v2) if v2 is not None else 0
    u2 = info.next_selected
    rep.require("next_selected_pays_nothing", tag, ledger.raw_debits_from_node(u2), "==", 0)
    if info.donation is not None:
        k = info.donation.coins
    else:
        k = d_uv
    rep.require("paired_step_k_covers_debits", tag, d_uv, "<=", k)
    rep.require("paired_step_coin_cap", tag, k + l, "<=", cap)
    if info.classes is not None:
        cls = info.classes
        tag2 = f"{tag}:s{cls.creation_step}"
        rep.require(
            "endpoint_class_identity", tag2,
            d_uv, "==", 2 * len(cls.deg1_two_f) + len(cls.deg1_one_f),
        )
        rep.require(
            "endpoint_class_l_bound", tag2,
            l, "<=", len(cls.deg1_one_f) + len(cls.deg2),
        )
        total = 2 * len(cls.deg1_two_f) + 2 * len(cls.deg1_one_f) + len(cls.deg2)
        rep.require("endpoint_class_edge_bound", tag2, total, "<=", len(cls.edges_to_adjacent))
        rep.require("endpoint_class_cap", tag2, len(cls.edges_to_adjacent), "<=", cap)
        if info.donation is not None and info.donation.kind == "dynamic":
            rep.require(
                "dynamic_donation_class_identity", tag2,
                info.donation.coins, "==",
                2 * len(cls.deg1_two_f) + len(cls.deg1_one_f),
            )


def _deg2_exception_shape(ledger: ChargingLedger, info: _PathInfo) -> bool:
    """The only way a degree-2 creation step that pays a debit leaves no
    degree-1 endpoint: a unique recipient isolated by the step, reached over
    the partner's single debit, with the selected node clean."""
    rec = ledger.step_record(info.creation_step)
    u, v = info.selected, info.partner
    recipients = sorted({
        t.endpoint for t in ledger.transfers
        if t.step == info.creation_step and t.source in (u, v)
    })
    if len(recipients) != 1:
        return False
    w = recipients[0]
    if rec.deg_after[w] != 0 or rec.deg_before[w] != 2:
        return False
    if ledger.raw_debits_from_node(u) != 0:
        return False
    from_v = [t for t in ledger.transfers if t.source == v]
    if len(from_v) != 1 or from_v[0].endpoint != w:
        return False
    if norm_edge(u, w) not in ledger.dec.m_star.pairs:
        return False
    for w2 in ledger.endpoints:
        if w2 == w:
            continue
        if norm_edge(v, w2) in rec.removed and rec.deg_before.get(w2, 0) < 3:
            return False
    return True


def _fallback_disjunction(ledger: ChargingLedger, ci: int, info: _PathInfo) -> bool:
    """Paths without a degree-1 endpoint after creation either collect a
    third credit or own a non-creation edge paying one coin under the cap."""
    comp = ledger.dec.components[ci]
    credits = sum(ledger.credits_to_endpoint(w) for w in comp.endpoints)
    if credits >= 3:
        return True
    cap = 2 * (ledger.delta - 2)
    creation_edge = norm_edge(info.selected, info.partner)
    for e in comp.m_edges:
        if e == creation_edge:
            continue
        if ledger.coins_from_node(e[0]) + ledger.coins_from_node(e[1]) <= cap - 1:
            return True
    return False


def _donation_checks(ledger: ChargingLedger, rep: Report) -> None:
    creations = {info.creation_step for info in ledger.paths.values()}
    donation_steps = [d.step for d in ledger.donations]
    rep.require(
        "donation_steps_disjoint", "global",
        sorted(set(donation_steps) & creations), "==", [],
    )
    rep.require(
        "one_donation_per_step", "global",
        len(donation_steps), "==", len(set(donation_steps)),
    )
    if ledger.delta == 3:
        rep.require("no_donations_at_delta3", "global", len(ledger.donations), "==", 0)
    for d in ledger.donations:
        tag = f"don{d.step}"
        rec = ledger.step_record(d.step)
        rep.require("donation_source_selected_deg1", tag, rec.sel_degree, "==", 1)
        rep.require("donation_source_is_selected", tag, rec.selected, "==", d.source)
        rep.require("donation_follows_creation", tag, d.step, "==", d.creation_step + 1)
        rep.require(
            "donation_recipient_matched_at_creation", tag,
            ledger.step_of_node[d.recipient], "==", d.creation_step,
        )
        if d.kind == "static":
            rep.require("static_donation_coins", tag, d.coins, "==", ledger.delta - 3)
        else:
            info = next(i for i in ledger.paths.values() if i.creation_step == d.creation_step)
            rep.require("dynamic_donation_coins", tag, d.coins, "==", info.k_coins)


def _transfer_recheck(ledger: ChargingLedger, rep: Report) -> None:
    """Each transfer is independently recheckable from the trace alone."""
    ok = True
    for t in ledger.transfers:
        rec = ledger.step_record(t.step)
        e = norm_edge(t.source, t.endpoint)
        if e not in ledger.dec.f_edges:
            ok = False
        if t.source not in (rec.selected, rec.partner):
            ok = False
        if e not in rec.removed:
            ok = False
        if rec.deg_after.get(t.endpoint, 99) > 1:
            ok = False
        if t.endpoint not in ledger.endpoints:
            ok = False
    rep.add("transfer_recheck", "global", ok, "==", True, ok)


def verify_all(ledger: ChargingLedger) -> Report:
    rep = verify_bounds(ledger)
    rep.extend(verify_lemma_predicates(ledger))
    return rep
