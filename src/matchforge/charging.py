"""Coin accounting over a traced run and its decomposition.

Reads the trace's steps and its one cached replay (``RunTrace.replay``):
the minimum degree before each step, and two degree queries for a node
around a step.  Checks that every step is a min-greedy or free-variant
step, derives every transfer (with cancellations) and donation, tallies
per-component credit/debit coins, and checks the balance bounds plus the
auxiliary structural predicates on the concrete execution.  Any violation
is reported as a counterexample, not raised, so a failing run can be
inspected.

All coin arithmetic is exact: counts are integers and the coin value
theta = 1/(2(2*delta-3)) is a Fraction.
"""

from __future__ import annotations

import csv
import io
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .decomposition import Component, Decomposition, PATH, SINGLETON
from .graphs import Edge, norm_edge
from .matchers import MODE_DEGREE, MODE_FREE, Replay, RunTrace, TraceStep


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
    deg1_two_f: tuple[int, ...]        # W_1^2
    deg1_one_f: tuple[int, ...]        # W_1^1
    deg2: tuple[int, ...]              # W_2
    edges_to_adjacent: tuple[Edge, ...]  # E(W)


@dataclass
class _PathInfo:
    creation_step: int
    selected: int
    partner: int
    sel_degree: int
    k_coins: int          # non-cancelled debits paid by the matched pair
    raw_debits: int       # including cancelled
    deg1_after: bool
    donation: Donation | None = None
    classes: EndpointClasses | None = None


@dataclass(slots=True)
class Check:
    name: str
    subject: str
    lhs: object
    rel: str
    rhs: object
    ok: bool


_RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


@dataclass
class Report:
    """Ordered list of checks with pass/fail rendering."""

    checks: list[Check] = field(default_factory=list)

    def require(self, name: str, subject: str, lhs, rel: str, rhs) -> None:
        ok = bool(_RELATIONS[rel](lhs, rhs))
        self.checks.append(Check(name, subject, lhs, rel, rhs, ok))

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def text(self) -> str:
        out = []
        for c in self.checks:
            verdict = "PASS" if c.ok else "FAIL"
            out.append(f"chk {c.name} {c.subject} {c.lhs} {c.rel} {c.rhs} {verdict}")
        return "\n".join(out) + "\n"

    def csv(self) -> str:
        # The csv module quotes only a field that needs it, such as a list
        # side "[3, 5]"; each value is written as str() gives it, as in text().
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("name", "subject", "lhs", "rel", "rhs", "verdict"))
        for c in self.checks:
            verdict = "PASS" if c.ok else "FAIL"
            writer.writerow(map(str, (c.name, c.subject, c.lhs, c.rel, c.rhs, verdict)))
        return out.getvalue()


class ChargingLedger:
    """Full coin accounting of one traced run against one decomposition.

    One pass over the trace's steps checks each step's rule against the
    replay's minimum degree before it and derives its transfers, reading the
    degrees of a step's touched nodes from the replay (``deg_before`` and
    ``deg_after``); alongside it tallies, per node, the coins paid (``paid``,
    donations included) and the raw debits (``raw_debits``, cancelled
    transfers included), per endpoint the net and raw credits
    (``credits``/``raw_credits``), and per step the net and raw debits of its
    matched pair (``step_debits``/``step_raw_debits``).
    """

    def __init__(self, trace: RunTrace, dec: Decomposition, delta: int):
        if dec.matching.pairs != trace.result.pairs:
            raise TraceMismatchError("decomposition matching differs from trace result")
        if trace.graph != dec.graph:
            raise TraceMismatchError("decomposition graph differs from trace graph")
        if delta < max(3, dec.graph.delta):
            raise ValueError("delta must be at least max(3, graph max degree)")
        self.trace = trace
        self.dec = dec
        self.delta = delta
        self.theta = theta(delta)
        try:
            self.replay: Replay = trace.replay
        except ValueError as exc:
            raise TraceMismatchError(str(exc)) from None
        self.steps: tuple[TraceStep, ...] = trace.steps
        self.comp_of = dec.component_of
        self.endpoints = dec.endpoints
        self.step_of_node: dict[int, int] = {}
        self.transfers: list[Transfer] = []
        self.paid: Counter[int] = Counter()
        self.raw_debits: Counter[int] = Counter()
        self.credits: Counter[int] = Counter()
        self.raw_credits: Counter[int] = Counter()
        self.step_debits: Counter[int] = Counter()
        self.step_raw_debits: Counter[int] = Counter()
        deg_before = self.replay.deg_before
        for rec, min_before in zip(self.steps, self.replay.min_before):
            self._check_rule(rec, min_before)
            self.step_of_node[rec.selected] = rec.index
            self.step_of_node[rec.partner] = rec.index
            for source, w in self._step_transfers(rec):
                # A third credit arriving on an endpoint's 1 -> 0 drop is
                # cancelled.  Such an endpoint loses one edge in this step,
                # so its credits so far all come from earlier steps.
                cancel = deg_before(rec.index, w) == 1 and self.credits[w] >= 2
                if cancel and self.raw_credits[w] != self.credits[w]:
                    raise TraceMismatchError(f"second cancellation at endpoint {w}")
                self.transfers.append(Transfer(source, w, rec.index, cancel))
                self.raw_debits[source] += 1
                self.raw_credits[w] += 1
                self.step_raw_debits[rec.index] += 1
                if not cancel:
                    self.paid[source] += 1
                    self.credits[w] += 1
                    self.step_debits[rec.index] += 1

        self.donations: list[Donation] = []
        self.paths: dict[int, _PathInfo] = {}   # component index -> info
        for ci, comp in enumerate(dec.components):
            if comp.kind == PATH:
                self.paths[ci] = self._path_info(ci, comp)

        ncomp = len(dec.components)
        self.credits_in = [0] * ncomp
        self.debits_out = [0] * ncomp
        for x, coins in self.paid.items():
            self.debits_out[self.comp_of[x]] += coins
        for w, coins in self.credits.items():
            self.credits_in[self.comp_of[w]] += coins
        for d in self.donations:
            self.credits_in[self.comp_of[d.recipient]] += d.coins

    # -- construction -------------------------------------------------------

    @staticmethod
    def _check_rule(rec: TraceStep, min_before: int) -> None:
        if rec.mode == MODE_DEGREE:
            if rec.sel_degree != min_before:
                raise TraceMismatchError(
                    f"step {rec.index}: degree-rule step selected degree "
                    f"{rec.sel_degree}, minimum is {min_before}"
                )
        elif rec.mode == MODE_FREE:
            if min_before < 3:
                raise TraceMismatchError(
                    f"step {rec.index}: free step taken at minimum degree {min_before}"
                )
        else:
            raise TraceMismatchError(f"step {rec.index}: unknown mode {rec.mode}")

    def _step_transfers(self, rec: TraceStep) -> list[tuple[int, int]]:
        """(source, endpoint) of every coin moved in one step, sorted: an
        F-edge from the matched pair to an endpoint left at degree <= 1."""
        out = []
        for e in rec.removed:
            # Every removed edge touches the matched pair, and an F-edge
            # never joins the pair itself (that edge is in M).
            if e not in self.dec.f_edges:
                continue
            source, w = e if e[0] in (rec.selected, rec.partner) else e[::-1]
            if w in self.endpoints and self.replay.deg_after(rec.index, w) <= 1:
                out.append((source, w))
        return sorted(out)

    def _path_info(self, ci: int, comp: Component) -> _PathInfo:
        rec = self.step_record(min(self.step_of_node[e[0]] for e in comp.m_edges))
        # Some path endpoint sits at degree exactly 1 once the creation step
        # finishes.  Every node has degree >= 2 when the step starts (the
        # selected node realizes the minimum), so any such endpoint lost an
        # edge to the matched pair and was touched.
        deg_after = self.replay.deg_after
        deg1_after = any(
            w in self.endpoints and deg_after(rec.index, w) == 1 for e in rec.removed for w in e
        )
        info = _PathInfo(rec.index, rec.selected, rec.partner, rec.sel_degree,
                         self.step_debits[rec.index], self.step_raw_debits[rec.index],
                         deg1_after)
        # Donations and endpoint classes belong to the delta >= 4 regime;
        # coins move via transfers alone at delta == 3.
        if self.delta < 4 or not deg1_after:
            return info
        if info.k_coins > 0:
            info.donation = self._donation(ci, info, rec)
            if info.donation is not None:
                self.donations.append(info.donation)
                self.paid[info.donation.source] += info.donation.coins
        if info.sel_degree >= 3:
            info.classes = self._endpoint_classes(rec)
        return info

    def _donation(self, ci: int, info: _PathInfo, rec: TraceStep) -> Donation | None:
        """The coins the node selected right after the creation step gives
        back to the path, if that node lies in another component."""
        if rec.index == len(self.steps):
            raise TraceMismatchError(
                f"step {rec.index}: a degree-1 endpoint is left, yet the run stopped"
            )
        u2 = self.step_record(rec.index + 1).selected
        if self.comp_of[u2] == ci:
            return None
        links = [
            x for x in (info.selected, info.partner)
            if norm_edge(u2, x) in self.dec.f_edges and norm_edge(u2, x) in rec.removed
        ]
        if not links:
            raise TraceMismatchError(
                f"step {rec.index + 1}: selected node lost no F-edge to the matched pair"
            )
        if info.sel_degree != 2:
            return Donation(u2, links[0], rec.index + 1, rec.index, "dynamic", info.k_coins)
        # The selected node has no alive F-edge at degree 2, so the donor can
        # only hang off the partner.
        if links != [info.partner]:
            raise TraceMismatchError(
                f"step {rec.index + 1}: donor of a degree-2 creation is not the partner's neighbor"
            )
        return Donation(u2, info.partner, rec.index + 1, rec.index, "static", self.delta - 3)

    def _endpoint_classes(self, rec: TraceStep) -> EndpointClasses:
        deg1_two_f, deg1_one_f, deg2, edges_to_adjacent = [], [], [], []
        s = rec.index
        # Only an end of one of the step's removed edges can have a link.
        for w in sorted({w for e in rec.removed for w in e if w in self.endpoints}):
            links = [norm_edge(x, w) for x in (rec.selected, rec.partner)
                     if norm_edge(x, w) in rec.removed]
            if not links or self.replay.deg_before(s, w) < 3:
                continue
            edges_to_adjacent.extend(links)
            after = self.replay.deg_after(s, w)
            if after == 1:
                f_count = sum(1 for e in links if e in self.dec.f_edges)
                (deg1_two_f if f_count == 2 else deg1_one_f).append(w)
            elif after == 2:
                deg2.append(w)
        return EndpointClasses(
            rec.index, tuple(deg1_two_f), tuple(deg1_one_f), tuple(deg2),
            tuple(sorted(edges_to_adjacent)),
        )

    # -- derived quantities --------------------------------------------------

    def D_X(self, ci: int) -> int:
        return 2 * self.dec.components[ci].m_count * (self.delta - 2)

    def balance(self, ci: int) -> int:
        return self.credits_in[ci] - self.debits_out[ci]

    def local_ratio(self, ci: int) -> Fraction:
        comp = self.dec.components[ci]
        th = self.theta
        # (m + θ·balance) / opt as one fraction of integers.
        return Fraction(comp.m_count * th.denominator + th.numerator * self.balance(ci),
                        th.denominator * comp.opt_count)

    def step_record(self, index: int) -> TraceStep:
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
            rep.require("singleton_balance", tag, -ledger.debits_out[ci], ">=", -2 * (delta - 1) + 2)
        else:
            for e in comp.m_edges:
                coins = ledger.paid[e[0]] + ledger.paid[e[1]]
                rep.require("edge_coin_cap", f"{tag}:e{e[0]}-{e[1]}", coins, "<=", edge_cap)
            rep.require("path_credit_floor", tag, ledger.credits_in[ci], ">=", 2)
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
    edge_cap = 2 * (delta - 2)

    credits_of: dict[int, list[Transfer]] = {}   # endpoint -> its transfers
    for t in ledger.transfers:
        credits_of.setdefault(t.endpoint, []).append(t)
    # Endpoints are never matched, keep graph degree >= 2, and obey the
    # credit floor/caps around cancellation.
    for w in sorted(ledger.endpoints):
        tag = f"w{w}"
        rep.require("endpoint_graph_degree", tag, g.degree(w), ">=", 2)
        raw_credits = ledger.raw_credits[w]
        net_credits = ledger.credits[w]
        rep.require("endpoint_min_credit", tag, net_credits, ">=", 1)
        rep.require("endpoint_precancel_cap", tag, raw_credits, "<=", 3)
        rep.require("endpoint_postcancel_cap", tag, net_credits, "<=", 2)
        if raw_credits == 3:
            rep.require("endpoint_triple_credit_shape", tag,
                        _triple_credit_shape(ledger, w, credits_of.get(w, [])), "==", True)
        if raw_credits != net_credits:
            rep.require("cancelled_endpoint_two_credits", tag, net_credits, "==", 2)

    # Raw debit caps from F-edge counting.
    for ci, comp in enumerate(dec.components):
        tag = f"comp{ci}"
        if comp.kind == SINGLETON:
            e = comp.m_edges[0]
            debits = ledger.raw_debits[e[0]] + ledger.raw_debits[e[1]]
            rep.require("singleton_debit_cap", tag, debits, "<=", 2 * (delta - 1))
        else:
            for e in comp.m_edges:
                debits = ledger.raw_debits[e[0]] + ledger.raw_debits[e[1]]
                rep.require("path_edge_debit_cap", f"{tag}:e{e[0]}-{e[1]}", debits, "<=", edge_cap)
            credits = sum(ledger.credits[w] for w in comp.endpoints)
            rep.require("path_min_credits", tag, credits, ">=", 2)

    if delta == 3:
        _delta3_checks(ledger, rep)
    _creation_step_checks(ledger, rep)
    _donation_checks(ledger, rep)
    _transfer_recheck(ledger, rep)
    return rep


def _triple_credit_shape(ledger: ChargingLedger, w: int, ts: list[Transfer]) -> bool:
    """Three raw credits arrive only as two F-edges on a 3 -> 1 drop followed
    by one F-edge on the final 1 -> 0 drop; ts are w's transfers."""
    if len(ts) != 3:
        return False
    first, second, third = ts
    if first.step != second.step or second.step == third.step:
        return False
    replay = ledger.replay
    return (
        replay.deg_before(first.step, w) == 3
        and replay.deg_after(first.step, w) == 1
        and replay.deg_before(third.step, w) == 1
        and replay.deg_after(third.step, w) == 0
    )


def _delta3_checks(ledger: ChargingLedger, rep: Report) -> None:
    """Missing-debit and extra-credit predicates for the degree-3 regime."""
    dec = ledger.dec
    for ci, comp in enumerate(dec.components):
        tag = f"comp{ci}"
        if comp.kind == SINGLETON:
            cap = 2 * (ledger.delta - 1)
            rep.require("missing_debits_singleton", tag, ledger.debits_out[ci], "<=", cap - 2)
            continue
        info = ledger.paths[ci]
        if info.sel_degree == 1 or info.sel_degree == 3:
            rep.require(
                "missing_debits_path", tag, ledger.debits_out[ci], "<=", ledger.D_X(ci) - 2
            )
        if ledger.debits_out[ci] == 2 * comp.m_count - 1:
            credits = sum(ledger.credits[w] for w in comp.endpoints)
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
            rep.require("deg2_exception_shape", tag, _deg2_exception_shape(ledger, info), "==", True)
        if not info.deg1_after:
            if ledger.delta >= 4 and info.k_coins >= 1:
                rep.require("no_deg1_path_fallback", tag,
                            _fallback_disjunction(ledger, ci, info), "==", True)
            continue
        # The node selected next has degree 1 and sits in this path via an
        # optimum edge, or in another component via an F-edge.
        nxt = ledger.step_record(info.creation_step + 1)
        rep.require("deg1_next_selection_degree", tag, nxt.sel_degree, "==", 1)
        removed = ledger.step_record(info.creation_step).removed
        links = [norm_edge(nxt.selected, x) for x in (info.selected, info.partner)]
        links = [e for e in links if e in removed]
        if ledger.comp_of[nxt.selected] == ci:
            ok = any(e in dec.m_star.pairs for e in links)
            rep.require("next_selected_in_path_via_opt", tag, ok, "==", True)
        else:
            ok = any(e in dec.f_edges for e in links)
            rep.require("next_selected_outside_via_f", tag, ok, "==", True)
        _paired_step_checks(ledger, ci, info, nxt, rep)


def _paired_step_checks(ledger: ChargingLedger, ci: int, info: _PathInfo,
                        nxt: TraceStep, rep: Report) -> None:
    """Combined coin caps across a creation step and the following step nxt."""
    if ledger.delta < 4:
        return
    tag = f"comp{ci}"
    cap = 2 * (ledger.delta - 2)
    d_uv = info.k_coins
    # Coins actually paid by the follow-up partner; cancelled transfers move
    # nothing, and only a selected node can be a donation source.
    l = ledger.paid[nxt.partner]
    rep.require("next_selected_pays_nothing", tag, ledger.raw_debits[nxt.selected], "==", 0)
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
    s = info.creation_step
    rec = ledger.step_record(s)
    replay = ledger.replay
    u, v = info.selected, info.partner
    # A node pays only in the step that matches it, so v's one transfer is
    # the creation step's only one.
    if ledger.raw_debits[u] != 0 or ledger.raw_debits[v] != 1:
        return False
    (w,) = [end for source, end in ledger._step_transfers(rec) if source == v]
    if replay.deg_after(s, w) != 0 or replay.deg_before(s, w) != 2:
        return False
    if norm_edge(u, w) not in ledger.dec.m_star.pairs:
        return False
    return not any(
        w2 in ledger.endpoints and replay.deg_before(s, w2) < 3
        for e in rec.removed if v in e
        for w2 in e if w2 != v and w2 != w
    )


def _fallback_disjunction(ledger: ChargingLedger, ci: int, info: _PathInfo) -> bool:
    """Paths without a degree-1 endpoint after creation either collect a
    third credit or own a non-creation edge paying one coin under the cap."""
    comp = ledger.dec.components[ci]
    if sum(ledger.credits[w] for w in comp.endpoints) >= 3:
        return True
    cap = 2 * (ledger.delta - 2)
    creation_edge = norm_edge(info.selected, info.partner)
    for e in comp.m_edges:
        if e == creation_edge:
            continue
        if ledger.paid[e[0]] + ledger.paid[e[1]] <= cap - 1:
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
            rep.require("dynamic_donation_coins", tag,
                        d.coins, "==", ledger.step_debits[d.creation_step])


def _transfer_recheck(ledger: ChargingLedger, rep: Report) -> None:
    """Each transfer is independently recheckable from the trace alone."""
    def valid(t: Transfer) -> bool:
        rec = ledger.step_record(t.step)
        e = norm_edge(t.source, t.endpoint)
        return (
            e in ledger.dec.f_edges
            and t.source in (rec.selected, rec.partner)
            and e in rec.removed
            and ledger.replay.deg_after(t.step, t.endpoint) <= 1
            and t.endpoint in ledger.endpoints
        )

    rep.require("transfer_recheck", "global", all(valid(t) for t in ledger.transfers), "==", True)


def verify_all(ledger: ChargingLedger) -> Report:
    return Report(verify_bounds(ledger).checks + verify_lemma_predicates(ledger).checks)
