"""Shared factories for the test suite."""

from fractions import Fraction
from itertools import accumulate

import fracmarket.engine as engine
from fracmarket import AgentKind, AgentState, ModelParams, Offer


def make_params(**overrides) -> ModelParams:
    return ModelParams(**overrides)


def make_agent(id=0, kind=AgentKind.PURE_BUYER, shares=0, cash=0) -> AgentState:
    return AgentState(id=id, kind=kind, shares=shares, cash=Fraction(cash))


def make_offer(price=45.0, quantity=5, seller=0) -> Offer:
    return Offer(price=price, quantity=quantity, seller=seller)


def make_population(n_pb=0, n_ps=0, n_bs=0, shares=10, cash=100) -> list[AgentState]:
    """Dense-id population in the standard block order: PB, PS, BS."""
    pop = []
    for _ in range(n_pb):
        pop.append(make_agent(len(pop), AgentKind.PURE_BUYER, 0, cash))
    for _ in range(n_ps):
        pop.append(make_agent(len(pop), AgentKind.PURE_SELLER, shares, 0))
    for _ in range(n_bs):
        pop.append(make_agent(len(pop), AgentKind.BUYER_SELLER, shares, cash))
    return pop


def traded_by_round(trace, n_rounds: int) -> list[int]:
    """Cumulative shares traded after each round 1..n_rounds, summed from
    the rounds the trace's fills carry."""
    per_round = [0] * n_rounds
    for ev in trace.fills:
        per_round[ev.iteration - 1] += ev.fill.units
    return list(accumulate(per_round))


def drawn_visits(monkeypatch, run):
    """Call `run()`, recording every visit the engine draws as (active ids,
    rows): visit 0 is pre-trading and visit r trading round r. Returns the
    visits and what `run()` returned."""
    visits = []
    draw = engine._draw_visit

    def recording(*args):
        visits.append(draw(*args))
        return visits[-1]

    with monkeypatch.context() as m:
        m.setattr(engine, "_draw_visit", recording)
        out = run()
    return visits, out
