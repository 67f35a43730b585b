"""``army_round``: batched private rounds over a 10k-user population.

A ``ClientArmy`` of 10 000 users in cliques of four reports through a
``fan_in=64`` regional aggregation tree over the byte-exact ``wire``
transport, with a ``HistoryStore`` recording every round. A fixed seeded
1% of the users, one in each of 100 cliques, is dropped, so every round
runs the recovery exchange.

Work is done in cycles of :data:`ROUNDS_PER_CYCLE` rounds and one
``ProtocolSession.resume`` attempt on the batched store. That attempt
fails today (the army has no replay path) and is counted as failed, so
the failed share is exactly ``1 / (ROUNDS_PER_CYCLE + 1)`` in every run.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Any, Dict, List, Optional

from common import SETUPS, Outcome, cycles, one_per_clique
from checks import RoundView, check_round, exact_users, reference_cells

USERS = 10_000
CLIQUE_SIZE = 4
FAN_IN = 64
AD_POOL = 2_000
DROP_SHARE = 0.01
ROUNDS_PER_CYCLE = 2
SESSION_NAME = "army"


def make_inputs(seed: int) -> Dict[str, Any]:
    """Each user sees 1-6 ads drawn with a Zipf-like skew from a pool."""
    rng = random.Random(seed)
    users = [f"user-{i:05d}" for i in range(USERS)]
    pool = [f"http://ads.example/{seed}/{i:05d}" for i in range(AD_POOL)]
    weights = [1.0 / (rank + 1) for rank in range(AD_POOL)]
    ads = {u: rng.choices(pool, weights, k=rng.randint(1, 6)) for u in users}
    return {"users": users, "ads": ads, "rng": rng}


def run(seed: int, seconds: float, tracer: Optional[Any]) -> Outcome:
    from repro.api import ProtocolSession, SessionConfig
    from repro.errors import ConfigurationError
    from repro.protocol.client import RoundConfig
    from repro.store.history import HistoryStore

    config = RoundConfig(cms_depth=4, cms_width=256, cms_seed=7,
                         id_space=20_000)
    settings = SessionConfig(client_backend="batched", fan_in=FAN_IN,
                             transport="wire")
    inputs = make_inputs(seed)
    users, ads = inputs["users"], inputs["ads"]
    out = Outcome()

    session = None
    for _ in range(SETUPS):
        if session is not None:
            session.close()
            session = None
        gc.collect()
        if tracer is not None:
            tracer.begin_unit("setup")
        start = time.perf_counter()
        session = ProtocolSession.create(
            users, config, settings, seed=seed, use_oprf=False,
            num_cliques=USERS // CLIQUE_SIZE, store=HistoryStore(),
            store_name=SESSION_NAME)
        out.setup_s.append(time.perf_counter() - start)

    try:
        army = session.army
        dropped = one_per_clique(army.epoch.clique_of,
                                 int(USERS * DROP_SHARE), inputs["rng"])
        for user in users:
            army.observe_ads(user, ads[user])
        army.drop_users(dropped)
        reporting = sorted(set(users) - set(dropped))
        reference = reference_cells(config.make_sketch, ads, reporting,
                                    army.ad_mapper.ad_id)
        exact = exact_users(ads, reporting)
        out.info["regional_tier"] = any(
            e.endpoint_id.startswith("regional") for e in session.endpoints)

        for cycle in cycles(seconds, tracer):
            for _ in range(ROUNDS_PER_CYCLE):
                _round(session, tracer, out, config, ads, users, dropped,
                       reference, exact, warmup=cycle == 0)
            _resume_attempt(session, tracer, out, ProtocolSession,
                            ConfigurationError)
    finally:
        session.close()
    out.info["cliques"] = USERS // CLIQUE_SIZE
    out.info["dropped"] = len(dropped)
    return out


def _round(session: Any, tracer: Optional[Any], out: Outcome, config: Any,
           ads: Dict[str, List[str]], users: List[str], dropped: List[str],
           reference: Any, exact: Dict[str, int], warmup: bool) -> None:
    transport = session.transport
    bytes_before = transport.total_bytes
    messages_before = transport.total_messages
    traced = None if warmup else bool(tracer is not None and tracer.enabled)
    gc.collect()
    if tracer is not None:
        tracer.begin_unit("step")
    start = time.perf_counter()
    result = session.run_next_round()
    elapsed = time.perf_counter() - start
    out.attempt("rounds")
    out.steps.append((elapsed, traced))
    round_bytes = transport.total_bytes - bytes_before
    if tracer is not None:
        tracer.count("transport.bytes", round_bytes)
        tracer.count("transport.messages",
                     transport.total_messages - messages_before)
        tracer.begin_unit("check")
    view = RoundView.of_result(result)
    out.bytes_per_user.append(round_bytes / len(view.reported))
    check_round(view, config.make_sketch, ads, users, dropped,
                session.army.ad_mapper.ad_id, reference, exact,
                received=[session.army.last_threshold])


def _resume_attempt(session: Any, tracer: Optional[Any], out: Outcome,
                    session_cls: Any, refused: type) -> None:
    """Try to rebuild the batched session from its store. Counted as
    failed while ``resume`` refuses batched sessions."""
    if tracer is not None:
        tracer.begin_unit("resume")
    try:
        resumed = session_cls.resume(session.store, name=SESSION_NAME,
                                     own_store=False)
    except refused:
        out.attempt("resumes", failed=True)
        return
    resumed.close()
    out.attempt("resumes")
