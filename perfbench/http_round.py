"""``http_round``: private rounds through the HTTP service plane.

An in-process ``ReproService`` (``wire`` transport, no jobs submitted)
listens on loopback. Forty ``RemoteClient`` users in cliques of four are
enrolled, the operator advances to epoch 0 and every client syncs its
key material. The calling thread then drives ``run_remote_round`` in a
closed loop — one request outstanding at a time — with a fixed seeded
set of five users, one in each of five cliques, who never report, so
every round runs recovery. Load is two threads: the service's server
thread and the calling thread.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Any, Dict, List, Optional

from common import SETUPS, Outcome, cycles, one_per_clique, timed
from checks import RoundView, check_round, exact_users, reference_cells

USERS = 40
CLIQUE_SIZE = 4
DROPPED = 5
AD_POOL = 400


def make_inputs(seed: int) -> Dict[str, Any]:
    rng = random.Random(seed)
    users = [f"remote-{i:03d}" for i in range(USERS)]
    pool = [f"http://ads.example/{seed}/{i:04d}" for i in range(AD_POOL)]
    ads = {u: rng.sample(pool, rng.randint(1, 8)) for u in users}
    return {"users": users, "ads": ads, "rng": rng}


def _start(config: Any, seed: int, users: List[str],
           request_s: List[float]) -> Any:
    """Service up, everyone enrolled and synced: the set-up."""
    from repro.service import OperatorClient, RemoteClient, ReproService

    service = ReproService(config, seed=seed,
                           num_cliques=USERS // CLIQUE_SIZE,
                           transport="wire", job_workers=1)
    try:
        host, port = service.start()
        operator = OperatorClient(host, port, service.operator_token)
        clients = [RemoteClient(host, port, user) for user in users]
        for http in [operator.http] + [c.http for c in clients]:
            http.request = timed(http.request, request_s)
        for client in clients:
            client.enroll()
        operator.advance_epoch()
        for client in clients:
            client.sync()
    except BaseException:
        service.close()
        raise
    return service, operator, clients


def run(seed: int, seconds: float, tracer: Optional[Any]) -> Outcome:
    from repro.protocol.client import RoundConfig
    from repro.service import run_remote_round

    config = RoundConfig(cms_depth=4, cms_width=256, cms_seed=7,
                         id_space=5_000)
    inputs = make_inputs(seed)
    users, ads = inputs["users"], inputs["ads"]
    out = Outcome()
    request_s: List[float] = []

    service = None
    try:
        for _ in range(SETUPS):
            if service is not None:
                service.close()
                service = None
            requests_before = len(request_s)
            if tracer is not None:
                tracer.begin_unit("setup")
            start = time.perf_counter()
            service, operator, clients = _start(config, seed, users,
                                                request_s)
            out.setup_s.append(time.perf_counter() - start)
            out.attempt("requests", n=len(request_s) - requests_before)
        first_round_request = len(request_s)
        dropped = one_per_clique({c.user_id: c.client.clique_id
                                  for c in clients}, DROPPED, inputs["rng"])

        for client in clients:
            for url in ads[client.user_id]:
                client.observe(url)
        participants = [c for c in clients if c.user_id not in dropped]
        reporting = sorted(set(users) - set(dropped))
        ad_id = participants[0].client.ad_mapper.ad_id
        reference = reference_cells(config.make_sketch, ads, reporting,
                                    ad_id)
        exact = exact_users(ads, reporting)
        transport, http = service.state.transport, service.http

        for cycle in cycles(seconds, tracer):
            bytes_before = transport.total_bytes
            messages_before = transport.total_messages
            http_before = http.bytes_in + http.bytes_out
            requests_before = len(request_s)
            traced = (None if cycle == 0
                      else bool(tracer is not None and tracer.enabled))
            gc.collect()
            if tracer is not None:
                tracer.begin_unit("step")
            start = time.perf_counter()
            spec = run_remote_round(operator, participants)
            out.steps.append((time.perf_counter() - start, traced))
            out.attempt("rounds")
            out.attempt("requests", n=len(request_s) - requests_before)
            round_bytes = transport.total_bytes - bytes_before
            if tracer is not None:
                tracer.count("transport.bytes", round_bytes)
                tracer.count("transport.messages",
                             transport.total_messages - messages_before)
                tracer.count("service.http_bytes",
                             http.bytes_in + http.bytes_out - http_before)
                tracer.begin_unit("check")
            view = RoundView.of_spec(spec)
            out.bytes_per_user.append(round_bytes / len(view.reported))
            check_round(view, config.make_sketch, ads, users, dropped,
                        ad_id, reference, exact,
                        received=[p.last_threshold for p in participants])
    finally:
        if service is not None:
            service.close()
    ordered = sorted(request_s[first_round_request:])
    out.info["requests"] = len(ordered)
    out.info["req_p50_ms"] = 1000 * ordered[len(ordered) // 2]
    out.info["req_p99_ms"] = 1000 * ordered[int(len(ordered) * 0.99)]
    return out

