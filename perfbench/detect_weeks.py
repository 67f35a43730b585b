"""``detect_weeks``: weekly private detection over a simulated panel.

``repro.simulation.Simulator`` generates four weeks of browsing for a
120-user panel (Table 1 scaled down). Week ``k`` of the run replays
simulated week ``k mod 4`` shifted in time, minus a fresh seeded 10% of
users who are absent that week; the previous week's absentees return.
So every week after week 0 changes the roster and runs through an epoch
transition of the persistent session.

Each week goes through ``DetectionPipeline(private=True)`` with the
object client backend, the default in-memory transport, four blinding
cliques and a file-backed ``HistoryStore``. After the last week the run
copies the store, calls ``ProtocolSession.resume`` on the copy, and
checks the resumed session's next round against the next round of the
uninterrupted session.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import shutil
import sqlite3
import time
from typing import Any, Dict, List, Optional

from common import SETUPS, Outcome, cycles, out_dir
from checks import (
    CheckFailed,
    RoundView,
    check_resumed,
    check_round,
    check_users_seen,
    check_verdicts,
    exact_users,
    reference_cells,
)

USERS = 96
SIM_WEEKS = 4
CLIQUES = 6
ABSENT_SHARE = 0.10
SESSION_NAME = "pipeline"


def make_inputs(seed: int) -> Dict[str, Any]:
    from repro.simulation.config import SimulationConfig
    from repro.simulation.simulator import Simulator
    from repro.types import TICKS_PER_WEEK

    config = SimulationConfig(
        num_users=USERS, num_websites=240, average_user_visits=60,
        ads_per_website=10, brand_campaign_sites=20,
        percentage_targeted=1.0, num_weeks=SIM_WEEKS, seed=seed)
    impressions = Simulator(config).run().impressions
    by_week: List[List[Any]] = [[] for _ in range(SIM_WEEKS)]
    for imp in impressions:
        by_week[imp.tick // TICKS_PER_WEEK].append(imp)
    users = sorted({imp.user_id for imp in impressions})
    identities = {imp.ad.identity for imp in impressions}
    return {"by_week": by_week, "users": users,
            "num_identities": len(identities), "seed": seed}


def week_impressions(inputs: Dict[str, Any], week: int) -> List[Any]:
    """Week ``week`` of the run: a shifted simulated week minus this
    week's absentees (nobody is absent in week 0)."""
    from repro.types import TICKS_PER_WEEK

    base = inputs["by_week"][week % SIM_WEEKS]
    shift = (week - week % SIM_WEEKS) * TICKS_PER_WEEK
    absent: set = set()
    if week > 0:
        rng = random.Random(inputs["seed"] * 1_000_003 + week)
        absent = set(rng.sample(inputs["users"],
                                int(len(inputs["users"]) * ABSENT_SHARE)))
    return [dataclasses.replace(imp, tick=imp.tick + shift) for imp in base
            if imp.user_id not in absent]


def ads_by_user(impressions: List[Any]) -> Dict[str, List[str]]:
    ads: Dict[str, List[str]] = {}
    for imp in impressions:
        ads.setdefault(imp.user_id, []).append(imp.ad.identity)
    return ads


def run(seed: int, seconds: float, tracer: Optional[Any],
        root: str) -> Outcome:
    from repro.api import ProtocolSession
    from repro.core.pipeline import DetectionPipeline
    from repro.store.history import HistoryStore

    inputs = make_inputs(seed)
    round_config = DetectionPipeline.default_round_config(
        inputs["num_identities"])
    scratch = os.path.join(out_dir(root), f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    out = Outcome()
    out.info["cells"] = round_config.num_cells

    def new_pipeline(path: str) -> Any:
        return DetectionPipeline(private=True, round_config=round_config,
                                 num_cliques=CLIQUES, enrollment_seed=seed,
                                 store=HistoryStore(path),
                                 session_name=SESSION_NAME)

    week0 = week_impressions(inputs, 0)
    pipeline = None
    try:
        for attempt in range(SETUPS):
            if pipeline is not None:
                pipeline.close()
                pipeline.store.close()
            pipeline = new_pipeline(os.path.join(scratch,
                                                 f"setup{attempt}.db"))
            if tracer is not None:
                tracer.begin_unit("setup")
            start = time.perf_counter()
            result = pipeline.run_week(week0, week=0)
            out.setup_s.append(time.perf_counter() - start)
            out.attempt("weeks")
            if tracer is not None:
                tracer.begin_unit("check")
            _check_week(pipeline, result, week0, round_config)

        week = 0
        last: List[Any] = week0
        for cycle in cycles(seconds, tracer):
            week += 1
            last = week_impressions(inputs, week)
            traced = (None if cycle == 0
                      else bool(tracer is not None and tracer.enabled))
            gc.collect()
            if tracer is not None:
                tracer.begin_unit("step")
            start = time.perf_counter()
            result = pipeline.run_week(last, week=week)
            out.steps.append((time.perf_counter() - start, traced))
            out.attempt("weeks")
            if pipeline.last_transition is None:
                raise CheckFailed(f"week {week} changed the roster but ran "
                                  f"without an epoch transition")
            round_result = result.round_result
            if tracer is not None:
                tracer.count("transport.bytes", round_result.total_bytes)
                tracer.count("transport.messages",
                             round_result.total_messages)
                tracer.begin_unit("check")
            out.bytes_per_user.append(round_result.total_bytes
                                      / len(round_result.reported_users))
            _check_week(pipeline, result, last, round_config)
        out.info["weeks"] = week
        out.info["private_vs_cleartext_label_diffs"] = _label_diffs(
            result, last, week)
        _resume(pipeline, last, scratch, tracer, out, ProtocolSession)
    finally:
        if pipeline is not None:
            pipeline.close()
            pipeline.store.close()
        shutil.rmtree(scratch, ignore_errors=True)
    return out


def _check_week(pipeline: Any, result: Any, impressions: List[Any],
                round_config: Any) -> None:
    ads = ads_by_user(impressions)
    roster = sorted(ads)
    mapper = pipeline.session.clients[0].ad_mapper.ad_id
    view = RoundView.of_result(result.round_result)
    exact = exact_users(ads, roster)
    check_round(view, round_config.make_sketch, ads, roster, (), mapper,
                reference_cells(round_config.make_sketch, ads, roster,
                                mapper),
                exact,
                received=[c.last_threshold for c in pipeline.session.clients])
    check_verdicts(result.classified, impressions)
    check_users_seen(result.classified, exact)


def _label_diffs(result: Any, impressions: List[Any], week: int) -> int:
    """Verdicts of the last week that the cleartext oracle labels
    differently (a reference figure, not a gate)."""
    from repro.core.pipeline import DetectionPipeline

    clear = DetectionPipeline(private=False).run_week(impressions, week=week)
    labels = {(c.user_id, c.ad.identity): c.label for c in clear.classified}
    return sum(labels[(c.user_id, c.ad.identity)] != c.label
               for c in result.classified)


def _resume(pipeline: Any, impressions: List[Any], scratch: str,
            tracer: Optional[Any], out: Outcome, session_cls: Any) -> None:
    """Resume from a copy of the store and compare the next round with
    the one the uninterrupted session runs."""
    copy_path = os.path.join(scratch, "resume.db")
    source = sqlite3.connect(pipeline.store.path)
    target = sqlite3.connect(copy_path)
    try:
        source.backup(target)
    finally:
        source.close()
        target.close()
    last_persisted = pipeline.store.last_round_id(SESSION_NAME)

    if tracer is not None:
        tracer.enabled = True
        tracer.begin_unit("resume")
    start = time.perf_counter()
    resumed = session_cls.resume(copy_path, name=SESSION_NAME)
    out.info["resume_s"] = time.perf_counter() - start
    out.attempt("resumes")
    if tracer is not None:
        tracer.enabled = False
    try:
        live = pipeline.session
        ads = ads_by_user(impressions)
        views = []
        for session in (resumed, live):
            session.reset_windows()
            for client in session.clients:
                for url in set(ads.get(client.user_id, ())):
                    client.observe_ad(url)
            views.append(RoundView.of_result(session.run_next_round()))
            out.attempt("rounds")
        check_resumed(views[0], views[1], last_persisted)
    finally:
        resumed.close()
