"""Each benchmark check accepts a real round and rejects a corrupted one.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import dataclasses

import numpy as np
import pytest

from checks import (
    CheckFailed,
    RoundView,
    check_cells,
    check_missing,
    check_no_undercount,
    check_resumed,
    check_round,
    check_row_sums,
    check_threshold,
    check_users_seen,
    check_verdicts,
    exact_users,
    reference_cells,
)
from repro.api import ProtocolSession
from repro.protocol.client import RoundConfig
from repro.types import Ad, ClassifiedAd, Impression, Label

CONFIG = RoundConfig(cms_depth=3, cms_width=64, cms_seed=7, id_space=500)
USERS = [f"u{i}" for i in range(8)]
ADS = {u: [f"http://ad/{(i * 3 + k) % 11}" for k in range(1 + i % 4)]
       for i, u in enumerate(USERS)}
DROPPED = ["u5"]


@pytest.fixture(scope="module")
def round_():
    """A real two-clique round with one user dropped."""
    session = ProtocolSession.create(USERS, CONFIG, seed=1, use_oprf=False,
                                     num_cliques=2)
    for client in session.clients:
        for url in ADS[client.user_id]:
            client.observe_ad(url)
    for user in DROPPED:
        session.transport.fail_sender(user)
    result = session.run_next_round()
    ad_id = session.clients[0].ad_mapper.ad_id
    reporting = sorted(set(USERS) - set(DROPPED))
    received = [c.last_threshold for c in session.clients
                if c.user_id not in DROPPED]
    return {"view": RoundView.of_result(result), "ad_id": ad_id,
            "reporting": reporting, "received": received,
            "reference": reference_cells(CONFIG.make_sketch, ADS, reporting,
                                         ad_id),
            "exact": exact_users(ADS, reporting)}


def _copy(view, **changes):
    return dataclasses.replace(view, cells=view.cells.copy(), **changes)


def test_real_round_passes(round_):
    check_round(round_["view"], CONFIG.make_sketch, ADS, USERS, DROPPED,
                round_["ad_id"], round_["reference"], round_["exact"],
                received=round_["received"])


def test_flipped_cell_is_rejected(round_):
    view = _copy(round_["view"])
    view.cells[5] += 1
    with pytest.raises(CheckFailed):
        check_cells(view, round_["reference"])
    with pytest.raises(CheckFailed):
        check_row_sums(view, CONFIG.cms_depth, CONFIG.cms_width, ADS)


def test_dropped_report_is_rejected(round_):
    """The aggregate lacks one reporting user's sketch."""
    view = _copy(round_["view"])
    lost = CONFIG.make_sketch()
    for url in set(ADS["u2"]):
        lost.update(round_["ad_id"](url))
    view.cells = (view.cells - lost.cells_array) % (1 << 32)
    with pytest.raises(CheckFailed):
        check_row_sums(view, CONFIG.cms_depth, CONFIG.cms_width, ADS)
    with pytest.raises(CheckFailed):
        check_cells(view, round_["reference"])


def test_doubled_report_is_rejected(round_):
    view = _copy(round_["view"])
    extra = CONFIG.make_sketch()
    for url in set(ADS["u2"]):
        extra.update(round_["ad_id"](url))
    view.cells = view.cells + extra.cells_array
    with pytest.raises(CheckFailed):
        check_row_sums(view, CONFIG.cms_depth, CONFIG.cms_width, ADS)


def test_undercount_is_rejected(round_):
    view = _copy(round_["view"])
    view.cells[:] = 0
    with pytest.raises(CheckFailed):
        check_no_undercount(view, CONFIG.make_sketch, round_["exact"],
                            round_["ad_id"])


def test_swapped_threshold_is_rejected(round_):
    view = round_["view"]
    swapped = _copy(view, users_threshold=view.users_threshold + 1.0)
    with pytest.raises(CheckFailed):
        check_threshold(swapped)
    with pytest.raises(CheckFailed):
        check_threshold(view, received=[view.users_threshold + 1.0])


def test_wrong_missing_list_is_rejected(round_):
    view = round_["view"]
    with pytest.raises(CheckFailed):
        check_missing(view, USERS, ["u4"])
    with pytest.raises(CheckFailed):
        check_missing(_copy(view, missing=view.missing + ["u1"]), USERS,
                      DROPPED)


def test_resumed_round_one_id_early_is_rejected(round_):
    view = round_["view"]
    check_resumed(view, view, last_persisted=view.round_id - 1)
    early = _copy(view, round_id=view.round_id - 1)
    with pytest.raises(CheckFailed):
        check_resumed(early, view, last_persisted=view.round_id - 1)
    with pytest.raises(CheckFailed):
        check_resumed(view, view, last_persisted=view.round_id)


def test_resumed_round_with_other_cells_is_rejected(round_):
    view = round_["view"]
    other = _copy(view)
    other.cells[0] += 1
    with pytest.raises(CheckFailed):
        check_resumed(other, view, last_persisted=view.round_id - 1)


def _impressions():
    imps = []
    for domain in ("a.com", "b.com", "c.com", "d.com"):
        imps.append(Impression("alice", Ad("http://x"), domain, 1))
    imps.append(Impression("alice", Ad("http://y"), "a.com", 2))
    imps.append(Impression("bob", Ad("http://x"), "a.com", 3))
    return imps


def _verdict(user, url, label, domains_seen, domains_th, users_seen=1.0,
             users_th=2.0):
    return ClassifiedAd(user_id=user, ad=Ad(url), label=label,
                        domains_seen=domains_seen, users_seen=users_seen,
                        domains_threshold=domains_th,
                        users_threshold=users_th, week=0)


def test_section_4_2_labels():
    good = [_verdict("alice", "http://x", Label.TARGETED, 4, 2.5),
            _verdict("alice", "http://y", Label.NON_TARGETED, 1, 2.5),
            _verdict("bob", "http://x", Label.UNDECIDED, 1, 1.0)]
    check_verdicts(good, _impressions())
    flipped = [dataclasses.replace(good[0], label=Label.NON_TARGETED),
               *good[1:]]
    with pytest.raises(CheckFailed):
        check_verdicts(flipped, _impressions())
    missing = good[:2]
    with pytest.raises(CheckFailed):
        check_verdicts(missing, _impressions())


def test_users_seen_below_exact_is_rejected():
    verdicts = [_verdict("bob", "http://x", Label.UNDECIDED, 1, 1.0,
                         users_seen=1.0)]
    check_users_seen(verdicts, {"http://x": 1})
    with pytest.raises(CheckFailed):
        check_users_seen(verdicts, {"http://x": 2})


def test_reference_is_independent_of_update_order():
    ad_id = lambda url: sum(map(ord, url))  # noqa: E731
    forward = reference_cells(CONFIG.make_sketch, ADS, USERS, ad_id)
    backward = reference_cells(CONFIG.make_sketch, ADS, USERS[::-1], ad_id)
    assert np.array_equal(forward, backward)
