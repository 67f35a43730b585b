"""Correctness checks against computations made apart from the protocol.

Every check takes plain values (cells, lists, the benchmark's own input
lists) and raises :class:`CheckFailed` on a mismatch. None of them
compares with a stored copy of earlier output: the references are built
here, from the benchmark's inputs, with the scalar
``CountMinSketch.update`` path and plain Python counting.
"""

from __future__ import annotations

import base64
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

#: Blinded cells live in Z_{2^32}; every sum is compared mod this.
MODULUS = 1 << 32


class CheckFailed(Exception):
    """A benchmark output disagrees with its independent reference."""


@dataclass
class RoundView:
    """The parts of one finished round the checks read."""

    round_id: int
    cells: np.ndarray
    distribution: List[float]
    users_threshold: float
    reported: List[str]
    missing: List[str]

    @classmethod
    def of_result(cls, result: Any) -> "RoundView":
        """From a :class:`repro.protocol.runner.RoundResult`."""
        return cls(round_id=int(result.round_id),
                   cells=np.asarray(result.aggregate.cells_array,
                                    dtype=np.uint64).copy(),
                   distribution=[float(v) for v in
                                 result.distribution.values],
                   users_threshold=float(result.users_threshold),
                   reported=list(result.reported_users),
                   missing=list(result.missing_users))

    @classmethod
    def of_spec(cls, spec: Mapping[str, Any]) -> "RoundView":
        """From the JSON round-result spec the HTTP service returns."""
        raw = base64.b64decode(spec["cells"])
        return cls(round_id=int(spec["round_id"]),
                   cells=np.frombuffer(raw, dtype=">u8").astype(np.uint64),
                   distribution=[float(v) for v in spec["distribution"]],
                   users_threshold=float(spec["users_threshold"]),
                   reported=list(spec["reported_users"]),
                   missing=list(spec["missing_users"]))


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def reference_cells(make_sketch: Callable[[], Any],
                    ads_by_user: Mapping[str, Iterable[str]],
                    reporting: Iterable[str],
                    ad_id: Callable[[str], int]) -> np.ndarray:
    """Sum mod 2^32 of one sketch per reporting user, each built with
    scalar ``update`` calls from that user's distinct ad URLs."""
    total = None
    for user in reporting:
        sketch = make_sketch()
        for url in set(ads_by_user[user]):
            sketch.update(ad_id(url))
        cells = np.asarray(sketch.cells_array, dtype=np.uint64)
        total = cells.copy() if total is None else total + cells
    if total is None:
        total = np.zeros(make_sketch().num_cells, dtype=np.uint64)
    return total % MODULUS


def exact_users(ads_by_user: Mapping[str, Iterable[str]],
                reporting: Iterable[str]) -> Dict[str, int]:
    """ad URL -> number of reporting users who saw it."""
    counts: Dict[str, int] = defaultdict(int)
    for user in reporting:
        for url in set(ads_by_user[user]):
            counts[url] += 1
    return dict(counts)


# ----------------------------------------------------------------------
# Checks shared by every workload
# ----------------------------------------------------------------------
def check_row_sums(view: RoundView, depth: int, width: int,
                   ads_by_user: Mapping[str, Iterable[str]]) -> None:
    """Each CMS row adds one per (reporting user, distinct URL), whatever
    the hash: a pad that does not cancel or a lost or doubled report
    breaks the sum."""
    expected = sum(len(set(ads_by_user[u])) for u in view.reported) \
        % MODULUS
    if view.cells.size != depth * width:
        raise CheckFailed(f"round {view.round_id}: {view.cells.size} "
                          f"cells, expected {depth}x{width}")
    rows = view.cells.reshape(depth, width)
    for row, values in enumerate(rows):
        got = int(values.sum(dtype=np.uint64)) % MODULUS
        if got != expected:
            raise CheckFailed(f"round {view.round_id}: CMS row {row} sums "
                              f"to {got}, expected {expected} distinct "
                              f"(user, ad) observations")


def check_cells(view: RoundView, reference: np.ndarray) -> None:
    """The aggregate equals the independently built sketch sum."""
    got = view.cells % MODULUS
    if got.shape != reference.shape or not np.array_equal(got, reference):
        diff = int(np.count_nonzero(got != reference)) \
            if got.shape == reference.shape else -1
        raise CheckFailed(f"round {view.round_id}: aggregate differs from "
                          f"the reference sketch sum in {diff} cells")


def check_no_undercount(view: RoundView, make_sketch: Callable[[], Any],
                        exact: Mapping[str, int],
                        ad_id: Callable[[str], int]) -> None:
    """No ad's count-min estimate is below its exact user count."""
    sketch = make_sketch()
    hashes, width = sketch.hash_family, sketch.width
    for url, count in exact.items():
        estimate = min(int(view.cells[row * width + col])
                       for row, col in enumerate(hashes.indexes(ad_id(url))))
        if estimate < count:
            raise CheckFailed(f"round {view.round_id}: estimate {estimate} "
                              f"for {url!r} is below its exact count "
                              f"{count}")


def check_threshold(view: RoundView,
                    received: Sequence[float] = ()) -> None:
    """Users_th is the mean of the #Users distribution (§4.2), and every
    client that received the broadcast holds exactly that value."""
    if not view.distribution:
        raise CheckFailed(f"round {view.round_id}: empty #Users "
                          f"distribution")
    mean = math.fsum(view.distribution) / len(view.distribution)
    if not math.isclose(view.users_threshold, mean, rel_tol=1e-9,
                        abs_tol=1e-12):
        raise CheckFailed(f"round {view.round_id}: Users_th "
                          f"{view.users_threshold!r} is not the mean "
                          f"{mean!r} of the #Users distribution")
    for value in received:
        if value != view.users_threshold:
            raise CheckFailed(f"round {view.round_id}: a client holds "
                              f"threshold {value!r}, the round released "
                              f"{view.users_threshold!r}")


def check_missing(view: RoundView, roster: Collection[str],
                  dropped: Collection[str]) -> None:
    """Dropped users, and only they, are reported missing."""
    missing, reported = set(view.missing), set(view.reported)
    if len(missing) != len(view.missing) \
            or len(reported) != len(view.reported):
        raise CheckFailed(f"round {view.round_id}: duplicate user in the "
                          f"reported or missing list")
    if missing != set(dropped):
        raise CheckFailed(f"round {view.round_id}: missing users "
                          f"{sorted(missing ^ set(dropped))[:5]} differ "
                          f"from the dropped set")
    if reported != set(roster) - set(dropped):
        raise CheckFailed(f"round {view.round_id}: reported users differ "
                          f"from the roster minus the dropped set")


def check_round(view: RoundView, make_sketch: Callable[[], Any],
                ads_by_user: Mapping[str, Iterable[str]],
                roster: Collection[str], dropped: Collection[str],
                ad_id: Callable[[str], int],
                reference: np.ndarray,
                exact: Mapping[str, int],
                received: Sequence[float] = ()) -> None:
    """Every shared check on one round."""
    sketch = make_sketch()
    check_missing(view, roster, dropped)
    check_row_sums(view, sketch.depth, sketch.width, ads_by_user)
    check_cells(view, reference)
    check_no_undercount(view, make_sketch, exact, ad_id)
    check_threshold(view, received)


# ----------------------------------------------------------------------
# detect_weeks: the §4.2 rule and the resumed round
# ----------------------------------------------------------------------
def local_counts(impressions: Iterable[Any]
                 ) -> Tuple[Dict[Tuple[str, str], Set[str]],
                            Dict[str, Set[str]]]:
    """(user, ad identity) -> domains it was seen on, and user ->
    ad-serving domains visited, counted from the impression log."""
    domains: Dict[Tuple[str, str], Set[str]] = defaultdict(set)
    serving: Dict[str, Set[str]] = defaultdict(set)
    for imp in impressions:
        domains[(imp.user_id, imp.ad.identity)].add(imp.domain)
        serving[imp.user_id].add(imp.domain)
    return domains, serving


def check_verdicts(classified: Sequence[Any], impressions: Iterable[Any],
                   min_domains: int = 4) -> None:
    """Each label equals the §4.2 rule recomputed from the benchmark's
    own domain counts and activity gate, with the verdict's own
    ``users_seen`` and thresholds. Domains_th is the mean rule."""
    domains, serving = local_counts(impressions)
    per_user: Dict[str, List[int]] = defaultdict(list)
    for (user, _ad), seen in domains.items():
        per_user[user].append(len(seen))
    pairs = {(c.user_id, c.ad.identity) for c in classified}
    if len(pairs) != len(classified) or pairs != set(domains):
        raise CheckFailed(f"{len(classified)} verdicts do not cover the "
                          f"{len(domains)} (user, ad) pairs of the week "
                          f"exactly once")
    for verdict in classified:
        user = verdict.user_id
        seen = len(domains[(user, verdict.ad.identity)])
        counts = per_user[user]
        domains_th = math.fsum(counts) / len(counts)
        if verdict.domains_seen != seen:
            raise CheckFailed(f"{user}/{verdict.ad.identity}: "
                              f"domains_seen {verdict.domains_seen}, "
                              f"counted {seen}")
        if not math.isclose(verdict.domains_threshold, domains_th,
                            rel_tol=1e-9, abs_tol=1e-12):
            raise CheckFailed(f"{user}: Domains_th "
                              f"{verdict.domains_threshold!r}, mean is "
                              f"{domains_th!r}")
        if len(serving[user]) < min_domains:
            expected = "undecided"
        elif (seen > verdict.domains_threshold
              and verdict.users_seen < verdict.users_threshold):
            expected = "targeted"
        else:
            expected = "non_targeted"
        if _label_name(verdict.label) != expected:
            raise CheckFailed(f"{user}/{verdict.ad.identity}: labelled "
                              f"{_label_name(verdict.label)}, the §4.2 "
                              f"rule gives {expected}")


def _label_name(label: Any) -> str:
    return str(getattr(label, "value", label)).lower()


def check_users_seen(classified: Sequence[Any],
                     exact: Mapping[str, int]) -> None:
    """Every verdict's #Users is at least the exact cleartext count."""
    for verdict in classified:
        count = exact.get(verdict.ad.identity, 0)
        if verdict.users_seen < count:
            raise CheckFailed(f"{verdict.user_id}/{verdict.ad.identity}: "
                              f"users_seen {verdict.users_seen} is below "
                              f"the exact count {count}")


def check_resumed(resumed: RoundView, uninterrupted: RoundView,
                  last_persisted: int) -> None:
    """The resumed session's next round is the uninterrupted session's
    next round, with an id above every persisted round."""
    if resumed.round_id <= last_persisted:
        raise CheckFailed(f"resumed round id {resumed.round_id} does not "
                          f"follow the last persisted round "
                          f"{last_persisted}")
    if resumed.round_id != uninterrupted.round_id:
        raise CheckFailed(f"resumed round id {resumed.round_id}, the "
                          f"uninterrupted session ran "
                          f"{uninterrupted.round_id}")
    if not np.array_equal(resumed.cells, uninterrupted.cells):
        raise CheckFailed("resumed round cells differ from the "
                          "uninterrupted round")
    if resumed.distribution != uninterrupted.distribution:
        raise CheckFailed("resumed #Users distribution differs from the "
                          "uninterrupted round")
    if resumed.users_threshold != uninterrupted.users_threshold:
        raise CheckFailed(f"resumed Users_th {resumed.users_threshold!r}, "
                          f"uninterrupted {uninterrupted.users_threshold!r}")
