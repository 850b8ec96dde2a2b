"""The synthetic mobile-game activity generator.

Behavioral model (one player):

* born on a day drawn from the app-launch-spike distribution; the very
  first tuple is a ``launch`` (matching the paper's observation that
  every player's first action is launch);
* on each subsequent day the player opens sessions at a Poisson rate that
  decays with age (*aging*) but decays more slowly for later cohorts
  (*social change* — the paper's Table 3 insight);
* each session starts with a ``launch`` carrying a ``session_length``
  measure and continues with a few non-launch events;
* ``shop`` events carry ``gold`` whose mean declines with age and is
  higher for later cohorts;
* country/city/role are fixed per player except the role, which the
  player may re-pick mid-life (so ``Birth(role)`` filters are
  non-trivial, as with player 001 in Table 1).

Everything is drawn from one seeded generator: the same config always
produces the identical table.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.config import (
    ACTIONS,
    CITIES_PER_COUNTRY,
    COUNTRIES,
    GameConfig,
    ROLES,
    game_schema,
)
from repro.datagen.distributions import (
    aging_activity,
    birth_day_weights,
    zipf_weights,
)
from repro.table import ActivityTable

_DAY = 86400

#: Relative frequency of non-launch events within a session.
_EVENT_ACTIONS = tuple(a for a in ACTIONS if a != "launch")
_EVENT_WEIGHTS = np.array(
    [3.0 if a == "shop" else 1.5 if a in ("fight", "quest", "chat")
     else 0.6 for a in _EVENT_ACTIONS])
_EVENT_WEIGHTS = _EVENT_WEIGHTS / _EVENT_WEIGHTS.sum()


def generate(config: GameConfig | None = None) -> ActivityTable:
    """Generate the scale-1 activity table for ``config``."""
    if config is None:
        config = GameConfig()
    rng = np.random.default_rng(config.seed)
    schema = game_schema()
    columns: dict[str, list] = {name: [] for name in schema.names()}

    country_w = zipf_weights(len(COUNTRIES))
    day_w = birth_day_weights(config.n_days)
    width = max(5, len(str(config.n_users)))
    # A property that parses the start date: read it once, not per row.
    start_epoch = config.start_epoch
    for i in range(config.n_users):
        player = f"p{i:0{width}d}"
        _generate_player(rng, config, start_epoch, player, country_w,
                         day_w, columns)
    table = ActivityTable(schema, {k: _as_arr(v, schema.column(k))
                                   for k, v in columns.items()})
    return table.sorted_by_primary_key()


def _generate_player(rng, config: GameConfig, start_epoch: int,
                     player: str, country_w, day_w, columns) -> None:
    country = COUNTRIES[rng.choice(len(COUNTRIES), p=country_w)]
    city = f"{country} City {rng.integers(1, CITIES_PER_COUNTRY + 1)}"
    role = ROLES[rng.choice(len(ROLES), p=zipf_weights(len(ROLES)))]
    birth_day = int(rng.choice(config.n_days, p=day_w))
    cohort_week = birth_day // 7
    used_times: set[tuple[int, str]] = set()

    def emit(second: int, action: str, session_length: int,
             gold: int) -> None:
        # enforce the (user, time, action) primary key
        while (second, action) in used_times:
            second += 1
        used_times.add((second, action))
        columns["player"].append(player)
        columns["time"].append(start_epoch + second)
        columns["action"].append(action)
        columns["country"].append(country)
        columns["city"].append(city)
        columns["role"].append(role)
        columns["session_length"].append(session_length)
        columns["gold"].append(gold)

    def session(day: int, age: float) -> None:
        nonlocal role
        start = day * _DAY + int(rng.integers(6 * 3600, 23 * 3600))
        length = max(1, int(rng.gamma(2.0, 6.0)))
        emit(start, "launch", length, 0)
        n_events = rng.poisson(config.events_per_session)
        second = start
        for _ in range(n_events):
            second += int(rng.integers(30, 900))
            action = _EVENT_ACTIONS[rng.choice(len(_EVENT_ACTIONS),
                                               p=_EVENT_WEIGHTS)]
            gold = 0
            if action == "shop":
                level = aging_activity(age, config.retention_tau,
                                       cohort_week, config.social_change)
                social = 1.0 + 0.5 * cohort_week
                gold = max(1, int(rng.normal(
                    config.base_gold * float(level) * social,
                    config.base_gold * 0.15)))
            if action == "upgrade" and rng.random() < 0.1:
                # mid-life role change (makes Birth(role) non-trivial)
                role = ROLES[int(rng.integers(len(ROLES)))]
            emit(second, action, 0, gold)

    # Birth-day session plus the aging-governed tail of the lifetime.
    session(birth_day, 0.0)
    for day in range(birth_day + 1, config.n_days):
        age = float(day - birth_day)
        level = aging_activity(age, config.retention_tau, cohort_week,
                               config.social_change)
        for _ in range(rng.poisson(config.sessions_per_day * level)):
            session(day, age)


def _as_arr(values: list, spec) -> np.ndarray:
    dtype = spec.ltype.numpy_dtype()
    if dtype == object:
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return arr
    return np.asarray(values, dtype=dtype)
