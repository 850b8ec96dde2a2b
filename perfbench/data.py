"""Seeded inputs: datasets and op lists.

Everything a workload feeds the engine is derived here from ``--seed``:
the same seed gives the same tables, the same query texts in the same
order and therefore the same exact counters.

Two choices keep run-to-run spread low without hiding the seed (see the
README's noise rules):

* The base table is generated in *waves* (same player model, later
  start date, different name prefix), each cut to a fixed row count.
  Rows scanned per read and bytes per row then barely move with the
  seed, and — because the primary-key order clusters a wave's players —
  chunks of later waves are time-prunable, which plain
  ``scale_dataset`` replication never is.
* Query parameters are a seeded *permutation* of a fixed grid, not
  independent draws: every run covers the same birth windows and age
  limits, in a seed-dependent order, so no two rounds share a plan or
  a result while the work per run stays the same. The grid is narrow
  (windows move by hours, not days) because the class statistic needs
  rounds that cost the same.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import asdict, dataclass

import numpy as np

from repro.datagen import GameConfig, generate
from repro.schema import format_timestamp, parse_timestamp
from repro.table import ActivityTable
from repro.workloads import queries

#: Catalog name every workload registers its table under.
TABLE = "T"

START = "2013-05-19"
WAVES = 3
WAVE_GAP_DAYS = 25
WINDOW_DAYS = 7
DAY = 86400


def renamed(table: ActivityTable, prefix: str,
            shift_seconds: int = 0) -> ActivityTable:
    """``table`` with every player renamed ``prefix + name`` and every
    timestamp moved by ``shift_seconds`` — fresh users for an append
    (a user's tuples must live in one shard)."""
    schema = table.schema
    columns = {name: table.column(name) for name in schema.names()}
    user = schema.user.name
    columns[user] = np.array([prefix + u for u in columns[user]],
                             dtype=object)
    if shift_seconds:
        columns[schema.time.name] = (columns[schema.time.name]
                                     + shift_seconds)
    return ActivityTable(schema, columns)


def generated_rows(seed: int, users: int, rows: int,
                   start: str = START) -> ActivityTable:
    """Exactly ``rows`` rows of ``generate``'s output for ``seed``: the
    primary-key-ordered prefix, so only the last player is cut short.
    ``users`` is a first guess and grows until it yields enough rows."""
    while True:
        table = generate(GameConfig(n_users=users, seed=seed,
                                    start=start))
        if len(table) >= rows:
            return table.slice(0, rows)
        users = users * 5 // 4 + 1


def base_table(seed: int, users_per_wave: int,
               rows_per_wave: int) -> ActivityTable:
    """The unscaled table of a workload: :data:`WAVES` waves of
    ``rows_per_wave`` rows, wave ``w`` starting ``w * WAVE_GAP_DAYS``
    days after :data:`START`."""
    return concat(
        renamed(generated_rows(seed * 31 + wave, users_per_wave,
                               rows_per_wave,
                               queries.day_offset(START,
                                                  wave * WAVE_GAP_DAYS)),
                "abc"[wave])
        for wave in range(WAVES)).sorted_by_primary_key()


def concat(tables) -> ActivityTable:
    """All ``tables`` as one, in the order given."""
    return functools.reduce(ActivityTable.concat, tables)


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    ``cls`` is the latency class it is reported under (``light`` /
    ``heavy`` reads, ``write``, or ``maintain`` for background work
    that only counts toward throughput); ``template`` names what runs;
    ``text`` is the query for reads; ``arg`` the batch of a write (in
    ``ingest_lifecycle`` also the append a read follows).
    """

    cls: str
    template: str
    text: str = ""
    arg: int = 0


def window(offset_hours: int) -> tuple[str, str]:
    """The :data:`WINDOW_DAYS`-day birth window starting
    ``offset_hours`` after :data:`START`."""
    start = parse_timestamp(START) + offset_hours * 3600
    return (format_timestamp(start),
            format_timestamp(start + WINDOW_DAYS * DAY))


def grid(seed: int, rounds: int, salt: str) -> list[int]:
    """A seeded permutation of ``range(rounds)``."""
    order = list(range(rounds))
    random.Random(f"{seed}:{salt}").shuffle(order)
    return order


def scan_reads(step: int) -> list[Op]:
    """The ten reads of one ``adhoc_scan`` / ``parallel_scan`` round.

    Light reads carry a birth window (selective, and time-prunable on
    the waved table); heavy reads scan every chunk. Rounds must cost
    the same while no two share a plan or a result, so ``step`` moves
    the parameters only as far as that takes: the three windows start
    on the fourth day of one wave each and move by two hours a step
    (births thin out by a twentieth a day), and the age limits lie
    beyond the ages most activity reaches.
    """
    a, b, c = (window((wave * WAVE_GAP_DAYS + 3) * 24 + 2 * step)
               for wave in range(WAVES))
    g = 12 + step
    return [
        Op("light", "Q2", queries.q2(TABLE, a)),
        Op("light", "Q4", queries.q4(TABLE, a)),
        Op("light", "Q5", queries.q5(*b, table=TABLE)),
        Op("light", "Q5", queries.q5(*c, table=TABLE)),
        Op("light", "Q6", queries.q6(*b, table=TABLE)),
        Op("light", "Q6", queries.q6(*c, table=TABLE)),
        Op("heavy", "Q1", queries.q1(TABLE)),
        Op("heavy", "Q3", queries.q3(TABLE)),
        Op("heavy", "Q7", queries.q7(g, TABLE)),
        Op("heavy", "Q8", queries.q8(g, TABLE)),
    ]


def shuffled(ops: list[Op], seed: int, salt: str) -> list[Op]:
    ops = list(ops)
    random.Random(f"{seed}:{salt}").shuffle(ops)
    return ops


def canonical_reads() -> list[Op]:
    """One read per template Q1–Q8 with fixed parameters: what the
    correctness check compares across paths and against the oracle."""
    w = window(4 * 24)
    return [
        Op("heavy", "Q1", queries.q1(TABLE)),
        Op("light", "Q2", queries.q2(TABLE, w)),
        Op("heavy", "Q3", queries.q3(TABLE)),
        Op("light", "Q4", queries.q4(TABLE, w)),
        Op("light", "Q5", queries.q5(*w, table=TABLE)),
        Op("light", "Q6", queries.q6(*w, table=TABLE)),
        Op("heavy", "Q7", queries.q7(9, TABLE)),
        Op("heavy", "Q8", queries.q8(9, TABLE)),
    ]


def op_list_hash(rounds: list[list[Op]]) -> str:
    """Identity of a whole op list: same seed, same hash."""
    payload = json.dumps([[asdict(op) for op in ops] for ops in rounds],
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
