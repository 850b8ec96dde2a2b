"""Shared test helpers: the paper's Table 1 example.

Importable as ``from helpers import ...`` (pytest puts ``tests/`` on
``sys.path`` when collecting).
"""

from __future__ import annotations

import multiprocessing
import os
import signal

from repro.schema import ActivitySchema, LogicalType
from repro.table import ActivityTable

#: The paper's Table 1 (player / time / action / role / country / gold).
TABLE1_ROWS = [
    ("001", "2013/05/19:1000", "launch", "dwarf", "Australia", 0),
    ("001", "2013/05/20:0800", "shop", "dwarf", "Australia", 50),
    ("001", "2013/05/20:1400", "shop", "dwarf", "Australia", 100),
    ("001", "2013/05/21:1400", "shop", "assassin", "Australia", 50),
    ("001", "2013/05/22:0900", "fight", "assassin", "Australia", 0),
    ("002", "2013/05/20:0900", "launch", "wizard", "United States", 0),
    ("002", "2013/05/21:1500", "shop", "wizard", "United States", 30),
    ("002", "2013/05/22:1700", "shop", "wizard", "United States", 40),
    ("003", "2013/05/20:1000", "launch", "bandit", "China", 0),
    ("003", "2013/05/21:1000", "fight", "bandit", "China", 0),
]


def make_game_schema() -> ActivitySchema:
    """The running-example schema used throughout the paper."""
    return ActivitySchema.build(
        user="player", time="time", action="action",
        dimensions={"role": LogicalType.STRING,
                    "country": LogicalType.STRING},
        measures={"gold": LogicalType.INT},
    )


def make_table1() -> ActivityTable:
    """The paper's Table 1 as a sorted activity table."""
    return ActivityTable.from_rows(make_game_schema(), TABLE1_ROWS)


def worker_pids() -> set[int]:
    """Pids of this process's live children: the ``processes``
    backend's persistent scan workers."""
    return {child.pid for child in multiprocessing.active_children()}


def kill_own_process_scan(table, chunk, plan):
    """A chunk kernel whose worker is SIGKILLed mid-task. Only ever
    run it with ``backend='processes'``."""
    os.kill(os.getpid(), signal.SIGKILL)
