"""In-memory activity tables and CSV I/O."""

from repro.table.activity import ActivityTable
from repro.table.csv_io import read_csv, write_csv

__all__ = ["ActivityTable", "read_csv", "write_csv"]
