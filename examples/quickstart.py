"""Quickstart: the paper's running example end to end.

Builds Table 1 (the mobile-game sample), compresses it into COHANA's
storage format, and runs Example 1 / query Q1:

    "For players who play the dwarf role at their birth time, cohort
     them by birth country and report the total gold spent on shopping
     since birth."

Run:  python examples/quickstart.py
"""

from repro.cohana import CohanaEngine
from repro.schema import ActivitySchema, LogicalType
from repro.table import ActivityTable

# -- 1. build the activity table (the paper's Table 1) -----------------------

schema = ActivitySchema.build(
    user="player", time="time", action="action",
    dimensions={"role": LogicalType.STRING, "country": LogicalType.STRING},
    measures={"gold": LogicalType.INT},
)

table = ActivityTable.from_rows(schema, [
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
])
print(f"Activity table: {table!r}\n")

# -- 2. load it into COHANA ---------------------------------------------------

engine = CohanaEngine()
compressed = engine.create_table("GameActions", table)
print(f"Compressed: {compressed!r}\n")

# -- 3. run the cohort query (the paper's Q1 for Example 1) -------------------

QUERY = """
SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
FROM GameActions
BIRTH FROM action = "launch" AND role = "dwarf"
AGE ACTIVITIES IN action = "shop"
COHORT BY country
"""

print("Query plan:")
print(engine.explain(QUERY))
print()

result = engine.query(QUERY)
print("Result relation:")
print(result.to_text())
print()
print("Cohort report (pivoted):")
print(result.pivot("spent").to_text())

# -- 4. parallel execution ----------------------------------------------------
#
# Execution is a chunk pipeline (parser → binder → planner → scheduler →
# kernels → merge; see ARCHITECTURE.md). ExecutionConfig picks the scan
# backend: `jobs=4` runs chunk scans on 4 threads, and chunk independence
# (no user spans two chunks) guarantees identical results.

parallel = engine.query(QUERY, jobs=4)          # backend="threads" implied
assert parallel.rows == result.rows
print("\nSame rows with jobs=4 over the chunk pipeline: OK")

# -- 5. compressed-domain scans ------------------------------------------------
#
# scan_mode selects the predicate-evaluation domain: "compressed" (the
# default) evaluates the birth/age conditions against the encoded chunks
# (chunk dictionaries, segment MIN/MAX, persisted zone maps) and prunes
# chunks from metadata alone; "decoded" materializes code arrays first.
# Rows are identical either way.

compressed = engine.query(QUERY, scan_mode="compressed")
decoded = engine.query(QUERY, scan_mode="decoded")
assert compressed.rows == decoded.rows == result.rows
_, stats = engine.query_with_stats(QUERY)       # scan_mode="compressed"
print(f"Compressed-domain scan parity: OK "
      f"({stats.chunks_pruned}/{stats.chunks_total} chunks pruned, "
      f"{stats.chunks_pruned_zone} via zone maps/bounds)")
