"""Seeded violation: the view catalog plans and runs its own scheduler
beside the engine's, serial and compressed whatever the server chose."""

from repro.cohana.pipeline import ChunkScheduler, table_segments
from repro.cohana.planner import plan_query


class ViewCatalog:
    def __init__(self, engine):
        self._engine = engine

    def _run(self, view, executor, step):
        table, token, units = self._shard_units(view)
        store, key = self.store_for(view.table), view.fingerprint
        partials = self._engine.partial_store(
            key, token, store, [agg.func for agg in view.query.aggregates])
        plan = plan_query(view.query, table_segments(table)[0])
        out = step(ChunkScheduler(table, plan, executor, partials=partials))
        if store is not None:
            live = {digest for _shard, digest in units}
            for digest in live - store.prune_partials(key, live):
                partial = self._engine.partials.peek((key, digest))
                if partial is not None:
                    store.put_partial(key, digest, partial)
        return out, token
