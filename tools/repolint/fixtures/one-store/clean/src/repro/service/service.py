"""Clean twin: the service runs queries through the engine's store."""


def execute(engine, bound, table, config, reuse):
    return engine.execute(bound, table, "vectorized", config,
                          pushdown=True, prune=True,
                          scan_mode="compressed", reuse=reuse)
