"""Clean twin: the service runs queries and views through the engine,
under its one execution setting."""


def execute(engine, bound, table, token, config, reuse, view=None):
    return engine.execute(bound, table, "vectorized", config,
                          scan_mode="compressed", reuse=reuse,
                          view=view, token=token)
