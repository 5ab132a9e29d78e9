"""zbench: the end-to-end and per-layer benchmark of the ZION simulator."""
