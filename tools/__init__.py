# Namespace package marker so `python -m tools.repolint` resolves from
# the repository root. The standalone scripts in this directory
# (check_docs.py, serve_smoke.py) are still run by
# path and do not import through the package.
