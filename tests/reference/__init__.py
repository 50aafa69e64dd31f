"""Reference implementations the parity suites check production against.

Production keeps one route engine (``ASTopology.routes_to_many``) and one
verdict engine (``VisibilityMatrix``). The original per-destination dict
BFS, the dict-BFS customer cone, and the per-pair path-walk visibility
oracle live here instead: they share no code with those engines, so
agreement with them is an independent check.
"""
