"""Reference implementations the parity suites check production against.

Production keeps one route engine (``ASTopology.routes_to_many``) and one
verdict engine (``VisibilityMatrix``). The original per-destination dict
BFS, the dict-BFS customer cone, and the per-pair path-walk visibility
oracle live here instead: they share no code with those engines, so
agreement with them is an independent check. The same holds for the
table-per-stage observation pipeline (:mod:`tests.reference.observe`)
and the table-per-hour Figure 5 reduction (:mod:`tests.reference.victims`)
that production replaced with column gathers and one grouped pass, and
for the market ledger's per-booter step (:mod:`tests.reference.ledger`),
which production replaced with one flat slot array stepped all booters
at once.
"""
