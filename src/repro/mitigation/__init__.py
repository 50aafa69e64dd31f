"""Mitigation extension: what would actually help victims?

:mod:`repro.mitigation.remediation` models cleaning up open reflectors.
The paper's conclusion: seizing booter front-ends leaves "the underlying
infrastructure of reflectors online"; this module models reflector
patch/cleanup kinetics so the takedown can be compared against the
remediation the authors actually recommend.
"""

from repro.mitigation.remediation import RemediationPolicy, ReflectorRemediation

__all__ = [
    "ReflectorRemediation",
    "RemediationPolicy",
]
