"""Per-layer metrics of a traced run, named after gent's modules.

Times are medians over calls; ``.self_*`` is the median self time of a span
that calls other traced functions.  A layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

US, MS, S = 1e6, 1e3, 1.0

# (metric, unit, span name, scale, parent span or None, self time?)
TIMES = (
    ("relent.rel_ent_entanglement.us", "us", "relent.rel_ent_entanglement", US, None, False),
    ("relent.rel_ent_entanglement.self_us", "us", "relent.rel_ent_entanglement", US, None, True),
    ("relent.minimize_mode.us", "us", "relent.minimize_mode", US, None, False),
    ("relent.minimize_mode.self_us", "us", "relent.minimize_mode", US, None, True),
    ("bures.bures_entanglement.us", "us", "bures.bures_entanglement", US, None, False),
    ("standard_forms.state_build.us", "us", "standard_forms.state_build", US, None, False),
    ("bures.numeric_max_fidelity.s", "s", "bures.numeric_max_fidelity", S, None, False),
    ("bures.numeric_max_fidelity.self_s", "s", "bures.numeric_max_fidelity", S, None, True),
    ("scalar_min.golden_section.us", "us", "scalar_min.golden_section", US, None, False),
    ("fock.gaussian_state_from_cm.2m.ms", "ms", "fock.gaussian_state_from_cm.2m", MS, None, False),
    ("fock.gaussian_state_from_cm.2m.self_ms", "ms", "fock.gaussian_state_from_cm.2m", MS, None,
     True),
    ("fock.williamson.ms", "ms", "fock.williamson", MS, "fock.gaussian_state_from_cm.2m", False),
    ("fock.euler_decompose.ms", "ms", "fock.euler_decompose", MS, "fock.gaussian_state_from_cm.2m",
     False),
    ("fock.fidelity_fock.ms", "ms", "fock.fidelity_fock", MS, None, False),
    ("fock.gaussian_state_from_cm.1m.ms", "ms", "fock.gaussian_state_from_cm.1m", MS, None, False),
    ("fock.gaussian_state_from_cm.1m.self_ms", "ms", "fock.gaussian_state_from_cm.1m", MS, None,
     True),
    ("fock.rel_entropy_fock.ms", "ms", "fock.rel_entropy_fock", MS, None, False),
    ("cm_core.is_physical.us", "us", "cm_core.is_physical", US, None, False),
    ("cm_core.is_physical.self_us", "us", "cm_core.is_physical", US, None, True),
    ("cm_core.is_separable.us", "us", "cm_core.is_separable", US, None, False),
    ("cm_core.is_separable.self_us", "us", "cm_core.is_separable", US, None, True),
    ("cm_core.symplectic_spectrum.us", "us", "cm_core.symplectic_spectrum", US, None, False),
    ("standard_forms.to_standard_form_I.us", "us", "standard_forms.to_standard_form_I", US, None,
     False),
    ("standard_forms.to_standard_form_I.self_us", "us", "standard_forms.to_standard_form_I", US,
     None, True),
)

# (metric, span counted, parent span or None, span whose calls divide the count)
COUNTS = (
    ("scalar_min.bracket_doubling.calls", "scalar_min.bracket_doubling", None,
     "relent.rel_ent_entanglement"),
    ("scalar_min.golden_section.calls_per_state", "scalar_min.golden_section",
     "relent.minimize_mode", "relent.rel_ent_entanglement"),
    ("scalar_min.golden_section.calls_per_verify", "scalar_min.golden_section",
     "bures.numeric_max_fidelity", "bures.numeric_max_fidelity"),
)


def per_layer(tracer, import_seconds, cli_seconds, overhead) -> dict:
    out = {}
    for metric, unit, span, scale, parent, self_time in TIMES:
        out[metric] = {"value": tracer.median(span, scale, parent, self_time), "unit": unit}
    for metric, span, parent, per in COUNTS:
        calls = tracer.count(per)
        out[metric] = {"value": tracer.count(span, parent) / calls if calls else 0.0,
                       "unit": "count"}
    out["cli.import_ms"] = {"value": statistics.median(import_seconds) * MS, "unit": "ms"}
    out["cli.call_ms"] = {"value": statistics.median(cli_seconds) * MS if cli_seconds else 0.0,
                          "unit": "ms"}
    out["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    return out
