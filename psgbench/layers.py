"""Per-layer metrics from the spans and peaks the tracer writes.

A span's self time is its duration minus the durations of its direct child
spans.  ``<layer>.self_s`` sums the self time of every span of a module, so
the seven layers partition the traced time.  Metrics named after functions
sum those functions' self times, except ``semigroup.build_s`` and
``semigroup.apery_set_s``, which are totals (the table fill they cause
included).  Counts and times are summed over the invocations of a pass;
``*.alloc_peak_mb`` is the largest peak of any call.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("cli", "semigroup", "symmetry", "arf", "identities", "denumerant", "exactmath")
TABLE_SPANS = ("denumerant.DenumerantTable", "denumerant.DenumerantTable.ensure")
SUMS = (
    "semigroup.genus_p",
    "semigroup.sylvester_sum_p",
    "semigroup.power_sum_gaps",
    "semigroup.power_sum_bernoulli",
    "semigroup.weighted_power_sum",
)
SYMMETRY_VERIFIERS = (
    "symmetry.verify_symmetry_equivalences",
    "symmetry.verify_apery_pairings",
    "symmetry.verify_pf_consequences",
    "symmetry.verify_almost_symmetric_equivalences",
    "symmetry.verify_nari",
)
ARF_VERIFIERS = ("arf.verify_arf_heredity", "arf.verify_arf_conductor_kunz")
IDENTITIES = (
    "identities.verify_johnson",
    "identities.verify_watanabe",
    "identities.verify_gcd_scaling",
    "identities.is_minimal_generator_system",
)
PEAKS = {
    "semigroup.build.alloc_peak_mb": "semigroup.build",
    "symmetry.pseudo_frobenius.alloc_peak_mb": "symmetry.pseudo_frobenius",
    "arf.is_arf.alloc_peak_mb": "arf.is_arf",
    "cli.alloc_peak_mb": "cli.emit",
}
# Name, unit; the order BENCHMARK.json lists them in.
METRICS = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("denumerant.fill_s", "s"),
        ("denumerant.entries", "count"),
        ("semigroup.build_s", "s"),
        ("semigroup.build_self_s", "s"),
        ("semigroup.builds", "count"),
        ("semigroup.sums_s", "s"),
        ("semigroup.apery_set_s", "s"),
        ("symmetry.pseudo_frobenius_s", "s"),
        ("symmetry.hlk_s", "s"),
        ("symmetry.classify_self_s", "s"),
        ("symmetry.verify_s", "s"),
        ("symmetry.pf_cache_hit_ratio", "ratio"),
        ("symmetry.pf_cache_lookups", "count"),
        ("arf.is_arf_s", "s"),
        ("arf.verify_s", "s"),
        ("identities.verify_s", "s"),
        ("cli.output_bytes", "bytes"),
    ]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [(name, "MB") for name in PEAKS]
    + [("trace.overhead_frac", "ratio"), ("trace.memory_skipped", "count")]
)


def span_metrics(traces: list[dict]) -> dict[str, float]:
    """Sum the span-derived metrics over one traced pass.  Each trace is
    the tracer's document for one invocation."""
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    out = defaultdict(float, {f"{layer}.{m}": 0.0 for layer in LAYERS for m in ("self_s", "errors")})
    hits = lookups = 0
    for trace in traces:
        spans = trace["spans"]
        child_ns = [0] * len(spans)
        has_table = [False] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        # Children follow their parents, so one backward sweep propagates
        # "a table was filled below" up the tree.
        for i in range(len(spans) - 1, -1, -1):
            name, _, _, parent, _ = spans[i]
            if parent >= 0 and (has_table[i] or name in TABLE_SPANS):
                has_table[parent] = True
        for i, (name, start, end, parent, error) in enumerate(spans):
            self_s[name] += (end - start - child_ns[i]) / 1e9
            total_s[name] += (end - start) / 1e9
            layer = name.split(".")[0]
            if error and (parent < 0 or spans[parent][0].split(".")[0] != layer):
                out[f"{layer}.errors"] += 1
            if name in TABLE_SPANS and (parent < 0 or spans[parent][0] not in TABLE_SPANS):
                out["denumerant.fill_s"] += (end - start) / 1e9
            if name == "semigroup.build" and has_table[i]:
                out["semigroup.builds"] += 1
        out["denumerant.entries"] += trace["entries"]
        if trace["pf_cache"]:
            hits += trace["pf_cache"][0]
            lookups += sum(trace["pf_cache"])
    for name, value in self_s.items():
        out[f"{name.split('.')[0]}.self_s"] += value
    out["semigroup.build_s"] = total_s["semigroup.build"]
    out["semigroup.build_self_s"] = self_s["semigroup.build"]
    out["semigroup.apery_set_s"] = total_s["semigroup.apery_set"]
    out["semigroup.sums_s"] = sum(self_s[n] for n in SUMS)
    out["symmetry.pseudo_frobenius_s"] = self_s["symmetry.pseudo_frobenius"]
    out["symmetry.hlk_s"] = self_s["symmetry.hlk_sets"]
    out["symmetry.classify_self_s"] = self_s["symmetry.classify"]
    out["symmetry.verify_s"] = sum(self_s[n] for n in SYMMETRY_VERIFIERS)
    out["symmetry.pf_cache_lookups"] = lookups
    out["symmetry.pf_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    out["arf.is_arf_s"] = self_s["arf.is_arf"]
    out["arf.verify_s"] = sum(self_s[n] for n in ARF_VERIFIERS)
    out["identities.verify_s"] = sum(self_s[n] for n in IDENTITIES)
    return dict(out)


def peak_metrics(traces: list[dict]) -> dict[str, float]:
    """Largest tracemalloc peak per target over one memory pass, in MB."""
    out = {name: 0.0 for name in PEAKS}
    for trace in traces:
        for target, peak in trace["memory"]:
            for name, fn in PEAKS.items():
                if fn == target:
                    out[name] = max(out[name], peak / 2**20)
    return out
