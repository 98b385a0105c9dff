"""The layer table of the benchmark: which public functions of each weylkit
module the traced run wraps, which workloads reach each layer, and which
end-to-end metric a change to the layer should move.

The table is the prediction written down before measuring (see the
choosing-metrics method): `reaches` lists the workloads on which the layer's
call count must be nonzero; on every other workload it must be zero.
"""

WORKLOADS = ("group_queries", "complex_queries", "ddaha_assoc")

# layer -> (functions to wrap, workloads that reach the layer, predicted move)
# A function is "name" for a module-level function or "Class.name" for a
# method; its metric name drops the class: `weyl.simple`, `poly.__mul__`.
LAYERS = {
    "cli": (
        ("main",),
        ("group_queries", "complex_queries"),
        "op_p50_ms on group_queries, the only workload whose ops are small "
        "enough for argparse and JSON output to show",
    ),
    "root_system": (
        ("FiniteRootSystem.is_root", "AffineRootSystem.contains"),
        WORKLOADS,
        "ops_per_s on complex_queries: is_root rebuilds a frozenset per call",
    ),
    "linalg": (
        ("mat_vec", "mat_mul", "mat_inv", "nullspace", "rank"),
        WORKLOADS,
        "ops_per_s on all three; an integer group kernel takes mat_inv near 0",
    ),
    "weyl": (
        (
            "ExtAffineWeylElement.__mul__",
            "ExtAffineWeylElement.inverse",
            "ExtAffineWeylElement.simple",
            "length",
            "has_left_descent",
            "has_right_descent",
            "reduced_word",
            "reflections_T",
            "enumerate_ball",
            "min_coset_rep",
            "double_coset_min_rep",
            "reflection_root_of",
        ),
        WORKLOADS,
        "simple: ops_per_s/op_p50_ms on group_queries and ddaha_assoc; "
        "length: op_p90_ms on complex_queries; reduced_word/has_left_descent: "
        "op_p90_ms on group_queries and op_p50_ms on ddaha_assoc",
    ),
    "relative": (
        (
            "ParabolicSubset.longest_element",
            "ParabolicSubset.elements",
            "is_admissible",
            "relative_system",
            "in_relative_group",
            "relative_length",
            "relative_ball",
        ),
        ("complex_queries",),
        "op_p90_ms and ops_per_s on complex_queries; no change elsewhere",
    ),
    "coxcomplex": (
        ("facet", "span", "facets_in_ball", "relative_position", "fixed_chambers"),
        ("complex_queries",),
        "complex_queries only",
    ),
    "spiral": (
        ("spiral_from_facet", "levi_decomposition_check"),
        ("complex_queries",),
        "op_p50_ms on complex_queries",
    ),
    "poly": (
        ("Poly.__mul__", "Poly.substitute", "weyl_action", "divide_linear"),
        ("ddaha_assoc",),
        "ddaha_assoc only",
    ),
    "ddaha": (
        ("multiply", "cross_multiply", "DdahaAlgebra._word"),
        ("ddaha_assoc",),
        "ops_per_s/op_p50_ms on ddaha_assoc; no change elsewhere",
    ),
}


def _system(ambient):
    finite = ambient.finite_base
    return (finite.type_label, finite.rank, ambient.affine)


# Cache candidates: metric name -> argument key, so the traced run can count
# distinct keys against calls.  Keys are values, never object ids, so that
# the counts repeat exactly between runs.
CACHE_KEYS = {
    "weyl.simple": lambda ambient, label: (_system(ambient), label),
    "relative.longest_element": lambda p: (_system(p.ambient), tuple(sorted(p.sigma))),
    "ddaha.cross_multiply": lambda algebra, label, f: (_system(algebra.ambient), label, f),
    "ddaha._word": lambda algebra, g: (_system(g.ambient), g.mu, g.matrix),
}

# The exception whose raises are counted as wasted work: in_relative_group
# swallows the NotAReflection that reflection_root_of raises.
RAISE_COUNTED = ("weyl.reflection_root_of", "NotAReflection")


def functions():
    """(layer, qualified function, metric name) for every wrapped function."""
    out = []
    for layer, (names, _, _) in LAYERS.items():
        for qual in names:
            out.append((layer, qual, f"{layer}.{qual.rsplit('.', 1)[-1]}"))
    return out


def per_layer_metrics():
    """(name, unit, better) for every metric the traced run reports."""
    out = []
    for _, _, name in functions():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
    for name in CACHE_KEYS:
        out.append((f"{name}.distinct", "count", "lower"))
        out.append((f"{name}.useful_ratio", "ratio", "higher"))
    out.append((f"{RAISE_COUNTED[0]}.raised", "count", "lower"))
    out.append(("trace_overhead_s", "s", "lower"))
    return out
