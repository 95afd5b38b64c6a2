"""Layer trace recorded from outside the program.

``install()`` replaces chosen modgeo functions and methods by wrappers,
everywhere they are bound (a name imported with ``from .x import f`` is
replaced too).  Nothing in ``src/`` changes.  Two kinds of wrapper:

* span: records one span per call -- name, start, end and the span that
  caused it -- plus the call count and the self time (the span minus
  the time its child spans cover; spans nest, so that is the sum of the
  children's durations);
* count: only counts calls.  Used for functions called hundreds of
  thousands of times, where a span would cost more than the call; their
  time stays in the self time of the spanned caller.

Spans are kept in memory.  The benchmark installs the trace in its fork
server before forking, so each command's child starts with empty
records and ``summary()`` / ``write_spans()`` read them once the command
has ended.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# module -> functions ("name") or methods ("Class.name") that get a span.
# Beyond what the metrics name, every public function the CLI reaches
# gets a span, so that a caller's self time holds only its own work.
SPANS = {
    "cli": ["main"],
    "parse": ["parse_value", "parse_slope", "format_value", "format_slope",
              "parse_intpoly", "format_intpoly"],
    "exact": ["squarefree_split", "log_decimal", "to_decimal", "minpoly",
              "sqrt_rational", "exact_floor"],
    "cfrac": ["cf_expand", "gl2z_equivalent", "pell_fundamental_unit",
              "convergent"],
    "qforms": ["enumerate_reduced", "proper_classes", "cycle_of", "compose",
               "class_group", "wide_class_group", "order_unit",
               "cycle_automorph", "class_to_geodesic", "principal_form",
               "is_fundamental", "ClosedGeodesic.length_numeric",
               "FormClassGroup.class_index"],
    "mtgroups": ["point_from_conjugator", "classify_bmt", "classify_mt",
                 "dynamical_type", "rm_point_count", "quadratic_slope_disc"],
    "nctorus": ["lilac_iso", "morita_equivalent", "k0_positive",
                "pseudolattice_member", "leaf_equal",
                "count_level_structures", "pair_to_geodesic"],
    "fields": ["number_field", "isolate_real_roots", "quad_field_radicand",
               "subfield_embed", "enumerate_rm_types", "certify_direct_sum",
               "hilbert_special_point", "verify_hilbert_lilac",
               "siegel_special_point", "find_compatible_symplectic",
               "verify_psi"],
    "polyutil": ["isolate_roots", "sturm_chain"],
    "intervals": ["eval_poly_interval"],
}

# module -> hot functions or methods that are only counted
COUNTS = {
    "qforms": ["rho_step", "IndefForm.__post_init__"],
    "exact": ["QuadElem.__post_init__"],
    "polyutil": ["RealRoot.refine"],
}

# counts taken from return values: span name -> (count name, function)
RESULT_COUNTS = {
    "cfrac.cf_expand": ("cfrac.quotients",
                        lambda r: len(r.preperiod) + len(r.period)),
    "fields.verify_psi": ("fields.verify_psi.accepted",
                          lambda r: int(r.accepted)),
}

# a metric name whose record goes by another name
ALIASES = {
    "qforms.IndefForm.made": "qforms.IndefForm.__post_init__.calls",
    "exact.QuadElem.made": "exact.QuadElem.__post_init__.calls",
}

_names: list[str] = []
_spanned: list[bool] = []
_calls: list[int] = []
_self_ns: list[int] = []
_extra: dict[str, int] = {}
# (span id, parent id, name index, start ns, end ns); the root has id 0
_spans: list[tuple[int, int, int, int, int]] = []
_ids = [0]           # ids of the open spans, root first
_child_ns = [0]      # time covered by the children of each open span
_next_id = [1]


def _register(name: str, spanned: bool) -> int:
    _names.append(name)
    _spanned.append(spanned)
    _calls.append(0)
    _self_ns.append(0)
    return len(_names) - 1


def _span(fn, name):
    idx = _register(name, True)
    hook = RESULT_COUNTS.get(name)
    clock = time.perf_counter_ns

    def wrapped(*args, **kwargs):
        sid = _next_id[0]
        _next_id[0] = sid + 1
        _ids.append(sid)
        _child_ns.append(0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            _ids.pop()
            dur = t1 - t0
            _self_ns[idx] += dur - _child_ns.pop()
            _child_ns[-1] += dur
            _calls[idx] += 1
            _spans.append((sid, _ids[-1], idx, t0, t1))
        if hook is not None:
            key, count = hook
            _extra[key] = _extra.get(key, 0) + count(result)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


def _count(fn, name):
    idx = _register(name, False)

    def wrapped(*args, **kwargs):
        _calls[idx] += 1
        return fn(*args, **kwargs)

    wrapped.__wrapped__ = fn
    return wrapped


def _replace_everywhere(modules, old, new) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install() -> None:
    """Wrap every function named in SPANS and COUNTS.  Call once, after
    ``modgeo.cli`` is imported."""
    modules = {name: importlib.import_module(f"modgeo.{name}")
               for name in sorted(set(SPANS) | set(COUNTS))}
    every = [m for name, m in sys.modules.items()
             if name == "modgeo" or name.startswith("modgeo.")]
    for table, make in ((SPANS, _span), (COUNTS, _count)):
        for modname, targets in table.items():
            mod = modules[modname]
            for target in targets:
                name = f"{modname}.{target}"
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, make(vars(cls)[meth], name))
                else:
                    old = getattr(mod, target)
                    _replace_everywhere(every, old, make(old, name))


def summary() -> dict[str, float]:
    """Counts and self times (ms) of everything recorded so far, keyed
    ``<module>.<function>.calls`` / ``.ms``, plus ``<module>.ms`` (the
    module's total self time) and the result counts."""
    out: dict[str, float] = {}
    modules: dict[str, int] = {}
    for name, spanned, calls, self_ns in zip(_names, _spanned, _calls, _self_ns):
        out[f"{name}.calls"] = calls
        if spanned:
            out[f"{name}.ms"] = self_ns / 1e6
        mod = name.split(".")[0]
        modules[mod] = modules.get(mod, 0) + self_ns
    for mod, ns in modules.items():
        out[f"{mod}.ms"] = ns / 1e6
    for key, count in RESULT_COUNTS.values():
        out[key] = _extra.get(key, 0)
    for alias, source in ALIASES.items():
        out[alias] = out[source]
    return out


def write_spans(path: str) -> None:
    """Write the recorded spans, one JSON array per line:
    [id, parent id, name, start ns, end ns]."""
    with open(path, "w") as f:
        for sid, parent, idx, t0, t1 in _spans:
            f.write(json.dumps([sid, parent, _names[idx], t0, t1]) + "\n")
