"""Outside-in tracer for one bktame CLI invocation.

Nothing under ``src/`` knows about it.  ``install`` replaces the public
functions of each bktame module with span wrappers and rebinds every
``bktame.*`` module attribute (and module-level dict value) that held the
original object, because the modules import each other's functions by
name.  The hottest methods get count-only wrappers so a traced run stays
affordable, and ``lru_cache`` functions are rewrapped around their inner
function so that only misses open spans; hits and misses come from
``cache_info()``.

Spans live in flat arrays while the invocation runs and are written out
once, at the end (``write_spans``).  ``metrics`` folds them into the
per-layer numbers the benchmark reports.  A function that a later version
of bktame no longer has is reported under ``absent`` instead of failing.
"""

import fnmatch
import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("gfarith", "tametypes", "rankone", "shapes", "weights", "intlinalg", "cli")

# methods that get full spans (module-level public functions always do)
SPAN_METHODS = {
    "gfarith": {"FieldSpec": ("multiplicative_generator",)},
    "intlinalg": {"IntegerColumnSolver": ("__init__", "solve")},
}

# hot methods: counted, never timed
COUNT_METHODS = {
    "gfarith.field_mul": ("gfarith", "FieldElem", ("__mul__", "__rmul__")),
    "gfarith.field_inv": ("gfarith", "FieldElem", ("inverse",)),
    "tametypes.ctx_props": ("tametypes", "LocalContext", ("fprime", "ekk", "eprime")),
}

# per-layer metric group -> span-name patterns it sums over
GROUPS = {
    "gfarith.gauss_rank": ("gfarith.gauss_rank",),
    "gfarith.multiplicative_generator": ("gfarith.FieldSpec.multiplicative_generator",),
    "gfarith.nullspace_basis": ("gfarith.nullspace_basis",),
    "gfarith.build_field": ("gfarith.build_field",),
    "tametypes.enumerate_types": ("tametypes.enumerate_types",),
    "tametypes.gamma_digits": ("tametypes.gamma_digits",),
    "rankone.validate": ("rankone.validate",),
    "rankone.alpha": ("rankone.alpha",),
    "rankone.hom_dim": ("rankone.hom_dim",),
    "shapes.oracle": ("shapes.ext_dim_oracle", "shapes.hom_dim_oracle"),
    "shapes.kext_dim_oracle": ("shapes.kext_dim_oracle",),
    "shapes.build_MN": ("shapes.build_MN",),
    "shapes.enumerate": ("shapes.shapes_for", "shapes.refined_shapes",
                         "shapes.p_tau", "shapes.maximal_refined"),
    "intlinalg.factor": ("intlinalg.IntegerColumnSolver.__init__",),
    "intlinalg.solve": ("intlinalg.IntegerColumnSolver.solve",),
    "weights.solve_n_tau": ("weights.solve_n_tau",),
    "weights.verify_orthogonality": ("weights.verify_orthogonality",),
    "weights.c_sigma_cycle": ("weights.c_sigma_cycle",),
    "cli.render": ("cli.render",),
    "cli.command": ("cli.cmd_*",),
}

# counters of result sizes: span name -> metric (len of the result; bytes for text)
SIZED = {
    "shapes.refined_shapes": "shapes.refined_shapes.count",
    "tametypes.enumerate_types": "tametypes.enumerate_types.types",
    "cli.render": "cli.render.bytes",
}
CELLS = "gfarith.gauss_rank.cells"

# waste ratios: metric -> span names whose distinct bound arguments are counted
UNIQUE = {
    "shapes.oracle.unique_ratio": ("shapes.ext_dim_oracle", "shapes.hom_dim_oracle"),
    "weights.solve_n_tau.unique_ratio": ("weights.solve_n_tau",),
}

# lru_cache functions whose hits and misses are reported
CACHED = ("gfarith.build_field", "weights.jh_factors")


class Tracer:
    """Span and counter store for a single invocation."""

    def __init__(self, invocation):
        self.invocation = invocation
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats = {}        # span name -> [calls, self seconds]
        self.counters = {}     # counter name -> [count]
        self.keys = {}         # unique-ratio metric -> [set of keys, calls]
        self.caches = {}       # cached function name -> its new lru wrapper
        self._stack = []       # indices of open spans
        self._covered = []     # child time inside each open span

    def _counter(self, name):
        return self.counters.setdefault(name, [0])

    def span(self, name, fn, on_call=None, on_result=None):
        """Wrap fn so each call records one span; hooks see args/result."""
        nid = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, [0, 0.0])
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, covered = self._stack, self._covered
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            covered.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = covered.pop()
                starts[idx] = t0
                ends[idx] = t1
                stat[0] += 1
                stat[1] += (t1 - t0) - inner
                if covered:
                    covered[-1] += t1 - t0
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, name, fn):
        """Wrap fn so each call only bumps a counter."""
        cell = self._counter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks -----------------------------------------------------------

    def _hooks(self, name, fn):
        """(on_call, on_result) feeding the counters and key sets of a span."""
        on_call = on_result = None
        if name == "gfarith.gauss_rank":
            cells = self._counter(CELLS)

            def on_call(args, kwargs):
                rows = args[0] if args else kwargs["rows"]
                cells[0] += len(rows) * (len(rows[0]) if rows else 0)
        for metric, sources in UNIQUE.items():
            if name in sources:
                sig = inspect.signature(fn)
                entry = self.keys.setdefault(metric, [set(), 0])

                def on_call(args, kwargs):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    entry[0].add(tuple(bound.arguments.values()))
                    entry[1] += 1
        if name in SIZED:
            size = self._counter(SIZED[name])

            def on_result(result):
                size[0] += len(result.encode("utf-8") if isinstance(result, str) else result)
        return on_call, on_result

    # -- installation ----------------------------------------------------

    def install(self, package="bktame"):
        """Wrap every public function of each layer and rebind all aliases."""
        mods = {layer: importlib.import_module("%s.%s" % (package, layer)) for layer in LAYERS}
        replace = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__ or not callable(obj):
                    continue
                name = "%s.%s" % (layer, attr)
                inner = getattr(obj, "__wrapped__", None)
                if hasattr(obj, "cache_info") and inner is not None:
                    params = obj.cache_parameters()
                    wrapped = functools.lru_cache(**params)(
                        self.span(name, inner, *self._hooks(name, inner)))
                    self.caches[name] = wrapped
                elif inspect.isfunction(obj):
                    wrapped = self.span(name, obj, *self._hooks(name, obj))
                else:
                    continue
                replace[id(obj)] = (obj, wrapped)
            for cls_name, methods in SPAN_METHODS.get(layer, {}).items():
                cls = vars(mod).get(cls_name)
                for meth in methods:
                    if cls is not None and meth in vars(cls):
                        name = "%s.%s.%s" % (layer, cls_name, meth)
                        setattr(cls, meth, self.span(name, vars(cls)[meth]))
        for counter, (layer, cls_name, methods) in COUNT_METHODS.items():
            cls = vars(mods[layer]).get(cls_name)
            for meth in methods:
                if cls is not None and meth in vars(cls):
                    setattr(cls, meth, self.count(counter + ".calls", vars(cls)[meth]))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                _rebind(mod, replace)

    # -- results -----------------------------------------------------------

    def write_spans(self, path):
        """One JSON header line, then the name/parent/start/end arrays."""
        header = {"invocation": self.invocation, "names": self.names,
                  "count": len(self.span_name),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)

    def metrics(self):
        """(per-layer metric values, names of metrics whose functions are gone)."""
        out, absent = {}, []
        for group, patterns in GROUPS.items():
            hit = [n for n in self.stats if any(fnmatch.fnmatchcase(n, p) for p in patterns)]
            if not hit:
                absent.append(group)
            out[group + ".calls"] = sum(self.stats[n][0] for n in hit)
            out[group + ".self_s"] = sum(self.stats[n][1] for n in hit)
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(s[1] for n, s in self.stats.items()
                                         if n.startswith(layer + "."))
        # a counter exists once its hook or wrapper is installed
        for metric in (CELLS, *SIZED.values(), *(c + ".calls" for c in COUNT_METHODS)):
            out[metric] = self.counters.get(metric, [0])[0]
            if metric not in self.counters:
                absent.append(metric)
        for metric in UNIQUE:
            keys, calls = self.keys.get(metric, (set(), 0))
            out[metric] = len(keys) / calls if calls else 0.0
            if metric not in self.keys:
                absent.append(metric)
        for name in CACHED:
            info = self.caches[name].cache_info() if name in self.caches else None
            out[name + ".hits"] = info.hits if info else 0
            out[name + ".misses"] = info.misses if info else 0
            if info is None:
                absent.append(name)
        out["trace.spans"] = len(self.span_name)
        return out, sorted(set(absent))


def _rebind(mod, replace):
    """Point every attribute (and module-level dict value) at its wrapper."""
    for attr, val in list(vars(mod).items()):
        hit = replace.get(id(val))
        if hit is not None and hit[0] is val:
            setattr(mod, attr, hit[1])
        elif isinstance(val, dict):
            for key, item in list(val.items()):
                hit = replace.get(id(item))
                if hit is not None and hit[0] is item:
                    val[key] = hit[1]


def load_spans(path):
    """Read a file written by Tracer.write_spans: (header, list of span tuples)."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        arrays = []
        for spec in header["arrays"]:
            arr = array(spec.split(":")[1])
            arr.fromfile(handle, header["count"])
            arrays.append(arr)
    names = header["names"]
    spans = [(names[n], parent, start, end) for n, parent, start, end in zip(*arrays)]
    return header, spans
