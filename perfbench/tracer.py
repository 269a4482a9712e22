"""Layer spans and work counters, recorded from outside the program.

The tracer wraps public functions of each ``degenctrl`` module. A wrapper
is installed by rebinding every ``degenctrl.*`` module attribute that
holds the original function object, so names imported into another
module (``cli`` imports ``hum_control``; ``control`` imports
``evolve_mode``) and in-module calls are caught alike. ``uninstall``
puts the originals back.

Each call records a span: name, layer, start, end and parent. Spans stay
in memory until the run ends. A layer's self time is the duration of its
spans minus the part covered by their child spans. Work counters are
derived only from call arguments and return values, so they repeat
exactly between runs. A wrapped function that does not exist (a module
removed, a function renamed) is skipped with a note; its counters stay 0.
"""

import importlib
import inspect
import json
import math
import sys
import threading
import time
from pathlib import Path

# growth factors of the precision retry loops in torus_smallest_gram_eigenvalue
# and truncated_observability, and the latter's margin over its angular Gram
_GRAM_DPS_GROWTH = 2.0
_COUPLED_DPS_GROWTH = 1.5
_COUPLED_DPS_MARGIN = 30
# lr_control starts every block's penalty search here, dividing by 10
_LR_EPS0 = 1e-4


def _gram_dps0(K: int) -> int:
    """First working precision of torus_smallest_gram_eigenvalue at cap K."""
    return max(30, 20 + int(math.ceil(4.0 * K)))


def _arg(call, name):
    """Value of parameter ``name`` in a recorded call, defaults applied."""
    sig, args, kwargs = call
    if name in kwargs:
        return kwargs[name]
    names = list(sig.parameters)
    pos = names.index(name)
    if pos < len(args):
        return args[pos]
    return sig.parameters[name].default


def _on_evolve_mode(tr, call, result, span):
    n_time = _arg(call, "tgrid").n_time
    size = len(_arg(call, "phi0"))
    tr.count("evolution.marches", 1)
    tr.count("evolution.cn_steps", n_time)
    tr.count("evolution.state_mb", (n_time + 1) * size * 8 / 1e6)


def _on_radial_spectrum(tr, call, result, span):
    tr.count("spectral.eigenpairs", int(result.values.size))


def _on_synthesize_field(tr, call, result, span):
    tr.count("model.synth_calls", 1)


def _on_field_at(tr, call, result, span):
    tr.count("measurable.field_evals", 1)


def _on_carleman_report(tr, call, result, span):
    tr.count("carleman.rows", len(result.rows))


def _on_gram(tr, call, result, span):
    dps = result.dps_used
    tr.count("observability.gram_calls", 1)
    tr.peak("observability.dps_max", dps)
    start = _gram_dps0(_arg(call, "K"))
    tr.count("observability.dps_escalations",
             round(math.log(dps / start, _GRAM_DPS_GROWTH)))
    tr.notes_by_span[span] = dps


def _on_estimate(tr, call, result, span):
    route = result.precision
    tr.count("observability.estimates", 1)
    if route == "float64":
        tr.count("observability.float64_routes", 1)
    if not route.startswith("mp(dps="):
        return
    dps = int(route[len("mp(dps="):-1])
    tr.count("observability.mp_routes", 1)
    tr.peak("observability.dps_max", dps)
    # the coupled route starts 30 digits above its angular Gram's precision
    gram_dps = [tr.notes_by_span[i] for i in tr.children(span)
                if i in tr.notes_by_span]
    if gram_dps:
        level = gram_dps[-1] + _COUPLED_DPS_MARGIN
        steps = 0
        while level < dps:
            level = int(level * _COUPLED_DPS_GROWTH)
            steps += 1
        tr.count("observability.dps_escalations", steps)


def _on_jacobi_mp(tr, call, result, span):
    tr.count("jacobi.mp_calls", 1)
    tr.count("jacobi.mp_dim_sum", _arg(call, "matrix").rows)


def _on_jacobi_float(tr, call, result, span):
    tr.count("jacobi.float_calls", 1)


def _on_hum(tr, call, result, span):
    iters = result.iterations
    tr.count("control.cg_iterations", iters)
    # residual_history[i] is the best relative residual after i iterations
    hist = result.residual_history
    if iters and hist:
        tr.count("control.cg_useful", hist.index(hist[-1]))
    allowance = 10.0 * _arg(call, "cg_tol") * result.phi0_norm
    if allowance > 0:
        tr.peak("control.identity_gap_slack", result.identity_gap / allowance)


def _on_lr(tr, call, result, span):
    tries = sum(round(math.log10(_LR_EPS0 / eps)) + 1
                for eps in result.epsilons)
    tr.count("control.lr_penalty_tries", tries)


def _on_measurable(tr, call, result, span):
    tr.count("measurable.data", len(result.per_datum))
    tr.count("measurable.excluded", sum(r.excluded for r in result.per_datum))


def _on_parallel_map(tr, call, result, span):
    tr.count("runtime.items", len(result))


def _on_cli_run(tr, call, result, span):
    out = Path(_arg(call, "out_dir"))
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError):
        return
    tr.count("cli.artifact_mb", sum((out / a["name"]).stat().st_size
                                    for a in manifest.get("artifacts", []))
             / 1e6)


# (layer, function path inside degenctrl.<layer>, counter hook)
WRAPPED = (
    ("model", "build_model", None),
    ("model", "synthesize_field", _on_synthesize_field),
    ("model", "project_modes", None),
    ("spectral", "assemble_radial_operator", None),
    ("spectral", "radial_spectrum", _on_radial_spectrum),
    ("spectral", "bessel_oracle", None),
    ("spectral", "hardy_ratio", None),
    ("evolution", "evolve_mode", _on_evolve_mode),
    ("evolution", "solve_forward", None),
    ("evolution", "solve_forward_sources", None),
    ("evolution", "solve_adjoint", None),
    ("carleman", "build_eta", None),
    ("carleman", "carleman_report", _on_carleman_report),
    ("observability", "torus_smallest_gram_eigenvalue", _on_gram),
    ("observability", "mode_observability_constant", _on_estimate),
    ("observability", "truncated_observability", _on_estimate),
    ("control", "hum_control", _on_hum),
    ("control", "lr_control", _on_lr),
    ("measurable", "datum_family", None),
    ("measurable", "build_time_slices", None),
    ("measurable", "density_sequence", None),
    ("measurable", "measurable_observability_ratio", _on_measurable),
    ("measurable", "SpectralPropagator.field_at", _on_field_at),
    ("jacobi", "jacobi_eigh", _on_jacobi_float),
    ("jacobi", "jacobi_eigh_mp", _on_jacobi_mp),
    ("jacobi", "generalized_largest_eigenpair", None),
    ("cli", "parse_config", None),
    ("cli", "run", _on_cli_run),
)
# counted but given no span: the time inside belongs to the callbacks it runs,
# closures of the calling layer that no wrapper can see
COUNTED_ONLY = (
    ("runtime", "parallel_map", _on_parallel_map),
)

# per-layer metrics reported by the traced run, in BENCHMARK.json order
PER_LAYER = (
    ("evolution.self_s", "s"), ("evolution.marches", "count"),
    ("evolution.cn_steps", "count"), ("evolution.state_mb", "MB"),
    ("control.self_s", "s"), ("control.cg_iterations", "count"),
    ("control.cg_useful_frac", "ratio"),
    ("control.identity_gap_slack", "ratio"),
    ("control.lr_penalty_tries", "count"),
    ("jacobi.self_s", "s"), ("jacobi.mp_calls", "count"),
    ("jacobi.mp_dim_sum", "count"), ("jacobi.float_calls", "count"),
    ("observability.self_s", "s"), ("observability.gram_calls", "count"),
    ("observability.dps_max", "digits"),
    ("observability.dps_escalations", "count"),
    ("observability.mp_routes", "count"),
    ("observability.float64_frac", "ratio"),
    ("cli.self_s", "s"), ("cli.parse_s", "s"), ("cli.artifact_mb", "MB"),
    ("measurable.self_s", "s"), ("measurable.field_evals", "count"),
    ("measurable.excluded_frac", "ratio"),
    ("spectral.self_s", "s"), ("spectral.assemble_s", "s"),
    ("spectral.eigensolve_s", "s"), ("spectral.eigenpairs", "count"),
    ("model.self_s", "s"), ("model.synth_calls", "count"),
    ("carleman.self_s", "s"), ("carleman.rows", "count"),
    ("runtime.workers", "count"),
    ("runtime.items", "count"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)


class Tracer:
    """Span recorder for the wrapped functions of one process."""

    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent index]
        self.notes = []          # wrapped functions that could not be found
        self.notes_by_span = {}
        self.counters = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._failed_hooks = set()
        self._installed = []     # (owner, attribute, original)

    # -- recording -------------------------------------------------------
    def count(self, key, amount):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key, value):
        with self._lock:
            self.counters[key] = max(self.counters.get(key, 0), value)

    def begin_op(self) -> int:
        """Start a traced op; returns the index of its first span."""
        self.counters = {}
        return len(self.spans)

    def children(self, index):
        return [i for i in range(index + 1, len(self.spans))
                if self.spans[i][4] == index]

    def _note(self, text):
        if text not in self.notes:
            self.notes.append(text)

    def _run_hook(self, hook, name, call, result, index):
        try:
            hook(self, call, result, index)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            if name not in self._failed_hooks:
                self._failed_hooks.add(name)
                self._note(f"{name}: counters skipped ({exc!r})")

    def _wrap(self, fn, name, layer, hook, with_span):
        sig = inspect.signature(fn)
        spans = self.spans
        local = self._local
        lock = self._lock
        clock = time.perf_counter

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._run_hook(hook, name, (sig, args, kwargs), result, -1)
            return result

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                self._run_hook(hook, name, (sig, args, kwargs), result, index)
            return result

        wrapper = traced if with_span else counted
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "degenctrl"
                                         or n.startswith("degenctrl."))]
        wanted = ([w + (True,) for w in WRAPPED]
                  + [w + (False,) for w in COUNTED_ONLY])
        for layer, path, hook, with_span in wanted:
            name = f"{layer}.{path}"
            try:
                owner = importlib.import_module(f"degenctrl.{layer}")
            except ImportError:
                self._note(f"{name}: module degenctrl.{layer} missing")
                continue
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                self._note(f"{name}: not found")
                continue
            wrapper = self._wrap(original, name, layer, hook, with_span)
            if outer:     # a method: one class attribute serves every caller
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- per-op summary --------------------------------------------------
    def op_metrics(self, first_span: int) -> dict:
        """Per-layer metrics of the op begun at ``first_span``.

        Returns every PER_LAYER key except ``trace.overhead_s``, which
        compares whole ops and is left to the caller.
        """
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= first_span:
                child_time[parent - first_span] += end - start
        own = {}   # self time per layer and per wrapped function
        for (name, layer, start, end, _), covered in zip(spans, child_time):
            for key in (f"{layer}.self_s", name):
                own[key] = own.get(key, 0.0) + (end - start) - covered

        def ratio(num, den):
            total = self.counters.get(den, 0)
            return self.counters.get(num, 0) / total if total else 0.0

        derived = {
            "cli.parse_s": sum(end - start for name, _, start, end, _ in spans
                               if name == "cli.parse_config"),
            "spectral.assemble_s": own.get(
                "spectral.assemble_radial_operator", 0.0),
            "spectral.eigensolve_s": own.get("spectral.radial_spectrum", 0.0),
            "control.cg_useful_frac": ratio("control.cg_useful",
                                            "control.cg_iterations"),
            "observability.float64_frac": ratio(
                "observability.float64_routes", "observability.estimates"),
            "measurable.excluded_frac": ratio("measurable.excluded",
                                              "measurable.data"),
            "runtime.workers": _thread_cap(),
            "trace.spans": len(spans),
        }
        out = {}
        for key, _ in PER_LAYER:
            if key in derived:
                out[key] = derived[key]
            elif key.endswith(".self_s"):
                out[key] = own.get(key, 0.0)
            elif key != "trace.overhead_s":
                out[key] = self.counters.get(key, 0)
        return out


def _thread_cap() -> int:
    """Worker cap of degenctrl.runtime, or 0 when that layer is gone."""
    try:
        runtime = importlib.import_module("degenctrl.runtime")
    except ImportError:
        return 0
    cap = getattr(runtime, "thread_cap", None)
    return cap() if cap is not None else 0
