"""Per-layer tracing from outside the package.

A ``Tracer`` replaces the public functions at each module boundary of
``flowtune`` with wrappers that record one span per call (name, start,
end, parent) in memory, and keeps work counters next to the spans. Every
alias of a wrapped function inside the package (``from .model import
is_valid`` in ``sim``, the re-exports in ``flowtune/__init__``) is
replaced, so calls between layers are seen wherever they come from.
Nothing under ``src/`` is edited; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

#: (module, attribute) pairs wrapped at each layer boundary. A dotted
#: attribute names a method on a class of that module.
LAYER_FUNCTIONS = (
    ("model", "is_valid"),
    ("model", "EconomyGraph.with_weights"),
    ("model", "normalize_gate_weights"),
    ("model", "load_economy"),
    ("model", "save_economy"),
    ("sim", "simulate_ensemble"),
    ("sim", "simulate"),
    ("sim", "ensemble_to_csv"),
    ("generator", "generate"),
    ("balancer", "balance"),
    ("bench", "run_benchmark"),
    ("cli", "main"),
)


class Tracer:
    """Spans and counters for one traced round; install, run, uninstall."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.calls = Counter()
        self.counters = Counter()
        self.failures = []
        self._stack = []
        self._restore = []

    # --- wrapping ----------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "sim.simulate": self._after_simulate,
            "sim.ensemble_to_csv": self._after_csv,
            "generator.generate": self._after_generate,
            "balancer.balance": self._after_balance,
        }
        for module_name, attr in LAYER_FUNCTIONS:
            module = sys.modules[f"flowtune.{module_name}"]
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                original = vars(cls)[method]
                self._patch(cls, method, self._wrap(f"{module_name}.{method}", original, None))
                continue
            original = getattr(module, attr)
            name = f"{module_name}.{attr}"
            if name == "balancer.balance":
                self._balance_signature = inspect.signature(original)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "flowtune" and not mod_name.startswith("flowtune."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, after):
        spans, stack, calls = self.spans, self._stack, self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            ensembles_before = calls["sim.simulate_ensemble"]
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, ensembles_before)
            return result

        wrapper.__wrapped__ = fn  # lets the output checks call the untraced function
        return wrapper

    # --- counters at the boundaries ------------------------------------------

    def _after_simulate(self, args, kwargs, trace, ensembles_before) -> None:
        self.counters["sim.run_steps"] += args[1] if len(args) > 1 else kwargs["n"]

    def _after_csv(self, args, kwargs, text, ensembles_before) -> None:
        self.counters["sim.ensemble_to_csv.bytes"] += len(text.encode("utf-8"))

    def _after_generate(self, args, kwargs, result, ensembles_before) -> None:
        self.counters["generator.generations"] += result.generations
        self.counters["generator.valid"] += int(result.valid)

    def _after_balance(self, args, kwargs, report, ensembles_before) -> None:
        bound = self._balance_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        objective, params = bound.arguments["objective"], bound.arguments["params"]
        economies = 2 if objective.kind.value == "inter_pair" else 1
        ensembles = self.calls["sim.simulate_ensemble"] - ensembles_before
        # the report simulates each observed economy once more after the search
        fitness_ensembles = ensembles - economies
        c = self.counters
        c["balancer.generations"] += report.generations
        c["balancer.evaluations"] += fitness_ensembles // economies
        c["balancer.offered"] += params.population_size + report.generations * (
            params.population_size // 2 + params.mutations_per_generation
        )
        c["balancer.balanced"] += int(report.balanced)
        c["sim.fitness_observed_steps"] += fitness_ensembles * objective.runs * objective.observe_step
        c["sim.fitness_steps"] += fitness_ensembles * objective.runs * objective.sim_length
        if any(b < a for a, b in zip(report.history, report.history[1:])):
            self.failures.append("best-fitness history decreased")

    # --- results -------------------------------------------------------------

    def layer_times(self) -> tuple:
        """Total and self seconds per span name; self excludes child coverage."""
        total = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                child[parent] += max(0.0, min(end, p_end) - max(start, p_start))
        own = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            own[name] += (end - start) - covered
        return total, own

    def metrics(self, bytes_written: int) -> dict:
        """Calls, time and self time of every wrapped function, and the work counters."""
        total, own = self.layer_times()
        c = self.counters
        out = {}
        for module_name, attr in LAYER_FUNCTIONS:
            name = f"{module_name}.{attr.rpartition('.')[2]}"
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.time_s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        evaluations = c["balancer.evaluations"]
        out.update({
            "sim.run_steps": c["sim.run_steps"],
            "sim.steps_per_s": _ratio(c["sim.run_steps"], total["sim.simulate"]),
            "sim.useful_step_ratio": _ratio(c["sim.fitness_observed_steps"], c["sim.fitness_steps"]),
            "sim.ensemble_to_csv.bytes": c["sim.ensemble_to_csv.bytes"],
            "balancer.generations": c["balancer.generations"],
            "balancer.evaluations": evaluations,
            "balancer.evals_per_s": _ratio(evaluations, total["balancer.balance"]),
            "balancer.cache_hit_ratio": 1.0 - _ratio(evaluations, c["balancer.offered"])
            if c["balancer.offered"] else 0.0,
            "balancer.balanced_pct": 100.0 * _ratio(c["balancer.balanced"], self.calls["balancer.balance"]),
            "generator.generations": c["generator.generations"],
            "generator.generations_per_s": _ratio(c["generator.generations"], total["generator.generate"]),
            "generator.valid_ratio": _ratio(c["generator.valid"], self.calls["generator.generate"]),
            "cli.bytes_written": bytes_written,
        })
        return out

    def write_spans(self, path) -> None:
        """One line per span: index,parent,name,start,end (seconds, perf_counter clock)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start,end\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index},{parent},{name},{start:.9f},{end:.9f}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
