"""Per-layer timers and counters wrapped around the public entry points.

Nothing under ``src/`` knows about these probes.  :class:`Probes` patches
each entry point *where its callers look it up* — a class attribute for
methods (every instance and subclass that inherits it sees the wrapper),
a module attribute for functions imported by name — records calls and
inclusive seconds, and puts every original back on :meth:`Probes.remove`.

Two accounting rules keep nested calls honest:

* probes marked ``outermost`` (``nn.forward``: a model's ``__call__``
  calls its layers' ``__call__``) count only the outermost call;
* probes in the ``engine_excluded`` set feed :attr:`Probes.covered_s`
  only at the top of their nesting, so ``engine.dispatch_ms`` =
  ``run_campaign`` wall − the runtime/store/spec time inside it never
  subtracts a store call made *inside* a runtime call twice.

The counters take no lock: every probed call the workloads make runs on
the benchmark's main thread (the threaded runtime, whose node threads
would race them, is not a workload).
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Tuple

#: ``KernelBackend`` methods, one ``kernels.<method>_calls``/``_s`` pair each
KERNEL_METHODS = (
    "pairwise_squared_distances", "pairwise_squared_distances_batched",
    "krum_neighbor_sums", "krum_neighbor_sums_batched", "mean",
    "trimmed_mean", "median", "dense_forward_logits",
    "dense_forward_backward",
)

#: rules whose ``aggregate``/``aggregate_batched`` the workloads exercise
AGGREGATION_RULES = ("mean", "median", "multi_krum")

#: the step phases every runtime's tracer spans are named after
PHASES = ("broadcast", "compute", "gather", "aggregate", "apply")

#: store methods timed one by one (``store.<name>_ms`` mean per call)
STORE_METHODS = ("put", "get", "contains", "query", "summary_rows")


class Probes:
    """Installable set of call counters and inclusive timers."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        #: top-level seconds spent inside runtime, store and spec probes
        self.covered_s = 0.0
        #: ``run_campaign`` wall, and the part of it ``covered_s`` took
        self.campaign_s = 0.0
        self.campaign_covered_s = 0.0
        self._excluded_depth = 0
        self._depth: Dict[str, int] = {}
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, original: Callable, *, outermost: bool,
              engine_excluded: bool) -> Callable:
        self.calls.setdefault(name, 0)
        self.seconds.setdefault(name, 0.0)
        self._depth.setdefault(name, 0)
        probes = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            nested = outermost and probes._depth[name] > 0
            top_excluded = engine_excluded and probes._excluded_depth == 0
            probes._depth[name] += 1
            if engine_excluded:
                probes._excluded_depth += 1
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                probes._depth[name] -= 1
                if engine_excluded:
                    probes._excluded_depth -= 1
                if top_excluded:
                    probes.covered_s += elapsed
                if not nested:
                    probes.calls[name] += 1
                    probes.seconds[name] += elapsed

        return wrapper

    def patch(self, owner: object, attribute: str, name: str, *,
              outermost: bool = False, engine_excluded: bool = False) -> None:
        """Replace ``owner.attribute`` by a probe recording under ``name``.

        The original is looked up through ``getattr`` (so an inherited
        method is found) but restored from the owner's own ``__dict__``
        state: an attribute the owner only inherited is deleted again.
        """
        original = getattr(owner, attribute)
        self._restore.append((owner, attribute,
                              vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute,
                self._wrap(name, original, outermost=outermost,
                           engine_excluded=engine_excluded))

    def _wrap_campaign(self, original: Callable) -> Callable:
        probes = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            covered = probes.covered_s
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                probes.campaign_s += time.perf_counter() - started
                probes.campaign_covered_s += probes.covered_s - covered

        return wrapper

    def remove(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._restore:
            owner, attribute, own = self._restore.pop()
            if own is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    # ------------------------------------------------------------------ #
    def install(self) -> "Probes":
        """Patch the entry points of every ``src/repro`` layer measured."""
        import repro.campaign.engine as engine
        import repro.hetero.partition as partition
        from repro.adversary.engine import AdversaryCoordinator
        from repro.aggregation import get_rule
        from repro.batch.trainer import BatchedGuanYuTrainer
        from repro.campaign.spec import CampaignSpec, ScenarioSpec
        from repro.campaign.store import ResultStore
        from repro.core.trainer import GuanYuTrainer
        from repro.data.loader import DataLoader
        from repro.kernels import active_backend
        from repro.network.simulator import NetworkSimulator
        from repro.nn.module import Module
        from repro.tensor.tensor import Tensor

        spec_probe = {"engine_excluded": True}
        self.patch(CampaignSpec, "expand", "spec.expand", **spec_probe)
        self.patch(ScenarioSpec, "spec_hash", "spec.hash", **spec_probe)
        self.patch(ScenarioSpec, "validate", "spec.validate", **spec_probe)
        self._restore.append((engine, "run_campaign",
                              vars(engine)["run_campaign"]))
        engine.run_campaign = self._wrap_campaign(engine.run_campaign)
        # The engine imported its runtime entry points by name.
        self.patch(engine, "run_scenario", "engine.runtime",
                   engine_excluded=True)
        self.patch(engine, "run_batched_scenarios", "engine.runtime_batched",
                   engine_excluded=True)
        for method in STORE_METHODS:
            self.patch(ResultStore, method, f"store.{method}",
                       engine_excluded=True)

        self.patch(BatchedGuanYuTrainer, "__init__", "batch.setup")
        self.patch(BatchedGuanYuTrainer, "step", "batch.step")
        self.patch(BatchedGuanYuTrainer, "_forward_backward",
                   "batch.forward_backward")
        self.patch(DataLoader, "next_batch", "data.next_batch")
        # Aggregation rules and trainers call ``active_backend()`` on every
        # dispatch, so the backend's class is where the methods are found.
        backend_class = type(active_backend())
        for method in KERNEL_METHODS:
            self.patch(backend_class, method, f"kernels.{method}")
        for rule in AGGREGATION_RULES:
            rule_class = type(get_rule(rule, num_byzantine=1))
            # Callers use both spellings; ``aggregate`` calls ``__call__``.
            for method in ("__call__", "aggregate"):
                self.patch(rule_class, method, f"aggregation.{rule}",
                           outermost=True)
            self.patch(rule_class, "aggregate_batched",
                       f"aggregation.{rule}_batched")
        self.patch(GuanYuTrainer, "__init__", "core.setup")
        self.patch(GuanYuTrainer, "step", "core.step")
        self.patch(Module, "__call__", "nn.forward", outermost=True)
        self.patch(Tensor, "backward", "tensor.backward", outermost=True)
        self.patch(NetworkSimulator, "send", "network.send")
        self.patch(NetworkSimulator, "collect_quorum",
                   "network.collect_quorum")
        # The sequential runtime's per-worker entry; ``publish`` belongs to
        # the threaded runtime's observation board, which no workload runs.
        self.patch(AdversaryCoordinator, "worker_gradient",
                   "adversary.worker_gradient")
        # ``repro.data.loader`` imports this lazily, from the module.
        self.patch(partition, "hetero_partition", "hetero.partition")
        return self


_ABSENT = object()


def layer_metrics(probes: Probes, *, scenarios: int, workload_wall_s: float,
                  payload_reads: int) -> Dict[str, float]:
    """The probe-derived per-layer metrics of one traced repetition."""
    calls, seconds = probes.calls, probes.seconds

    def mean_ms(name: str) -> float:
        return 1e3 * seconds[name] / calls[name] if calls[name] else 0.0

    metrics: Dict[str, float] = {
        "spec.expand_ms": 1e3 * seconds["spec.expand"],
        "spec.hash_us": (1e6 * seconds["spec.hash"] / calls["spec.hash"]
                         if calls["spec.hash"] else 0.0),
        "spec.hash_calls": calls["spec.hash"],
        "spec.validate_us": (1e6 * seconds["spec.validate"]
                             / calls["spec.validate"]
                             if calls["spec.validate"] else 0.0),
        "engine.dispatch_ms": (
            1e3 * (probes.campaign_s - probes.campaign_covered_s) / scenarios
            if probes.campaign_s else 0.0),
        "store.payload_reads": payload_reads,
        "batch.setup_ms": 1e3 * seconds["batch.setup"],
        "batch.step_ms": mean_ms("batch.step"),
        "batch.forward_backward_ms": 1e3 * seconds["batch.forward_backward"],
        "batch.forward_backward_calls": calls["batch.forward_backward"],
        "data.next_batch_calls": calls["data.next_batch"],
        "data.next_batch_s": seconds["data.next_batch"],
        "data.next_batch_share": (seconds["data.next_batch"] / workload_wall_s
                                  if workload_wall_s else 0.0),
        "core.setup_ms": 1e3 * seconds["core.setup"],
        "core.step_ms": mean_ms("core.step"),
        "nn.forward_s": seconds["nn.forward"],
        "nn.forward_calls": calls["nn.forward"],
        "tensor.backward_s": seconds["tensor.backward"],
        "network.send_calls": calls["network.send"],
        "network.collect_quorum_s": seconds["network.collect_quorum"],
        "adversary.worker_gradient_s": seconds["adversary.worker_gradient"],
        "adversary.worker_gradient_calls":
            calls["adversary.worker_gradient"],
        "hetero.partition_ms": 1e3 * seconds["hetero.partition"],
    }
    for method in STORE_METHODS:
        metrics[f"store.{method}_ms"] = mean_ms(f"store.{method}")
        metrics[f"store.{method}_calls"] = calls[f"store.{method}"]
    for method in KERNEL_METHODS:
        metrics[f"kernels.{method}_calls"] = calls[f"kernels.{method}"]
        metrics[f"kernels.{method}_s"] = seconds[f"kernels.{method}"]
    for rule in AGGREGATION_RULES:
        for name in (rule, f"{rule}_batched"):
            metrics[f"aggregation.{name}_calls"] = calls[f"aggregation.{name}"]
            metrics[f"aggregation.{name}_s"] = seconds[f"aggregation.{name}"]
    return metrics


def phase_metrics(summary: Dict, in_process_step_s: float
                  ) -> Dict[str, float]:
    """``obs.phase.<phase>_s`` and ``obs.unattributed_frac`` from a
    :meth:`repro.obs.tracer.Tracer.summary`.

    Span names are ``<runtime>.<role...>.<phase>``; every runtime's spans
    for one phase add up under that phase.  The unattributed share is
    taken over the in-process steps only (sequential and batched), whose
    wall time the ``core.step``/``batch.step`` probes measured; cluster
    node spans run in parallel processes and are node-seconds.
    """
    totals = {phase: 0.0 for phase in PHASES}
    in_process = 0.0
    for name, bucket in summary.get("spans", {}).items():
        phase = name.rsplit(".", 1)[-1]
        if phase in totals:
            totals[phase] += bucket["total_s"]
            if name.startswith(("seq.step.", "batch.step.")):
                in_process += bucket["total_s"]
    metrics = {f"obs.phase.{phase}_s": value
               for phase, value in totals.items()}
    metrics["obs.unattributed_frac"] = (
        1.0 - in_process / in_process_step_s if in_process_step_s else 0.0)
    return metrics
