"""The four benchmark workloads: inputs from a seed, one repetition, oracles.

Every timed region goes through the public API only — ``repro.api.run``,
``repro.campaign.engine.run_campaign`` and ``ResultStore`` — with the
library defaults unless a comment says otherwise; the oracles compare
against the reference paths the tier-1 equivalence tests use.  The reason each one
exists, and the layers it exercises, sit in a comment above its class;
``LAYERS.md`` holds the full layer map.

A workload object is built from ``(seed, workdir)``.  :meth:`prepare`
makes untimed fixtures, :meth:`rep` runs one measured repetition and
returns a :class:`Rep`, :meth:`oracle` re-checks the outputs of the last
repetition against an independent path of the program (outside every
timed region) and returns the mismatches it found.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

#: one analysis mix: this many ``query``, ``summary_rows`` and
#: ``get(key).history`` operations, in a seeded order
MIX_QUERIES, MIX_SUMMARIES, MIX_GETS = 20, 5, 50


@dataclass
class Rep:
    """What one measured repetition produced."""

    #: wall seconds of the workload's timed region (campaign or ``run``)
    wall_s: float
    scenarios: int
    replica_steps: int
    #: per-scenario latencies (see :func:`campaign_rep`)
    latencies: List[float]
    final_losses: List[float]
    #: wall seconds of each analysis mix run after the timed region
    mix_walls: List[float] = field(default_factory=list)
    #: scenarios that failed plus per-repetition check failures
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    payload_reads: int = 0
    #: peak RSS of child processes alive during the repetition (MB)
    children_rss_mb: float = 0.0
    #: cluster workload only: telemetry and history-derived layer numbers
    cluster: Dict[str, float] = field(default_factory=dict)


def draw_seeds(rng: np.random.Generator, count: int) -> List[int]:
    """``count`` distinct scenario seeds."""
    seeds: List[int] = []
    while len(seeds) < count:
        value = int(rng.integers(0, 2**31 - 1))
        if value not in seeds:
            seeds.append(value)
    return seeds


def same_history(left, right) -> bool:
    """Histories equal in every record and the config (labels may differ:
    the engine relabels cached results with the asking scenario's name)."""
    a, b = left.to_dict(), right.to_dict()
    return a["records"] == b["records"] and a["config"] == b["config"]


def final_loss(history) -> float:
    losses = history.losses()
    return float(losses[-1]) if len(losses) else float("nan")


# --------------------------------------------------------------------------- #
# Shared pieces
# --------------------------------------------------------------------------- #
class AnalysisMix:
    """A seeded, fixed list of store reads a user runs over a campaign.

    ``plan`` is built from the entries a workload put (their specs), so
    every query has a known expected match count; ``run`` times the whole
    list; ``check`` compares the recorded outputs against expectations.
    """

    def __init__(self, rng: np.random.Generator,
                 entries: List[Tuple[str, object]]) -> None:
        self.entries = entries
        rules = sorted({spec.gradient_rule for _, spec in entries})
        seeds = sorted({spec.seed for _, spec in entries})
        plan: List[Tuple[str, object]] = []
        for index in range(MIX_QUERIES):
            rule = rules[int(rng.integers(len(rules)))]
            seed = seeds[int(rng.integers(len(seeds)))]
            filters = ({"gradient_rule": rule}, {"seed": seed},
                       {"gradient_rule": rule, "seed": seed})[index % 3]
            plan.append(("query", filters))
        plan.extend(("summary_rows", None) for _ in range(MIX_SUMMARIES))
        for _ in range(MIX_GETS):
            plan.append(("get", entries[int(rng.integers(len(entries)))][0]))
        order = rng.permutation(len(plan))
        self.plan = [plan[int(i)] for i in order]

    def run(self, store) -> Tuple[float, List]:
        outputs: List = []
        started = time.perf_counter()
        for op, argument in self.plan:
            if op == "query":
                outputs.append(len(store.query(**argument)))
            elif op == "summary_rows":
                outputs.append(len(store.summary_rows()))
            else:
                outputs.append(store.get(argument).history)
        return time.perf_counter() - started, outputs

    def check(self, outputs: List, histories: Dict[str, object]) -> List[str]:
        problems = []
        for (op, argument), output in zip(self.plan, outputs):
            if op == "query":
                expected = sum(
                    all(getattr(spec, name) == value
                        for name, value in argument.items())
                    for _, spec in self.entries)
                if output != expected:
                    problems.append(f"query {argument}: {output} results, "
                                    f"expected {expected}")
            elif op == "summary_rows":
                if output != len(self.entries):
                    problems.append(f"summary_rows: {output} rows, expected "
                                    f"{len(self.entries)}")
            elif not same_history(output, histories[argument]):
                problems.append(f"get({argument[:12]}).history differs "
                                f"from the history put")
        return problems

    @property
    def ops(self) -> int:
        return len(self.plan)


class ChildRss:
    """Peak summed ``VmHWM`` of this process's descendants, sampled.

    ``VmHWM`` is a process's own peak, so the last sample before a child
    exits is (close to) its lifetime peak; the sum over children alive
    together is the memory the workload's processes held at once.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._seen: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "ChildRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._stop.set()
        self._thread.join()
        self._sample()
        return False

    @staticmethod
    def _descendants() -> List[int]:
        parents: Dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
                parents[int(entry)] = int(fields[1])
            except (OSError, IndexError, ValueError):
                continue
        found, frontier = [], [os.getpid()]
        while frontier:
            pid = frontier.pop()
            children = [child for child, parent in parents.items()
                        if parent == pid]
            found.extend(children)
            frontier.extend(children)
        return found

    def _sample(self) -> None:
        for pid in self._descendants():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            self._seen[pid] = int(line.split()[1])
                            break
            except OSError:
                continue
        self.peak_kb = max(self.peak_kb, sum(self._seen.values()))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()


def campaign_rep(campaign, store, *, batch_seeds: bool = False):
    """Run one campaign, stamping completions from a progress callback.

    A scenario's latency runs from the previous completion to its own.
    Scenarios of one batched group are computed together, so each of
    them counts from the completion before the group's first member.
    """
    from repro.campaign.engine import run_campaign

    stamps: List[Tuple[float, Optional[str]]] = []

    def progress(outcome, completed, total) -> None:
        group = outcome.spec.batch_group_hash() if outcome.batched else None
        stamps.append((time.perf_counter(), group))

    started = time.perf_counter()
    result = run_campaign(campaign, store=store, progress=progress,
                          batch_seeds=batch_seeds)
    wall = time.perf_counter() - started
    latencies: List[float] = []
    previous, group_start, current = started, started, None
    for stamp, group in stamps:
        if group is None or group != current:
            group_start, current = previous, group
        latencies.append(stamp - group_start)
        previous = stamp
    return result, wall, latencies


def outcome_rep(result, wall: float, latencies: List[float]) -> Rep:
    histories = [outcome.history for outcome in result.outcomes
                 if outcome.history is not None]
    failures = result.failures()
    return Rep(wall_s=wall, scenarios=len(result.outcomes),
               replica_steps=sum(len(history.records)
                                 for history in histories),
               latencies=latencies,
               final_losses=[final_loss(history) for history in histories],
               failed=len(failures),
               problems=[f"{outcome.spec.name} failed: {outcome.error}"
                         for outcome in failures])


class Workload:
    """Base: a fresh store per repetition, an analysis mix after it."""

    name = ""
    #: timed analysis mixes per repetition (their median wall counts)
    mix_repeats = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self._stores = 0
        self.last_result = None
        self.mix: Optional[AnalysisMix] = None
        self._mixed_store = None
        self.mix_outputs: List = []

    def fresh_store(self):
        from repro.api import ResultStore

        self._stores += 1
        # The pid keeps set-up probes, which share the workdir, apart.
        return ResultStore(
            self.workdir / f"store-{os.getpid()}-{self._stores}")

    def setup_store(self):
        """The store the timed region starts from (setup probes open it)."""
        return self.fresh_store()

    def prepare(self) -> None:
        """Untimed fixtures (nothing by default)."""

    def rep(self) -> Rep:
        raise NotImplementedError

    def entries(self, result) -> List[Tuple[str, object]]:
        return [(outcome.store_key, outcome.spec)
                for outcome in result.outcomes]

    def histories(self, result) -> Dict[str, object]:
        return {outcome.store_key: outcome.history
                for outcome in result.outcomes}

    def run_mix(self, rep: Rep, store, result) -> None:
        if self.mix is None:
            self.mix = AnalysisMix(np.random.default_rng(self.seed + 1),
                                   self.entries(result))
        reads = store.payload_reads
        if store is not self._mixed_store:
            # Untimed: the first reads of a store fold its index and fill
            # the page cache, a cost paid once per store, not per query.
            self.mix.run(store)
            self._mixed_store = store
        for _ in range(self.mix_repeats):
            wall, self.mix_outputs = self.mix.run(store)
            rep.mix_walls.append(wall)
        rep.payload_reads += store.payload_reads - reads

    def oracle(self) -> List[str]:
        return self.mix.check(self.mix_outputs,
                              self.histories(self.last_result))


# --------------------------------------------------------------------------- #
# seed-sweep
# --------------------------------------------------------------------------- #
# Why: the paper's claims are statistical, so the common campaign is one
# GuanYu cell (library defaults: 9 workers, 6 servers, softmax on blobs,
# multi_krum/median, 60 steps) over many seeds.  R=64 is the seed-batching
# target point.  ``batch_seeds=True`` sends the 64 replicas through the
# batched runtime in one vectorised group, so the batch, data, kernels and
# aggregation layers (and ResultStore.put) hold nearly all the time.  No
# ``lanes``/``processes``: pool timing on a shared 2-core box is noise.
class SeedSweep(Workload):
    name = "seed-sweep"
    replicas = 64
    steps = 60

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.api import CampaignSpec, ScenarioSpec

        self.campaign = CampaignSpec(
            name="seed-sweep",
            base=ScenarioSpec(name="seed-sweep", num_steps=self.steps),
            grid={"seed": draw_seeds(self.rng, self.replicas)})

    def rep(self) -> Rep:
        store = self.fresh_store()
        result, wall, latencies = campaign_rep(self.campaign, store,
                                               batch_seeds=True)
        rep = outcome_rep(result, wall, latencies)
        unbatched = [outcome.spec.name for outcome in result.outcomes
                     if outcome.status == "ran" and not outcome.batched]
        if unbatched:
            rep.failed += len(unbatched)
            rep.problems.append(f"{len(unbatched)} replicas fell back to "
                                f"sequential execution")
        rep.payload_reads = store.payload_reads
        self.run_mix(rep, store, result)
        self.last_result = result
        return rep

    def oracle(self) -> List[str]:
        """Sampled replicas equal a sequential ``repro.api.run``."""
        from repro.api import run

        problems = super().oracle()
        outcomes = self.last_result.outcomes
        picks = np.random.default_rng(self.seed + 2).choice(
            len(outcomes), size=2, replace=False)
        for index in picks:
            outcome = outcomes[int(index)]
            expected = run(outcome.spec).history
            if not same_history(outcome.history, expected):
                problems.append(f"{outcome.spec.name}: batched history "
                                f"differs from sequential repro.api.run")
        return problems


# --------------------------------------------------------------------------- #
# mixed-grid
# --------------------------------------------------------------------------- #
# Why: a robustness study crosses GARs with threats and data skew, and
# every cell carries two seeds.  run_campaign runs with its defaults
# (serial, no seed batching), so the sequential runtime — core, nn/tensor,
# network, adversary, hetero — holds the time and the batched runtime none.
# It is the bypass workload for batched-runtime and loader work, and the
# one where "batch by default" and "one engine" would show.  20 steps per
# cell (not the default 60) keep a repetition near 5 s.  The small_cnn
# slice runs on ``images``: with the default ``blobs`` it passes validate()
# but fails in conv2d.
class MixedGrid(Workload):
    name = "mixed-grid"
    steps = 20
    cnn_steps = 10

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.api import CampaignSpec, ScenarioSpec

        grid = CampaignSpec(
            name="mixed-grid",
            base=ScenarioSpec(name="mixed-grid", num_steps=self.steps),
            grid={
                "gradient_rule": ["mean", "median", "multi_krum"],
                "threat": [{"_name": "clean"},
                           {"_name": "sign_flip", "worker_attack": "sign_flip"},
                           {"_name": "collusion", "adversary": "collusion"}],
                "data": [{"_name": "iid"},
                         {"_name": "dirichlet",
                          "hetero": {"partition": "dirichlet",
                                     "alpha": 0.5}}],
                "seed": draw_seeds(self.rng, 2),
            })
        cnn = [ScenarioSpec(name=f"cnn-{index}", model="small_cnn",
                            dataset="images", gradient_rule="median",
                            num_steps=self.cnn_steps, seed=seed)
               for index, seed in enumerate(draw_seeds(self.rng, 2))]
        self.campaign = CampaignSpec(name="mixed-grid",
                                     scenarios=grid.expand() + cnn)

    def rep(self) -> Rep:
        store = self.fresh_store()
        result, wall, latencies = campaign_rep(self.campaign, store)
        rep = outcome_rep(result, wall, latencies)
        rep.payload_reads = store.payload_reads
        self.run_mix(rep, store, result)
        self.last_result = result
        return rep

    def oracle(self) -> List[str]:
        """Sampled softmax cells equal ``run_batched_scenarios([spec])``."""
        from repro.batch import run_batched_scenarios, spec_supports_batching

        problems = super().oracle()
        eligible = [outcome for outcome in self.last_result.outcomes
                    if outcome.spec.model == "softmax"
                    and spec_supports_batching(outcome.spec)]
        picks = np.random.default_rng(self.seed + 2).choice(
            len(eligible), size=3, replace=False)
        for index in picks:
            outcome = eligible[int(index)]
            expected = run_batched_scenarios([outcome.spec])[0]
            if not same_history(outcome.history, expected):
                problems.append(f"{outcome.spec.name}: sequential history "
                                f"differs from run_batched_scenarios")
        return problems


# --------------------------------------------------------------------------- #
# store-resume
# --------------------------------------------------------------------------- #
# Why: resuming an interrupted campaign and analysing its results is the
# read side of the store, beside the write side seed-sweep and mixed-grid
# exercise.  A 1,000-scenario campaign re-runs against a 1,000-entry store
# where every scenario is a cache hit, then a seeded mix of query,
# summary_rows and get(key).history runs.  No training happens: the time
# is campaign.spec hashing, campaign.engine dispatch and
# campaign.store/index reads.  The fixture's histories are real: 32 seeds
# trained once on the batched runtime, dealt round-robin to the 1,000
# entries.  Building the fixture (1,000 puts) is untimed and outside
# setup_s.
class StoreResume(Workload):
    name = "store-resume"
    mix_repeats = 1
    #: 5 rules x 4 attacks x ``rates`` x ``seeds`` = 1,000 scenarios
    rates = 5
    seeds = 10
    steps = 60
    pool = 32

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.api import CampaignSpec, ScenarioSpec

        # Distinct after rounding: two equal rates would give scenarios
        # with equal names, which expand() rejects.
        rates: List[float] = []
        while len(rates) < self.rates:
            rate = round(float(self.rng.uniform(0.01, 0.1)), 4)
            if rate not in rates:
                rates.append(rate)
        self.campaign = CampaignSpec(
            name="store-resume",
            base=ScenarioSpec(name="store-resume", num_steps=self.steps),
            grid={"gradient_rule": ["mean", "median", "multi_krum", "krum",
                                    "trimmed_mean"],
                  "worker_attack": [None, "sign_flip", "random_gradient",
                                    "little_is_enough"],
                  "learning_rate": rates,
                  "seed": draw_seeds(self.rng, self.seeds)})
        self.pool_seeds = draw_seeds(self.rng, self.pool)
        self.store_root = workdir / "fixture-store"
        self.expected: Dict[str, object] = {}

    def setup_store(self):
        from repro.api import ResultStore

        return ResultStore(self.store_root)

    def prepare(self) -> None:
        from repro.api import ScenarioSpec
        from repro.batch import run_batched_scenarios
        from repro.obs.history import TrainingHistory

        trained = run_batched_scenarios(
            [ScenarioSpec(name=f"pool-{index}", seed=seed,
                          num_steps=self.steps).validate()
             for index, seed in enumerate(self.pool_seeds)])
        self.store = self.setup_store()
        entries = []
        for index, spec in enumerate(self.campaign.expand()):
            history = TrainingHistory.from_dict(
                trained[index % self.pool].to_dict())
            history.label = spec.name
            key = self.store.put(spec, history)
            self.expected[key] = history
            entries.append((key, spec))
        self.fixture_entries = entries

    def entries(self, result) -> List[Tuple[str, object]]:
        return self.fixture_entries

    def histories(self, result) -> Dict[str, object]:
        return self.expected

    def rep(self) -> Rep:
        reads = self.store.payload_reads
        result, wall, latencies = campaign_rep(self.campaign, self.store)
        rep = outcome_rep(result, wall, latencies)
        missed = result.counts()["ran"]
        if missed:
            rep.failed += missed
            rep.problems.append(f"{missed} scenarios missed the cache")
        rep.payload_reads = self.store.payload_reads - reads
        self.run_mix(rep, self.store, result)
        self.last_result = result
        return rep

    def oracle(self) -> List[str]:
        """Served histories equal the ones put; the store checks clean."""
        problems = super().oracle()
        for outcome in self.last_result.outcomes:
            if not same_history(outcome.history,
                                self.expected[outcome.store_key]):
                problems.append(f"{outcome.spec.name}: served history "
                                f"differs from the one put")
        report = self.store.fsck()
        if not report.ok:
            problems.append(f"fsck found {len(report.issues)} issues")
        return problems


# --------------------------------------------------------------------------- #
# cluster
# --------------------------------------------------------------------------- #
# Why: the only workload on the process-cluster runtime — supervisor,
# socket transport, one OS process per node and each node's interpreter
# start-up.  One 4-worker/3-server scenario with full quorums and median
# rules (the envelope where cluster losses equal the threaded runtime's)
# runs 200 steps through repro.api.run.  The threaded runtime itself is
# not a workload: its wall time swings too much on a shared 2-core box.
class Cluster(Workload):
    name = "cluster"
    mix_repeats = 8
    steps = 200

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.api import ScenarioSpec

        self.spec = ScenarioSpec(
            name="cluster", trainer="guanyu_threaded", runtime="cluster",
            num_workers=4, num_servers=3, declared_byzantine_workers=0,
            declared_byzantine_servers=0, model_quorum=3, gradient_quorum=4,
            gradient_rule="median", model_rule="median",
            num_steps=self.steps, seed=draw_seeds(self.rng, 1)[0])

    def rep(self) -> Rep:
        from repro.api import run
        from repro.obs.telemetry import get_registry

        store = self.fresh_store()
        registry = get_registry()
        with ChildRss() as children:
            started = time.perf_counter()
            result = run(self.spec, store=store)
            wall = time.perf_counter() - started
        history = result.history
        rep = Rep(wall_s=wall, scenarios=1,
                  replica_steps=len(history.records), latencies=[wall],
                  final_losses=[final_loss(history)],
                  children_rss_mb=children.peak_kb / 1024)
        if result.runtime != "cluster" or result.status != "ran":
            rep.failed += 1
            rep.problems.append(f"ran as {result.runtime}/{result.status}, "
                                f"not a fresh cluster run")
        if registry.enabled:
            rep.cluster = cluster_layer(registry.snapshot(), history, wall)
        self.last_result = result
        rep.payload_reads = store.payload_reads
        self.run_mix(rep, store, result)
        return rep

    def entries(self, result) -> List[Tuple[str, object]]:
        return [(result.store_key, result.spec)]

    def histories(self, result) -> Dict[str, object]:
        return {result.store_key: result.history}

    def oracle(self) -> List[str]:
        """Cluster losses equal the threaded runtime's."""
        from repro.api import run

        problems = super().oracle()
        threaded = run(self.spec.replace(runtime=None)).history
        if list(threaded.losses()) != list(self.last_result.history.losses()):
            problems.append("cluster losses differ from the threaded "
                            "runtime's")
        return problems


CLUSTER_METRICS = ("cluster.startup_s", "cluster.step_ms",
                   "cluster.frames_per_step", "cluster.bytes_per_step")


def cluster_layer(snapshot: Dict, history, wall: float) -> Dict[str, float]:
    """``cluster.*`` numbers from a telemetry snapshot and the history.

    A record's ``simulated_time`` on this runtime is the wall seconds from
    node start to the end of that step, so the last one is the training
    time and the rest of the wall is start-up and shutdown.  Frames and
    bytes count the ``out`` direction, which does not depend on how many
    in-flight frames a peer still reads at shutdown.  Frames count the
    protocol's data kinds only: health-probe pings follow the wall clock.
    Bytes carry no kind label, so they include the pings.
    """
    from repro.network.message import MessageKind

    metrics = snapshot.get("metrics", {})
    steps = max(len(history.records), 1)
    trained = history.records[-1].simulated_time if history.records else 0.0
    data_kinds = {kind.value for kind in MessageKind}

    def out_total(name: str, kinds=None) -> float:
        series = metrics.get(name, {}).get("series", [])
        return sum(item["value"] for item in series
                   if item["labels"].get("direction") == "out"
                   and (kinds is None or item["labels"].get("kind") in kinds))

    return dict(zip(CLUSTER_METRICS, (
        wall - trained, 1e3 * trained / steps,
        out_total("repro_cluster_frames_total", data_kinds) / steps,
        out_total("repro_cluster_bytes_total") / steps)))


WORKLOADS = {cls.name: cls for cls in (SeedSweep, MixedGrid, StoreResume,
                                       Cluster)}
