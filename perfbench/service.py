"""The ``service_campaign`` workload: a closed loop against ``repro serve``.

One client keeps one job in flight.  It submits ``spinal`` campaigns
(``CampaignSpec`` defaults, so the default executor and backend) to an
in-process :class:`BackgroundService` with spawn-started workers and
small lane shards.  Each cold job carries a seed the store has not seen,
so it is simulated at small batch, where per-cycle dispatch dominates,
then merged and written to the store.  Identical resubmissions follow
it; they are served from the store with no simulation, so both the
store's write path and its read path are measured.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List, Optional, Tuple

from batch import pool_activity
from common import median, out_path, peak_rss_mb, percentile
from tracing import SERVICE_TARGETS, SpanRecorder

from repro import RTLFlow
from repro.baselines.reference import ReferenceSimulator
from repro.cluster.spec import CampaignSpec
from repro.designs import get_design
from repro.serve import (
    BackgroundService, CampaignService, ServiceClient, decode_outputs,
    outputs_digest,
)

DESIGN = "spinal"
LANES = 512
SHARD_LANES = 128
CYCLES = 100
WORKERS = max(1, min(2, os.cpu_count() or 1))
HITS_PER_COLD = 4
#: Service starts per run; the last one serves the measured jobs.
SETUP_SAMPLES = 3
#: Status poll interval for cold jobs (~0.6 s): fine enough to resolve
#: them, coarse enough that polling does not take a core from the workers.
#: Hits are done when their submission returns and are never polled.
POLL_S = 0.01
#: The service keeps every finished job in memory, so its resident set
#: grows with the number of jobs; peak RSS is read after this many
#: cold-job groups, a fixed amount of work.
RSS_AFTER_GROUPS = 8
JOB_TIMEOUT_S = 60.0
CHECK_LANES = (0, LANES - 1)
TERMINAL = ("done", "failed", "cancelled")


class Job:
    """One submitted campaign as the client saw it."""

    def __init__(self, seed: int, cold: bool):
        self.seed = seed
        self.cold = cold
        self.latency = 0.0
        self.events: List[dict] = []
        self.result: Optional[dict] = None
        self.error = ""


def spec_for(seed: int) -> CampaignSpec:
    return CampaignSpec(n=LANES, cycles=CYCLES, design=DESIGN, seed=seed)


def submit_and_fetch(client: ServiceClient, seed: int, cold: bool) -> Job:
    """Submit -> poll until terminal -> fetch the result, timed."""
    job = Job(seed, cold)
    t0 = time.perf_counter()
    status = client.submit(spec_for(seed))
    job_id = status["job"]["id"]
    job.events.extend(status["events"])
    deadline = t0 + JOB_TIMEOUT_S
    while status["job"]["state"] not in TERMINAL:
        if time.perf_counter() > deadline:
            client.cancel(job_id)
            job.error = f"job {job_id} timed out"
            return job
        time.sleep(POLL_S)
        status = client.status(job_id, since=status["next_since"])
        job.events.extend(status["events"])
    if status["job"]["state"] != "done":
        job.error = f"job {job_id} {status['job']['state']}: {status['job'].get('error')}"
        return job
    job.result = client.result(job_id)
    job.latency = time.perf_counter() - t0
    return job


class Checker:
    """Correctness of service results: the cold result equals an
    in-process run of the same spec (digest) and matches the golden
    interpreter on sampled lanes; every hit returns the cold digest."""

    def __init__(self):
        self.bundle = get_design(DESIGN)
        self.flow = RTLFlow.from_source(self.bundle.source, self.bundle.top)
        self.cold_digest: Dict[int, str] = {}

    def expected(self, seed: int) -> Tuple[str, Dict[int, Dict[str, int]]]:
        stim = self.bundle.make_stimulus(LANES, CYCLES, seed)
        sim = self.flow.simulator(LANES)
        digest = outputs_digest(sim.run(stim))
        golden = {}
        for lane in CHECK_LANES:
            ref = ReferenceSimulator(self.flow.graph)
            for step in stim.lane(lane):
                ref.cycle(step)
            golden[lane] = {s.name: int(ref.get(s.name))
                            for s in self.flow.design.outputs}
        return digest, golden

    def check(self, job: Job) -> Tuple[bool, str]:
        if job.result is None:
            return False, job.error
        digest = job.result["digest"]
        if not job.cold:
            ok = digest == self.cold_digest.get(job.seed)
            return ok, "" if ok else f"seed {job.seed}: hit digest != cold digest"
        want, golden = self.expected(job.seed)
        if digest != want:
            return False, f"seed {job.seed}: cold digest != in-process digest"
        outputs = decode_outputs(job.result["outputs"])
        for lane, values in golden.items():
            for name, value in values.items():
                if int(outputs[name][lane]) != value:
                    return False, f"seed {job.seed}: {name}[lane {lane}] != golden"
        self.cold_digest[job.seed] = digest
        return True, ""


def start_service(data_dir: str) -> Tuple[BackgroundService, ServiceClient]:
    bg = BackgroundService(CampaignService(
        data_dir=data_dir, workers=WORKERS, shard_lanes=SHARD_LANES,
    )).start()
    return bg, ServiceClient(bg.base_url)


class Session:
    """``SETUP_SAMPLES`` service starts, each timed from start to a done
    warm-up job; the last service stays up for the measured jobs."""

    def __init__(self, seed: int):
        self.seed_base = seed * 100_000
        self.root = out_path(f"service-{os.getpid()}")
        self.setups: List[float] = []
        self.bg: Optional[BackgroundService] = None
        self.client: Optional[ServiceClient] = None

    def __enter__(self) -> "Session":
        try:
            for i in range(SETUP_SAMPLES):
                if self.bg is not None:
                    self.bg.stop()
                    self.bg = None
                t0 = time.perf_counter()
                self.bg, self.client = start_service(
                    os.path.join(self.root, f"data{i}")
                )
                warm = submit_and_fetch(
                    self.client, self.seed_base + 90_000 + i, True
                )
                if warm.result is None:
                    raise RuntimeError(f"warm-up job failed: {warm.error}")
                self.setups.append(time.perf_counter() - t0)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        try:
            if self.bg is not None:
                self.bg.stop()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


class Loop:
    """The closed loop: a cold job, then ``HITS_PER_COLD`` resubmissions,
    repeated until the time is up.  Keeps the passing jobs."""

    def __init__(self, session: Session, checker: Checker, tally):
        self.session = session
        self.checker = checker
        self.tally = tally
        self.jobs: List[Job] = []
        self.groups = 0
        self.rss_mb = 0.0

    def run(self, seconds: float,
            recorder: Optional[SpanRecorder] = None) -> List[Job]:
        """Returns the jobs that passed in this call.  With one job in
        flight, every span recorded while a job runs (on the client
        thread or the service's) belongs to that job."""
        deadline = time.perf_counter() + seconds
        first, first_group = len(self.jobs), self.groups
        while time.perf_counter() < deadline or (
                not any(j.cold for j in self.jobs[first:])
                and self.groups < first_group + 3):
            self._group(recorder)
        return self.jobs[first:]

    def _group(self, recorder: Optional[SpanRecorder]) -> None:
        seed = self.session.seed_base + self.groups
        self.groups += 1
        for k in range(1 + HITS_PER_COLD):
            if recorder is not None:
                recorder.request = f"{'hit' if k else 'cold'}:{seed}:{k}"
            try:
                job = submit_and_fetch(self.session.client, seed, k == 0)
                ok, why = self.checker.check(job)
            except Exception as exc:  # noqa: BLE001 - a failed job is counted
                self.tally.record(False, f"{type(exc).__name__}: {exc}")
                break
            if not self.tally.record(ok, why):
                break
            self.jobs.append(job)
        if self.groups == RSS_AFTER_GROUPS:
            self.rss_mb = peak_rss_mb()


def latencies(jobs: List[Job], cold: bool) -> List[float]:
    return [j.latency for j in jobs if j.cold == cold]


def run_untraced(workload: str, seed: int, seconds: float, tally):
    with Session(seed) as session:
        loop = Loop(session, Checker(), tally)
        jobs = loop.run(seconds)
    cold = latencies(jobs, True)
    hit = latencies(jobs, False)
    metrics = {
        "setup_s": median(session.setups),
        "lane_cycles_per_s": LANES * CYCLES / median(cold),
        "cold_latency_p50_s": median(cold),
        "hit_latency_p50_s": median(hit),
        "peak_rss_mb": loop.rss_mb or peak_rss_mb(),
    }
    checker = loop.checker
    shard_stim = checker.bundle.make_stimulus(
        LANES, CYCLES, session.seed_base
    ).lanes(0, SHARD_LANES)
    activity, _sim = pool_activity(checker.flow, checker.bundle, shard_stim, SHARD_LANES)
    props = {
        DESIGN: {"lanes": LANES, "cycles": CYCLES, "lane_cycles": LANES * CYCLES,
                 "shard_lanes": SHARD_LANES, "workers": WORKERS,
                 "cold_jobs": len(cold), "hit_jobs": len(hit),
                 "core.memory.words_changed_ratio": activity},
        "cluster.shards_per_job": _shards_per_job(jobs),
        "executor": spec_for(0).executor,
        "backend": spec_for(0).backend,
        "setup_samples_s": session.setups,
        "cold_latency_p90_s": percentile(cold, 90),
        "hit_latency_p90_s": percentile(hit, 90),
        "rss_mb_at_end": peak_rss_mb(),
    }
    return metrics, props


def _shards_per_job(jobs: List[Job]) -> float:
    return median([j.result["job"]["shards_total"] for j in jobs])


def _event_times(job: Job) -> Dict[str, float]:
    """Cold-job phases from the job's event timestamps."""
    t = {"starts": {}, "dones": {}}
    for ev in job.events:
        if ev["kind"] == "submitted":
            t["submitted"] = ev["t"]
        elif ev["kind"] == "shard-started":
            t["starts"][ev["shard"]] = ev["t"]
        elif ev["kind"] == "shard-done":
            t["dones"][ev["shard"]] = ev["t"]
        elif ev["kind"] == "done":
            t["done"] = ev["t"]
    shards = sorted(t["dones"])
    return {
        "queue_wait": sum(t["starts"][s] - t["submitted"] for s in shards) / len(shards),
        "shard": sum(t["dones"][s] - t["starts"][s] for s in shards) / len(shards),
        "finalize": t["done"] - max(t["dones"].values()),
        "server": t["done"] - t["submitted"],
    }


def run_traced(workload: str, seed: int, seconds: float, tally,
               recorder: SpanRecorder):
    """Half the time untraced, half under the service-path spans."""
    recorder.label = "serve"
    with Session(seed) as session:
        loop = Loop(session, Checker(), tally)
        untraced = loop.run(seconds / 2)
        with recorder.patched(SERVICE_TARGETS):
            traced = loop.run(seconds / 2, recorder)
    cold_jobs = [j for j in traced if j.cold]
    n_cold = len(cold_jobs)
    n_hit = len(traced) - n_cold

    def per_job(name: str, kind: str) -> float:
        """Mean seconds in span ``name`` per traced job of ``kind``."""
        total = sum(s.seconds for s in recorder.spans
                    if s.name == name and s.request.startswith(kind))
        return total / {"cold": n_cold, "hit": n_hit, "": len(traced)}[kind]

    phases = [_event_times(j) for j in cold_jobs]

    def client_calls(job: Job) -> float:
        request = f"cold:{job.seed}:0"
        return sum(s.seconds for s in recorder.spans if s.request == request
                   and s.name in ("serve.submit_s", "serve.result_s"))

    # Cold latency not covered by the client's submit and result calls
    # or by the service's submitted -> done interval: status polling.
    unattributed = [j.latency - client_calls(j) - p["server"]
                    for j, p in zip(cold_jobs, phases)]
    cold = latencies(untraced, True)
    hit = latencies(untraced, False)
    hits = sum(j.result["job"]["store_hits"] for j in traced)
    simulated = sum(j.result["job"]["shards_simulated"] for j in traced)
    return {
        "serve.submit_s": per_job("serve.submit_s", "hit"),
        "serve.result_s": per_job("serve.result_s", "hit"),
        "serve.store_read_s": per_job("serve.store_read_s", "hit"),
        "serve.store_write_s": per_job("serve.store_write_s", "cold"),
        "serve.queue_wait_s": median([p["queue_wait"] for p in phases]),
        "serve.shard_s": median([p["shard"] for p in phases]),
        "serve.finalize_s": median([p["finalize"] for p in phases]),
        "serve.cold_unattributed_s": median(unattributed),
        "serve.store_hit_rate": hits / max(1, hits + simulated),
        "serve.cold_latency_p90_s": percentile(cold, 90),
        "serve.cold_latency_samples": len(cold),
        "serve.hit_latency_p90_s": percentile(hit, 90),
        "serve.hit_latency_samples": len(hit),
        "cluster.shards_per_job": _shards_per_job(traced),
        "cluster.merge_s": per_job("cluster.merge_s", ""),
        "trace.untraced_lane_cycles_per_s": LANES * CYCLES / median(cold),
        "trace.traced_lane_cycles_per_s": (
            LANES * CYCLES / median(latencies(traced, True))
        ),
    }
