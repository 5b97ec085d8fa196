//! The per-chain serving engine: one device chain's queues, batcher,
//! admission, drift/repartition bookkeeping, and resource semantics,
//! so a *fleet* of chains can share one deterministic event loop.
//!
//! A [`ChainEngine`] owns everything that used to assume "the chain is
//! the world": the devices and their FIFO queues, the (optional) shared
//! USB bus, per-tenant open batches, in-flight job slabs, timing
//! caches, and drift windows. What it does *not* own is the clock, the
//! pending-event set, or per-request bookkeeping (arrival/completion
//! times, admitted order) — those belong to the **driver** in
//! [`crate::fleet`], which runs one engine per chain; the single-chain
//! runtime [`crate::runtime::serve`] is that driver over one chain.
//!
//! Events are packed (`u32`/`u16` payloads, as the raw engine's
//! PR 6-style slab machinery) and tagged with the chain index, so fleet
//! event dispatch stays allocation-free: the driver pops
//! `Event::Chain { c, k }` and hands `k` to engine `c`.
//!
//! **Sync contract with `respect_tpu::sim`**: the device/bus event
//! machinery below (event ordering, FIFO seize/release, the four-phase
//! contended bus walk, zero-length-transfer elision) deliberately
//! mirrors the raw engine rather than sharing code with it. Any change
//! to the timing or contention semantics in `crates/tpu/src/sim.rs`
//! must be mirrored here; the bitwise differential property tests in
//! `crates/serve/tests` exist to catch a missed mirror.

use std::rc::Rc;

use respect_sched::repartition;
use respect_tpu::compile::{self, CompiledPipeline};
use respect_tpu::device::DeviceSpec;
use respect_tpu::event_queue::EventQueue;
use respect_tpu::mem::{InlineVec, Slab, SmallQueue};
use respect_tpu::probe::{
    BusSnapshot, ChainSnapshot, DeviceSnapshot, Probe, ProbeEvent, ShedReason, TenantSnapshot,
};
use respect_tpu::sim::{self, ArrivalSampler, ResourceId};
use respect_tpu::usb;

use crate::drift::{DriftWindow, Repartitioner};
use crate::runtime::{AdmissionPolicy, ServeTenant, SwapRecord};

/// One pending event of a serving run. Ordered
/// by `(time, insertion sequence)` in the driver's [`EventQueue`]; the
/// payload layout never affects pop order, so the packed form here is
/// free to differ from the raw engine's.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// Request `r` of tenant `w` arrives (driver-level: routing and
    /// per-request bookkeeping happen before any chain is involved).
    Arrive { w: u32, r: u32 },
    /// Chain `c` must handle `k`.
    Chain { c: u16, k: ChainEvent },
}

/// A chain-local event, without the chain tag.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChainEvent {
    /// The open batch of tenant `w` hit its linger deadline.
    FlushBatch { w: u32, epoch: u32 },
    /// The whole uncontended stage hold elapsed.
    StageDone { w: u32, j: u32, k: u16 },
    /// Host dispatch elapsed (contended path).
    HostDone { w: u32, j: u32, k: u16 },
    /// Compute elapsed (contended path).
    ComputeDone { w: u32, j: u32, k: u16 },
    /// A bus hold finished (contended path).
    BusDone {
        w: u32,
        j: u32,
        k: u16,
        phase: BusPhase,
    },
}

/// Per-stage timings of one job, mirroring the engine decomposition of
/// `respect_tpu::sim` (the `hold_s` arithmetic is
/// [`sim::batch_service_time`], bitwise).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageTiming {
    pub(crate) hold_s: f64,
    host_s: f64,
    input_s: f64,
    compute_s: f64,
    stream_s: f64,
    output_s: f64,
}

pub(crate) fn job_timings(
    pipeline: &CompiledPipeline,
    spec: &DeviceSpec,
    inferences: usize,
) -> Vec<StageTiming> {
    let b = inferences as u64;
    pipeline
        .segments
        .iter()
        .map(|seg| StageTiming {
            hold_s: sim::batch_service_time(seg, spec, inferences),
            host_s: spec.host_overhead_s,
            input_s: usb::transfer_time(spec, seg.input_bytes * b),
            compute_s: spec.compute_time(seg.macs * b),
            stream_s: usb::transfer_time(spec, seg.streamed_bytes * b),
            output_s: usb::transfer_time(spec, seg.output_bytes * b),
        })
        .collect()
}

pub(crate) fn base_holds(pipeline: &CompiledPipeline, spec: &DeviceSpec, batch: usize) -> Vec<f64> {
    pipeline
        .segments
        .iter()
        .map(|seg| sim::batch_service_time(seg, spec, batch))
        .collect()
}

/// Which transfer of a stage a bus hold carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum BusPhase {
    #[default]
    Input,
    Stream,
    Output,
}

/// One dynamic batch in flight. Lives in the tenant's job [`Slab`]
/// from batch close to last-stage completion; its slot (and the member
/// list's inline storage) is then recycled, so in-flight state costs
/// no steady-state allocation.
#[derive(Debug)]
struct Job {
    members: InlineVec<u32, 8>,
    /// Per-stage timings, shared with the tenant's cache: jobs carrying
    /// the same member count under the same pipeline reuse one
    /// computation (invalidated on hot-swap; in-flight jobs keep the
    /// snapshot they were formed under).
    timing: Rc<[StageTiming]>,
}

#[derive(Debug, Default)]
struct Device {
    busy: bool,
    /// When the current hold was seized — the busy-time integrator for
    /// energy accounting (never feeds back into event times).
    seized_at: f64,
    queue: SmallQueue<(u32, u32), 4>,
}

#[derive(Debug, Clone, Copy, Default)]
struct BusRequest {
    w: u32,
    j: u32,
    k: u16,
    phase: BusPhase,
    duration: f64,
}

#[derive(Debug, Default)]
struct Bus {
    busy: bool,
    queue: SmallQueue<BusRequest, 4>,
    busy_s: f64,
}

/// Per-tenant mutable state *on one chain*. Request-level bookkeeping
/// (arrival/completion times, admitted order) lives in the driver's
/// [`TenantRecords`]; the chain keeps the integer counters the
/// admission arithmetic needs so the math is bit-identical to the
/// pre-refactor single-chain engine.
struct ChainTenant {
    pipeline: CompiledPipeline,
    /// Single-request per-stage holds of the *current* pipeline — the
    /// admission controller's service-time estimator.
    base_hold_s: Vec<f64>,
    bottleneck_hold_s: f64,
    /// Requests admitted to this chain.
    admitted: usize,
    /// Admitted requests whose job has completed.
    done_requests: usize,
    /// Requests accumulated in the open batch.
    open: Vec<u32>,
    /// Increments when a batch closes; stale flush timers compare
    /// epochs and expire silently.
    open_epoch: u32,
    /// Requests inside jobs queued before stage 0 (not yet in
    /// service).
    waiting_stage0: usize,
    /// In-flight jobs; slots recycle after the last stage completes.
    jobs: Slab<Job>,
    /// Jobs closed over the whole run (the slab only holds live ones).
    jobs_executed: usize,
    /// Memoized [`job_timings`] keyed by job member count, for the
    /// current pipeline. Invalidated on hot-swap.
    timing_cache: Vec<Option<Rc<[StageTiming]>>>,
    /// Reusable buffer for per-stage holds handed to the drift window.
    scratch_holds: Vec<f64>,
    window: DriftWindow,
    /// Re-partition evaluations that ran the refiner (bounded by
    /// `DriftPolicy::max_swaps` whether or not they swapped).
    repartition_attempts: usize,
    swaps: Vec<SwapRecord>,
    /// Device-busy seconds attributed to this tenant (energy).
    busy_s: f64,
}

impl ChainTenant {
    fn waiting(&self) -> usize {
        self.open.len() + self.waiting_stage0
    }

    /// Stage count of job `j` (its snapshot, not the current pipeline:
    /// in-flight jobs finish on the partition they were formed under).
    fn pipeline_stages(&self, j: usize) -> usize {
        self.jobs[j].timing.len()
    }
}

/// Driver-level per-tenant request bookkeeping.
pub(crate) struct TenantRecords {
    pub(crate) sampler: ArrivalSampler,
    pub(crate) arrivals_at: Vec<f64>,
    pub(crate) completed_at: Vec<f64>,
    /// Admitted request indices, in arrival order.
    pub(crate) admitted: Vec<u32>,
    pub(crate) shed: usize,
}

impl TenantRecords {
    pub(crate) fn new(t: &ServeTenant) -> Self {
        TenantRecords {
            sampler: ArrivalSampler::new(t.arrivals)
                .expect("tenant arrivals validated before the engine starts"),
            arrivals_at: vec![0.0; t.requests],
            completed_at: vec![0.0; t.requests],
            admitted: Vec::with_capacity(t.requests),
            shed: 0,
        }
    }
}

/// One device chain's serving engine. See the module docs for the
/// engine/driver split.
pub(crate) struct ChainEngine<'a> {
    /// This chain's index in the fleet (tag on every pushed event).
    c: u16,
    tenants: &'a [ServeTenant],
    spec: DeviceSpec,
    contended_bus: bool,
    devices: Vec<Device>,
    bus: Bus,
    states: Vec<ChainTenant>,
    /// `(w, r)` pairs completed by the most recent events; the driver
    /// drains this after every handled event (reused, never grows
    /// beyond the largest single-event completion burst).
    pub(crate) completed: Vec<(u32, u32)>,
    /// Admitted-minus-completed requests across all tenants — the
    /// backlog a fleet router load-balances on.
    in_system: usize,
    /// Total device-busy seconds on this chain (energy integrator).
    busy_s: f64,
}

impl<'a> ChainEngine<'a> {
    pub(crate) fn new(
        tenants: &'a [ServeTenant],
        spec: DeviceSpec,
        contended_bus: bool,
        c: u16,
    ) -> Self {
        let chain = tenants
            .iter()
            .map(|t| t.pipeline.segments.len())
            .max()
            .unwrap_or(0);
        let states = tenants
            .iter()
            .map(|t| {
                let base = base_holds(&t.pipeline, &spec, t.batch);
                let bottleneck = base.iter().copied().fold(0.0, f64::max);
                ChainTenant {
                    pipeline: t.pipeline.clone(),
                    bottleneck_hold_s: bottleneck,
                    admitted: 0,
                    done_requests: 0,
                    open: Vec::new(),
                    open_epoch: 0,
                    waiting_stage0: 0,
                    jobs: Slab::new(),
                    jobs_executed: 0,
                    timing_cache: Vec::new(),
                    scratch_holds: Vec::new(),
                    window: DriftWindow::new(base.len()),
                    repartition_attempts: 0,
                    swaps: Vec::new(),
                    busy_s: 0.0,
                    base_hold_s: base,
                }
            })
            .collect();
        ChainEngine {
            c,
            tenants,
            spec,
            contended_bus,
            devices: (0..chain).map(|_| Device::default()).collect(),
            bus: Bus::default(),
            states,
            completed: Vec::new(),
            in_system: 0,
            busy_s: 0.0,
        }
    }

    fn chain_event(&self, k: ChainEvent) -> Event {
        Event::Chain { c: self.c, k }
    }

    /// Offers request `r` of tenant `w` to this chain: the chain's
    /// admission policy decides, an admitted request joins the open
    /// batch (possibly closing it into a job). Returns whether the
    /// request was admitted — the driver records shed/admitted order.
    pub(crate) fn offer<P: Probe>(
        &mut self,
        w: usize,
        r: u32,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) -> bool {
        let st = &mut self.states[w];
        let admit = match self.tenants[w].admission {
            AdmissionPolicy::Open => true,
            AdmissionPolicy::QueueBound { max_waiting } => st.waiting() < max_waiting,
            AdmissionPolicy::SloDelay { target_s } => {
                let in_system = st.admitted - st.done_requests;
                in_system as f64 * st.bottleneck_hold_s <= target_s
            }
        };
        if !admit {
            if P::ENABLED {
                let reason = match self.tenants[w].admission {
                    AdmissionPolicy::QueueBound { .. } => ShedReason::QueueBound,
                    _ => ShedReason::SloDelay,
                };
                p.record(
                    t,
                    &ProbeEvent::Shed {
                        chain: self.c,
                        tenant: w as u32,
                        request: r,
                        reason,
                    },
                );
            }
            return false;
        }
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::Admit {
                    chain: self.c,
                    tenant: w as u32,
                    request: r,
                },
            );
        }
        st.admitted += 1;
        self.in_system += 1;
        st.open.push(r);
        if P::ENABLED && st.open.len() == 1 {
            p.record(
                t,
                &ProbeEvent::BatchOpen {
                    chain: self.c,
                    tenant: w as u32,
                },
            );
        }
        let policy = self.tenants[w].batcher;
        if st.open.len() >= policy.max_batch || policy.max_delay_s == 0.0 {
            self.close_batch(w, t, q, p);
        } else if st.open.len() == 1 {
            let epoch = st.open_epoch;
            let ev = self.chain_event(ChainEvent::FlushBatch { w: w as u32, epoch });
            q.push(t + policy.max_delay_s, ev);
        }
        true
    }

    /// Whether a flush timer is stale (its batch already closed by
    /// size, or nothing is open). The driver checks this *before*
    /// advancing the clock, so makespan and the event count reflect
    /// only work the system performed.
    pub(crate) fn flush_stale(&self, w: usize, epoch: u32) -> bool {
        self.states[w].open_epoch != epoch || self.states[w].open.is_empty()
    }

    pub(crate) fn handle<P: Probe>(
        &mut self,
        kind: ChainEvent,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) {
        match kind {
            ChainEvent::FlushBatch { w, .. } => self.close_batch(w as usize, t, q, p),
            ChainEvent::StageDone { w, j, k } => {
                self.finish_stage(w as usize, j as usize, k as usize, t, q, p);
            }
            ChainEvent::HostDone { w, j, k } => {
                let d = self.states[w as usize].jobs[j as usize].timing[k as usize].input_s;
                self.request_bus(
                    BusRequest {
                        w,
                        j,
                        k,
                        phase: BusPhase::Input,
                        duration: d,
                    },
                    t,
                    q,
                    p,
                );
            }
            ChainEvent::ComputeDone { w, j, k } => {
                let d = self.states[w as usize].jobs[j as usize].timing[k as usize].stream_s;
                self.request_bus(
                    BusRequest {
                        w,
                        j,
                        k,
                        phase: BusPhase::Stream,
                        duration: d,
                    },
                    t,
                    q,
                    p,
                );
            }
            ChainEvent::BusDone { w, j, k, phase } => {
                self.release_bus(w, j, k, t, q, p);
                self.after_bus_phase(w, j, k, phase, t, q, p);
            }
        }
    }

    fn close_batch<P: Probe>(
        &mut self,
        w: usize,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) {
        let spec = &self.spec;
        let batch = self.tenants[w].batch;
        let st = &mut self.states[w];
        let count = st.open.len();
        let mut members: InlineVec<u32, 8> = InlineVec::new();
        members.extend(st.open.drain(..));
        st.open_epoch += 1;
        if st.timing_cache.len() <= count {
            st.timing_cache.resize(count + 1, None);
        }
        let timing = match &st.timing_cache[count] {
            Some(cached) => Rc::clone(cached),
            None => {
                let fresh: Rc<[StageTiming]> =
                    job_timings(&st.pipeline, spec, count * batch).into();
                st.timing_cache[count] = Some(Rc::clone(&fresh));
                fresh
            }
        };
        st.jobs_executed += 1;
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::BatchClose {
                    chain: self.c,
                    tenant: w as u32,
                    size: count as u32,
                },
            );
        }
        let j = st.jobs.insert(Job { members, timing });
        self.join_device(w, j, 0, t, q, p);
    }

    /// Representative request of job `j` (its first member) — the id
    /// carried by the job's acquire/release probe events.
    fn job_request(&self, w: usize, j: usize) -> u32 {
        self.states[w].jobs[j]
            .members
            .as_slice()
            .first()
            .copied()
            .unwrap_or(0)
    }

    fn join_device<P: Probe>(
        &mut self,
        w: usize,
        j: usize,
        k: usize,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) {
        if self.devices[k].busy {
            if k == 0 {
                let st = &mut self.states[w];
                st.waiting_stage0 += st.jobs[j].members.len();
            }
            self.devices[k].queue.push_back((w as u32, j as u32));
        } else {
            self.seize_device(w, j, k, t, q, p);
        }
    }

    fn seize_device<P: Probe>(
        &mut self,
        w: usize,
        j: usize,
        k: usize,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) {
        self.devices[k].busy = true;
        self.devices[k].seized_at = t;
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::Acquire {
                    chain: self.c,
                    resource: ResourceId::Device(k),
                    tenant: w as u32,
                    request: self.job_request(w, j),
                    stage: k as u16,
                },
            );
        }
        let timing = self.states[w].jobs[j].timing[k];
        let (w, j, k) = (w as u32, j as u32, k as u16);
        if self.contended_bus {
            let ev = self.chain_event(ChainEvent::HostDone { w, j, k });
            q.push(t + timing.host_s, ev);
        } else {
            let ev = self.chain_event(ChainEvent::StageDone { w, j, k });
            q.push(t + timing.hold_s, ev);
        }
    }

    /// Zero-length transfers skip the bus entirely (matching
    /// `usb::transfer_time(_, 0) == 0` and the raw engine).
    fn request_bus<P: Probe>(
        &mut self,
        req: BusRequest,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) {
        if req.duration == 0.0 {
            self.after_bus_phase(req.w, req.j, req.k, req.phase, t, q, p);
        } else if self.bus.busy {
            self.bus.queue.push_back(req);
        } else {
            self.grant_bus(req, t, q, p);
        }
    }

    fn grant_bus<P: Probe>(
        &mut self,
        req: BusRequest,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) {
        self.bus.busy = true;
        self.bus.busy_s += req.duration;
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::Acquire {
                    chain: self.c,
                    resource: ResourceId::Bus,
                    tenant: req.w,
                    request: self.job_request(req.w as usize, req.j as usize),
                    stage: req.k,
                },
            );
        }
        let ev = self.chain_event(ChainEvent::BusDone {
            w: req.w,
            j: req.j,
            k: req.k,
            phase: req.phase,
        });
        q.push(t + req.duration, ev);
    }

    fn release_bus<P: Probe>(
        &mut self,
        w: u32,
        j: u32,
        k: u16,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) {
        self.bus.busy = false;
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::Release {
                    chain: self.c,
                    resource: ResourceId::Bus,
                    tenant: w,
                    request: self.job_request(w as usize, j as usize),
                    stage: k,
                },
            );
        }
        if let Some(next) = self.bus.queue.pop_front() {
            self.grant_bus(next, t, q, p);
        }
    }

    #[allow(clippy::too_many_arguments)] // engine-internal hot path: flat args beat a context struct
    fn after_bus_phase<P: Probe>(
        &mut self,
        w: u32,
        j: u32,
        k: u16,
        phase: BusPhase,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) {
        match phase {
            BusPhase::Input => {
                let d = self.states[w as usize].jobs[j as usize].timing[k as usize].compute_s;
                let ev = self.chain_event(ChainEvent::ComputeDone { w, j, k });
                q.push(t + d, ev);
            }
            BusPhase::Stream => {
                let d = self.states[w as usize].jobs[j as usize].timing[k as usize].output_s;
                self.request_bus(
                    BusRequest {
                        w,
                        j,
                        k,
                        phase: BusPhase::Output,
                        duration: d,
                    },
                    t,
                    q,
                    p,
                );
            }
            BusPhase::Output => self.finish_stage(w as usize, j as usize, k as usize, t, q, p),
        }
    }

    fn finish_stage<P: Probe>(
        &mut self,
        w: usize,
        j: usize,
        k: usize,
        t: f64,
        q: &mut impl EventQueue<Event>,
        p: &mut P,
    ) {
        // busy-time integration for energy: spans never feed back into
        // event times, so the accounting is observation-only
        let span = t - self.devices[k].seized_at;
        self.busy_s += span;
        self.states[w].busy_s += span;
        self.devices[k].busy = false;
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::Release {
                    chain: self.c,
                    resource: ResourceId::Device(k),
                    tenant: w as u32,
                    request: self.job_request(w, j),
                    stage: k as u16,
                },
            );
        }
        if let Some((nw, nj)) = self.devices[k].queue.pop_front() {
            let (nw, nj) = (nw as usize, nj as usize);
            if k == 0 {
                let st = &mut self.states[nw];
                st.waiting_stage0 -= st.jobs[nj].members.len();
            }
            self.seize_device(nw, nj, k, t, q, p);
        }
        if k + 1 < self.states[w].pipeline_stages(j) {
            self.join_device(w, j, k + 1, t, q, p);
        } else {
            self.complete_job(w, j, t, p);
        }
    }

    fn complete_job<P: Probe>(&mut self, w: usize, j: usize, t: f64, p: &mut P) {
        let tenants = self.tenants;
        let st = &mut self.states[w];
        let job = st.jobs.remove(j).expect("completing job is live");
        for &r in job.members.as_slice() {
            self.completed.push((w as u32, r));
        }
        let members = job.members.len();
        st.done_requests += members;
        self.in_system -= members;
        // the drift window tracks the current partition's stage count;
        // jobs formed before a swap may be shorter or longer — compare
        // only shape-matching observations
        if job.timing.len() == st.window.busy_s.len() {
            st.scratch_holds.clear();
            st.scratch_holds.extend(job.timing.iter().map(|s| s.hold_s));
            st.window.observe(&st.scratch_holds, members);
        }
        if let Some(rep) = tenants[w].repartitioner.as_ref() {
            if st.window.jobs >= rep.policy.window_jobs {
                self.evaluate_drift(w, t, rep, p);
            }
        }
    }

    fn evaluate_drift<P: Probe>(&mut self, w: usize, t: f64, rep: &Repartitioner, p: &mut P) {
        let spec = &self.spec;
        let batch = self.tenants[w].batch;
        let c = self.c;
        let st = &mut self.states[w];
        // A well-partitioned pipeline spends equal busy time per stage
        // (the objective is the bottleneck); measured skew against that
        // balanced ideal is capacity left on the table. The compiled
        // schedule's own belief is enforced downstream: if no better
        // partition exists the refiner returns no gain and no swap
        // happens (min_gain gate).
        let uniform = vec![1.0; st.window.busy_s.len()];
        let divergence = st.window.divergence(&uniform);
        st.window.reset();
        if divergence <= rep.policy.threshold {
            return;
        }
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::DriftTrigger {
                    chain: c,
                    tenant: w as u32,
                    divergence,
                },
            );
        }
        if st.repartition_attempts >= rep.policy.max_swaps {
            return;
        }
        st.repartition_attempts += 1;
        let from_obj = rep.model.objective(&rep.dag, &st.pipeline.schedule);
        let out = if P::ENABLED {
            let mut on_pass = |pass: usize, moves_in_pass: usize, objective: f64| {
                p.record(
                    t,
                    &ProbeEvent::RepartitionPass {
                        chain: c,
                        tenant: w as u32,
                        pass: pass as u32,
                        moves: moves_in_pass as u32,
                        objective_s: objective,
                    },
                );
            };
            repartition::refine_with(
                &rep.dag,
                rep.model,
                &st.pipeline.schedule,
                rep.policy.passes,
                &mut on_pass,
            )
        } else {
            repartition::refine(
                &rep.dag,
                rep.model,
                &st.pipeline.schedule,
                rep.policy.passes,
            )
        };
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::RepartitionProposal {
                    chain: c,
                    tenant: w as u32,
                    from_objective_s: from_obj,
                    to_objective_s: out.objective,
                    moves: out.moves as u32,
                },
            );
        }
        if out.objective >= from_obj * (1.0 - rep.policy.min_gain) {
            if P::ENABLED {
                p.record(
                    t,
                    &ProbeEvent::RepartitionReject {
                        chain: c,
                        tenant: w as u32,
                    },
                );
            }
            return;
        }
        if P::ENABLED {
            p.record(
                t,
                &ProbeEvent::RepartitionAccept {
                    chain: c,
                    tenant: w as u32,
                },
            );
        }
        let new_pipeline = compile::compile(&rep.dag, &out.schedule, spec)
            .expect("refined schedule stays valid for the tenant's dag");
        debug_assert_eq!(
            new_pipeline.segments.len(),
            st.pipeline.segments.len(),
            "refinement preserves the stage count"
        );
        st.pipeline = new_pipeline;
        st.base_hold_s = base_holds(&st.pipeline, spec, batch);
        st.bottleneck_hold_s = st.base_hold_s.iter().copied().fold(0.0, f64::max);
        st.window = DriftWindow::new(st.base_hold_s.len());
        // memoized timings describe the swapped-out pipeline; in-flight
        // jobs keep their own Rc snapshot, new jobs must recompute
        st.timing_cache.clear();
        st.swaps.push(SwapRecord {
            at_s: t,
            from_objective: from_obj,
            to_objective: out.objective,
            moves: out.moves,
        });
    }

    // ---- driver-facing accessors -------------------------------------

    /// Admitted-minus-completed requests across all tenants: what a
    /// backlog-sensitive router compares between chains.
    pub(crate) fn backlog(&self) -> usize {
        self.in_system
    }

    /// Little's-law estimate of the time this chain needs to drain its
    /// current backlog: Σ over tenants of in-system requests × that
    /// tenant's bottleneck service time. The fleet autoscaler compares
    /// this against its scale-up/-down thresholds.
    pub(crate) fn drain_estimate_s(&self) -> f64 {
        self.states
            .iter()
            .map(|st| (st.admitted - st.done_requests) as f64 * st.bottleneck_hold_s)
            .sum()
    }

    pub(crate) fn jobs_executed(&self, w: usize) -> usize {
        self.states[w].jobs_executed
    }

    pub(crate) fn admitted(&self, w: usize) -> usize {
        self.states[w].admitted
    }

    pub(crate) fn swaps(&self, w: usize) -> &[SwapRecord] {
        &self.states[w].swaps
    }

    pub(crate) fn tenant_busy_s(&self, w: usize) -> f64 {
        self.states[w].busy_s
    }

    pub(crate) fn busy_s(&self) -> f64 {
        self.busy_s
    }

    pub(crate) fn bus_busy_s(&self) -> f64 {
        self.bus.busy_s
    }

    pub(crate) fn device_count(&self) -> usize {
        self.devices.len()
    }

    pub(crate) fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Read-only copy of this chain's occupancy and per-tenant state,
    /// for debugger safe-point inspection. `powered` is the fleet's
    /// active-prefix membership.
    pub(crate) fn chain_snapshot(&self, powered: bool) -> ChainSnapshot {
        ChainSnapshot {
            chain: self.c,
            powered,
            backlog: self.in_system,
            drain_estimate_s: self.drain_estimate_s(),
            busy_s: self.busy_s,
            bus: self.contended_bus.then(|| BusSnapshot {
                busy: self.bus.busy,
                queued: self.bus.queue.len(),
                busy_s: self.bus.busy_s,
            }),
            devices: self
                .devices
                .iter()
                .map(|d| DeviceSnapshot {
                    busy: d.busy,
                    queued: d.queue.len(),
                })
                .collect(),
            tenants: self
                .states
                .iter()
                .enumerate()
                .map(|(w, st)| TenantSnapshot {
                    tenant: w as u32,
                    admitted: st.admitted,
                    completed: st.done_requests,
                    open_batch: st.open.clone(),
                    waiting: st.waiting(),
                    in_flight_jobs: st.jobs.len(),
                    swaps: st.swaps.len(),
                    drift_window_jobs: st.window.jobs,
                    drift_busy_s: st.window.busy_s.clone(),
                })
                .collect(),
        }
    }
}
