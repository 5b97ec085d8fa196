//! SLO-aware online serving runtime for pipelined Edge TPU systems.
//!
//! The RESPECT paper schedules a model once, offline. This crate is the
//! layer a production deployment needs *after* that: a serving runtime
//! that makes online decisions against the deterministic discrete-event
//! engine of [`respect_tpu::sim`]:
//!
//! * [`runtime`] — per-tenant request queues, a **dynamic batcher**
//!   (max-batch + max-delay), **admission control / load shedding**
//!   against per-tenant SLO targets, and a **live re-partitioner** that
//!   hot-swaps the deployed pipeline when the measured bottleneck
//!   drifts from the compiled prediction;
//! * [`fleet`] — N chains (possibly heterogeneous) behind a
//!   deterministic **router** (round-robin, join-shortest-backlog,
//!   power-of-two-choices, affinity) with backlog-driven
//!   **autoscaling** and merged fleet-level reports. Its driver is the
//!   only one in the crate: [`serve`] runs as a one-chain fleet;
//! * [`hist`] — deterministic, mergeable log-bucket latency histograms
//!   extending reports with p50/p95/p99/p999;
//! * [`drift`] — the utilization window and re-partitioning policy.
//!
//! Every entry point has a `_probed` twin ([`serve_probed`],
//! [`serve_fleet_probed`]) taking a [`respect_tpu::probe::Probe`] that
//! observes the typed event stream (arrivals, admission decisions,
//! batches, resource spans, completions, repartitions, router and
//! autoscaler steps). With the default `NullProbe` the instrumentation
//! compiles away and the probed twins are bitwise the plain ones.
//!
//! The runtime is bitwise-deterministic per seed, and its degenerate
//! configuration (no batching, open admission, no repartitioning)
//! reproduces the raw simulator bitwise — the same differential-testing
//! discipline the simulator itself maintains against the analytic
//! recurrence.
//!
//! # Example
//!
//! ```
//! use respect_graph::models;
//! use respect_sched::{balanced::ParamBalanced, Scheduler};
//! use respect_serve::{serve, AdmissionPolicy, BatchPolicy, ServeConfig, ServeTenant};
//! use respect_tpu::{compile, device::DeviceSpec, sim::Arrivals};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dag = models::resnet50();
//! let spec = DeviceSpec::coral();
//! let schedule = ParamBalanced::new().schedule(&dag, 4)?;
//! let pipeline = compile::compile(&dag, &schedule, &spec)?;
//!
//! let tenant = ServeTenant::new(pipeline, 400)
//!     .with_arrivals(Arrivals::Poisson { rate: 400.0, seed: 7 })
//!     .with_batcher(BatchPolicy::new(8, 2e-3))
//!     .with_admission(AdmissionPolicy::SloDelay { target_s: 50e-3 });
//! let report = serve(&[tenant], &spec, &ServeConfig::contended())?;
//! let t = &report.tenants[0];
//! println!("p99 {:.2} ms, shed {}", t.p99_s() * 1e3, t.shed);
//! # Ok(())
//! # }
//! ```

mod chain;
pub mod drift;
pub mod fleet;
pub mod hist;
pub mod runtime;

pub use drift::{DriftPolicy, DriftWindow, Repartitioner};
pub use fleet::{
    serve_fleet, serve_fleet_probed, AutoscalePolicy, ChainReport, FleetConfig, FleetReport,
    RouterPolicy, ScaleEvent,
};
pub use hist::LatencyHistogram;
pub use runtime::{
    serve, serve_probed, AdmissionPolicy, BatchPolicy, ServeConfig, ServeError, ServeReport,
    ServeTenant, SwapRecord, TenantServeReport,
};
