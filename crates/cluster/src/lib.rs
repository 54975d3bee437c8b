//! Simulated distributed-memory cluster runtime for the ESRCG project.
//!
//! The paper runs its solver on 128 MPI processes of the VSC3 cluster; this
//! crate provides the laptop-scale equivalent: an SPMD runtime where each
//! simulated node ("rank") runs as a stackful coroutine — many ranks
//! multiplexed over at most as many worker threads as the host has cores —
//! and communicates through an MPI-like, tag-matched, point-to-point
//! message layer ([`Ctx`]) backed by one mailbox per rank. A rank body is an
//! ordinary synchronous closure; a blocking [`Ctx::recv`] is where it yields
//! its worker to other ranks.
//!
//! Two kinds of time are measured (see `ARCHITECTURE.md` §3, "Cluster
//! runtime"):
//!
//! * **wall-clock** — real elapsed time of the run, and
//! * **modeled time** — a deterministic α–β–γ cost model: sends advance a
//!   per-rank logical clock by a per-message latency plus a bandwidth term,
//!   receives synchronize the receiver's clock with the message's arrival
//!   time, and compute kernels charge flops at a configurable rate. Because
//!   collectives are built from deterministic point-to-point rounds, modeled
//!   time is bit-reproducible run to run, which is what lets the benchmark
//!   harness regenerate the paper's *table shapes* on any machine.
//!
//! Node failures are simulated exactly as in the paper (§4): at a marked
//! iteration the failing ranks zero out their dynamic data and then act as
//! their own replacement nodes ([`FailureSpec`]).
//!
//! Message payloads move by value through the mailboxes; each rank's
//! `BufferPool` recycles consumed payload buffers so steady-state traffic
//! (halo rounds, collectives, checkpoints) allocates nothing per message.

mod comm;
mod coro;
mod cost;
mod failure;
pub mod json;
mod msg;
mod spmd;
mod stats;
mod trace;

pub use comm::{Ctx, PendingReduce};
pub use cost::CostModel;
pub use failure::FailureSpec;
pub use msg::{BufferPoolStats, Payload, Tag};
pub use spmd::{run_spmd, run_spmd_traced, SpmdOutcome};
pub use stats::{Phase, RankStats, N_PHASES};
pub use trace::{
    validate_trace_json, InstantKind, MergedTrace, MetricsRollup, RankTrace, TraceConfig,
    TraceEvent,
};
