#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pioeval-des
//!
//! A discrete-event simulation (DES) engine in the spirit of ROSS
//! (Carothers et al.): logical processes ("entities") exchange timestamped
//! messages; the engine executes them in timestamp order.
//!
//! Two executors are provided over the same [`Simulation`] state:
//!
//! * [`Simulation::run`] — the sequential executor: a single event queue,
//!   events processed in global key order.
//! * [`parallel::run_parallel`] — a conservative (YAWNS-style)
//!   barrier-synchronized parallel executor: entities are partitioned
//!   across threads, and each synchronization window processes all events
//!   with timestamps below the global lower bound plus the configured
//!   *lookahead*.
//!
//! **Determinism.** Events are totally ordered by
//! `(time, destination, source, per-source sequence number)`. All of these
//! are properties of the *sending* action, so the order in which a given
//! entity observes its events — and therefore every entity's state
//! trajectory — is identical under both executors and any thread count.
//! This property is load-bearing for the evaluation framework: the paper's
//! closed evaluation loop (Fig. 4) feeds measurements back into models, and
//! nondeterministic simulation would contaminate every downstream phase.
//!
//! **Lookahead.** Cross-entity messages must be sent with a delay of at
//! least [`Simulation::lookahead`]. The storage simulator in `pioeval-pfs`
//! satisfies this naturally: every cross-node message traverses a fabric
//! link with non-zero latency. Self-messages may use any delay.
//!
//! **Causality sanitizer.** Building with `--features causality-check`
//! compiles per-worker Lamport-clock guards into the parallel executor
//! (the `causality` module, compiled only under that feature): every
//! executed event is asserted to lie inside its
//! worker's open window and at/above its committed horizon, and every
//! cross-worker mailbox delivery is checked for send ordering.
//! Violations abort with a diagnostic snapshot. The default build
//! carries zero overhead.

#[cfg(feature = "causality-check")]
pub mod causality;
pub mod event;
pub mod parallel;
pub mod phold;
pub mod queue;
pub mod sim;

pub use event::{EntityId, Envelope, EventKey, EXTERNAL};
pub use parallel::{
    run_parallel, run_parallel_profiled, Backend, ExecMode, ParallelConfig, Partitioner,
    WindowPolicy,
};
pub use phold::{build_phold, build_phold_traced, phold_fingerprint, PholdConfig};
pub use sim::{Ctx, Entity, RunResult, SimConfig, Simulation};
