//! Per-worker phase timelines for the parallel DES executor (wall clock).
//!
//! The scaling observatory instruments the parallel executor with a
//! four-phase accounting of each worker's wall-clock time: event
//! *compute*, *mailbox-drain* (cross-partition message intake plus the
//! shared-state snapshot), *barrier* coordination, and *horizon-stall*
//! (the worker had events pending but the conservative window excluded
//! them — it was blocked on another worker's `next_j + lookahead`).
//!
//! Recording follows the same discipline as the request tracer
//! ([`crate::reqtrace`]): every worker owns a private [`PhaseRecorder`]
//! it appends to without locks, and the per-worker buffers are merged
//! deterministically (worker order) after the run into an
//! [`ExecProfile`].
//!
//! ## Conservation by construction
//!
//! A recorder keeps a single *last stamp*. Every [`PhaseRecorder::mark`]
//! reads the clock once, attributes the entire segment since the last
//! stamp to exactly one phase, and advances the stamp. The worker's
//! recorded span is the final stamp, so
//!
//! ```text
//! sum(phase_ns) == span_ns        (exactly, in integer nanoseconds)
//! ```
//!
//! holds by telescoping — there is no second clock read that could
//! disagree. The property tests in `tests/des_profile_props.rs` pin
//! this invariant across random PHOLD topologies and window policies.
//!
//! This module is shared *vocabulary*: it has no dependency on the DES
//! engine, so `pioeval-des` (the producer) and `pioeval-monitor` (the
//! attribution analyzer) both speak it without a dependency cycle.

use std::time::Instant;

/// Number of profiled phases (the length of every `phase_ns` array).
pub const PROF_PHASES: usize = 4;

/// Sentinel for "this window was not limited by a peer worker"
/// (the horizon was bound by the worker's own queue or the stop time).
pub const NO_LIMITER: u32 = u32::MAX;

/// Default cap on retained per-window samples per worker. Totals stay
/// exact past the cap; only the per-window timeline is truncated (the
/// drop is counted in [`WorkerProfile::dropped_samples`], never silent).
pub const PROF_SAMPLE_CAP: usize = 1 << 16;

/// One of the four profiled wall-clock phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProfPhase {
    /// Processing events inside the committed window.
    Compute,
    /// Draining cross-partition mailboxes and snapshotting shared state.
    MailboxDrain,
    /// Waiting at the window barrier (coordination cost proper).
    Barrier,
    /// Waiting with work pending that the conservative horizon excluded.
    HorizonStall,
}

impl ProfPhase {
    /// All phases, in `phase_ns` index order.
    pub const ALL: [ProfPhase; PROF_PHASES] = [
        ProfPhase::Compute,
        ProfPhase::MailboxDrain,
        ProfPhase::Barrier,
        ProfPhase::HorizonStall,
    ];

    /// The phase's slot in a `phase_ns` array.
    pub fn index(self) -> usize {
        match self {
            ProfPhase::Compute => 0,
            ProfPhase::MailboxDrain => 1,
            ProfPhase::Barrier => 2,
            ProfPhase::HorizonStall => 3,
        }
    }

    /// Stable lower-case name (`compute`, `mailbox`, `barrier`, `stall`).
    pub fn name(self) -> &'static str {
        match self {
            ProfPhase::Compute => "compute",
            ProfPhase::MailboxDrain => "mailbox",
            ProfPhase::Barrier => "barrier",
            ProfPhase::HorizonStall => "stall",
        }
    }
}

/// One worker's phase breakdown for a single committed window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSample {
    /// Window start offset from the worker's recording epoch (ns).
    pub start_ns: u64,
    /// Wall-clock nanoseconds per phase, indexed by [`ProfPhase::index`].
    pub phase_ns: [u64; PROF_PHASES],
    /// Events this worker processed in the window (0 = null window).
    pub events: u64,
    /// The peer worker whose `next + lookahead` bounded this worker's
    /// horizon, or [`NO_LIMITER`] when self- or stop-time-bound.
    pub limiter: u32,
}

/// One worker's merged phase timeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Worker index (partition id).
    pub worker: u32,
    /// Entities owned by this worker's partition.
    pub entities: u64,
    /// Events processed across the whole run.
    pub events: u64,
    /// Windows this worker participated in.
    pub windows: u64,
    /// Windows in which this worker processed no events.
    pub null_windows: u64,
    /// Total recorded span (ns); equals the sum of `phase_ns` exactly.
    pub span_ns: u64,
    /// Whole-run wall-clock nanoseconds per phase.
    pub phase_ns: [u64; PROF_PHASES],
    /// Per-window samples, in window order (capped; see
    /// [`WorkerProfile::dropped_samples`]).
    pub samples: Vec<WindowSample>,
    /// Windows whose samples were dropped by the retention cap. Phase
    /// totals above still include them.
    pub dropped_samples: u64,
}

impl WorkerProfile {
    /// Total time this worker was not computing (ns).
    pub fn blocked_ns(&self) -> u64 {
        self.span_ns
            .saturating_sub(self.phase_ns[ProfPhase::Compute.index()])
    }

    /// True when the phase totals tile the span exactly.
    pub fn conserves(&self) -> bool {
        self.phase_ns.iter().sum::<u64>() == self.span_ns
    }
}

/// The merged profile of one parallel execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecProfile {
    /// Worker thread count.
    pub threads: u32,
    /// Backend that ran: always `threads` now. Documents written before
    /// the cooperative backend was removed may say `cooperative`.
    pub backend: String,
    /// Window policy (`fixed` or `adaptive`).
    pub window_policy: String,
    /// Partitioner (`round_robin`, `block`, or `greedy`).
    pub partitioner: String,
    /// Conservative lookahead, in *simulated* nanoseconds.
    pub lookahead_ns: u64,
    /// Wall clock of the parallel section: the longest worker span (ns).
    pub wall_ns: u64,
    /// Committed windows (shared across workers).
    pub windows: u64,
    /// Per-worker timelines, in worker order.
    pub workers: Vec<WorkerProfile>,
}

impl ExecProfile {
    /// Schema tag written into the JSON document.
    pub const SCHEMA: &'static str = "pioeval-profile/1";

    /// True when every worker's phase totals tile its span exactly.
    pub fn conserves(&self) -> bool {
        self.workers.iter().all(WorkerProfile::conserves)
    }

    /// Total compute across workers (ns).
    pub fn total_compute_ns(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.phase_ns[ProfPhase::Compute.index()])
            .sum()
    }

    /// Serialize to the `pioeval-profile/1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + 128 * self.workers.len());
        out.push_str(&format!(
            "{{\"schema\": \"{}\", \"threads\": {}, \"backend\": \"{}\", \
             \"window_policy\": \"{}\", \"partitioner\": \"{}\", \
             \"lookahead_ns\": {}, \"wall_ns\": {}, \"windows\": {}, \
             \"workers\": [",
            Self::SCHEMA,
            self.threads,
            self.backend,
            self.window_policy,
            self.partitioner,
            self.lookahead_ns,
            self.wall_ns,
            self.windows
        ));
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"worker\": {}, \"entities\": {}, \"events\": {}, \
                 \"windows\": {}, \"null_windows\": {}, \"span_ns\": {}, \
                 \"dropped_samples\": {}",
                w.worker,
                w.entities,
                w.events,
                w.windows,
                w.null_windows,
                w.span_ns,
                w.dropped_samples
            ));
            for p in ProfPhase::ALL {
                out.push_str(&format!(", \"{}_ns\": {}", p.name(), w.phase_ns[p.index()]));
            }
            out.push_str(", \"samples\": [");
            for (j, s) in w.samples.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{{\"start_ns\": {}", s.start_ns));
                for p in ProfPhase::ALL {
                    out.push_str(&format!(", \"{}_ns\": {}", p.name(), s.phase_ns[p.index()]));
                }
                out.push_str(&format!(
                    ", \"events\": {}, \"limiter\": {}}}",
                    s.events,
                    if s.limiter == NO_LIMITER {
                        -1i64
                    } else {
                        s.limiter as i64
                    }
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// A per-worker lock-free phase recorder (telescoping timestamps).
///
/// Owned exclusively by one worker; never shared, never locked. The
/// parallel executor holds `Option<PhaseRecorder>` per worker, so the
/// unprofiled path pays a single branch per mark site.
#[derive(Debug)]
pub struct PhaseRecorder {
    epoch: Instant,
    last_ns: u64,
    window_start_ns: u64,
    cur_phase_ns: [u64; PROF_PHASES],
    profile: WorkerProfile,
    cap: usize,
}

impl PhaseRecorder {
    /// Start recording for `worker`, with the default sample cap. The
    /// epoch is the moment of construction.
    pub fn start(worker: u32) -> Self {
        Self::start_capped(worker, PROF_SAMPLE_CAP)
    }

    /// Start recording with an explicit per-window sample cap.
    pub fn start_capped(worker: u32, cap: usize) -> Self {
        PhaseRecorder {
            epoch: Instant::now(),
            last_ns: 0,
            window_start_ns: 0,
            cur_phase_ns: [0; PROF_PHASES],
            profile: WorkerProfile {
                worker,
                ..WorkerProfile::default()
            },
            cap,
        }
    }

    /// Close the open segment, attributing everything since the last
    /// stamp to `phase`. One clock read; exact telescoping.
    pub fn mark(&mut self, phase: ProfPhase) {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let delta = now_ns - self.last_ns;
        self.last_ns = now_ns;
        self.cur_phase_ns[phase.index()] += delta;
        self.profile.phase_ns[phase.index()] += delta;
        self.profile.span_ns += delta;
    }

    /// Commit the current window: fold the open per-window phase
    /// accumulators into a [`WindowSample`] and reset them. `events` is
    /// the number of events this worker processed in the window;
    /// `limiter` identifies the peer that bounded the horizon (or
    /// [`NO_LIMITER`]).
    pub fn end_window(&mut self, events: u64, limiter: u32) {
        self.profile.windows += 1;
        if events == 0 {
            self.profile.null_windows += 1;
        }
        if self.profile.samples.len() < self.cap {
            self.profile.samples.push(WindowSample {
                start_ns: self.window_start_ns,
                phase_ns: self.cur_phase_ns,
                events,
                limiter,
            });
        } else {
            self.profile.dropped_samples += 1;
        }
        self.cur_phase_ns = [0; PROF_PHASES];
        self.window_start_ns = self.last_ns;
    }

    /// Finish recording: stamp final bookkeeping and return the merged
    /// per-worker profile. `entities`/`events` are the run totals the
    /// executor already tracks.
    pub fn finish(mut self, entities: u64, events: u64) -> WorkerProfile {
        self.profile.entities = entities;
        self.profile.events = events;
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indexes_are_stable_and_distinct() {
        for (i, p) in ProfPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let names: Vec<_> = ProfPhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["compute", "mailbox", "barrier", "stall"]);
    }

    #[test]
    fn recorder_phase_totals_tile_span_exactly() {
        let mut rec = PhaseRecorder::start(3);
        for w in 0..100u64 {
            rec.mark(ProfPhase::MailboxDrain);
            if w % 3 == 0 {
                std::thread::yield_now();
            }
            rec.mark(ProfPhase::Compute);
            rec.mark(if w % 4 == 0 {
                ProfPhase::HorizonStall
            } else {
                ProfPhase::Barrier
            });
            rec.end_window(w % 5, if w % 7 == 0 { NO_LIMITER } else { 1 });
        }
        let prof = rec.finish(8, 200);
        assert_eq!(prof.worker, 3);
        assert_eq!(prof.entities, 8);
        assert_eq!(prof.events, 200);
        assert_eq!(prof.windows, 100);
        assert_eq!(prof.null_windows, 20, "events == 0 every 5th window");
        assert!(prof.conserves(), "phase sum must equal span exactly");
        assert_eq!(prof.samples.len(), 100);
        assert_eq!(prof.dropped_samples, 0);
        // Per-window samples tile the span too: each segment was
        // attributed to exactly one window's accumulator.
        let sampled: u64 = prof
            .samples
            .iter()
            .map(|s| s.phase_ns.iter().sum::<u64>())
            .sum();
        assert!(sampled <= prof.span_ns);
    }

    #[test]
    fn sample_cap_counts_drops_but_keeps_totals() {
        let mut rec = PhaseRecorder::start_capped(0, 4);
        for _ in 0..10 {
            rec.mark(ProfPhase::Compute);
            rec.end_window(1, NO_LIMITER);
        }
        let prof = rec.finish(1, 10);
        assert_eq!(prof.samples.len(), 4);
        assert_eq!(prof.dropped_samples, 6);
        assert_eq!(prof.windows, 10);
        assert!(prof.conserves());
    }

    #[test]
    fn exec_profile_json_has_schema_and_workers() {
        let mut rec = PhaseRecorder::start(0);
        rec.mark(ProfPhase::Compute);
        rec.end_window(5, 1);
        let prof = ExecProfile {
            threads: 2,
            backend: "threads".into(),
            window_policy: "adaptive".into(),
            partitioner: "block".into(),
            lookahead_ns: 10_000,
            wall_ns: 123,
            windows: 1,
            workers: vec![rec.finish(4, 5)],
        };
        assert!(prof.conserves());
        let json = prof.to_json();
        assert!(json.contains("\"schema\": \"pioeval-profile/1\""));
        assert!(json.contains("\"backend\": \"threads\""));
        assert!(json.contains("\"compute_ns\""));
        assert!(json.contains("\"limiter\": 1"));
    }

    #[test]
    fn no_limiter_serializes_as_minus_one() {
        let mut rec = PhaseRecorder::start(0);
        rec.mark(ProfPhase::Compute);
        rec.end_window(0, NO_LIMITER);
        let prof = ExecProfile {
            threads: 1,
            backend: "cooperative".into(),
            window_policy: "fixed".into(),
            partitioner: "round_robin".into(),
            lookahead_ns: 1,
            wall_ns: 1,
            windows: 1,
            workers: vec![rec.finish(1, 0)],
        };
        assert!(prof.to_json().contains("\"limiter\": -1"));
    }

    #[test]
    fn blocked_time_excludes_compute() {
        let w = WorkerProfile {
            span_ns: 100,
            phase_ns: [60, 10, 20, 10],
            ..WorkerProfile::default()
        };
        assert!(w.conserves());
        assert_eq!(w.blocked_ns(), 40);
    }
}
