//! Conservative parallel executor (barrier-synchronized, YAWNS-style).
//!
//! Entities are partitioned across workers by a pluggable [`Partitioner`].
//! Execution proceeds in *windows*: each window processes every pending
//! event with a timestamp strictly below a per-worker horizon derived from
//! the global minimum next-event time and the engine lookahead. Because
//! cross-entity messages carry at least the lookahead of delay, no event
//! generated inside a window can be destined for delivery inside that
//! window on another worker — the classical conservative-synchronization
//! safety argument.
//!
//! Two refinements over the textbook algorithm, both tunable through
//! [`ParallelConfig`]:
//!
//! * **Adaptive window widening** ([`WindowPolicy::Adaptive`]): worker *i*
//!   does not stop at the fixed horizon `T + lookahead` (`T` = global
//!   minimum). The earliest event another worker *j* can deliver to *i* is
//!   bounded below by `next_j + lookahead` (a direct send), and the
//!   earliest *reflected* event — *i* sends to some *j*, which reacts and
//!   sends back — by `next_i + 2·lookahead`. So
//!   `H_i = min(min_{j≠i}(next_j) + la, next_i + 2·la)` is a safe horizon,
//!   and it fuses many lookahead quanta into one barrier crossing whenever
//!   the other workers' clocks have run ahead. With a single worker there
//!   is no cross-worker hazard at all and the horizon is unbounded.
//! * **One barrier per window**: the min-reduction for the next window and
//!   the mailbox hand-off share a generation. Every worker publishes its
//!   next-event lower bound, its pending-count delta, and the minimum
//!   timestamp per outgoing mailbox *before* the barrier, into a
//!   parity-indexed slot; after the barrier everyone reads the same
//!   complete snapshot, so a second "everyone has published" wait is
//!   unnecessary. In-flight mailbox events are covered by the published
//!   per-destination minima, which keeps the bound conservative even
//!   though the destination drains its inbox after the decision point.
//!
//! Within a window each worker drains its local heap in
//! [`crate::event::EventKey`] order; the key depends only on the sending
//! action, so every entity observes its events in exactly the order the
//! sequential executor would deliver them, for any thread count, any
//! window policy, and any partitioner. `tests` assert this equivalence
//! over the whole configuration matrix.
//!
//! Every worker is one OS thread. A single requested worker runs the
//! sequential loop instead, and a run with more workers than cores
//! still works: the barrier stops spinning and yields.

use crate::event::Envelope;
use crate::queue::EventQueue;
use crate::sim::{Ctx, Entity, RunResult, Simulation};
use parking_lot::Mutex;
use pioeval_types::{
    ExecProfile, PhaseRecorder, ProfPhase, SimDuration, SimTime, WorkerProfile, NO_LIMITER,
};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How the executor chooses each window's per-worker horizon.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WindowPolicy {
    /// Classic conservative window: every worker processes events strictly
    /// below `T + lookahead`, where `T` is the global minimum next-event
    /// time. Predictable, and the right choice when event density per
    /// window is already high.
    Fixed,
    /// Widen each worker's horizon to its earliest-possible-input bound
    /// `min(min_{j≠i}(next_j) + la, next_i + 2·la)`, fusing lookahead
    /// quanta into one barrier crossing when the workload is sparse or
    /// skewed. Falls back to exactly the fixed window when all workers'
    /// clocks are tied. The default.
    #[default]
    Adaptive,
}

/// Strategy assigning entities (LPs) to workers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Partitioner {
    /// Entity `i` goes to worker `i % threads`. Good when neighbouring
    /// ids have similar load; the default.
    #[default]
    RoundRobin,
    /// Contiguous chunks of `ceil(n / threads)` ids per worker. Preserves
    /// id locality; trailing workers may own fewer (or zero) entities.
    Block,
    /// Profile-guided greedy bin-packing (longest-processing-time): sort
    /// entities by observed event count descending and place each on the
    /// least-loaded worker. Feed it per-entity counts from
    /// [`Simulation::run_counted`] on a warmup window or a prior run; see
    /// `des.par.thread_busy_us` to judge the resulting balance. Entities
    /// beyond the profile's length get weight 1.
    Greedy(Vec<u64>),
}

impl Partitioner {
    /// A [`Partitioner::Greedy`] fed by per-entity event counts, e.g. the
    /// second element of [`Simulation::run_counted`].
    pub fn greedy_from_counts(counts: &[u64]) -> Self {
        Partitioner::Greedy(counts.to_vec())
    }

    /// Owner worker for each of `entities` ids, given `threads` workers.
    /// Deterministic for a given input (ties in `Greedy` resolve to the
    /// lowest worker id).
    pub fn assign(&self, entities: usize, threads: usize) -> Vec<u32> {
        let threads = threads.max(1);
        match self {
            Partitioner::RoundRobin => (0..entities).map(|i| (i % threads) as u32).collect(),
            Partitioner::Block => {
                let chunk = entities.div_ceil(threads).max(1);
                (0..entities).map(|i| (i / chunk) as u32).collect()
            }
            Partitioner::Greedy(counts) => {
                let weight = |i: usize| counts.get(i).copied().unwrap_or(0) + 1;
                let mut order: Vec<usize> = (0..entities).collect();
                order.sort_by_key(|&i| (std::cmp::Reverse(weight(i)), i));
                let mut load = vec![0u64; threads];
                let mut owners = vec![0u32; entities];
                for i in order {
                    let mut best = 0usize;
                    for (tid, &l) in load.iter().enumerate().skip(1) {
                        if l < load[best] {
                            best = tid;
                        }
                    }
                    owners[i] = best as u32;
                    load[best] += weight(i);
                }
                owners
            }
        }
    }
}

/// The execution backend: one OS thread per worker with spin-barrier
/// synchronization, the only one there is.
///
/// The type stays so that existing `ParallelConfig` literals that name
/// `backend: Backend::Threads` (the pipeline benchmark in `pipebench/`
/// builds one) keep compiling. Nothing matches on it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// One OS thread per worker. The default.
    #[default]
    Threads,
}

/// Parallel executor configuration.
#[derive(Clone, Debug, Default)]
pub struct ParallelConfig {
    /// Number of workers (clamped to `1..=entities`). Zero means 1.
    pub threads: usize,
    /// Horizon policy per window; see [`WindowPolicy`].
    pub window: WindowPolicy,
    /// Entity-to-worker assignment; see [`Partitioner`].
    pub partitioner: Partitioner,
    /// Execution backend; see [`Backend`].
    pub backend: Backend,
}

impl ParallelConfig {
    /// Default knobs with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            ..ParallelConfig::default()
        }
    }
}

/// How to execute a simulation: inline sequential, or parallel with a
/// given [`ParallelConfig`]. Carried by callers (CLI, pipeline) that are
/// generic over the executor choice.
#[derive(Clone, Debug, Default)]
pub enum ExecMode {
    /// [`Simulation::run`] on the calling thread.
    #[default]
    Sequential,
    /// [`run_parallel`] with the embedded configuration.
    Parallel(ParallelConfig),
}

impl ExecMode {
    /// Run `sim` to completion with the selected executor.
    pub fn run<M: Send + 'static>(&self, sim: &mut Simulation<M>) -> RunResult {
        match self {
            ExecMode::Sequential => sim.run(),
            ExecMode::Parallel(cfg) => run_parallel(sim, cfg),
        }
    }

    /// Run `sim` with the selected executor, recording per-worker phase
    /// timelines. The profile is `Some` only for a genuinely parallel
    /// run (parallel mode, more than one effective worker); sequential
    /// execution has no phases to attribute.
    pub fn run_profiled<M: Send + 'static>(
        &self,
        sim: &mut Simulation<M>,
    ) -> (RunResult, Option<ExecProfile>) {
        match self {
            ExecMode::Sequential => (sim.run(), None),
            ExecMode::Parallel(cfg) => run_parallel_profiled(sim, cfg),
        }
    }
}

/// A spin-then-yield generation barrier.
///
/// Synchronization windows are short (often well under a millisecond),
/// so an OS-parking barrier would spend more time in wake-ups than in
/// simulation. Waiters spin briefly (fast path when every thread has its
/// own core), then fall back to `yield_now`. On oversubscribed hosts —
/// more workers than cores — the spin budget is zero: spinning there only
/// steals the quantum from the thread everyone is waiting on.
struct SpinBarrier {
    total: usize,
    spins: u32,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(total: usize, spins: u32) -> Self {
        SpinBarrier {
            total,
            spins,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) == self.total - 1 {
            // Last arrival: reset and release the next generation.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::AcqRel);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if spins < self.spins {
                    std::hint::spin_loop();
                    spins += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Pending-event store tuned for windowed draining — a lazy queue.
///
/// A global priority queue pays two O(log n) sifts per event. A windowed
/// executor does not need a total order at insertion time: it only ever
/// drains *the current window*. So appends go into an unsorted backlog
/// (`fresh`) as O(1) pushes; each window start makes one linear partition
/// pass over the backlog, sorts just the k events the window will
/// process, and drains them by `Vec::pop` (the window is kept sorted
/// descending, so the next event is always at the tail). Total
/// comparisons stay O(k log k) but with strictly sequential memory
/// traffic and no per-event sift, which is the point: the window fits in
/// cache, the backlog is touched once per window, and the sort runs over
/// a dense slice instead of a pointer-chasing sift path.
///
/// Events that survive two partitions (`fresh` → `stale` → old) are
/// *aged* into a real heap so long-delay tails — think a checkpoint
/// scheduled seconds ahead under a microsecond lookahead — are not
/// rescanned every window.
///
/// `overlay` holds own-chain events emitted *below* the current horizon
/// (possible only inside adaptively widened windows); it is merged with
/// the sorted window during the drain.
struct WindowStore<M> {
    /// Unsorted backlog appended since the last partition.
    fresh: Vec<Envelope<M>>,
    fresh_min: u64,
    /// Backlog that survived one partition.
    stale: Vec<Envelope<M>>,
    stale_min: u64,
    /// Long-delay tail: survived two partitions.
    aged: EventQueue<M>,
    /// Current window, sorted descending by key; next event at the tail.
    near: Vec<Envelope<M>>,
    /// Own-chain events below the current horizon (adaptive widening).
    overlay: EventQueue<M>,
    /// Reusable buffer for the stale → aged hand-off.
    scratch: Vec<Envelope<M>>,
}

impl<M> WindowStore<M> {
    fn new() -> Self {
        WindowStore {
            fresh: Vec::new(),
            fresh_min: u64::MAX,
            stale: Vec::new(),
            stale_min: u64::MAX,
            aged: EventQueue::new(),
            near: Vec::new(),
            overlay: EventQueue::new(),
            scratch: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.near.len() + self.overlay.len() + self.fresh.len() + self.stale.len() + self.aged.len()
    }

    /// Minimum pending timestamp in nanos (`u64::MAX` when empty).
    fn next_nanos(&self) -> u64 {
        let mut t = self.fresh_min.min(self.stale_min);
        if let Some(ev) = self.near.last() {
            t = t.min(ev.key.time.as_nanos());
        }
        if let Some(k) = self.overlay.peek_key() {
            t = t.min(k.time.as_nanos());
        }
        if let Some(n) = self.aged.next_time() {
            t = t.min(n.as_nanos());
        }
        t
    }

    fn push(&mut self, ev: Envelope<M>) {
        self.fresh_min = self.fresh_min.min(ev.key.time.as_nanos());
        self.fresh.push(ev);
    }

    /// Bulk append (mailbox flush); drains `batch`, keeping its capacity.
    fn append(&mut self, batch: &mut Vec<Envelope<M>>) {
        for ev in batch.iter() {
            self.fresh_min = self.fresh_min.min(ev.key.time.as_nanos());
        }
        self.fresh.append(batch);
    }

    /// Open the window `[.., h)`: one partition pass over the backlog,
    /// then sort the window's events. Caller guarantees the previous
    /// window was fully drained (the executor only halts between passes).
    fn begin_window(&mut self, h: u64) {
        debug_assert!(self.near.is_empty() && self.overlay.is_empty());
        while self
            .aged
            .next_time()
            .map(SimTime::as_nanos)
            .is_some_and(|t| t < h)
        {
            self.near
                .push(self.aged.pop().expect("peeked event vanished"));
        }
        // Second-chance survivors move to the heap...
        for ev in self.stale.drain(..) {
            if ev.key.time.as_nanos() < h {
                self.near.push(ev);
            } else {
                self.scratch.push(ev);
            }
        }
        self.aged.push_batch(&mut self.scratch);
        // ...and the fresh backlog gets its first chance.
        self.stale_min = u64::MAX;
        for ev in self.fresh.drain(..) {
            if ev.key.time.as_nanos() < h {
                self.near.push(ev);
            } else {
                self.stale_min = self.stale_min.min(ev.key.time.as_nanos());
                self.stale.push(ev);
            }
        }
        self.fresh_min = u64::MAX;
        self.near
            .sort_unstable_by_key(|ev| std::cmp::Reverse(ev.key));
    }

    /// Next event of the open window, merging the overlay; None when the
    /// window is drained.
    fn pop_window(&mut self) -> Option<Envelope<M>> {
        match (self.near.last(), self.overlay.peek_key()) {
            (Some(ev), Some(k)) if k < ev.key => self.overlay.pop(),
            (Some(_), _) => self.near.pop(),
            (None, Some(_)) => self.overlay.pop(),
            (None, None) => None,
        }
    }

    /// An own-chain event below the current horizon: joins the drain in
    /// key order. Rare (adaptively widened windows only).
    fn push_overlay(&mut self, ev: Envelope<M>) {
        self.overlay.push_untracked(ev);
    }

    /// Remove every pending event, in no particular order.
    fn take_all(&mut self) -> Vec<Envelope<M>> {
        let mut all = std::mem::take(&mut self.near);
        all.extend(self.overlay.take_all());
        all.append(&mut self.fresh);
        all.append(&mut self.stale);
        all.extend(self.aged.take_all());
        self.fresh_min = u64::MAX;
        self.stale_min = u64::MAX;
        all
    }
}

struct Worker<M> {
    /// (global entity index, entity) pairs owned by this worker.
    entities: Vec<(usize, Box<dyn Entity<M>>)>,
    /// Send sequence counters for owned entities, parallel to `entities`.
    seqs: Vec<u64>,
    /// Local slot lookup: global entity index → local slot (usize::MAX if
    /// not owned).
    slots: Vec<usize>,
    store: WindowStore<M>,
    processed: u64,
    null_windows: u64,
    busy: Duration,
    end_max: u64,
}

impl<M> Worker<M> {
    fn empty(total_entities: usize) -> Self {
        Worker {
            entities: Vec::new(),
            seqs: Vec::new(),
            slots: vec![usize::MAX; total_entities],
            store: WindowStore::new(),
            processed: 0,
            null_windows: 0,
            busy: Duration::ZERO,
            end_max: 0,
        }
    }
}

/// Whole-run statistics identical across workers (window count, boundary
/// queue occupancy) plus the summed wide-window count.
#[derive(Clone, Copy, Debug, Default)]
struct ExecStats {
    windows: u64,
    wide: u64,
    max_pending: usize,
    halted: bool,
}

/// Per-worker horizon for one window. Returns `(horizon, widened)`;
/// events strictly below the horizon are safe to process. `t` is the
/// global minimum next-event time, `la` the effective lookahead in nanos
/// (≥ 1), `my_next`/`others_min` this worker's and the other workers'
/// minimum next-event times (both including in-flight mail).
fn horizon(
    policy: WindowPolicy,
    threads: usize,
    my_next: u64,
    others_min: u64,
    t: u64,
    la: u64,
    stop_at: Option<u64>,
) -> (u64, bool) {
    let fixed = t.saturating_add(la);
    let (mut h, wide) = match policy {
        WindowPolicy::Fixed => (fixed, false),
        WindowPolicy::Adaptive => {
            let h = if threads == 1 {
                // No other worker can inject events: run to completion.
                u64::MAX
            } else {
                let direct = others_min.saturating_add(la);
                let reflected = my_next.saturating_add(la.saturating_mul(2));
                direct.min(reflected)
            };
            (h, h > fixed)
        }
    };
    if let Some(limit) = stop_at {
        // Events at exactly `limit` are still processed.
        h = h.min(limit.saturating_add(1));
    }
    (h, wide)
}

/// Move entities, seq counters, and pending events out of `sim` into
/// per-worker state according to `owners`.
fn checkout<M: 'static>(sim: &mut Simulation<M>, owners: &[u32], threads: usize) -> Vec<Worker<M>> {
    let n = sim.num_entities();
    let mut workers: Vec<Worker<M>> = (0..threads).map(|_| Worker::empty(n)).collect();
    for (idx, &owner) in owners.iter().enumerate() {
        let w = &mut workers[owner as usize];
        let entity = sim.entities[idx]
            .take()
            .expect("entity checked out before parallel run");
        w.slots[idx] = w.entities.len();
        w.entities.push((idx, entity));
        w.seqs.push(sim.seqs[idx]);
    }
    for ev in sim.queue.take_all() {
        workers[owners[ev.dst().index()] as usize].store.push(ev);
    }
    workers
}

/// Reinstall entities, seq counters, and any unprocessed events (time
/// limit / halt may leave events pending, same as the sequential path).
/// Returns (events processed, end-time nanos).
fn checkin<M: 'static>(sim: &mut Simulation<M>, workers: &mut [Worker<M>]) -> (u64, u64) {
    let mut events = 0u64;
    let mut end_max = 0u64;
    let mut leftovers: Vec<Envelope<M>> = Vec::new();
    for worker in workers.iter_mut() {
        events += worker.processed;
        end_max = end_max.max(worker.end_max);
        for ((idx, entity), seq) in worker.entities.drain(..).zip(worker.seqs.drain(..)) {
            sim.entities[idx] = Some(entity);
            sim.seqs[idx] = seq;
        }
        leftovers.extend(worker.store.take_all());
    }
    sim.queue.push_batch(&mut leftovers);
    (events, end_max)
}

/// Run the simulation to completion with the conservative parallel
/// executor. Produces the same entity state trajectories as
/// [`Simulation::run`] for every configuration.
///
/// Note: [`Ctx::halt`] takes effect at window granularity here (other
/// workers finish their current window), so halting runs may process
/// more events than the sequential executor would; all events processed
/// are still processed in the same per-entity order.
pub fn run_parallel<M: Send + 'static>(sim: &mut Simulation<M>, cfg: &ParallelConfig) -> RunResult {
    run_parallel_inner(sim, cfg, false).0
}

/// [`run_parallel`] with the scaling observatory enabled: every worker
/// records a per-window phase timeline (compute / mailbox-drain /
/// barrier / horizon-stall) into a private lock-free [`PhaseRecorder`],
/// merged in worker order at finalize. Returns the run result plus the
/// merged [`ExecProfile`] (`None` when the run degenerates to a single
/// worker and executes sequentially). The unprofiled path is untouched:
/// [`run_parallel`] passes `profile = false` and every mark site is a
/// single `Option` branch.
pub fn run_parallel_profiled<M: Send + 'static>(
    sim: &mut Simulation<M>,
    cfg: &ParallelConfig,
) -> (RunResult, Option<ExecProfile>) {
    run_parallel_inner(sim, cfg, true)
}

fn run_parallel_inner<M: Send + 'static>(
    sim: &mut Simulation<M>,
    cfg: &ParallelConfig,
    profile: bool,
) -> (RunResult, Option<ExecProfile>) {
    let _obs_span = pioeval_obs::span(pioeval_obs::names::SPAN_DES_RUN_PAR, "des");
    let n = sim.num_entities();
    let threads = cfg.threads.max(1).min(n.max(1));
    if threads == 1 {
        // One worker is definitionally the sequential executor: no
        // cross-worker hazard exists, so the horizon is unbounded and
        // the window machinery would only add overhead. Run inline.
        let res = sim.run();
        pioeval_obs::global()
            .counter(pioeval_obs::names::DES_RUNS_PAR)
            .inc();
        return (res, None);
    }
    let lookahead = sim.lookahead();
    let stop_at = sim.config().time_limit.map(SimTime::as_nanos);
    let owners = cfg.partitioner.assign(n, threads);
    let mut workers = checkout(sim, &owners, threads);

    let (stats, worker_profiles) = run_threaded(
        cfg.window,
        lookahead,
        stop_at,
        &owners,
        &mut workers,
        profile,
    );
    let (events, end_max) = checkin(sim, &mut workers);

    let obs = pioeval_obs::global();
    obs.counter(pioeval_obs::names::DES_EVENTS).add(events);
    obs.counter(pioeval_obs::names::DES_RUNS_PAR).inc();
    obs.gauge(pioeval_obs::names::DES_QUEUE_HWM)
        .record(stats.max_pending as u64);
    obs.counter(pioeval_obs::names::DES_PAR_WINDOWS)
        .add(stats.windows);
    obs.counter(pioeval_obs::names::DES_PAR_WIDE_WINDOWS)
        .add(stats.wide);
    for worker in &workers {
        obs.counter(pioeval_obs::names::DES_PAR_NULL_WINDOWS)
            .add(worker.null_windows);
        obs.histogram(pioeval_obs::names::DES_PAR_THREAD_BUSY_US)
            .observe(worker.busy.as_micros() as u64);
        obs.histogram(pioeval_obs::names::DES_PAR_THREAD_EVENTS)
            .observe(worker.processed);
    }

    let profile_doc = worker_profiles.map(|ws| ExecProfile {
        threads: threads as u32,
        backend: "threads".to_string(),
        window_policy: match cfg.window {
            WindowPolicy::Fixed => "fixed",
            WindowPolicy::Adaptive => "adaptive",
        }
        .to_string(),
        partitioner: match &cfg.partitioner {
            Partitioner::RoundRobin => "round_robin",
            Partitioner::Block => "block",
            Partitioner::Greedy(_) => "greedy",
        }
        .to_string(),
        lookahead_ns: lookahead.as_nanos().max(1),
        wall_ns: ws.iter().map(|w| w.span_ns).max().unwrap_or(0),
        windows: stats.windows,
        workers: ws,
    });

    (
        RunResult {
            end_time: SimTime::from_nanos(end_max),
            events,
            max_queue: stats.max_pending,
            halted: stats.halted,
        },
        profile_doc,
    )
}

/// The peer worker whose published clock actually bounded a window's
/// horizon `h`, or [`NO_LIMITER`] when the worker was limited by its own
/// reflected-send bound, the stop time, or had the global minimum
/// itself. `others` / `argmin` are the minimum next-event time among
/// peers and the (lowest) peer holding it.
fn window_limiter(
    policy: WindowPolicy,
    my_next: u64,
    others: u64,
    argmin: u32,
    la: u64,
    h: u64,
) -> u32 {
    if others == u64::MAX {
        return NO_LIMITER;
    }
    let direct = others.saturating_add(la);
    let peer_bound = match policy {
        // Fixed horizon is `global_min + la`: a peer binds when it holds
        // the global minimum (ties attributed to the peer).
        WindowPolicy::Fixed => others <= my_next,
        // Adaptive horizon is `min(direct, reflected)`.
        WindowPolicy::Adaptive => direct <= my_next.saturating_add(la.saturating_mul(2)),
    };
    // `direct <= h` rules out the stop-time clamp having tightened past
    // the peer bound.
    if peer_bound && direct <= h {
        argmin
    } else {
        NO_LIMITER
    }
}

/// Threaded backend: one OS thread per worker, one spin barrier per
/// window. All shared state is parity-double-buffered: a thread
/// publishes window `k+1`'s snapshot into slot `k+1 mod 2` *before* the
/// barrier ending window `k`, and reads window `k`'s snapshot from slot
/// `k mod 2` after the barrier starting it — so the min-reduction and
/// the mailbox hand-off share a single generation. Atomic accesses are
/// `Relaxed`; the barrier's AcqRel handshake provides the
/// happens-before edge between publish and read.
fn run_threaded<M: Send + 'static>(
    policy: WindowPolicy,
    lookahead: SimDuration,
    stop_at: Option<u64>,
    owners: &[u32],
    workers: &mut Vec<Worker<M>>,
    profile: bool,
) -> (ExecStats, Option<Vec<WorkerProfile>>) {
    let threads = workers.len();
    let la = lookahead.as_nanos().max(1);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let spins = if cores >= threads { 256 } else { 0 };
    let barrier = SpinBarrier::new(threads, spins);
    // Per-thread published state, one slot per window parity.
    let next: [Vec<AtomicU64>; 2] =
        std::array::from_fn(|_| (0..threads).map(|_| AtomicU64::new(u64::MAX)).collect());
    let delta: [Vec<AtomicI64>; 2] =
        std::array::from_fn(|_| (0..threads).map(|_| AtomicI64::new(0)).collect());
    let halt: [Vec<AtomicBool>; 2] =
        std::array::from_fn(|_| (0..threads).map(|_| AtomicBool::new(false)).collect());
    // out_min[p][from * threads + to]: minimum timestamp among events
    // thread `from` staged for `to` in the window before parity `p`'s —
    // the in-flight component of `to`'s next-event lower bound.
    let out_min: [Vec<AtomicU64>; 2] = std::array::from_fn(|_| {
        (0..threads * threads)
            .map(|_| AtomicU64::new(u64::MAX))
            .collect()
    });
    // mailboxes[from * threads + to]: the staged events themselves.
    // Swap-buffer protocol: the sender swaps its full batch in under one
    // lock, the receiver swaps it out — O(1) critical sections, and the
    // Vec capacities circulate between the two sides.
    let mailboxes: Vec<Mutex<Vec<Envelope<M>>>> = (0..threads * threads)
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    // Causality side-channel, parallel to `mailboxes`: every batch swap
    // is mirrored by a stamp push, validated on drain.
    #[cfg(feature = "causality-check")]
    let stamps: Vec<Mutex<Vec<crate::causality::CausalStamp>>> = (0..threads * threads)
        .map(|_| Mutex::new(Vec::new()))
        .collect();

    let mut joined: Vec<(Worker<M>, ExecStats, Option<WorkerProfile>)> =
        Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (tid, mut worker) in workers.drain(..).enumerate() {
            let barrier = &barrier;
            let next = &next;
            let delta = &delta;
            let halt = &halt;
            let out_min = &out_min;
            let mailboxes = &mailboxes;
            #[cfg(feature = "causality-check")]
            let stamps = &stamps;
            handles.push(scope.spawn(move || {
                // Telemetry spans are kept in thread-locals for the whole
                // run and merged once at the end: the window loop never
                // touches a shared lock outside the mailbox hand-off.
                let obs = pioeval_obs::global();
                let mut tbuf = obs.buffer(&format!("des-worker-{tid}"));
                tbuf.begin(pioeval_obs::names::SPAN_DES_WORKER, "des");
                // Phase recorder: worker-private, lock-free, merged in
                // worker order at join — the reqtrace discipline. Every
                // mark site below is a single `Option` branch when
                // profiling is off.
                let mut rec = profile.then(|| PhaseRecorder::start(tid as u32));
                // Live-progress handles, fetched once: each worker adds
                // its per-window event delta; thread 0 (whose decide-step
                // snapshot is canonical) also publishes window count,
                // boundary occupancy, and the horizon. All updates happen
                // at the window boundary, outside the event loop, so the
                // sampler thread can never contend with event processing.
                let live_events = obs.counter(pioeval_obs::names::DES_LIVE_EVENTS);
                let live_windows = obs.counter(pioeval_obs::names::DES_LIVE_WINDOWS);
                let live_queue = obs.gauge(pioeval_obs::names::DES_LIVE_QUEUE);
                let live_horizon = obs.gauge(pioeval_obs::names::DES_LIVE_HORIZON_NS);
                let mut stats = ExecStats::default();
                let mut pending: i64 = 0;
                let mut halt_flag = false;
                let mut emitted: Vec<Envelope<M>> = Vec::new();
                let mut staged: Vec<Vec<Envelope<M>>> = (0..threads).map(|_| Vec::new()).collect();
                let mut stage_min: Vec<u64> = vec![u64::MAX; threads];
                let mut inbox: Vec<Envelope<M>> = Vec::new();
                #[cfg(feature = "causality-check")]
                let mut guard = crate::causality::CausalityGuard::new(tid);
                #[cfg(feature = "causality-check")]
                let mut chan = crate::causality::ChannelCheck::new(tid, threads);
                #[cfg(feature = "causality-check")]
                let mut send_seq: Vec<u64> = vec![0; threads];
                // Publish the initial snapshot under parity 0.
                next[0][tid].store(worker.store.next_nanos(), Ordering::Relaxed);
                delta[0][tid].store(worker.store.len() as i64, Ordering::Relaxed);
                barrier.wait();
                if let Some(r) = rec.as_mut() {
                    r.mark(ProfPhase::Barrier);
                }
                let mut p = 0usize;
                loop {
                    // Read the window snapshot: identical on every thread,
                    // so every thread makes the same continue/stop call
                    // (divergence here would deadlock the barrier).
                    let mut t = u64::MAX;
                    let mut my_next = u64::MAX;
                    let mut others = u64::MAX;
                    let mut near_peer = NO_LIMITER;
                    let mut was_halted = false;
                    for j in 0..threads {
                        let mut nj = next[p][j].load(Ordering::Relaxed);
                        for k in 0..threads {
                            nj = nj.min(out_min[p][k * threads + j].load(Ordering::Relaxed));
                        }
                        pending += delta[p][j].load(Ordering::Relaxed);
                        was_halted |= halt[p][j].load(Ordering::Relaxed);
                        t = t.min(nj);
                        if j == tid {
                            my_next = nj;
                        } else if nj < others {
                            others = nj;
                            near_peer = j as u32;
                        }
                    }
                    stats.max_pending = stats.max_pending.max(pending.max(0) as usize);
                    // Drain inboxes staged during the previous window. A
                    // racing fast sender may already have staged *next*
                    // window's batch; draining it early is benign — its
                    // events sit at or beyond this worker's horizon, and
                    // the published minima already cover them.
                    for k in 0..threads {
                        let mut slot = mailboxes[k * threads + tid].lock();
                        if !slot.is_empty() {
                            std::mem::swap(&mut *slot, &mut inbox);
                            drop(slot);
                            worker.store.append(&mut inbox);
                        }
                    }
                    #[cfg(feature = "causality-check")]
                    for k in 0..threads {
                        let mut sl = stamps[k * threads + tid].lock();
                        for st in sl.drain(..) {
                            chan.on_deliver(&st, guard.committed());
                        }
                    }
                    if let Some(r) = rec.as_mut() {
                        // Snapshot read plus inbox intake: the window's
                        // mailbox-drain phase (marked before the
                        // termination check so the final partial window
                        // is still accounted).
                        r.mark(ProfPhase::MailboxDrain);
                    }
                    if t == u64::MAX || was_halted || stop_at.is_some_and(|limit| t > limit) {
                        stats.halted = was_halted;
                        break;
                    }
                    stats.windows += 1;
                    let (h, wide) = horizon(policy, threads, my_next, others, t, la, stop_at);
                    if wide {
                        stats.wide += 1;
                    }
                    let limiter = if rec.is_some() {
                        window_limiter(policy, my_next, others, near_peer, la, h)
                    } else {
                        NO_LIMITER
                    };
                    let mut generated: i64 = 0;
                    let processed_before = worker.processed;
                    if my_next < h {
                        let started = Instant::now();
                        worker.store.begin_window(h);
                        #[cfg(feature = "causality-check")]
                        guard.begin_window(h);
                        while !halt_flag {
                            let Some(ev) = worker.store.pop_window() else {
                                break;
                            };
                            let dst = ev.dst();
                            let now = ev.time();
                            #[cfg(feature = "causality-check")]
                            guard.check_execute(now.as_nanos());
                            worker.end_max = worker.end_max.max(now.as_nanos());
                            let slot = worker.slots[dst.index()];
                            let (_, entity) = &mut worker.entities[slot];
                            let mut ctx = Ctx {
                                now,
                                me: dst,
                                lookahead,
                                seq: &mut worker.seqs[slot],
                                emitted: &mut emitted,
                                halt: &mut halt_flag,
                            };
                            entity.on_event(ev, &mut ctx);
                            worker.processed += 1;
                            for out in emitted.drain(..) {
                                generated += 1;
                                let w = owners[out.dst().index()] as usize;
                                if w == tid {
                                    if out.time().as_nanos() < h {
                                        // Own-chain event inside a widened
                                        // window (rare): joins this drain.
                                        worker.store.push_overlay(out);
                                    } else {
                                        worker.store.push(out);
                                    }
                                } else {
                                    stage_min[w] = stage_min[w].min(out.time().as_nanos());
                                    staged[w].push(out);
                                }
                            }
                        }
                        worker.busy += started.elapsed();
                        #[cfg(feature = "causality-check")]
                        guard.end_window();
                        if let Some(r) = rec.as_mut() {
                            r.mark(ProfPhase::Compute);
                        }
                    }
                    if worker.processed == processed_before {
                        // A pure synchronization round for this thread —
                        // the conservative engine's null message.
                        worker.null_windows += 1;
                    } else {
                        live_events.add(worker.processed - processed_before);
                    }
                    if tid == 0 {
                        live_windows.inc();
                        live_queue.record(pending.max(0) as u64);
                        live_horizon.record(h);
                    }
                    // Publish the next window's snapshot under the
                    // opposite parity, then cross the (single) barrier.
                    let q = p ^ 1;
                    for w in 0..threads {
                        if w == tid {
                            continue;
                        }
                        out_min[q][tid * threads + w].store(stage_min[w], Ordering::Relaxed);
                        #[cfg(feature = "causality-check")]
                        let batch_min = stage_min[w];
                        stage_min[w] = u64::MAX;
                        if !staged[w].is_empty() {
                            let mut slot = mailboxes[tid * threads + w].lock();
                            if slot.is_empty() {
                                std::mem::swap(&mut *slot, &mut staged[w]);
                            } else {
                                slot.append(&mut staged[w]);
                            }
                            drop(slot);
                            #[cfg(feature = "causality-check")]
                            {
                                let st = crate::causality::CausalStamp {
                                    from: tid,
                                    seq: send_seq[w],
                                    min_time: batch_min,
                                };
                                send_seq[w] += 1;
                                stamps[tid * threads + w].lock().push(st);
                            }
                        }
                    }
                    next[q][tid].store(worker.store.next_nanos(), Ordering::Relaxed);
                    delta[q][tid].store(
                        generated - (worker.processed - processed_before) as i64,
                        Ordering::Relaxed,
                    );
                    halt[q][tid].store(halt_flag, Ordering::Relaxed);
                    p = q;
                    barrier.wait();
                    if let Some(r) = rec.as_mut() {
                        // The wait segment: barrier coordination proper,
                        // unless this worker's whole window was excluded
                        // by the horizon while it still had work — the
                        // definition of a horizon stall.
                        r.mark(if my_next >= h && my_next < u64::MAX {
                            ProfPhase::HorizonStall
                        } else {
                            ProfPhase::Barrier
                        });
                        r.end_window(worker.processed - processed_before, limiter);
                    }
                }
                tbuf.end();
                obs.merge(tbuf);
                let worker_profile =
                    rec.map(|r| r.finish(worker.entities.len() as u64, worker.processed));
                (worker, stats, worker_profile)
            }));
        }
        for handle in handles {
            joined.push(handle.join().expect("parallel DES worker panicked"));
        }
    });

    let mut merged = ExecStats::default();
    let mut profiles: Vec<WorkerProfile> = Vec::with_capacity(if profile { threads } else { 0 });
    for (tid, (worker, stats, worker_profile)) in joined.into_iter().enumerate() {
        if tid == 0 {
            // Window count, boundary occupancy, and the halt decision are
            // computed from the same shared snapshots on every thread.
            merged.windows = stats.windows;
            merged.max_pending = stats.max_pending;
            merged.halted = stats.halted;
        }
        merged.wide += stats.wide;
        profiles.extend(worker_profile);
        workers.push(worker);
    }
    (merged, profile.then_some(profiles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EntityId;
    use crate::sim::{Entity, SimConfig};
    use pioeval_types::SimDuration;

    /// An entity that forwards tokens around a ring and records a running
    /// hash of everything it observes (event order fingerprint).
    struct RingNode {
        next: EntityId,
        fingerprint: u64,
        forwards_left: u32,
    }

    impl Entity<u64> for RingNode {
        fn on_event(&mut self, ev: Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
            // Order-sensitive fingerprint: combines payload and time.
            self.fingerprint =
                self.fingerprint.wrapping_mul(0x100000001B3) ^ ev.msg ^ ev.time().as_nanos();
            if self.forwards_left > 0 {
                self.forwards_left -= 1;
                let delay = SimDuration::from_micros(1 + (ev.msg % 7));
                ctx.send(self.next, delay, ev.msg.wrapping_mul(31).wrapping_add(1));
            }
        }
    }

    fn build_ring(nodes: u32, tokens: u32, forwards: u32) -> Simulation<u64> {
        let mut sim = Simulation::new(SimConfig::default());
        for i in 0..nodes {
            let next = EntityId((i + 1) % nodes);
            sim.add_entity(
                format!("ring{i}"),
                Box::new(RingNode {
                    next,
                    fingerprint: 0,
                    forwards_left: forwards,
                }),
            );
        }
        for t in 0..tokens {
            sim.schedule(
                SimTime::from_nanos(t as u64 * 100),
                EntityId(t % nodes),
                t as u64,
            );
        }
        sim
    }

    fn fingerprints(sim: &Simulation<u64>, nodes: u32) -> Vec<u64> {
        (0..nodes)
            .map(|i| sim.entity_ref::<RingNode>(EntityId(i)).unwrap().fingerprint)
            .collect()
    }

    fn all_partitioners(nodes: u32) -> Vec<Partitioner> {
        // Greedy profile from a sequential warmup run of the same ring.
        let mut warm = build_ring(nodes, 8, 50);
        let (_, counts) = warm.run_counted();
        vec![
            Partitioner::RoundRobin,
            Partitioner::Block,
            Partitioner::greedy_from_counts(&counts),
        ]
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let nodes = 13;
        let mut seq_sim = build_ring(nodes, 8, 50);
        let seq_res = seq_sim.run();
        let seq_fp = fingerprints(&seq_sim, nodes);

        for threads in [1, 2, 3, 4, 8] {
            let mut par_sim = build_ring(nodes, 8, 50);
            let par_res = run_parallel(&mut par_sim, &ParallelConfig::with_threads(threads));
            assert_eq!(
                fingerprints(&par_sim, nodes),
                seq_fp,
                "fingerprint mismatch at {threads} threads"
            );
            assert_eq!(par_res.events, seq_res.events);
            assert_eq!(par_res.end_time, seq_res.end_time);
        }
    }

    /// Every {window policy × partitioner × thread count} combination
    /// reproduces the sequential fingerprints and event count exactly.
    #[test]
    fn config_matrix_matches_sequential() {
        let nodes = 13;
        let mut seq_sim = build_ring(nodes, 8, 50);
        let seq_res = seq_sim.run();
        let seq_fp = fingerprints(&seq_sim, nodes);

        for window in [WindowPolicy::Fixed, WindowPolicy::Adaptive] {
            for partitioner in all_partitioners(nodes) {
                for threads in [1, 2, 3, 4, 8] {
                    let cfg = ParallelConfig {
                        threads,
                        window,
                        partitioner: partitioner.clone(),
                        ..ParallelConfig::default()
                    };
                    let mut par_sim = build_ring(nodes, 8, 50);
                    let par_res = run_parallel(&mut par_sim, &cfg);
                    assert_eq!(
                        fingerprints(&par_sim, nodes),
                        seq_fp,
                        "fingerprint mismatch: {cfg:?}"
                    );
                    assert_eq!(par_res.events, seq_res.events, "event count: {cfg:?}");
                    assert_eq!(par_res.end_time, seq_res.end_time, "end time: {cfg:?}");
                }
            }
        }
    }

    /// A tight two-entity message bounce with a far-idle third entity:
    /// the case where a naive adaptive horizon `min_j(next_j) + la`
    /// (without the reflected-send bound `next_i + 2·la`) would let the
    /// busy pair overrun each other's replies.
    struct Bouncer {
        peer: EntityId,
        fingerprint: u64,
        left: u32,
    }

    impl Entity<u64> for Bouncer {
        fn on_event(&mut self, ev: Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
            self.fingerprint =
                self.fingerprint.wrapping_mul(0x100000001B3) ^ ev.msg ^ ev.time().as_nanos();
            if self.left > 0 {
                self.left -= 1;
                // Minimum legal cross-entity delay: exactly the lookahead.
                ctx.send(self.peer, ctx.lookahead, ev.msg.wrapping_add(1));
            }
        }
    }

    #[test]
    fn adaptive_window_survives_message_bounce() {
        let build = || {
            let mut sim: Simulation<u64> = Simulation::new(SimConfig::default());
            sim.add_entity(
                "a",
                Box::new(Bouncer {
                    peer: EntityId(1),
                    fingerprint: 0,
                    left: 40,
                }),
            );
            sim.add_entity(
                "b",
                Box::new(Bouncer {
                    peer: EntityId(0),
                    fingerprint: 0,
                    left: 40,
                }),
            );
            // Far-idle third entity: keeps the other workers' clocks way
            // ahead, which is exactly what tempts a naive widener.
            sim.add_entity(
                "sleeper",
                Box::new(Bouncer {
                    peer: EntityId(2),
                    fingerprint: 0,
                    left: 0,
                }),
            );
            sim.schedule(SimTime::ZERO, EntityId(0), 1);
            sim.schedule(SimTime::from_millis(500), EntityId(2), 99);
            sim
        };
        let mut seq = build();
        let seq_res = seq.run();
        let fp = |s: &Simulation<u64>| {
            (0..3u32)
                .map(|i| s.entity_ref::<Bouncer>(EntityId(i)).unwrap().fingerprint)
                .collect::<Vec<_>>()
        };
        let seq_fp = fp(&seq);
        for threads in [2, 3] {
            let cfg = ParallelConfig {
                threads,
                window: WindowPolicy::Adaptive,
                partitioner: Partitioner::RoundRobin,
                ..ParallelConfig::default()
            };
            let mut par = build();
            let par_res = run_parallel(&mut par, &cfg);
            assert_eq!(fp(&par), seq_fp, "bounce fingerprints: {cfg:?}");
            assert_eq!(par_res.events, seq_res.events, "bounce events: {cfg:?}");
        }
    }

    /// `max_queue` boundary sampling agrees with the sequential
    /// high-water mark on a constant-population workload (every event
    /// regenerates exactly one successor).
    #[test]
    fn max_queue_matches_sequential_on_constant_population() {
        let cfg = SimConfig {
            time_limit: Some(SimTime::from_micros(200)),
            ..SimConfig::default()
        };
        let build = || {
            let mut sim = Simulation::new(cfg);
            for i in 0..8u32 {
                sim.add_entity(
                    format!("n{i}"),
                    Box::new(RingNode {
                        next: EntityId((i + 1) % 8),
                        fingerprint: 0,
                        forwards_left: u32::MAX,
                    }),
                );
            }
            for t in 0..4u32 {
                sim.schedule(SimTime::from_nanos(t as u64), EntityId(t), t as u64);
            }
            sim
        };
        let mut seq = build();
        let seq_res = seq.run();
        assert_eq!(seq_res.max_queue, 4);
        let mut par = build();
        let par_res = run_parallel(&mut par, &ParallelConfig::with_threads(2));
        assert_eq!(
            par_res.max_queue, seq_res.max_queue,
            "boundary sample vs sequential HWM"
        );
    }

    #[test]
    fn partitioner_round_robin_and_block_shapes() {
        assert_eq!(Partitioner::RoundRobin.assign(5, 2), vec![0, 1, 0, 1, 0]);
        // Block: ceil(5/2)=3 per chunk; contiguous.
        assert_eq!(Partitioner::Block.assign(5, 2), vec![0, 0, 0, 1, 1]);
        // Block may leave trailing workers empty: ceil(5/4)=2.
        assert_eq!(Partitioner::Block.assign(5, 4), vec![0, 0, 1, 1, 2]);
    }

    #[test]
    fn partitioner_greedy_isolates_hot_entity() {
        // One entity carries virtually all load: LPT puts it alone on
        // worker 0 and packs the cold ones together on worker 1.
        let owners = Partitioner::greedy_from_counts(&[100, 1, 1, 1]).assign(4, 2);
        assert_eq!(owners, vec![0, 1, 1, 1]);
        // Deterministic: same profile, same assignment.
        assert_eq!(
            owners,
            Partitioner::greedy_from_counts(&[100, 1, 1, 1]).assign(4, 2)
        );
        // Short profiles are padded with weight 1.
        assert_eq!(Partitioner::greedy_from_counts(&[]).assign(3, 3).len(), 3);
    }

    /// Profiling must not perturb results, and the recorded timelines
    /// must conserve (phase sums tile each worker's span exactly), cover
    /// every worker, and agree with the shared window count.
    #[test]
    fn profiled_run_matches_and_conserves() {
        let nodes = 13;
        let mut seq_sim = build_ring(nodes, 8, 50);
        let seq_res = seq_sim.run();
        let seq_fp = fingerprints(&seq_sim, nodes);
        let mut par_sim = build_ring(nodes, 8, 50);
        let (res, profile) = run_parallel_profiled(&mut par_sim, &ParallelConfig::with_threads(3));
        assert_eq!(fingerprints(&par_sim, nodes), seq_fp);
        assert_eq!(res.events, seq_res.events);
        let profile = profile.expect("parallel run must yield a profile");
        assert_eq!(profile.threads, 3);
        assert_eq!(profile.backend, "threads");
        assert_eq!(profile.workers.len(), 3);
        assert!(profile.conserves(), "phase sums != spans");
        assert!(profile.windows > 0);
        assert!(profile.wall_ns > 0);
        let events: u64 = profile.workers.iter().map(|w| w.events).sum();
        assert_eq!(events, res.events, "event attribution");
        let entities: u64 = profile.workers.iter().map(|w| w.entities).sum();
        assert_eq!(entities, nodes as u64);
        for w in &profile.workers {
            assert_eq!(w.windows, profile.windows, "every worker sees every window");
            assert!(w.samples.len() as u64 + w.dropped_samples == w.windows);
        }
    }

    /// A single effective worker runs sequentially: no profile.
    #[test]
    fn profiled_single_worker_degenerates_to_sequential() {
        let mut sim = build_ring(5, 3, 10);
        let (res, profile) = run_parallel_profiled(&mut sim, &ParallelConfig::with_threads(1));
        assert!(profile.is_none());
        assert!(res.events > 0);
    }

    /// Horizon-limiter attribution: with everything on worker 0 of a
    /// block partition, worker 1 owns no entities and can never be
    /// named as worker 0's limiter; worker 1's windows (if any stall
    /// occurs) must point at worker 0.
    #[test]
    fn limiter_points_at_the_loaded_partition() {
        let cfg = ParallelConfig {
            threads: 2,
            partitioner: Partitioner::Greedy(vec![100, 100, 100, 100, 0, 0, 0, 0]),
            ..ParallelConfig::default()
        };
        let mut sim = build_ring(8, 8, 60);
        let (_, profile) = run_parallel_profiled(&mut sim, &cfg);
        let profile = profile.unwrap();
        for w in &profile.workers {
            for s in &w.samples {
                if s.limiter != NO_LIMITER {
                    assert_ne!(s.limiter, w.worker, "a worker cannot limit itself");
                    assert!(s.limiter < 2);
                }
            }
        }
    }

    #[test]
    fn exec_mode_selects_executor() {
        let nodes = 5;
        let mut a = build_ring(nodes, 3, 10);
        let ra = ExecMode::Sequential.run(&mut a);
        let mut b = build_ring(nodes, 3, 10);
        let rb = ExecMode::Parallel(ParallelConfig::with_threads(2)).run(&mut b);
        assert_eq!(ra.events, rb.events);
        assert_eq!(fingerprints(&a, nodes), fingerprints(&b, nodes));
    }

    #[test]
    fn parallel_respects_time_limit() {
        let cfg = SimConfig {
            time_limit: Some(SimTime::from_micros(20)),
            ..SimConfig::default()
        };
        let build = |cfg: SimConfig| {
            let mut sim = Simulation::new(cfg);
            for i in 0..4u32 {
                sim.add_entity(
                    format!("n{i}"),
                    Box::new(RingNode {
                        next: EntityId((i + 1) % 4),
                        fingerprint: 0,
                        forwards_left: u32::MAX,
                    }),
                );
            }
            sim.schedule(SimTime::ZERO, EntityId(0), 1);
            sim
        };
        let mut s = build(cfg);
        let seq = s.run();
        let mut p = build(cfg);
        let par = run_parallel(&mut p, &ParallelConfig::with_threads(2));
        assert_eq!(seq.events, par.events);
        assert_eq!(fingerprints(&s, 4), fingerprints(&p, 4));
        assert!(par.end_time <= SimTime::from_micros(20));
    }

    #[test]
    fn more_threads_than_entities_is_clamped() {
        // One token bouncing between two nodes, each willing to forward 10
        // times: 20 forwards plus the initial delivery = 21 events.
        let mut sim = build_ring(2, 1, 10);
        let res = run_parallel(&mut sim, &ParallelConfig::with_threads(16));
        assert_eq!(res.events, 21);
    }

    #[test]
    fn empty_simulation_terminates() {
        let mut sim: Simulation<u64> = Simulation::default();
        sim.add_entity(
            "lonely",
            Box::new(RingNode {
                next: EntityId(0),
                fingerprint: 0,
                forwards_left: 0,
            }),
        );
        let res = run_parallel(&mut sim, &ParallelConfig::with_threads(2));
        assert_eq!(res.events, 0);
        assert!(!res.halted);
    }

    #[test]
    fn pending_events_survive_limit_and_rerun() {
        // Events past the limit stay queued; a second (sequential) run
        // with a raised limit picks them up.
        let cfg = SimConfig {
            time_limit: Some(SimTime::from_micros(5)),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(cfg);
        sim.add_entity(
            "n0",
            Box::new(RingNode {
                next: EntityId(0),
                fingerprint: 0,
                forwards_left: 0,
            }),
        );
        sim.schedule(SimTime::from_micros(2), EntityId(0), 1);
        sim.schedule(SimTime::from_micros(50), EntityId(0), 2);
        let res = run_parallel(&mut sim, &ParallelConfig::with_threads(1));
        assert_eq!(res.events, 1);
        // The t=50us event is still pending inside the simulation.
        let res2 = sim.run(); // same limit: still out of reach
        assert_eq!(res2.events, 0);
    }

    #[test]
    fn adaptive_handles_skewed_clocks() {
        // Two independent self-loop clusters far apart in virtual time:
        // the sparse regime where adaptive widening pays. Both policies
        // must still match the sequential run exactly.
        let build = || {
            let mut sim: Simulation<u64> = Simulation::new(SimConfig::default());
            for i in 0..4u32 {
                sim.add_entity(
                    format!("n{i}"),
                    Box::new(RingNode {
                        next: EntityId(i), // self-loop: no cross traffic
                        fingerprint: 0,
                        forwards_left: 30,
                    }),
                );
            }
            sim.schedule(SimTime::ZERO, EntityId(0), 1);
            sim.schedule(SimTime::from_millis(100), EntityId(1), 2);
            sim
        };
        let mut seq = build();
        let seq_res = seq.run();
        let seq_fp = fingerprints(&seq, 4);
        for window in [WindowPolicy::Fixed, WindowPolicy::Adaptive] {
            let mut par = build();
            let par_res = run_parallel(
                &mut par,
                &ParallelConfig {
                    threads: 2,
                    window,
                    ..ParallelConfig::default()
                },
            );
            assert_eq!(fingerprints(&par, 4), seq_fp, "{window:?}");
            assert_eq!(par_res.events, seq_res.events);
        }
    }
}
