//! Property-based sequential-equivalence tests for the parallel DES
//! engine (proptest, vendored shim).
//!
//! Random ring / star / random-graph (PHOLD-like) topologies are run
//! once sequentially and then under every drawn parallel configuration
//! — {window policy} × {partitioner} × {1–8 threads} —
//! asserting the per-entity event-order fingerprints, total event
//! count, and end time match the sequential run exactly. This is the
//! conservative engine's core guarantee: parallelism changes wall-clock
//! time, never results.

use pioeval::des::{
    run_parallel, Ctx, Entity, EntityId, Envelope, ParallelConfig, Partitioner, SimConfig,
    Simulation, WindowPolicy,
};
use pioeval::types::{SimDuration, SimTime};
use proptest::prelude::*;

/// One node of a generated topology: forwards messages along its edge
/// list and folds everything it observes into an order-sensitive hash.
struct Node {
    targets: Vec<EntityId>,
    forwards_left: u32,
    fingerprint: u64,
}

fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Entity<u64> for Node {
    fn on_event(&mut self, ev: Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
        // Order-sensitive: processing the same events in a different
        // order yields a different hash, so fingerprint equality pins
        // the exact per-entity delivery order.
        self.fingerprint = self.fingerprint.wrapping_mul(0x100000001B3)
            ^ ev.msg
            ^ ev.time().as_nanos()
            ^ ((ev.src().0 as u64) << 32);
        if self.forwards_left == 0 {
            return;
        }
        self.forwards_left -= 1;
        let h = mix(ev.msg);
        let dst = self.targets[(h % self.targets.len() as u64) as usize];
        // Cross-entity delay: 1–3 lookahead quanta (always legal).
        let delay = SimDuration::from_nanos(ctx.lookahead().as_nanos() * (1 + h % 3));
        ctx.send(dst, delay, h);
        // Occasionally chain a sub-lookahead self-message: these land
        // inside the current window and exercise the executor's
        // own-chain (overlay) fast path.
        if h.is_multiple_of(5) {
            ctx.send_self(SimDuration::from_nanos(h % 700), h ^ 0xA5A5);
        }
    }
}

/// Topology kinds the generator draws from.
const RING: u8 = 0;
const STAR: u8 = 1;
const RANDOM: u8 = 2;

/// Build a simulation over `nodes` entities with the given topology,
/// seeding `tokens` initial events.
fn build(kind: u8, nodes: u32, tokens: u32, forwards: u32, seed: u64) -> Simulation<u64> {
    let cfg = SimConfig {
        lookahead: SimDuration::from_micros(1),
        time_limit: None,
    };
    let mut sim = Simulation::new(cfg);
    for i in 0..nodes {
        let targets: Vec<EntityId> = match kind {
            RING => vec![EntityId((i + 1) % nodes)],
            STAR => {
                if i == 0 {
                    // Hub fans out to every leaf (or itself when alone).
                    (1..nodes.max(2)).map(|j| EntityId(j % nodes)).collect()
                } else {
                    vec![EntityId(0)]
                }
            }
            _ => {
                // Random out-degree 1–3, edges drawn deterministically
                // from the case seed (PHOLD-like random routing).
                let deg = 1 + (mix(seed ^ (i as u64) << 8) % 3) as u32;
                (0..deg)
                    .map(|d| {
                        EntityId((mix(seed ^ ((i as u64) << 16) ^ d as u64) % nodes as u64) as u32)
                    })
                    .collect()
            }
        };
        sim.add_entity(
            format!("node{i}"),
            Box::new(Node {
                targets,
                forwards_left: forwards,
                fingerprint: 0,
            }),
        );
    }
    for t in 0..tokens {
        sim.schedule(
            SimTime::from_nanos(50 * t as u64),
            EntityId(t % nodes),
            mix(seed ^ t as u64),
        );
    }
    sim
}

fn fingerprints(sim: &Simulation<u64>, nodes: u32) -> Vec<u64> {
    (0..nodes)
        .map(|i| sim.entity_ref::<Node>(EntityId(i)).unwrap().fingerprint)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every {topology × window policy × partitioner × thread count}
    /// combination reproduces the sequential run exactly.
    #[test]
    fn parallel_equals_sequential_on_random_topologies(
        kind in prop::sample::select(vec![RING, STAR, RANDOM]),
        nodes in 2u32..12,
        tokens in 1u32..6,
        forwards in 0u32..40,
        threads in 1usize..=8,
        seed in 0u64..1 << 32,
        policy in prop::sample::select(vec![WindowPolicy::Fixed, WindowPolicy::Adaptive]),
        part_kind in 0u8..3,
    ) {
        let mut seq = build(kind, nodes, tokens, forwards, seed);
        let seq_result = seq.run();
        let seq_fp = fingerprints(&seq, nodes);

        let partitioner = match part_kind {
            0 => Partitioner::RoundRobin,
            1 => Partitioner::Block,
            _ => {
                // Profile-guided greedy from a sequential warmup of the
                // same topology.
                let mut warm = build(kind, nodes, tokens, forwards, seed);
                let (_, counts) = warm.run_counted();
                Partitioner::greedy_from_counts(&counts)
            }
        };

        let cfg = ParallelConfig {
            threads,
            window: policy,
            partitioner,
            ..ParallelConfig::default()
        };
        let mut par = build(kind, nodes, tokens, forwards, seed);
        let par_result = run_parallel(&mut par, &cfg);
        prop_assert_eq!(
            par_result.events, seq_result.events,
            "event count diverged (kind {}, threads {})",
            kind, threads
        );
        prop_assert_eq!(par_result.end_time, seq_result.end_time, "end time diverged");
        prop_assert_eq!(
            fingerprints(&par, nodes), seq_fp,
            "fingerprints diverged (kind {}, threads {}, {:?})",
            kind, threads, policy
        );
    }

    /// A mid-run time limit never loses events: pending events survive
    /// checkin and a re-run to completion converges to the unlimited
    /// sequential result.
    #[test]
    fn time_limited_parallel_runs_converge(
        kind in prop::sample::select(vec![RING, STAR, RANDOM]),
        nodes in 2u32..10,
        forwards in 1u32..30,
        threads in 1usize..=4,
        seed in 0u64..1 << 32,
        limit_us in 1u64..40,
    ) {
        let mut seq = build(kind, nodes, 3, forwards, seed);
        let seq_result = seq.run();
        let seq_fp = fingerprints(&seq, nodes);

        let mut par = build(kind, nodes, 3, forwards, seed);
        par.set_time_limit(Some(SimTime::from_micros(limit_us)));
        let cfg = ParallelConfig::with_threads(threads);
        let first = run_parallel(&mut par, &cfg);
        par.set_time_limit(None);
        let rest = run_parallel(&mut par, &cfg);
        prop_assert_eq!(first.events + rest.events, seq_result.events);
        prop_assert_eq!(fingerprints(&par, nodes), seq_fp);
    }
}

proptest! {
    // Full traced measurement trips are orders of magnitude heavier
    // than the synthetic topologies above, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Request traces are executor-independent: the serialized JSONL
    /// from a sequential traced run is byte-identical to every parallel
    /// configuration's, on both storage targets. (Per-entity recorders
    /// are only appended by their own entity, and the finalize-time
    /// merge drains entities in a fixed order — so not just the set of
    /// marks but the entire document must match.)
    #[test]
    fn request_traces_identical_across_executors(
        ranks in 1u32..4,
        seed in 0u64..1 << 16,
        threads in 2usize..=4,
        objstore in proptest::bool::ANY,
        policy in prop::sample::select(vec![WindowPolicy::Fixed, WindowPolicy::Adaptive]),
    ) {
        use pioeval::core::{measure_target_traced, TargetConfig};
        use pioeval::des::ExecMode;
        use pioeval::prelude::*;

        let source = WorkloadSource::Synthetic(Box::new(IorLike::default()));
        let target = if objstore {
            TargetConfig::ObjStore(pioeval::objstore::ObjStoreConfig {
                num_clients: 8,
                ..Default::default()
            })
        } else {
            TargetConfig::Pfs(ClusterConfig {
                num_clients: 8,
                ..Default::default()
            })
        };
        let trace_of = |exec: &ExecMode| {
            let report = measure_target_traced(
                &target,
                &source,
                ranks,
                StackConfig::default(),
                seed,
                exec,
                true,
            )
            .expect("traced measurement");
            let asm = report.requests.expect("assembly");
            (asm.requests.len(), pioeval::reqtrace::write_jsonl(&asm.requests, asm.incomplete))
        };
        let (seq_n, seq_doc) = trace_of(&ExecMode::Sequential);
        prop_assert!(seq_n > 0, "no requests traced");
        let cfg = ParallelConfig {
            threads,
            window: policy,
            ..ParallelConfig::default()
        };
        let (_, par_doc) = trace_of(&ExecMode::Parallel(cfg));
        prop_assert_eq!(seq_doc, par_doc, "request trace diverged across executors");
    }
}

proptest! {
    // Full measurement trips again: few cases, broad parameter draws.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Injected failures never break executor equivalence: the same run
    /// with a scripted I/O-node loss (and optionally a stochastic MTBF
    /// process) yields identical makespans, per-entity fingerprints,
    /// and — crucially — an identical resilience report on the
    /// sequential and every drawn parallel configuration. The byte
    /// conservation identity `acked = replicated + lost` must also hold
    /// at quiesce, whatever the failure timing hit.
    #[test]
    fn failure_injection_preserves_executor_equivalence(
        ranks in 1u32..4,
        seed in 0u64..1 << 16,
        threads in 2usize..=4,
        fail_ms in 1u64..30,
        ack_kind in 0u8..3,
        mtbf in proptest::bool::ANY,
        policy in prop::sample::select(vec![WindowPolicy::Fixed, WindowPolicy::Adaptive]),
    ) {
        use pioeval::core::{measure_target_traced, TargetConfig};
        use pioeval::des::ExecMode;
        use pioeval::prelude::*;
        use pioeval::resil::{AckMode, FailureEvent, FailureKind, MtbfSchedule, ResilConfig};

        let ack_mode = match ack_kind {
            0 => AckMode::LocalOnly,
            1 => AckMode::LocalPlusOne,
            _ => AckMode::Geographic,
        };
        let mut resil = ResilConfig { ack_mode, ..ResilConfig::default() };
        resil.failures.scripted.push(FailureEvent {
            kind: FailureKind::IoNodeLoss,
            target: 0,
            at: SimDuration::from_millis(fail_ms),
        });
        if mtbf {
            resil.failures.mtbf = Some(MtbfSchedule {
                kind: FailureKind::IoNodeLoss,
                targets: 0, // every I/O node is a candidate
                mean: SimDuration::from_millis(40),
            });
            resil.failures.horizon = SimDuration::from_millis(200);
        }
        resil.failures.seed = pioeval::types::split_seed(seed, 0xFA11);
        let target = TargetConfig::Pfs(ClusterConfig {
            num_clients: 8,
            num_ionodes: 2,
            resil: Some(resil),
            ..Default::default()
        });
        let source = WorkloadSource::Synthetic(Box::new(IorLike::default()));
        let run = |exec: &ExecMode| {
            measure_target_traced(
                &target,
                &source,
                ranks,
                StackConfig::default(),
                seed,
                exec,
                false,
            )
            .expect("measurement with injected failures")
        };

        let seq = run(&ExecMode::Sequential);
        let seq_res = seq.resilience.clone().expect("resilience report");
        prop_assert!(seq_res.acked_bytes > 0, "nothing was acknowledged");
        prop_assert!(
            seq_res.conserves_bytes(),
            "conservation violated: acked {} != replicated {} + lost {}",
            seq_res.acked_bytes, seq_res.replicated_bytes, seq_res.data_loss_bytes
        );

        let cfg = ParallelConfig {
            threads,
            window: policy,
            ..ParallelConfig::default()
        };
        let par = run(&ExecMode::Parallel(cfg));
        prop_assert_eq!(par.makespan(), seq.makespan(), "makespan diverged");
        prop_assert_eq!(
            par.resilience.expect("resilience report"), seq_res,
            "resilience report diverged across executors"
        );
    }

    /// The gated ack policies close the data-loss window: whatever the
    /// write volume and failure timing, `geographic` never reports
    /// ACKed-but-lost bytes (an ACK only ever follows replica
    /// confirmation), while byte conservation holds for every policy.
    #[test]
    fn gated_acks_close_the_loss_window(
        ranks in 1u32..4,
        seed in 0u64..1 << 16,
        fail_ms in 1u64..50,
        transfer_kib in 64u64..2048,
    ) {
        use pioeval::core::{measure_target, TargetConfig};
        use pioeval::prelude::*;
        use pioeval::resil::{AckMode, FailureEvent, FailureKind, ResilConfig};

        let report_for = |ack_mode: AckMode| {
            let mut resil = ResilConfig { ack_mode, ..ResilConfig::default() };
            resil.failures.scripted.push(FailureEvent {
                kind: FailureKind::IoNodeLoss,
                target: 0,
                at: SimDuration::from_millis(fail_ms),
            });
            let target = TargetConfig::Pfs(ClusterConfig {
                num_clients: 8,
                num_ionodes: 2,
                resil: Some(resil),
                ..Default::default()
            });
            let workload = IorLike {
                transfer_size: transfer_kib * 1024,
                block_size: transfer_kib * 1024 * 4,
                ..IorLike::default()
            };
            let source = WorkloadSource::Synthetic(Box::new(workload));
            measure_target(&target, &source, ranks, StackConfig::default(), seed)
                .expect("measurement")
                .resilience
                .expect("resilience report")
        };

        for mode in [AckMode::LocalOnly, AckMode::LocalPlusOne, AckMode::Geographic] {
            let res = report_for(mode);
            prop_assert!(
                res.conserves_bytes(),
                "{:?}: acked {} != replicated {} + lost {}",
                mode, res.acked_bytes, res.replicated_bytes, res.data_loss_bytes
            );
            if mode == AckMode::Geographic {
                prop_assert_eq!(
                    res.data_loss_bytes, 0,
                    "geographic ACKs must imply durability"
                );
            }
        }
    }
}
