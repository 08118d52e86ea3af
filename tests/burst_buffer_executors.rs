//! Burst-buffer read decisions do not depend on the executor.
//!
//! An IOR write-then-read-back through two I/O nodes under
//! `local_plus_one`, losing one node mid-write, must serve some reads
//! from not-yet-drained data, and make the same hit/forward decisions on
//! the sequential and the threaded 2-worker executors. The per-node
//! `cached_reads` and `forwarded` counters are what pin those decisions.

use pioeval::core::{measure_target_with_exec, MeasurementReport, TargetConfig};
use pioeval::des::{Backend, ExecMode, ParallelConfig};
use pioeval::prelude::*;
use pioeval::resil::{AckMode, FailureEvent, FailureKind, ResilConfig};

fn ior_read_back(exec: &ExecMode) -> MeasurementReport {
    let mut resil = ResilConfig {
        ack_mode: AckMode::LocalPlusOne,
        ..ResilConfig::default()
    };
    resil.failures.scripted.push(FailureEvent {
        kind: FailureKind::IoNodeLoss,
        target: 1,
        at: SimDuration::from_millis(30),
    });
    // One HDD OST drains far slower than the SSDs absorb, so the
    // read-back phase starts while part of the data is still dirty on
    // the surviving node: some reads hit, the rest are forwarded.
    let target = TargetConfig::Pfs(ClusterConfig {
        num_clients: 8,
        num_ionodes: 2,
        num_oss: 1,
        osts_per_oss: 1,
        resil: Some(resil),
        ..ClusterConfig::default()
    });
    let ior = IorLike {
        transfer_size: bytes::kib(64),
        block_size: bytes::mib(4),
        read: true,
        ..IorLike::default()
    };
    let source = WorkloadSource::Synthetic(Box::new(ior));
    measure_target_with_exec(&target, &source, 8, StackConfig::default(), 7, exec)
        .expect("IOR read-back measurement")
}

/// The per-node (cached_reads, forwarded) decisions of a run.
fn decisions(report: &MeasurementReport) -> Vec<(u64, u64)> {
    report
        .burst_buffers
        .iter()
        .map(|bb| (bb.cached_reads, bb.forwarded))
        .collect()
}

#[test]
fn cached_reads_match_across_executors() {
    let seq = ior_read_back(&ExecMode::Sequential);
    let par = ior_read_back(&ExecMode::Parallel(ParallelConfig {
        threads: 2,
        backend: Backend::Threads,
        ..ParallelConfig::default()
    }));

    let hits: u64 = seq.burst_buffers.iter().map(|bb| bb.cached_reads).sum();
    assert!(hits > 0, "no read was served from the burst buffer");
    assert!(
        seq.burst_buffers.iter().all(|bb| bb.forwarded > 0),
        "every node should also forward: {:?}",
        decisions(&seq)
    );
    assert_eq!(
        decisions(&par),
        decisions(&seq),
        "hit/forward decisions diverged"
    );
    assert!(seq.makespan().is_some(), "a rank never finished");
    assert_eq!(par.makespan(), seq.makespan(), "makespan diverged");

    let (seq_res, par_res) = (seq.resilience.unwrap(), par.resilience.unwrap());
    assert_eq!(
        seq_res.failures_injected, 1,
        "the I/O-node loss did not inject"
    );
    for res in [&seq_res, &par_res] {
        assert_eq!(
            res.acked_bytes,
            res.replicated_bytes + res.data_loss_bytes,
            "conservation: acked = replicated + lost"
        );
    }
    assert_eq!(par_res, seq_res, "resilience report diverged");
}
