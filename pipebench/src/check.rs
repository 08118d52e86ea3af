//! Correctness checks on a trip's report, and its fingerprint: the
//! simulated-time counts, which every trip of a run must reproduce
//! exactly whatever the executor and whether tracing is on.

use crate::workload::Bench;
use pioeval_core::MeasurementReport;
use std::collections::BTreeMap;

/// Simulated-time counts of one trip, by metric name. Names ending in
/// `_s` hold simulated nanoseconds, so that equality is exact; they are
/// reported in simulated seconds.
pub type Fingerprint = BTreeMap<&'static str, u64>;

/// The fingerprint of `report`, plus the count of captured records
/// (host-side work that must also repeat exactly).
pub fn fingerprint(report: &MeasurementReport, pfs: bool) -> Fingerprint {
    let ns = |d: pioeval_types::SimDuration| d.as_nanos();
    let requests: u64 = report.servers.iter().map(|s| s.requests).sum();
    let busy: u64 = report.servers.iter().map(|s| ns(s.busy)).sum();
    let queue: u64 = report.servers.iter().map(|s| ns(s.queue_wait)).sum();
    let resil = report.resilience.as_ref();
    let (server_requests, server_busy) = if pfs { (requests, busy) } else { (0, 0) };
    let (storage_requests, storage_busy) = if pfs { (0, 0) } else { (requests, busy) };
    let entries: [(&'static str, u64); 20] = [
        ("job.sim_makespan_s", report.makespan().map_or(u64::MAX, ns)),
        ("job.bytes_written", report.job.bytes_written()),
        ("job.bytes_read", report.job.bytes_read()),
        ("pfs.oss.requests", server_requests),
        ("pfs.oss.sim_busy_s", server_busy),
        ("pfs.oss.sim_queue_wait_s", if pfs { queue } else { 0 }),
        ("pfs.mds.requests", if pfs { report.mds_ops } else { 0 }),
        ("fabric.compute.packets", report.fabrics.0.packets),
        ("fabric.storage.packets", report.fabrics.1.packets),
        (
            "pfs.ionode.absorbed_bytes",
            report.burst_buffers.iter().map(|b| b.absorbed_bytes).sum(),
        ),
        (
            "pfs.ionode.drains",
            report
                .burst_buffers
                .iter()
                .map(|b| b.drains_completed)
                .sum(),
        ),
        ("resil.acked_bytes", resil.map_or(0, |r| r.acked_bytes)),
        (
            "resil.replicated_bytes",
            resil.map_or(0, |r| r.replicated_bytes),
        ),
        ("resil.lost_bytes", resil.map_or(0, |r| r.data_loss_bytes)),
        (
            "objstore.gateway.requests",
            report.gateways.iter().map(|g| g.requests).sum(),
        ),
        (
            "objstore.gateway.sim_queue_p99_s",
            report
                .gateways
                .iter()
                .map(|g| ns(g.queue_p99))
                .max()
                .unwrap_or(0),
        ),
        (
            "objstore.shard.requests",
            if pfs { 0 } else { report.mds_ops },
        ),
        ("objstore.storage.requests", storage_requests),
        ("objstore.storage.sim_busy_s", storage_busy),
        (
            "iostack.records",
            report.job.records.iter().map(|r| r.len() as u64).sum(),
        ),
    ];
    entries.into_iter().collect()
}

/// Every check on one trip's report. Returns the first failure.
pub fn check(bench: &Bench, report: &MeasurementReport) -> Result<(), String> {
    if report.makespan().is_none() {
        return Err("a rank never finished".into());
    }
    let (written, read) = (report.job.bytes_written(), report.job.bytes_read());
    if (written, read) != (bench.expect_written, bench.expect_read) {
        return Err(format!(
            "moved {written} B written / {read} B read, expected {} / {}",
            bench.expect_written, bench.expect_read
        ));
    }
    if bench.resilient {
        let r = report
            .resilience
            .as_ref()
            .ok_or("resilience report missing")?;
        if !r.conserves_bytes() {
            return Err(format!(
                "acked {} != replicated {} + lost {}",
                r.acked_bytes, r.replicated_bytes, r.data_loss_bytes
            ));
        }
        if r.failures_injected != 1 {
            return Err(format!(
                "{} failures injected, expected 1",
                r.failures_injected
            ));
        }
    }
    if let Some(asm) = &report.requests {
        if asm.incomplete != 0 {
            return Err(format!(
                "{} traced requests never completed",
                asm.incomplete
            ));
        }
        if asm.requests.is_empty() {
            return Err("request tracing recorded nothing".into());
        }
        for r in &asm.requests {
            let mut at = r.issue;
            for s in &r.spans {
                if s.start != at || s.end < s.start {
                    return Err(format!("request {:#x}: segments do not tile", r.tid));
                }
                at = s.end;
            }
            if at != r.done {
                return Err(format!("request {:#x}: segments stop short", r.tid));
            }
        }
    }
    if let Some(p) = &report.exec_profile {
        if !p.conserves() {
            return Err("executor phase profile does not tile its workers' spans".into());
        }
    }
    Ok(())
}

/// Compare a trip's fingerprint against the run's first one.
pub fn same(first: &Fingerprint, other: &Fingerprint) -> Result<(), String> {
    match first.iter().find(|(k, v)| other.get(*k) != Some(v)) {
        None => Ok(()),
        Some((k, v)) => Err(format!(
            "simulated count {k} differs between trips: {v} vs {:?}",
            other.get(k)
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, Input};
    use pioeval_core::{measure_target_instrumented, WorkloadSource};
    use pioeval_des::ExecMode;
    use pioeval_iostack::StackConfig;
    use pioeval_types::SimDuration;

    fn traced_report(bench: &Bench) -> MeasurementReport {
        let Input::Generator(make) = &bench.input else {
            panic!("generator workload expected")
        };
        measure_target_instrumented(
            &bench.target,
            &WorkloadSource::Synthetic(make()),
            bench.nranks,
            StackConfig::default(),
            bench.seed,
            &ExecMode::Sequential,
            true,
            false,
        )
        .expect("measurement runs")
    }

    #[test]
    fn checks_catch_wrong_volumes_and_broken_tiling() {
        let mut bench = generate("ior_bb_rw", 5).expect("known workload");
        let mut report = traced_report(&bench);
        check(&bench, &report).expect("healthy trip passes");
        let fp = fingerprint(&report, true);
        assert!(fp["resil.acked_bytes"] > 0);
        assert_eq!(
            fp["resil.acked_bytes"],
            fp["resil.replicated_bytes"] + fp["resil.lost_bytes"]
        );

        bench.expect_read += 1;
        assert!(check(&bench, &report).is_err());
        bench.expect_read -= 1;

        let asm = report.requests.as_mut().expect("traced");
        asm.requests[0].done += SimDuration::from_nanos(1);
        let err = check(&bench, &report).expect_err("gap at the end");
        assert!(err.contains("segments"), "{err}");
    }
}
