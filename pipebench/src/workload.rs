//! The three benchmark workloads, generated from a seed.
//!
//! Each workload fixes its volume of work (ranks, bytes, operations) and
//! lets the seed vary only details that leave that volume unchanged:
//! which I/O node is lost, mdtest's file-id namespace, the compute time
//! and checkpoint placement of the generated DSL program and the seed
//! handed to the pipeline (random offsets). So the figures of different
//! seeds are comparable, and a second seed checks a claim on inputs not
//! tuned for.

use pioeval_core::TargetConfig;
use pioeval_objstore::ObjStoreConfig;
use pioeval_pfs::ClusterConfig;
use pioeval_resil::{AckMode, FailureEvent, FailureKind, ResilConfig};
use pioeval_types::{split_seed, SimDuration};
use pioeval_workloads::{IorLike, MdtestLike, Workload};

/// Base file id of the generated DSL program, as `pioeval dsl` uses.
pub const DSL_BASE_FILE: u32 = 100_000;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["ior_bb_rw", "mdtest_storm", "dl_obj_dsl"];

/// How the rank programs are produced.
pub enum Input {
    /// A generator struct from `pioeval-workloads`.
    Generator(Box<dyn Fn() -> Box<dyn Workload>>),
    /// DSL source text, parsed and linted inside every trip.
    Dsl(String),
}

/// One generated workload: its input, target and expected volumes.
pub struct Bench {
    /// Workload name.
    pub name: &'static str,
    /// Rank count of the job.
    pub nranks: u32,
    /// Seed handed to the pipeline (lowering, random offsets).
    pub seed: u64,
    /// The program source.
    pub input: Input,
    /// The storage target.
    pub target: TargetConfig,
    /// POSIX bytes the job must write.
    pub expect_written: u64,
    /// POSIX bytes the job must read.
    pub expect_read: u64,
    /// Whether the target carries a resilience tier whose byte
    /// conservation is checked.
    pub resilient: bool,
}

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// IOR ranks.
const IOR_RANKS: u32 = 64;
/// IOR per-rank block, bytes.
const IOR_BLOCK: u64 = 16 * MIB;
/// Simulated time at which the I/O node is lost: halfway through the
/// healthy write phase, which takes about 0.9 s.
const IOR_LOSS_US: u64 = 450_000;
/// mdtest ranks.
const MD_RANKS: u32 = 64;
/// mdtest files per rank.
const MD_FILES: u32 = 256;
/// Bytes of mdtest's small write to each file.
const MD_WRITE: u64 = 4 * KIB;
/// DL ranks.
const DL_RANKS: u32 = 32;
/// DL epochs.
const DL_EPOCHS: u64 = 16;
/// DL batches per epoch.
const DL_STEPS: u64 = 4;
/// DL random sample reads per batch.
const DL_READS_PER_STEP: u64 = 16;
/// Bytes of each rank's sample shard.
const SHARD: u64 = 8 * MIB;
/// Bytes of one random sample read.
const SAMPLE: u64 = 128 * KIB;
/// Bytes of one checkpoint.
const CKPT: u64 = 4 * MIB;

/// Draw a value in `0..n` from the seed's `stream`.
fn pick(seed: u64, stream: u64, n: u64) -> u64 {
    split_seed(seed, stream) % n
}

/// Build workload `name` from `seed`.
pub fn generate(name: &str, seed: u64) -> Option<Bench> {
    match name {
        "ior_bb_rw" => Some(ior_bb_rw(seed)),
        "mdtest_storm" => Some(mdtest_storm(seed)),
        "dl_obj_dsl" => Some(dl_obj_dsl(seed)),
        _ => None,
    }
}

/// Shared-file IOR write then read-back through four burst-buffer I/O
/// nodes under `local_plus_one` acks, losing one I/O node mid-write.
fn ior_bb_rw(seed: u64) -> Bench {
    let ior = IorLike {
        transfer_size: 64 * KIB,
        block_size: IOR_BLOCK,
        read: true,
        ..IorLike::default()
    };
    // The loss time stays fixed because it sets how much data is
    // re-drained and so the work of the trip; the seed picks which of
    // the symmetric nodes fails.
    let mut resil = ResilConfig {
        ack_mode: AckMode::LocalPlusOne,
        ..ResilConfig::default()
    };
    resil.failures.scripted.push(FailureEvent {
        kind: FailureKind::IoNodeLoss,
        target: pick(seed, 1, 4) as u32,
        at: SimDuration::from_micros(IOR_LOSS_US),
    });
    let volume = u64::from(IOR_RANKS) * IOR_BLOCK;
    Bench {
        name: "ior_bb_rw",
        nranks: IOR_RANKS,
        seed,
        input: Input::Generator(Box::new(move || Box::new(ior))),
        target: TargetConfig::Pfs(ClusterConfig {
            num_clients: IOR_RANKS as usize,
            num_ionodes: 4,
            num_oss: 8,
            resil: Some(resil),
            ..ClusterConfig::default()
        }),
        expect_written: volume,
        expect_read: volume,
        resilient: true,
    }
}

/// mdtest-like create, small write, stat and unlink on one MDS. The
/// seed moves only the file-id namespace: the MDS assigns OSTs round
/// robin, so the simulated work is the same on every seed.
fn mdtest_storm(seed: u64) -> Bench {
    let md = MdtestLike {
        files_per_rank: MD_FILES,
        write_bytes: MD_WRITE,
        base_file: 10_000 + pick(seed, 1, 1 << 20) as u32,
        ..MdtestLike::default()
    };
    Bench {
        name: "mdtest_storm",
        nranks: MD_RANKS,
        seed,
        input: Input::Generator(Box::new(move || Box::new(md))),
        target: TargetConfig::Pfs(ClusterConfig {
            num_clients: MD_RANKS as usize,
            num_mds: 1,
            ..ClusterConfig::default()
        }),
        expect_written: u64::from(MD_RANKS) * u64::from(MD_FILES) * MD_WRITE,
        expect_read: 0,
        resilient: false,
    }
}

/// DL training on the object store, as a generated DSL program.
fn dl_obj_dsl(seed: u64) -> Bench {
    let reads = u64::from(DL_RANKS) * DL_EPOCHS * DL_STEPS * DL_READS_PER_STEP;
    Bench {
        name: "dl_obj_dsl",
        nranks: DL_RANKS,
        seed,
        input: Input::Dsl(dl_source(seed)),
        target: TargetConfig::ObjStore(ObjStoreConfig {
            num_clients: DL_RANKS as usize,
            num_gateways: 2,
            ..ObjStoreConfig::default()
        }),
        expect_written: u64::from(DL_RANKS) * SHARD + DL_EPOCHS * CKPT,
        expect_read: reads * SAMPLE,
        resilient: false,
    }
}

/// The DL training program: every rank stages its sample shard, then
/// each epoch reads random 128 KiB samples in [`DL_STEPS`] batches with
/// compute after each, and rank 0 writes a checkpoint at the end of the
/// epoch. The seed picks the compute time and whether the checkpoint
/// comes before or after the epoch's barrier; the operations and bytes
/// do not depend on it.
pub fn dl_source(seed: u64) -> String {
    let compute_us = 50 + pick(seed, 2, 200);
    let reads = DL_STEPS * DL_READS_PER_STEP;
    let checkpoint = format!("  onrank 0\n    write ckpt {}k\n  end\n", CKPT / KIB);
    let epoch_end = if pick(seed, 1, 2) == 0 {
        format!("{checkpoint}  barrier\n")
    } else {
        format!("  barrier\n{checkpoint}")
    };
    format!(
        "# dl_obj_dsl, seed {seed}: {DL_EPOCHS} epochs of {reads} random sample reads per rank\n\
         file samples perrank lane {shard}k\n\
         file ckpt perrank lane {ckpt_lane}k\n\
         create samples\n\
         create ckpt\n\
         write samples 1m x{parts}\n\
         barrier\n\
         repeat {DL_EPOCHS}\n\
         \x20 repeat {DL_STEPS}\n\
         \x20   read samples {sample}k x{DL_READS_PER_STEP} random\n\
         \x20   compute {compute_us}us\n\
         \x20 end\n\
         {epoch_end}\
         end\n\
         close samples\n\
         close ckpt\n",
        shard = SHARD / KIB,
        ckpt_lane = DL_EPOCHS * CKPT / KIB,
        parts = SHARD / MIB,
        sample = SAMPLE / KIB,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsl_generator_lints_clean_across_seeds() {
        for seed in 0..16 {
            let src = dl_source(seed);
            let report = pioeval_lint::lint_dsl_source(&src);
            assert!(
                report.diagnostics.is_empty(),
                "seed {seed}: {:?}\n{src}",
                report.diagnostics
            );
            pioeval_workloads::parse_dsl(&src, DSL_BASE_FILE).expect("generated DSL parses");
        }
    }

    #[test]
    fn seeds_keep_the_volume_of_work() {
        for name in NAMES {
            let a = generate(name, 1).expect("known workload");
            let b = generate(name, 2).expect("known workload");
            assert_eq!(a.nranks, b.nranks);
            assert_eq!(a.expect_read, b.expect_read);
            assert_eq!(a.expect_written, b.expect_written);
            if let (Input::Dsl(x), Input::Dsl(y)) = (&a.input, &b.input) {
                assert_eq!(x.lines().count(), y.lines().count());
            }
        }
        assert!(generate("nope", 1).is_none());
    }
}
