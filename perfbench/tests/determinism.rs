//! Determinism self-test at reduced size: one seed always yields the
//! same op sequence and the same program counts, and another seed
//! yields another sequence.

use std::path::Path;

use intext_perfbench::gate;
use intext_perfbench::run::Ctx;
use intext_perfbench::workload::Action;
use intext_perfbench::Workload;
use intext_serve::wire;

const OPS: usize = 300;

/// FNV-1a over every op of connection 0's stream.
fn sequence_digest(workload: Workload, seed: u64) -> u64 {
    let ctx = Ctx::new(workload, seed, Path::new(".perfbench-run"), "digest").expect("run dir");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for op in ctx.stream(0).take(OPS) {
        let bytes = match &op.action {
            Action::Socket(req) => wire::encode_request(0, req),
            Action::Write(update) => format!("{update:?}").into_bytes(),
            Action::Checkpoint => b"checkpoint".to_vec(),
        };
        for b in bytes.iter().chain(&op.think.as_micros().to_le_bytes()) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// What the program did during a reduced timed phase.
#[derive(Debug, PartialEq)]
struct Counts {
    cache_misses: u64,
    cache_evictions: u64,
    patches: u64,
    wal_records: u64,
    syncs_per_write: Vec<u64>,
}

fn program_counts(workload: Workload, seed: u64) -> Counts {
    let mut ctx = Ctx::new(workload, seed, Path::new(".perfbench-run"), "counts").expect("run dir");
    ctx.build_fixture().expect("fixture");
    let mut live = ctx.set_up(false).expect("set-up");
    let out = live.run(&ctx, &[20], &[OPS as u64], false);
    live.shut_down();
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    gate::replay(&ctx, &out).expect("answers match a sequential engine");
    let (b, a) = (&out.stats_before, &out.stats_after);
    Counts {
        cache_misses: a.cache_misses - b.cache_misses,
        cache_evictions: a.cache_evictions - b.cache_evictions,
        patches: a.patches_applied - b.patches_applied,
        wal_records: out.writes.iter().map(|w| w.records).sum(),
        syncs_per_write: out.writes.iter().map(|w| w.syncs).collect(),
    }
}

#[test]
fn same_seed_same_sequence_other_seed_other_sequence() {
    for workload in [Workload::HotRead, Workload::DurableWrite] {
        let a = sequence_digest(workload, 7);
        assert_eq!(a, sequence_digest(workload, 7), "{workload:?}");
        assert_ne!(a, sequence_digest(workload, 8), "{workload:?}");
    }
}

#[test]
fn same_seed_same_program_counts() {
    for workload in [Workload::HotRead, Workload::DurableWrite] {
        let first = program_counts(workload, 7);
        assert_eq!(first, program_counts(workload, 7), "{workload:?}");
        if workload == Workload::DurableWrite {
            // One fsync per cached query per write, and a delta each.
            assert!(first.patches > 0 && first.wal_records > 0);
            assert!(first.syncs_per_write.iter().all(|&s| s == 9));
        } else {
            assert_eq!(first.cache_misses, 0, "the hot set is resident");
        }
    }
}
