//! The correctness gate, run after the timed phase: every answer is
//! replayed against a sequential `PqeEngine`, and recovered state is
//! checked against what the fixture wrote.

use intext_engine::{EngineConfig, PqeEngine, SnapshotSource};
use intext_query::Query;
use intext_tid::Tid;

use crate::run::{Answer, Ctx, Live, PhaseOut};
use crate::workload::{Action, Update};

/// Replays every op of every connection into a sequential engine with
/// an unbounded cache: f64 answers must match bit for bit, exact ones
/// must be equal. Returns the number of answers checked.
pub fn replay(ctx: &Ctx, out: &PhaseOut) -> Result<u64, String> {
    let mut engine = PqeEngine::with_config(EngineConfig::default());
    let mut tid: Option<Tid> = ctx.live.clone();
    let mut checked = 0u64;
    for (c, answers) in out.answers.iter().enumerate() {
        for (op, got) in ctx.stream(c).zip(answers) {
            let want = match &op.action {
                Action::Socket(intext_serve::Request::EvaluateF64 { q, tid }) => Answer::F64(
                    engine
                        .evaluate_f64(q.clone(), tid)
                        .map_err(|e| format!("reference: {e}"))?
                        .to_bits(),
                ),
                Action::Socket(intext_serve::Request::Evaluate { q, tid }) => Answer::Exact(
                    engine
                        .evaluate(q.clone(), tid)
                        .map_err(|e| format!("reference: {e}"))?,
                ),
                Action::Socket(intext_serve::Request::BatchF64 { q, tids, shards }) => {
                    Answer::Batch(
                        engine
                            .evaluate_batch_sharded_f64(q.clone(), tids, *shards)
                            .map_err(|e| format!("reference: {e}"))?
                            .iter()
                            .map(|p| p.to_bits())
                            .collect(),
                    )
                }
                Action::Socket(other) => return Err(format!("unexpected request {other:?}")),
                Action::Write(update) => {
                    let tid = tid.as_mut().expect("durable-write instance");
                    match update {
                        Update::Insert(desc, p) => {
                            engine.insert_tuple(tid, *desc, p.clone()).map(|_| ())
                        }
                        Update::Remove(id) => engine.remove_tuple(tid, *id).map(|_| ()),
                    }
                    .map_err(|e| format!("reference update: {e}"))?;
                    Answer::Done
                }
                Action::Checkpoint => Answer::Done,
            };
            // A failed op is counted as failed, not as wrong.
            if let Some(got) = got {
                if *got != want {
                    return Err(format!(
                        "op {c}/{}: server answered {got:?}, sequential engine {want:?}",
                        op.index
                    ));
                }
                checked += 1;
            }
        }
    }
    Ok(checked)
}

/// Checks a set-up's recovery against the fixture: the snapshot's
/// generation and artifact count, the WAL records replayed, nothing
/// quarantined.
pub fn recovered_setup(ctx: &Ctx, live: &Live) -> Result<(), String> {
    let Some(report) = &live.recovery else {
        return Ok(());
    };
    let want_records = (ctx.tail.len() * ctx.keys.durable.len()) as u64;
    let ok = report.clean()
        && report.snapshot
            == (SnapshotSource::Current {
                artifacts: ctx.snapshot_artifacts,
            })
        && report.wal_records_applied == want_records;
    if !ok {
        return Err(format!(
            "recovered set-up {report:?}: want {} snapshot artifacts and {want_records} WAL records",
            ctx.snapshot_artifacts
        ));
    }
    Ok(())
}

/// durable-write, after the timed phase and before shutdown: a fresh
/// engine recovered from the run's own directory answers exactly like
/// the live engine, and its artifacts are byte-identical to fresh
/// compiles.
pub fn recovered_final(ctx: &Ctx, live: &Live, out: &PhaseOut) -> Result<(), String> {
    let Some(tid) = &out.final_tid else {
        return Ok(());
    };
    let ddir = ctx.durable_dir()?;
    let (mut recovered, report) =
        PqeEngine::recover_with(ctx.config, &ddir).map_err(|e| format!("final recovery: {e}"))?;
    if !report.clean() {
        return Err(format!("final recovery not clean: {report:?}"));
    }
    for q in &ctx.keys.durable {
        // Exported before any evaluation: the artifact must be resident
        // from recovery alone.
        let recovered_bytes = recovered
            .export_artifact(q, tid.database())
            .map_err(|e| format!("recovered export: {e}"))?;
        let query = Query::from(q.clone());
        let got = recovered
            .evaluate(query.clone(), tid)
            .map_err(|e| format!("recovered engine: {e}"))?;
        let mut stats = intext_engine::EngineStats::default();
        let want = live
            .handle
            .engine()
            .prepare(&query, tid)
            .map_err(|e| format!("live engine: {e}"))?
            .eval_exact(tid, 0, &mut stats);
        if got != want {
            return Err(format!(
                "recovered engine answers {got}, live engine {want}"
            ));
        }
        let mut fresh = PqeEngine::with_config(EngineConfig::default());
        fresh
            .evaluate(query, tid)
            .map_err(|e| format!("fresh compile: {e}"))?;
        let fresh_bytes = fresh
            .export_artifact(q, tid.database())
            .map_err(|e| format!("fresh export: {e}"))?;
        if fresh_bytes != recovered_bytes {
            return Err("recovered artifact differs from a fresh compile".into());
        }
    }
    Ok(())
}
