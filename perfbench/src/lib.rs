//! The repository benchmark: hot-read, compile-churn and durable-write
//! traffic through an in-process `intext-serve` over a Unix socket,
//! with an outside-in layer trace. `README.md` next to this crate is
//! the design note.

pub mod gate;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod run;
pub mod trace;
pub mod workload;

use std::path::Path;

use report::{result_line, Metric};
use run::{Ctx, Live, PhaseOut};
pub use workload::Workload;
use workload::{Class, KeyKind, WORKERS};

/// Command-line arguments.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Fresh set-ups per untraced run, at three moments seconds apart:
/// before the timed phase, right after it, and after the correctness
/// gate's replay. `setup_s` is the median of all ten, so one slow
/// moment of the host does not set it.
const SET_UPS: [usize; 3] = [4, 3, 3];
/// Where runs keep their state, relative to the checkout root.
pub const STATE_DIR: &str = ".perfbench-run";

/// Per-connection warm-up and timed op counts.
fn op_counts(workload: Workload, seconds: u64) -> (Vec<u64>, Vec<u64>) {
    (0..workload.connections())
        .map(|c| {
            (
                workload.warmup_ops(seconds, c),
                workload.timed_ops(seconds, c),
            )
        })
        .unzip()
}

/// One timed set-up, checked against the fixture it recovered.
fn timed_set_up(
    ctx: &mut Ctx,
    setup_s: &mut Vec<f64>,
    problems: &mut Vec<String>,
) -> Result<Live, String> {
    let fresh = ctx.set_up(false)?;
    if let Err(e) = gate::recovered_setup(ctx, &fresh) {
        problems.push(e);
    }
    setup_s.push(fresh.setup.as_secs_f64());
    Ok(fresh)
}

/// One untraced pass: fixture, `set_ups` timed set-ups (all but the
/// last torn down), warm-up, timed phase, and the live half of the
/// correctness gate. Returns the phase, the set-up times and the gate's
/// findings so far.
fn plain_pass(
    ctx: &mut Ctx,
    set_ups: usize,
    warm: &[u64],
    timed: &[u64],
) -> Result<(PhaseOut, Vec<f64>, Vec<String>), String> {
    ctx.build_fixture()?;
    let mut problems = Vec::new();
    let mut setup_s = Vec::with_capacity(SET_UPS.iter().sum());
    let mut live: Option<Live> = None;
    for _ in 0..set_ups {
        if let Some(old) = live.take() {
            old.shut_down();
        }
        live = Some(timed_set_up(ctx, &mut setup_s, &mut problems)?);
    }
    let mut live = live.ok_or("no set-up ran")?;
    let out = live.run(ctx, warm, timed, false);
    if let Err(e) = gate::recovered_final(ctx, &live, &out) {
        problems.push(e);
    }
    live.shut_down();
    Ok((out, setup_s, problems))
}

/// Runs one workload and returns the result line; the report goes to
/// standard output before it.
pub fn run(args: &Args) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = if args.workload.pinned() {
        Some(report::pin_to_one_cpu()?)
    } else {
        None
    };
    let base = Path::new(STATE_DIR);
    let (warm, timed) = op_counts(args.workload, args.seconds);
    let mut ctx = Ctx::new(args.workload, args.seed, base, "plain")?;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} git_rev={} nproc={nproc} \
         pinned_cpu={} workers={WORKERS} shards={} connections={} wal_fs={} warmup_ops={warm:?} \
         timed_ops={timed:?} closed_loop=yes",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::git_rev(),
        cpu.map_or("none".to_string(), |c| c.to_string()),
        args.workload.shards(),
        args.workload.connections(),
        report::fs_type(ctx.dir.path()),
    );
    let [before, mid, after] = if args.trace { [1, 0, 0] } else { SET_UPS };
    let (plain, mut setup_s, mut problems) = plain_pass(&mut ctx, before, &warm, &timed)?;
    if mid > 0 {
        // The timed phase changed the durable directory: rebuild what
        // the first set-ups started from. Set-ups only read it.
        ctx.build_fixture()?;
    }
    for _ in 0..mid {
        timed_set_up(&mut ctx, &mut setup_s, &mut problems)?.shut_down();
    }
    let gate = gate::replay(&ctx, &plain);
    for _ in 0..after {
        timed_set_up(&mut ctx, &mut setup_s, &mut problems)?.shut_down();
    }
    match gate {
        Ok(n) => println!("# gate: {n} answers match a sequential engine"),
        Err(e) => problems.push(e),
    }
    let attempted: u64 = warm.iter().chain(&timed).sum();
    let failed = plain.failures.len() as u64;
    for f in plain.failures.iter().take(5) {
        println!("# failed op: {f}");
    }
    print_phase(&ctx, &plain, &setup_s);

    let metrics: Vec<Metric> = if args.trace {
        let mut tctx = Ctx::new(args.workload, args.seed, base, "traced")?;
        tctx.build_fixture()?;
        let mut live = tctx.set_up(true)?;
        let traced = live.run(&tctx, &warm, &timed, true);
        let (setup_spans, snapshot_bytes) =
            (std::mem::take(&mut live.setup_spans), live.snapshot_bytes);
        let server = live.shut_down();
        if traced.answers != plain.answers {
            problems.push("traced replay answered differently from the untraced run".into());
        }
        let mut all_spans = traced.spans.clone();
        all_spans.extend(server.spans.iter().copied());
        all_spans.extend(setup_spans.iter().copied());
        let spans_file = base.join(format!("spans-{}.tsv", args.workload.name()));
        trace::write_spans(&spans_file, &all_spans)
            .map_err(|e| format!("write {}: {e}", spans_file.display()))?;
        println!(
            "# spans: {} written to {}",
            all_spans.len(),
            spans_file.display()
        );
        let layer = metrics::Traced {
            ctx: &tctx,
            plain: &plain,
            traced: &traced,
            server: &server,
            setup_spans: &setup_spans,
            snapshot_bytes,
        }
        .metrics();
        for m in &layer {
            println!("# layer {:<34} {:>12.3} {}", m.name, m.value, m.unit);
        }
        layer
    } else {
        metrics::end_to_end(&plain, &setup_s)
    };
    for p in &problems {
        println!("# gate FAILED: {p}");
    }
    Ok(result_line(
        problems.is_empty(),
        attempted,
        failed,
        &metrics,
    ))
}

/// The human-readable part of the report: calibration, per-class
/// latencies with sample counts, the workload's name for its focus
/// class, and stationarity windows.
fn print_phase(ctx: &Ctx, out: &PhaseOut, setup_s: &[f64]) {
    let workload = ctx.workload;
    println!(
        "# calibration_ms before={:.3} after={:.3} (fixed CPU loop; never used to adjust)",
        out.calibration_ms[0], out.calibration_ms[1]
    );
    println!("# setup_s runs={setup_s:.4?}");
    println!(
        "# timed phase: {} ops in {:.3} s, peak_rss {} KiB",
        out.samples.len(),
        out.wall.as_secs_f64(),
        out.peak_rss_kb
    );
    for class in Class::ALL {
        let v = metrics::class_us(&out.samples, class);
        let label = if class == Class::Focus {
            format!("focus ({})", workload.focus_name())
        } else {
            class.name().to_string()
        };
        println!(
            "# class {label:<20} n={:<6} whole-phase p50={:>10.1} us p90={:>10.1} us p99={:>10.1} us",
            v.len(),
            report::quantile(&v, 0.5),
            report::quantile(&v, 0.9),
            report::quantile(&v, 0.99),
        );
    }
    for (class, list) in [
        (Class::Read, &ctx.keys.reads),
        (Class::Batch, &ctx.keys.batches),
        (Class::Focus, &ctx.keys.focus),
    ] {
        for kind in [KeyKind::Dd, KeyKind::Obdd, KeyKind::Lifted, KeyKind::Ground] {
            let v: Vec<f64> = out
                .samples
                .iter()
                .filter(|s| s.ok && s.class == Some(class))
                .filter(|s| s.key.is_some_and(|(_, i)| list[i].kind == kind))
                .map(|s| s.nanos as f64 / 1e3)
                .collect();
            if !v.is_empty() {
                println!(
                    "#   {:<6} on {kind:?} keys: n={:<6} p50={:>10.1} us p90={:>10.1} us",
                    class.name(),
                    v.len(),
                    report::quantile(&v, 0.5),
                    report::quantile(&v, 0.9),
                );
            }
        }
    }
    for line in metrics::stationarity(&out.samples) {
        println!("# {line}");
    }
}
