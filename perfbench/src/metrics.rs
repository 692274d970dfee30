//! End-to-end metrics (untraced run) and per-layer metrics (traced
//! run), plus the stationarity report.

use std::collections::HashMap;
use std::time::Instant;

use intext_core::{compile_dd, Fragmentation};
use intext_engine::Plan;
use intext_lineage::compile_degenerate_obdd;
use intext_query::ground_circuit;

use crate::report::{mean, median, quantile, Metric};
use crate::run::{Ctx, OpInfo, PhaseOut, Sample, ServerLog};
use crate::trace::{op_id, Span};
use crate::workload::{Class, KeyKind, Workload};

/// Latencies of one class's successful timed ops, in microseconds.
pub fn class_us(samples: &[Sample], class: Class) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok && s.class == Some(class))
        .map(|s| s.nanos as f64 / 1e3)
        .collect()
}

/// Windows of the stationarity report.
const REPORT_WINDOWS: usize = 8;

/// The window of every sample: each connection's timed ops split into
/// `count` equal runs by op index.
fn windows(samples: &[Sample], count: usize) -> Vec<usize> {
    let mut range: HashMap<usize, (u64, u64)> = HashMap::new();
    for s in samples {
        let r = range.entry(s.conn).or_insert((s.index, s.index));
        r.0 = r.0.min(s.index);
        r.1 = r.1.max(s.index);
    }
    samples
        .iter()
        .map(|s| {
            let (lo, hi) = range[&s.conn];
            ((s.index - lo) as usize * count / (hi - lo + 1) as usize).min(count - 1)
        })
        .collect()
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(out: &PhaseOut, setups: &[f64]) -> Vec<Metric> {
    let q = |class, q| quantile(&class_us(&out.samples, class), q);
    let done = out.samples.iter().filter(|s| s.ok).count();
    vec![
        Metric::new("setup_s", "s", median(setups)),
        Metric::new("read_p90_us", "us", q(Class::Read, 0.9)),
        Metric::new("batch_p90_ms", "ms", q(Class::Batch, 0.9) / 1e3),
        Metric::new("focus_p50_ms", "ms", q(Class::Focus, 0.5) / 1e3),
        Metric::new("focus_p90_ms", "ms", q(Class::Focus, 0.9) / 1e3),
        Metric::new("ops_per_s", "1/s", done as f64 / out.wall.as_secs_f64()),
        Metric::new("peak_rss_mb", "MB", out.peak_rss_kb as f64 / 1024.0),
    ]
}

/// Per-window medians of each class: a growing WAL, instance or cache,
/// or drift inside the run, shows as a trend.
pub fn stationarity(samples: &[Sample]) -> Vec<String> {
    let window = windows(samples, REPORT_WINDOWS);
    (0..REPORT_WINDOWS)
        .map(|w| {
            let in_window: Vec<Sample> = samples
                .iter()
                .zip(&window)
                .filter(|(_, &sw)| sw == w)
                .map(|(s, _)| *s)
                .collect();
            let mut line = format!("window {w}:");
            for class in Class::ALL {
                let v = class_us(&in_window, class);
                if !v.is_empty() {
                    line.push_str(&format!(
                        "  {} p50 {:.1} us p90 {:.1} us (n={})",
                        class.name(),
                        median(&v),
                        quantile(&v, 0.9),
                        v.len()
                    ));
                }
            }
            line
        })
        .collect()
}

/// Layer times of one traced op, in nanoseconds. Socket ops: client
/// encode, transport (both frames, both directions), server decode,
/// prepare, eval, reply (encode + decode). Writes: export, append,
/// patch. They sum to the op's latency in the traced run.
#[derive(Clone, Copy, Debug, Default)]
struct OpLayers {
    encode: u64,
    frame: u64,
    decode: u64,
    prepare: u64,
    eval: u64,
    reply: u64,
    export: u64,
    append: u64,
    patch: u64,
    socket: bool,
    prepare_span: (u64, u64),
}

fn op_layers(spans: &[Span]) -> HashMap<u64, OpLayers> {
    let mut by_op: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_op.entry(s.op).or_default().push(s);
    }
    by_op
        .into_iter()
        .map(|(op, spans)| {
            let mut l = OpLayers::default();
            let find = |name: &str| spans.iter().find(|s| s.name == name).copied();
            let sum = |name: &str| -> u64 {
                spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.nanos())
                    .sum()
            };
            if let (Some(w), Some(r), Some(d), Some(e)) = (
                find("net.client_write"),
                find("net.client_read"),
                find("wire.decode_request"),
                find("wire.encode_response"),
            ) {
                l.socket = true;
                l.frame = (r.end - w.start).saturating_sub(e.end - d.start);
            }
            l.encode = sum("wire.encode_request");
            l.decode = sum("wire.decode_request");
            l.prepare = sum("shared.prepare");
            l.prepare_span = find("shared.prepare").map_or((0, 0), |s| (s.start, s.end));
            l.eval = sum("eval");
            l.reply = sum("wire.encode_response") + sum("wire.decode_reply");
            l.export = sum("store.export_delta");
            l.append = sum("wal.log_delta");
            l.patch = sum("engine.patch");
            (op, l)
        })
        .collect()
}

/// Everything the per-layer computation reads.
pub struct Traced<'a> {
    pub ctx: &'a Ctx,
    /// The untraced run of the same seed, in the same process.
    pub plain: &'a PhaseOut,
    pub traced: &'a PhaseOut,
    pub server: &'a ServerLog,
    pub setup_spans: &'a [Span],
    pub snapshot_bytes: usize,
}

impl Traced<'_> {
    /// The per-layer metrics, in `BENCHMARK.json` order. A layer that
    /// does no work on this workload reports 0.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut spans: Vec<Span> = self.traced.spans.clone();
        spans.extend(self.server.spans.iter().copied());
        let layers = op_layers(&spans);
        let infos: HashMap<u64, OpInfo> = self.server.infos.iter().map(|i| (i.op, *i)).collect();
        let ops: Vec<(Sample, OpLayers, Option<OpInfo>)> = self
            .traced
            .samples
            .iter()
            .filter(|s| s.ok)
            .filter_map(|s| {
                let id = op_id(s.conn, s.index);
                layers.get(&id).map(|l| (*s, *l, infos.get(&id).copied()))
            })
            .collect();
        let of = |class: Class| -> Vec<&(Sample, OpLayers, Option<OpInfo>)> {
            ops.iter().filter(|o| o.0.class == Some(class)).collect()
        };
        let us = |v: &[&(Sample, OpLayers, Option<OpInfo>)], f: &dyn Fn(&OpLayers) -> u64| {
            v.iter().map(|o| f(&o.1) as f64 / 1e3).collect::<Vec<f64>>()
        };
        let reads = of(Class::Read);
        let batches = of(Class::Batch);
        let focus = of(Class::Focus);
        let socket_focus: Vec<_> = focus.iter().copied().filter(|o| o.1.socket).collect();
        let reply_ops = if socket_focus.is_empty() {
            &reads
        } else {
            &socket_focus
        };
        let hits: Vec<_> = reads
            .iter()
            .copied()
            .filter(|o| o.2.is_some_and(|i| !i.compiled))
            .collect();
        let compiled: Vec<_> = ops
            .iter()
            .filter(|o| o.2.is_some_and(|i| i.compiled))
            .collect();
        let circuit_reads: Vec<_> = reads
            .iter()
            .copied()
            .filter(|o| o.2.is_some_and(|i| i.plan.is_cacheable()))
            .collect();
        let lifted_reads: Vec<_> = reads
            .iter()
            .copied()
            .filter(|o| o.2.is_some_and(|i| i.plan == Plan::Lifted))
            .collect();
        let exact: Vec<_> = ops
            .iter()
            .filter(|o| o.2.is_some_and(|i| i.exact))
            .collect();

        // Reads whose prepare overlapped a compile on another connection.
        let compiles: Vec<(usize, (u64, u64))> = compiled
            .iter()
            .map(|o| (o.0.conn, o.1.prepare_span))
            .collect();
        let blocked = reads
            .iter()
            .filter(|o| {
                let (s, e) = o.1.prepare_span;
                compiles
                    .iter()
                    .any(|&(c, (cs, ce))| c != o.0.conn && cs < e && s < ce)
            })
            .count();
        let hot_recompiles = ops
            .iter()
            .filter(|o| {
                matches!(o.0.class, Some(Class::Read | Class::Batch))
                    && o.2.is_some_and(|i| i.compiled)
            })
            .count();

        let named = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .chain(self.setup_spans)
                .filter(|s| s.name == name)
                .map(|s| s.nanos() as f64 / 1e3)
                .collect()
        };
        let writes = &self.traced.writes;
        let n_writes = writes.len().max(1) as f64;
        let sync_us: Vec<f64> = self
            .traced
            .sync_nanos
            .iter()
            .map(|n| *n as f64 / 1e3)
            .collect();

        let (b, a) = (&self.plain.stats_before, &self.plain.stats_after);
        let hits_d = (a.cache_hits - b.cache_hits) as f64;
        let misses_d = (a.cache_misses - b.cache_misses) as f64;
        let plain_ops = self.plain.samples.len().max(1) as f64;

        let lane_scenarios = batches
            .iter()
            .filter_map(|o| o.2)
            .map(|i| i.scenarios as f64)
            .fold(0.0, |a, b| a + b);
        let lane_calls = batches
            .iter()
            .filter_map(|o| o.2)
            .map(|i| i.lane_calls as f64)
            .fold(0.0, |a, b| a + b);
        let lane_per_scenario: Vec<f64> = batches
            .iter()
            .filter_map(|o| {
                o.2.map(|i| o.1.eval as f64 / 1e3 / i.scenarios.max(1) as f64)
            })
            .collect();
        let stages = self.compile_stages(&compiled);

        // Untraced class p50 minus the sum of the traced layer p50s.
        let residual = |class: Class, v: &[&(Sample, OpLayers, Option<OpInfo>)]| -> f64 {
            if v.is_empty() {
                return 0.0;
            }
            let plain = median(&crate::metrics::class_us(&self.plain.samples, class));
            let layer_fns: [&dyn Fn(&OpLayers) -> u64; 9] = [
                &|l| l.encode,
                &|l| l.frame,
                &|l| l.decode,
                &|l| l.prepare,
                &|l| l.eval,
                &|l| l.reply,
                &|l| l.export,
                &|l| l.append,
                &|l| l.patch,
            ];
            plain - layer_fns.iter().map(|f| median(&us(v, *f))).sum::<f64>()
        };

        vec![
            Metric::new(
                "serve.wire.decode_request_us",
                "us",
                quantile(&us(&reads, &|l| l.decode), 0.5),
            ),
            Metric::new(
                "serve.wire.encode_request_us",
                "us",
                quantile(&us(&reads, &|l| l.encode), 0.5),
            ),
            Metric::new(
                "serve.wire.request_kb",
                "KB",
                mean(
                    &reads
                        .iter()
                        .filter_map(|o| o.2)
                        .map(|i| i.request_bytes as f64 / 1024.0)
                        .collect::<Vec<_>>(),
                ),
            ),
            Metric::new(
                "serve.wire.reply_us",
                "us",
                quantile(&us(reply_ops, &|l| l.reply), 0.5),
            ),
            Metric::new(
                "serve.net.frame_us",
                "us",
                quantile(&us(&reads, &|l| l.frame), 0.5),
            ),
            Metric::new(
                "serve.queue.ping_us",
                "us",
                median(
                    &self
                        .traced
                        .pings
                        .iter()
                        .map(|n| *n as f64 / 1e3)
                        .collect::<Vec<_>>(),
                ),
            ),
            Metric::new(
                "serve.shared.prepare_hit_us",
                "us",
                quantile(&us(&hits, &|l| l.prepare), 0.5),
            ),
            Metric::new(
                "serve.shared.prepare_hit_p90_us",
                "us",
                quantile(&us(&hits, &|l| l.prepare), 0.9),
            ),
            Metric::new(
                "serve.shared.blocked_read_share",
                "ratio",
                blocked as f64 / reads.len().max(1) as f64,
            ),
            Metric::new(
                "engine.cache.hit_ratio",
                "ratio",
                hits_d / (hits_d + misses_d).max(1.0),
            ),
            Metric::new(
                "engine.cache.evictions_per_op",
                "1/op",
                (a.cache_evictions - b.cache_evictions) as f64 / plain_ops,
            ),
            Metric::new(
                "engine.cache.hot_recompiles",
                "count",
                hot_recompiles as f64,
            ),
            Metric::new(
                "engine.compile_ms_per_miss",
                "ms",
                median(
                    &compiled
                        .iter()
                        .filter_map(|o| o.2)
                        .map(|i| i.compile_nanos as f64 / 1e6)
                        .collect::<Vec<_>>(),
                ),
            ),
            Metric::new("core.template.fragment_us", "us", stages.fragment_us),
            Metric::new("lineage.compile.leaves_ms", "ms", stages.leaves_ms),
            Metric::new("core.pipeline.replay_ms", "ms", stages.replay_ms),
            Metric::new("query.ground.compile_ms", "ms", stages.ground_ms),
            Metric::new(
                "circuits.walk_f64_us",
                "us",
                quantile(&us(&circuit_reads, &|l| l.eval), 0.5),
            ),
            Metric::new(
                "query.lifted_us",
                "us",
                quantile(&us(&lifted_reads, &|l| l.eval), 0.5),
            ),
            Metric::new(
                "circuits.lane_us_per_scenario",
                "us",
                median(&lane_per_scenario),
            ),
            Metric::new(
                "engine.lane_scenarios_per_call",
                "count",
                if lane_calls > 0.0 {
                    lane_scenarios / lane_calls
                } else {
                    0.0
                },
            ),
            Metric::new(
                "numeric.walk_exact_ms",
                "ms",
                quantile(&us(&exact.to_vec(), &|l| l.eval), 0.5) / 1e3,
            ),
            Metric::new(
                "engine.store.export_delta_us",
                "us",
                median(&named("store.export_delta")),
            ),
            Metric::new(
                "engine.wal.append_us",
                "us",
                median(&named("wal.log_delta")),
            ),
            Metric::new(
                "engine.wal.append_p90_us",
                "us",
                quantile(&named("wal.log_delta"), 0.9),
            ),
            Metric::new(
                "engine.fsio.syncs_per_write",
                "count",
                writes
                    .iter()
                    .map(|w| w.syncs as f64)
                    .fold(0.0, |a, b| a + b)
                    / n_writes,
            ),
            Metric::new("engine.fsio.sync_us", "us", median(&sync_us)),
            Metric::new(
                "engine.fsio.bytes_per_write",
                "B",
                writes
                    .iter()
                    .map(|w| w.appended as f64)
                    .fold(0.0, |a, b| a + b)
                    / n_writes,
            ),
            Metric::new(
                "engine.patch_ms_per_write",
                "ms",
                median(&named("engine.patch")) / 1e3,
            ),
            Metric::new(
                "engine.recovery.checkpoint_ms",
                "ms",
                median(&named("recovery.checkpoint")) / 1e3,
            ),
            Metric::new(
                "engine.store.load_ms",
                "ms",
                median(&named("store.load_cache")) / 1e3,
            ),
            Metric::new(
                "engine.store.snapshot_kb",
                "KB",
                self.snapshot_bytes as f64 / 1024.0,
            ),
            Metric::new(
                "engine.wal.replay_ms",
                "ms",
                median(&named("wal.replay")) / 1e3,
            ),
            Metric::new(
                "engine.store.apply_delta_us",
                "us",
                median(&named("store.apply_delta")),
            ),
            Metric::new("residual.read_us", "us", residual(Class::Read, &reads)),
            Metric::new("residual.batch_us", "us", residual(Class::Batch, &batches)),
            Metric::new("residual.focus_us", "us", residual(Class::Focus, &focus)),
        ]
    }

    /// Theorem 5.2's stages and the grounding, timed from outside after
    /// the traced phase on the distinct cold keys it compiled: the
    /// engine's compile is one call, so its stages are re-run one by one
    /// on the same `(φ, shape)`.
    fn compile_stages(&self, compiled: &[&(Sample, OpLayers, Option<OpInfo>)]) -> Stages {
        let mut keys: Vec<usize> = compiled
            .iter()
            .filter(|o| o.0.class == Some(Class::Focus))
            .filter_map(|o| o.0.key.map(|(_, idx)| idx))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let (mut frag, mut leaves, mut replay, mut ground) = (vec![], vec![], vec![], vec![]);
        if self.ctx.workload != Workload::CompileChurn {
            return Stages::default();
        }
        for idx in keys {
            let key = &self.ctx.keys.focus[idx];
            match key.kind {
                KeyKind::Dd => {
                    let phi = key.hquery().expect("d-D keys are H-queries").phi();
                    let t = Instant::now();
                    let f = Fragmentation::of(phi).expect("d-D φ fragments");
                    let f_ns = t.elapsed().as_nanos() as f64;
                    let t = Instant::now();
                    for leaf in &f.leaves {
                        std::hint::black_box(
                            compile_degenerate_obdd(leaf, &key.shape).expect("leaves compile"),
                        );
                    }
                    let l_ns = t.elapsed().as_nanos() as f64;
                    let t = Instant::now();
                    std::hint::black_box(compile_dd(phi, &key.shape).expect("d-D compiles"));
                    let dd_ns = t.elapsed().as_nanos() as f64;
                    frag.push(f_ns / 1e3);
                    leaves.push(l_ns / 1e6);
                    replay.push((dd_ns - f_ns - l_ns).max(0.0) / 1e6);
                }
                KeyKind::Ground => {
                    let (expr, _) = key.query.general().expect("ground keys are parsed");
                    let t = Instant::now();
                    std::hint::black_box(ground_circuit(expr, &key.shape));
                    ground.push(t.elapsed().as_nanos() as f64 / 1e6);
                }
                KeyKind::Obdd | KeyKind::Lifted => {}
            }
        }
        Stages {
            fragment_us: median(&frag),
            leaves_ms: median(&leaves),
            replay_ms: median(&replay),
            ground_ms: median(&ground),
        }
    }
}

#[derive(Default)]
struct Stages {
    fragment_us: f64,
    leaves_ms: f64,
    replay_ms: f64,
    ground_ms: f64,
}
