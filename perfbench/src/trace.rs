//! Spans for the traced run, and the forwarding storage wrapper that
//! counts what the durability layer asks of the filesystem.
//!
//! Spans are recorded from the benchmark's own files, around the public
//! calls into each layer; nothing inside the program is instrumented.
//! Each span carries its name, start, end, parent and op id. They are
//! kept in memory and written out when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use intext_engine::fsio::{RealFs, StorageIo};

/// Op id of spans that belong to no op (set-up, post-phase probes).
pub const NO_OP: u64 = u64::MAX;

/// Op ids are unique across connections: connection in the top bits.
pub fn op_id(conn: usize, index: u64) -> u64 {
    ((conn as u64) << 40) | index
}

/// One timed interval, in nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub op: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span sink; inactive sinks record nothing, so the same
/// code path serves the untraced and the traced run.
pub struct Rec {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

impl Rec {
    pub fn off(epoch: Instant) -> Rec {
        Rec { epoch, spans: None }
    }

    pub fn on(epoch: Instant) -> Rec {
        Rec {
            epoch,
            spans: Some(Vec::new()),
        }
    }

    pub fn active(&self) -> bool {
        self.spans.is_some()
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span when tracing.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if self.spans.is_none() {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, parent, op, start, end);
        out
    }

    pub fn push(
        &mut self,
        name: &'static str,
        parent: &'static str,
        op: u64,
        start: u64,
        end: u64,
    ) {
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name,
                parent,
                op,
                start,
                end,
            });
        }
    }

    pub fn take(&mut self) -> Vec<Span> {
        self.spans.as_mut().map(std::mem::take).unwrap_or_default()
    }
}

/// Writes every span as one tab-separated line: name, parent, op id,
/// start and end in nanoseconds since the run's epoch.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tparent\top\tstart_ns\tend_ns")?;
    for s in spans {
        let op = if s.op == NO_OP { -1 } else { s.op as i64 };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.parent, op, s.start, s.end
        )?;
    }
    out.flush()
}

/// Forwards to [`RealFs`], counting syncs, their durations, and bytes
/// appended. Every run opens its durable directory through it, so the
/// untraced and traced runs share one storage path.
#[derive(Default)]
pub struct CountingIo {
    syncs: AtomicU64,
    appended: AtomicU64,
    sync_nanos: Mutex<Vec<u64>>,
}

/// A snapshot of [`CountingIo`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    pub syncs: u64,
    pub appended: u64,
}

impl CountingIo {
    pub fn counts(&self) -> IoCounts {
        IoCounts {
            syncs: self.syncs.load(Ordering::Relaxed),
            appended: self.appended.load(Ordering::Relaxed),
        }
    }

    /// Durations of every sync so far, in nanoseconds.
    pub fn sync_nanos(&self) -> Vec<u64> {
        self.sync_nanos.lock().expect("sync log lock").clone()
    }

    fn timed_sync(&self, f: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let started = Instant::now();
        let out = f();
        let nanos = started.elapsed().as_nanos() as u64;
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.sync_nanos.lock().expect("sync log lock").push(nanos);
        out
    }
}

impl StorageIo for CountingIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealFs.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        RealFs.write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.appended
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        RealFs.append(path, bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.timed_sync(|| RealFs.sync(path))
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.timed_sync(|| RealFs.sync_dir(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealFs.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        RealFs.remove(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealFs.create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }
}
