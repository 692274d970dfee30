//! Crash-safe snapshots and recovery: the durability protocol over a
//! [`DurableDir`].
//!
//! A durable engine directory holds at most four kinds of file:
//!
//! | file | meaning |
//! |------|---------|
//! | `snapshot.bin` | the current committed cache snapshot (a [`store`](crate::store) bundle) |
//! | `snapshot.prev.bin` | the previous generation, retained until the next checkpoint |
//! | `snapshot.tmp` | an in-flight checkpoint that never committed (deleted on recovery) |
//! | `wal.log` | the write-ahead delta log ([`crate::wal`]) |
//!
//! plus quarantined corpses (`*.quarantined-N`) that recovery has
//! renamed aside rather than deleted — corruption is evidence, not
//! garbage.
//!
//! ## Checkpoint (atomic snapshot rotation)
//!
//! [`DurableDir::checkpoint`] commits the engine's whole artifact cache:
//! write the bundle to `snapshot.tmp`, `fsync` it, rotate
//! `snapshot.bin → snapshot.prev.bin`, rename the temp into place,
//! `fsync` the directory, and only then truncate the WAL. Every step is
//! either atomic (rename) or happens strictly before the step that
//! depends on it, so a crash between any two steps recovers to either
//! the old committed state (plus its WAL) or the new one — never a
//! half-written snapshot mistaken for a good one. The crash-point state
//! machine is tabulated in `DESIGN.md` §12 and enumerated exhaustively
//! by `tests/engine_recovery.rs` via [`FaultIo`](crate::fsio::FaultIo).
//!
//! ## Recovery
//!
//! [`PqeEngine::recover`] rebuilds an engine from the directory alone:
//! load the newest snapshot generation that decodes (quarantining any
//! that don't), delete an orphaned temp, then replay the WAL through
//! [`PqeEngine::apply_delta`] — stopping at the first record that is
//! corrupt at the frame layer *or* fails to apply, quarantining the
//! original log and truncating it to the applied prefix. The result is
//! always a working engine plus a [`RecoveryReport`] saying exactly
//! what was kept, replayed, and quarantined; a directory of pure
//! garbage degrades to a cold start, never a panic or a refusal to
//! serve.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::engine::{EngineConfig, PqeEngine};
use crate::fsio::{RealFs, StorageIo};
use crate::wal::Wal;

/// File name of the current committed snapshot.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// File name of the retained previous snapshot generation.
pub const SNAPSHOT_PREV_FILE: &str = "snapshot.prev.bin";
/// File name of an in-flight (uncommitted) checkpoint.
pub const SNAPSHOT_TMP_FILE: &str = "snapshot.tmp";
/// File name of the write-ahead delta log.
pub const WAL_FILE: &str = "wal.log";

/// A directory holding one engine's durable state, bound to a storage
/// backend (the real filesystem by default, or any
/// [`StorageIo`] — the fault harness injects its own).
pub struct DurableDir {
    dir: PathBuf,
    io: Arc<dyn StorageIo>,
}

impl DurableDir {
    /// Opens (creating if needed) a durable directory on the real
    /// filesystem.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with(dir, Arc::new(RealFs))
    }

    /// Opens a durable directory over an injected backend.
    pub fn open_with(dir: impl Into<PathBuf>, io: Arc<dyn StorageIo>) -> io::Result<Self> {
        let dir = dir.into();
        io.create_dir_all(&dir)?;
        Ok(DurableDir { dir, io })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The write-ahead log inside this directory.
    pub fn wal(&self) -> Wal {
        Wal::with_io(self.dir.join(WAL_FILE), Arc::clone(&self.io))
    }

    fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Appends one exported delta blob to the WAL and makes it durable.
    /// Call *before* applying the update in memory: `Ok` here is the
    /// durability promise.
    pub fn log_delta(&self, delta: &[u8]) -> io::Result<()> {
        self.wal().append(delta)
    }

    /// Commits `engine`'s artifact cache as the new current snapshot
    /// via atomic rotation (temp + fsync + rename, previous generation
    /// retained), then truncates the WAL — every logged delta is inside
    /// the snapshot now.
    pub fn checkpoint(&self, engine: &PqeEngine) -> io::Result<()> {
        let bytes = engine.save_cache();
        let tmp = self.file(SNAPSHOT_TMP_FILE);
        let current = self.file(SNAPSHOT_FILE);
        let prev = self.file(SNAPSHOT_PREV_FILE);
        self.io.write(&tmp, &bytes)?;
        self.io.sync(&tmp)?;
        if self.io.exists(&current) {
            self.io.rename(&current, &prev)?;
        }
        self.io.rename(&tmp, &current)?;
        self.io.sync_dir(&self.dir)?;
        self.wal().reset()
    }

    /// Renames `path` aside to the first free `*.quarantined-N` name
    /// and returns the new path.
    fn quarantine(&self, path: &Path) -> io::Result<PathBuf> {
        for n in 1u32.. {
            let candidate = PathBuf::from(format!("{}.quarantined-{n}", path.display()));
            if !self.io.exists(&candidate) {
                self.io.rename(path, &candidate)?;
                return Ok(candidate);
            }
        }
        unreachable!("u32 quarantine namespace exhausted")
    }
}

/// Which snapshot generation recovery started the engine from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum SnapshotSource {
    /// No decodable snapshot: the engine cold-started empty.
    #[default]
    Cold,
    /// The current generation (`snapshot.bin`) loaded cleanly.
    Current {
        /// Artifacts admitted from the snapshot.
        artifacts: u64,
    },
    /// The current generation was corrupt (and quarantined); the
    /// retained previous generation loaded instead.
    Previous {
        /// Artifacts admitted from the previous generation.
        artifacts: u64,
    },
}

/// One file recovery renamed aside instead of trusting or deleting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Quarantine {
    /// The file's original path.
    pub original: PathBuf,
    /// Where it lives now (`<original>.quarantined-N`).
    pub moved_to: PathBuf,
    /// The typed failure that condemned it, rendered.
    pub reason: String,
}

/// What [`PqeEngine::recover`] did: the full, typed account of a
/// recovery — which snapshot generation survived, how much of the WAL
/// replayed, and everything that had to be quarantined.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Which snapshot generation the engine started from.
    pub snapshot: SnapshotSource,
    /// WAL records successfully re-applied through
    /// [`PqeEngine::apply_delta`].
    pub wal_records_applied: u64,
    /// Intact WAL records dropped because an earlier record failed to
    /// apply (the log is a strict order: applying past a failure could
    /// interleave updates).
    pub wal_records_dropped: u64,
    /// Why the WAL was cut short, when it was: a frame-layer
    /// [`WalCorruption`](crate::wal::WalCorruption) or an
    /// [`apply_delta`](PqeEngine::apply_delta) error, rendered.
    pub wal_cut: Option<String>,
    /// Every file renamed aside during this recovery.
    pub quarantined: Vec<Quarantine>,
}

impl RecoveryReport {
    /// `true` iff recovery found nothing wrong: the committed state
    /// loaded and the whole WAL replayed.
    pub fn clean(&self) -> bool {
        self.wal_cut.is_none()
            && self.quarantined.is_empty()
            && !matches!(self.snapshot, SnapshotSource::Previous { .. })
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.snapshot {
            SnapshotSource::Cold => write!(f, "cold start")?,
            SnapshotSource::Current { artifacts } => {
                write!(f, "snapshot loaded ({artifacts} artifact(s))")?
            }
            SnapshotSource::Previous { artifacts } => write!(
                f,
                "previous-generation snapshot loaded ({artifacts} artifact(s))"
            )?,
        }
        write!(
            f,
            "; {} WAL record(s) replayed, {} dropped",
            self.wal_records_applied, self.wal_records_dropped
        )?;
        if let Some(cut) = &self.wal_cut {
            write!(f, "; WAL cut: {cut}")?;
        }
        for q in &self.quarantined {
            write!(
                f,
                "; quarantined {} → {} ({})",
                q.original.display(),
                q.moved_to.display(),
                q.reason
            )?;
        }
        Ok(())
    }
}

impl PqeEngine {
    /// Rebuilds an engine from a durable directory on the real
    /// filesystem: newest decodable snapshot generation + WAL replay,
    /// with graceful degradation — corrupt files are quarantined
    /// (renamed aside, reported, counted in
    /// [`EngineStats::recovery_quarantines`](crate::EngineStats::recovery_quarantines))
    /// and the engine cold-starts through whatever is left rather than
    /// refusing to serve. `Err` is reserved for genuine I/O failure
    /// (permissions, a vanished directory), never for corruption.
    pub fn recover(
        config: EngineConfig,
        dir: impl Into<PathBuf>,
    ) -> io::Result<(PqeEngine, RecoveryReport)> {
        let dir = DurableDir::open(dir)?;
        Self::recover_with(config, &dir)
    }

    /// [`recover`](Self::recover) over an explicit [`DurableDir`]
    /// (and thereby any storage backend — the fault-injection tests
    /// recover through [`MemFs`](crate::fsio::MemFs)).
    pub fn recover_with(
        config: EngineConfig,
        dir: &DurableDir,
    ) -> io::Result<(PqeEngine, RecoveryReport)> {
        let mut engine = PqeEngine::with_config(config);
        let mut report = RecoveryReport::default();

        // Newest snapshot generation that decodes wins; corrupt ones
        // are quarantined and the next generation gets its chance.
        for (name, current) in [(SNAPSHOT_FILE, true), (SNAPSHOT_PREV_FILE, false)] {
            let path = dir.file(name);
            if !dir.io.exists(&path) {
                continue;
            }
            let bytes = dir.io.read(&path)?;
            match engine.load_cache(&bytes) {
                Ok(load) => {
                    report.snapshot = if current {
                        SnapshotSource::Current {
                            artifacts: load.artifacts as u64,
                        }
                    } else {
                        SnapshotSource::Previous {
                            artifacts: load.artifacts as u64,
                        }
                    };
                    break;
                }
                Err(e) => {
                    let moved_to = dir.quarantine(&path)?;
                    engine.stats_mut().recovery_quarantines += 1;
                    report.quarantined.push(Quarantine {
                        original: path,
                        moved_to,
                        reason: e.to_string(),
                    });
                }
            }
        }

        // An orphaned temp snapshot is an uncommitted checkpoint: the
        // rename never happened, so it was never the truth. Delete it.
        let tmp = dir.file(SNAPSHOT_TMP_FILE);
        if dir.io.exists(&tmp) {
            dir.io.remove(&tmp)?;
        }

        // WAL replay: read the log once, apply intact records in order,
        // stop at the first frame corruption or apply failure. A missing
        // log is an empty one (cold start).
        let path = dir.file(WAL_FILE);
        let bytes = match dir.io.read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let replay = Wal::scan(&bytes);
        let mut cut_at: Option<usize> = replay.corruption.as_ref().map(|c| c.valid_len());
        report.wal_cut = replay.corruption.as_ref().map(|c| c.to_string());
        for (i, record) in replay.records.iter().enumerate() {
            match engine.apply_delta(&record.payload) {
                Ok(_) => report.wal_records_applied += 1,
                Err(e) => {
                    report.wal_records_dropped = (replay.records.len() - i) as u64;
                    report.wal_cut = Some(format!(
                        "record {i} failed to apply: {e} \
                         (log truncated to the applied prefix)"
                    ));
                    cut_at = Some(record.offset);
                    break;
                }
            }
        }
        engine.stats_mut().wal_records_applied += report.wal_records_applied;

        // A cut log is quarantined whole, then rewritten to the prefix
        // that actually applied — of the very bytes just scanned — so the
        // corrupt tail stays inspectable and the live log goes back to a
        // trustworthy state.
        if let Some(valid_len) = cut_at {
            let moved_to = dir.quarantine(&path)?;
            engine.stats_mut().recovery_quarantines += 1;
            report.quarantined.push(Quarantine {
                original: path.clone(),
                moved_to,
                reason: report
                    .wal_cut
                    .clone()
                    .unwrap_or_else(|| "corrupt tail".to_string()),
            });
            dir.io.write(&path, &bytes[..valid_len])?;
            dir.io.sync(&path)?;
        }

        Ok((engine, report))
    }
}
