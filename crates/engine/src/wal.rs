//! The write-ahead delta log: crash-safe ordering for live updates.
//!
//! A [`Wal`] is an append-only file of framed records, each carrying
//! one [`store`](crate::store) delta blob (the `KIND_DELTA` container
//! [`PqeEngine::export_delta`](crate::PqeEngine::export_delta)
//! produces). The protocol is the classic one:
//!
//! 1. **Append before apply.** A delta is framed, appended, and
//!    `fsync`ed *before* the in-memory engine applies the update. A
//!    crash at any point then loses at most work the caller was never
//!    told was durable.
//! 2. **Replay tolerates exactly one torn tail.** [`Wal::replay`]
//!    walks records from the front and stops at the first frame that is
//!    short, oversized, or fails its checksum — everything before it is
//!    returned, everything from it on is reported as a typed
//!    [`WalCorruption`] with the byte offset of the valid prefix.
//!    Replay never panics and never errors on corruption: a torn tail
//!    is the *expected* consequence of a crash mid-append, not an
//!    exceptional state.
//! 3. **Reset after checkpoint.** Once a snapshot contains every logged
//!    delta, [`Wal::reset`] truncates the log. Replaying a stale log
//!    over a newer snapshot is harmless anyway — delta application is
//!    idempotent (each blob names its own pre-update shape and the
//!    compile it triggers is deterministic) — but a bounded log keeps
//!    recovery time bounded.
//!
//! ## Record layout
//!
//! | field | bytes | meaning |
//! |-------|-------|---------|
//! | `len` | 4, LE | payload length in bytes |
//! | `crc` | 8, LE | FNV-1a 64 of the payload |
//! | payload | `len` | a [`store`](crate::store) delta blob (self-checksummed `INTXSTOR` container) |
//!
//! The frame checksum detects torn appends at the log layer; the
//! payload's own trailing checksum (store format, `DESIGN.md` §5)
//! additionally guards the blob end-to-end, so a record that frames
//! correctly but decodes badly is still caught — recovery treats it as
//! the same truncate-and-quarantine event (`DESIGN.md` §12).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::codec::{fnv1a, Reader, Writer};
use crate::fsio::StorageIo;

/// Bytes of the per-record frame header: `len: u32` + `crc: u64`.
pub const RECORD_HEADER_LEN: usize = 4 + 8;

/// Upper bound on one record's payload — the wire protocol's frame
/// bound: no single update delta comes close, so a larger length prefix
/// is corruption, not data.
pub use crate::codec::MAX_FRAME_LEN as MAX_RECORD_LEN;

/// Why replay stopped before the end of the log. Every variant carries
/// `valid_len`, the byte length of the intact prefix — the quarantine
/// boundary recovery cuts at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalCorruption {
    /// The tail is shorter than one frame header: a torn header.
    TornHeader {
        /// Bytes of intact records before the torn tail.
        valid_len: usize,
        /// Stray header bytes present (fewer than [`RECORD_HEADER_LEN`]).
        bytes: usize,
    },
    /// The frame header promises more payload than the file holds: a
    /// torn payload.
    TornRecord {
        /// Bytes of intact records before the torn tail.
        valid_len: usize,
        /// Payload length the header promised.
        expected: usize,
        /// Payload bytes actually present.
        got: usize,
    },
    /// The payload is complete but its checksum disagrees: bit rot or a
    /// partially-overwritten record.
    ChecksumMismatch {
        /// Bytes of intact records before the corrupt one.
        valid_len: usize,
        /// Checksum stored in the frame header.
        stored: u64,
        /// Checksum recomputed over the payload found.
        computed: u64,
    },
    /// The frame header's length exceeds [`MAX_RECORD_LEN`]: garbage
    /// interpreted as a length prefix.
    RecordTooLarge {
        /// Bytes of intact records before the corrupt one.
        valid_len: usize,
        /// The absurd length the header claimed.
        len: u32,
    },
}

impl WalCorruption {
    /// Byte length of the intact record prefix before the corruption.
    pub fn valid_len(&self) -> usize {
        match *self {
            WalCorruption::TornHeader { valid_len, .. }
            | WalCorruption::TornRecord { valid_len, .. }
            | WalCorruption::ChecksumMismatch { valid_len, .. }
            | WalCorruption::RecordTooLarge { valid_len, .. } => valid_len,
        }
    }
}

impl std::fmt::Display for WalCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalCorruption::TornHeader { valid_len, bytes } => write!(
                f,
                "torn record header after {valid_len} intact byte(s) ({bytes} stray byte(s))"
            ),
            WalCorruption::TornRecord {
                valid_len,
                expected,
                got,
            } => write!(
                f,
                "torn record payload after {valid_len} intact byte(s) \
                 (expected {expected} byte(s), found {got})"
            ),
            WalCorruption::ChecksumMismatch {
                valid_len,
                stored,
                computed,
            } => write!(
                f,
                "record checksum mismatch after {valid_len} intact byte(s) \
                 (stored {stored:#018x}, computed {computed:#018x})"
            ),
            WalCorruption::RecordTooLarge { valid_len, len } => write!(
                f,
                "record length {len} exceeds the {MAX_RECORD_LEN}-byte bound \
                 after {valid_len} intact byte(s)"
            ),
        }
    }
}

/// One replayed record: its payload and where its frame started —
/// recovery uses the offset to cut the log at the first record that
/// fails to *apply* (frames can be intact while the blob is poison).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Byte offset of this record's frame header in the log.
    pub offset: usize,
    /// The framed payload (a store delta blob).
    pub payload: Vec<u8>,
}

/// What [`Wal::replay`] found: the intact records in append order, plus
/// the corruption that ended the walk, if any.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// `Some` iff the log has a corrupt tail; carries the cut offset.
    pub corruption: Option<WalCorruption>,
    /// Total bytes scanned (the file length).
    pub scanned_len: usize,
}

impl WalReplay {
    /// Byte length of the intact prefix: the whole file when clean, the
    /// corruption's cut point otherwise.
    pub fn valid_len(&self) -> usize {
        self.corruption
            .as_ref()
            .map_or(self.scanned_len, WalCorruption::valid_len)
    }
}

/// A checksummed, append-only write-ahead log of delta blobs.
pub struct Wal {
    path: PathBuf,
    io: Arc<dyn StorageIo>,
}

impl Wal {
    /// A WAL at `path` over a storage backend: [`RealFs`] in production,
    /// an in-memory or fault-injecting one in the tests.
    ///
    /// [`RealFs`]: crate::fsio::RealFs
    pub fn with_io(path: impl Into<PathBuf>, io: Arc<dyn StorageIo>) -> Self {
        Wal {
            path: path.into(),
            io,
        }
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frames `payload` (length + FNV-1a checksum), appends the frame
    /// in one write, and `fsync`s the log. When this returns `Ok`, the
    /// record is durable: any later replay yields it.
    pub fn append(&self, payload: &[u8]) -> io::Result<()> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_RECORD_LEN)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "WAL record of {} bytes exceeds the frame bound",
                        payload.len()
                    ),
                )
            })?;
        let mut frame = Writer::default();
        frame.u32(len);
        frame.u64(fnv1a(payload));
        frame.raw(payload);
        self.io.append(&self.path, frame.as_slice())?;
        self.io.sync(&self.path)
    }

    /// Reads the log and walks its records front to back, stopping at
    /// the first corrupt frame. A missing log file is an empty replay
    /// (cold start), not an error; only genuine I/O failures return
    /// `Err`.
    pub fn replay(&self) -> io::Result<WalReplay> {
        let bytes = match self.io.read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WalReplay::default()),
            Err(e) => return Err(e),
        };
        Ok(Self::scan(&bytes))
    }

    /// The pure frame walk over `bytes` — shared by [`replay`] and the
    /// corruption tests, which feed it mutated logs directly.
    ///
    /// [`replay`]: Self::replay
    pub fn scan(bytes: &[u8]) -> WalReplay {
        let mut replay = WalReplay {
            scanned_len: bytes.len(),
            ..WalReplay::default()
        };
        let mut r = Reader::new(bytes);
        while r.remaining() > 0 {
            let at = bytes.len() - r.remaining();
            let (Ok(len), Ok(stored)) = (r.u32(), r.u64()) else {
                replay.corruption = Some(WalCorruption::TornHeader {
                    valid_len: at,
                    bytes: bytes.len() - at,
                });
                return replay;
            };
            if len > MAX_RECORD_LEN {
                replay.corruption = Some(WalCorruption::RecordTooLarge { valid_len: at, len });
                return replay;
            }
            let Ok(payload) = r.take(len as usize) else {
                replay.corruption = Some(WalCorruption::TornRecord {
                    valid_len: at,
                    expected: len as usize,
                    got: r.remaining(),
                });
                return replay;
            };
            let computed = fnv1a(payload);
            if computed != stored {
                replay.corruption = Some(WalCorruption::ChecksumMismatch {
                    valid_len: at,
                    stored,
                    computed,
                });
                return replay;
            }
            replay.records.push(WalRecord {
                offset: at,
                payload: payload.to_vec(),
            });
        }
        replay
    }

    /// Truncates the log to empty (after a checkpoint has made every
    /// logged delta part of the snapshot) and `fsync`s the truncation.
    pub fn reset(&self) -> io::Result<()> {
        self.io.write(&self.path, &[])?;
        self.io.sync(&self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsio::MemFs;

    fn mem_wal() -> (Arc<MemFs>, Wal) {
        let mem = Arc::new(MemFs::new());
        let wal = Wal::with_io("wal.log", mem.clone() as Arc<dyn StorageIo>);
        (mem, wal)
    }

    #[test]
    fn append_replay_round_trips_in_order() {
        let (_, wal) = mem_wal();
        assert_eq!(
            wal.replay().unwrap(),
            WalReplay::default(),
            "missing log is empty"
        );
        let payloads: Vec<Vec<u8>> = vec![b"one".to_vec(), b"two2".to_vec(), vec![0u8; 300]];
        for p in &payloads {
            wal.append(p).unwrap();
        }
        let replay = wal.replay().unwrap();
        assert!(replay.corruption.is_none());
        assert_eq!(
            replay
                .records
                .iter()
                .map(|r| &r.payload)
                .collect::<Vec<_>>(),
            payloads.iter().collect::<Vec<_>>()
        );
        assert_eq!(replay.valid_len(), replay.scanned_len);
        // Offsets are the running frame starts.
        assert_eq!(replay.records[0].offset, 0);
        assert_eq!(replay.records[1].offset, RECORD_HEADER_LEN + 3);
        wal.reset().unwrap();
        assert_eq!(wal.replay().unwrap().records.len(), 0);
    }

    #[test]
    fn every_torn_suffix_truncates_to_a_record_boundary() {
        let (mem, wal) = mem_wal();
        wal.append(b"alpha").unwrap();
        wal.append(b"beta-beta").unwrap();
        wal.append(b"gamma!").unwrap();
        let full = mem.read(Path::new("wal.log")).unwrap();
        let boundaries: Vec<usize> = {
            let replay = Wal::scan(&full);
            let mut b: Vec<usize> = replay.records.iter().map(|r| r.offset).collect();
            b.push(full.len());
            b
        };
        // Chop the log at every possible byte length: replay must keep
        // exactly the records whose frames fit, and flag a torn tail
        // whenever the cut is off a boundary.
        for cut in 0..=full.len() {
            let replay = Wal::scan(&full[..cut]);
            let expect_records = boundaries.iter().filter(|&&b| b < cut).count().min(3);
            let on_boundary = boundaries.contains(&cut);
            if on_boundary {
                assert!(replay.corruption.is_none(), "cut {cut} is a clean boundary");
                assert_eq!(
                    replay.records.len(),
                    expect_records.min(replay.records.len())
                );
            } else {
                let c = replay
                    .corruption
                    .as_ref()
                    .unwrap_or_else(|| panic!("cut {cut} mid-record must report corruption"));
                assert!(
                    boundaries.contains(&c.valid_len()),
                    "cut {cut}: valid_len is a boundary"
                );
                assert!(c.valid_len() <= cut);
            }
            // Never a panic, and the intact prefix is always replayed.
            for (i, rec) in replay.records.iter().enumerate() {
                let want: &[u8] = [b"alpha".as_slice(), b"beta-beta", b"gamma!"][i];
                assert_eq!(rec.payload, want);
            }
        }
    }

    #[test]
    fn corrupt_middle_record_truncates_from_its_frame() {
        let (mem, wal) = mem_wal();
        wal.append(b"keep-me").unwrap();
        wal.append(b"poison").unwrap();
        wal.append(b"lost").unwrap();
        let mut bytes = mem.read(Path::new("wal.log")).unwrap();
        // Flip one payload byte of the second record.
        let second = RECORD_HEADER_LEN + 7;
        bytes[second + RECORD_HEADER_LEN] ^= 0x40;
        let replay = Wal::scan(&bytes);
        assert_eq!(replay.records.len(), 1, "only the first record survives");
        assert_eq!(replay.records[0].payload, b"keep-me");
        match replay.corruption {
            Some(WalCorruption::ChecksumMismatch {
                valid_len,
                stored,
                computed,
            }) => {
                assert_eq!(valid_len, second);
                assert_ne!(stored, computed);
            }
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }
        // An absurd length prefix is RecordTooLarge, not an allocation.
        let mut huge = bytes[..second].to_vec();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&[0; 8]);
        match Wal::scan(&huge).corruption {
            Some(WalCorruption::RecordTooLarge { valid_len, len }) => {
                assert_eq!(valid_len, second);
                assert_eq!(len, u32::MAX);
            }
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_appends_are_rejected() {
        let (_, wal) = mem_wal();
        wal.append(b"first").unwrap();
        let too_big = vec![0u8; MAX_RECORD_LEN as usize + 1];
        assert_eq!(
            wal.append(&too_big).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        let replay = wal.replay().unwrap();
        assert!(replay.corruption.is_none());
        assert_eq!(replay.records.len(), 1, "the rejected record left no trace");
    }
}
