//! The persistent artifact store: a versioned binary format for compiled
//! lineage artifacts.
//!
//! The cache makes probability re-weighting a linear walk — but only
//! within one process lifetime. This module makes the compiled OBDD and
//! d-D artifacts *durable*: [`PqeEngine::save_cache`] snapshots the
//! whole LRU into one byte stream, [`PqeEngine::load_cache`] warm-starts
//! a replica from it with zero compiles, and
//! [`PqeEngine::export_artifact`] / [`PqeEngine::import_artifact`] ship
//! individual artifacts. The format is sound to persist because the
//! artifacts are canonical, *query-determined* objects: they encode the
//! lineage of `(φ, database shape)` and never the tuple probabilities,
//! so one stored artifact serves every re-weighting forever — exactly
//! the cache-key rationale, now applied across process boundaries.
//!
//! # Format (version 2)
//!
//! All integers are little-endian. One artifact blob:
//!
//! | field | bytes | meaning |
//! |---|---|---|
//! | magic | 8 | `b"INTXSTOR"` |
//! | version | 2 | format version (`u16`, currently 2) |
//! | kind | 1 | 0 = OBDD, 1 = d-D (2 = cache bundle, bundle files only) |
//! | `φ.n` | 1 | variable count of the truth table |
//! | `φ` words | 8·⌈2ⁿ/64⌉ | the canonical truth table |
//! | `k` | 1 | chain length of the database shape |
//! | domain | 4 | domain size (`u32`) |
//! | #tuples | 4 | tuple count (`u32`) |
//! | tuples | var | per tuple: tag (0=`R`,1=`S`,2=`T`) + constants |
//! | body | var | the leaf OBDDs (below) |
//! | checksum | 8 | FNV-1a 64 over every preceding byte |
//!
//! Both artifact kinds share one body: a leaf count (4), then per leaf
//! its OBDD — split variable (1), order length (4), order entries
//! (4 each), node count (4), nodes as `(level, lo, hi)` raw-`u32`
//! triples (12 each, terminals 0/1, node *i* encodes as *i* + 2), root
//! reference (4). Each node table is the leaf's walk prefix as compiled:
//! the root's reachable nodes in *canonical postorder* (lo subtree
//! before hi, children before parents), ending at the root — bytes are a
//! pure function of the reduced DAG, never of the arena history that
//! built it (`ObddManager::compact`). The `¬`-`∨`-template is not
//! stored: it is a function of `φ` alone, so the decoder recomputes it —
//! `Hole(0)` for an OBDD, the fragmentation's template for a d-D — and
//! rejects a leaf count that differs from its hole count.
//!
//! A cache bundle is: magic, version, kind = 2, artifact count (4),
//! then per artifact a `u64` length followed by a complete single
//! artifact blob (each independently checksummed and importable), and a
//! final FNV-1a 64 checksum over the whole bundle. Artifacts are stored
//! in ascending last-used order, so loading a snapshot replays the LRU
//! recency ranking of the engine that saved it.
//!
//! An **update delta** (kind = 3, added under the same format version —
//! additive kinds do not change existing layouts) ships a live tuple
//! update instead of a whole circuit: the key section names the
//! *pre-update* `(φ, shape)` and the body is one operation:
//!
//! | field | bytes | meaning |
//! |---|---|---|
//! | op | 1 | 0 = insert, 1 = remove |
//! | payload | var | insert: tuple tag + constants; remove: tuple id (`u32`) |
//!
//! A replica holding the pre-update artifact applies the delta by
//! incremental patching ([`PqeEngine::apply_delta`]); one without it
//! falls back to a full compile of the post-update shape. Either way the
//! resulting artifact is bit-identical to a fresh compile, so deltas are
//! a bandwidth optimization, never a semantic one.
//!
//! # Totality
//!
//! Deserialization is a **total function**: every malformed input —
//! truncated, wrong magic, unknown version, checksum mismatch, invalid
//! truth table or database shape, a leaf count that differs from the
//! template's, dangling or non-topological node references, order
//! violations, unreduced or duplicate nodes, out-of-range roots, foreign
//! variables, a kind that contradicts where `φ` sits on the Figure 1
//! map — returns a typed [`StoreError`], never a panic. A decoded
//! artifact is revalidated against its recomputed [`CacheKey`] material
//! before it enters the LRU, so the node-budget invariant and
//! bit-identical evaluation survive the round trip.
//! `DESIGN.md` §5 states the byte-level contract and the evolution
//! policy.
//!
//! [`PqeEngine::save_cache`]: crate::PqeEngine::save_cache
//! [`PqeEngine::load_cache`]: crate::PqeEngine::load_cache
//! [`PqeEngine::export_artifact`]: crate::PqeEngine::export_artifact
//! [`PqeEngine::import_artifact`]: crate::PqeEngine::import_artifact
//! [`PqeEngine::apply_delta`]: crate::PqeEngine::apply_delta

use std::fmt;
use std::sync::Arc;

use intext_boolfn::BoolFn;
use intext_circuits::{NodeRef, ObddError, ObddManager};
use intext_core::{classify, Fragmentation, Region, Template};
use intext_lineage::DegenerateLineage;
use intext_tid::{Database, DatabaseError, TupleDesc};

use crate::cache::{Artifact, CacheKey};
use crate::codec::{fnv1a, CodecError, Reader, Writer};

/// The 8-byte magic every store file starts with.
pub const MAGIC: [u8; 8] = *b"INTXSTOR";

/// The format version this build writes and the only one it reads.
/// Evolution policy (`DESIGN.md` §5): bump on any layout change; readers
/// reject unknown versions with [`StoreError::UnsupportedVersion`]
/// rather than guessing.
pub const FORMAT_VERSION: u16 = 2;

/// Kind tag of a serialized artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Proposition 3.7's reduced OBDD (degenerate `φ`).
    Obdd,
    /// Theorem 5.2's deterministic decomposable circuit (zero-Euler `φ`):
    /// its fragmentation's template over one OBDD per leaf.
    Dd,
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactKind::Obdd => write!(f, "OBDD"),
            ArtifactKind::Dd => write!(f, "d-D circuit"),
        }
    }
}

const KIND_OBDD: u8 = 0;
const KIND_DD: u8 = 1;
const KIND_BUNDLE: u8 = 2;
const KIND_DELTA: u8 = 3;

/// One live tuple update, the unit the delta format ships. Probability
/// changes are deliberately absent: probabilities are not part of any
/// artifact or cache key, so a reweight has no structural delta to ship.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TupleUpdate {
    /// Insert a tuple into the shape (it takes the next dense id).
    Insert {
        /// The tuple to insert.
        desc: TupleDesc,
    },
    /// Remove the tuple with this raw id (later ids shift down by one).
    Remove {
        /// Raw [`TupleId`](intext_tid::TupleId) value of the victim.
        id: u32,
    },
}

/// Smallest possible blob: magic + version + kind + checksum.
const MIN_LEN: usize = 8 + 2 + 1 + 8;

/// Why a store byte stream was rejected. Deserialization is total:
/// every one of these is a returned value, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The input ended before a declared field.
    Truncated,
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic,
    /// The version field names a format this build does not speak.
    UnsupportedVersion(u16),
    /// The kind byte is none of OBDD / d-D / bundle.
    BadKind(u8),
    /// An artifact was expected but the stream holds a bundle, or vice
    /// versa.
    WrongContainer {
        /// What the caller asked to decode.
        expected: &'static str,
        /// What the kind byte says the stream is.
        got: &'static str,
    },
    /// The trailing FNV-1a 64 checksum does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the stream.
        stored: u64,
        /// Checksum recomputed over the content.
        computed: u64,
    },
    /// Bytes remain between the end of the body and the checksum.
    TrailingBytes {
        /// How many unconsumed bytes.
        extra: usize,
    },
    /// The truth-table field is not a valid [`BoolFn`] (variable count
    /// out of range or set bits beyond the `2^n` valuations).
    BadPhi,
    /// The shape declares chain length `k = 0`, which no `H`-query
    /// vocabulary has.
    ZeroChainLength,
    /// A tuple tag byte is none of `R`/`S`/`T`.
    BadTupleTag(u8),
    /// A delta op byte is neither insert nor remove.
    BadDeltaOp(u8),
    /// A tuple was rejected while rebuilding the database shape
    /// (bad relation index, out-of-domain constant, duplicate).
    BadTuple(DatabaseError),
    /// The number of leaf OBDDs differs from the number of holes of the
    /// template `φ` determines.
    LeafCount {
        /// Holes of the template recomputed from `φ`.
        expected: usize,
        /// Leaves the body declares.
        got: u32,
    },
    /// An OBDD node table violates a structural invariant.
    Obdd(ObddError),
    /// The root reference points outside the node table.
    RootOutOfRange {
        /// The raw root reference.
        root: u32,
        /// Number of nodes actually present.
        len: usize,
    },
    /// The OBDD split variable exceeds the shape's chain length.
    SplitOutOfRange {
        /// The stored split variable.
        split: u8,
        /// The shape's `k`.
        k: u8,
    },
    /// An OBDD variable is not a tuple id of the stored shape.
    ForeignVariable {
        /// The offending variable.
        var: u32,
        /// Tuple count of the shape (valid ids are `0..tuples`).
        tuples: usize,
    },
    /// The artifact kind contradicts where `φ` sits on the Figure 1
    /// map: the engine compiles an OBDD exactly for degenerate `φ` and
    /// a d-D exactly for nondegenerate zero-Euler `φ`, so anything else
    /// is an artifact this engine could never have produced.
    PlanMismatch {
        /// The stored artifact kind.
        kind: ArtifactKind,
        /// Where the stored `φ` actually classifies.
        region: Region,
    },
    /// `export_artifact` found no cached artifact for `(φ, shape)`.
    NotCached,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Truncated => write!(f, "input truncated"),
            StoreError::BadMagic => write!(f, "bad magic (not an intext store file)"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            StoreError::BadKind(k) => write!(f, "unknown artifact kind {k}"),
            StoreError::WrongContainer { expected, got } => {
                write!(f, "expected {expected}, got {got}")
            }
            StoreError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            StoreError::TrailingBytes { extra } => {
                write!(f, "{extra} unconsumed bytes before the checksum")
            }
            StoreError::BadPhi => write!(f, "invalid truth table"),
            StoreError::ZeroChainLength => write!(f, "shape declares k = 0"),
            StoreError::BadTupleTag(t) => write!(f, "unknown tuple tag {t}"),
            StoreError::BadDeltaOp(op) => write!(f, "unknown delta op {op}"),
            StoreError::BadTuple(e) => write!(f, "invalid shape tuple: {e}"),
            StoreError::LeafCount { expected, got } => {
                write!(f, "{got} leaf OBDDs for a template with {expected} holes")
            }
            StoreError::Obdd(e) => write!(f, "invalid OBDD table: {e}"),
            StoreError::RootOutOfRange { root, len } => {
                write!(f, "root {root} outside a table of {len}")
            }
            StoreError::SplitOutOfRange { split, k } => {
                write!(f, "split variable {split} exceeds k = {k}")
            }
            StoreError::ForeignVariable { var, tuples } => {
                write!(
                    f,
                    "variable {var} is not a tuple id (shape has {tuples} tuples)"
                )
            }
            StoreError::PlanMismatch { kind, region } => {
                write!(f, "{kind} artifact for a φ classified {region:?}")
            }
            StoreError::NotCached => write!(f, "no cached artifact for this (φ, shape)"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ObddError> for StoreError {
    fn from(e: ObddError) -> Self {
        StoreError::Obdd(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => StoreError::Truncated,
            CodecError::BadTupleTag(tag) => StoreError::BadTupleTag(tag),
        }
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// A blob's header: magic, version, kind.
fn header(kind: u8) -> Writer {
    let mut w = Writer::default();
    w.raw(&MAGIC);
    w.u16(FORMAT_VERSION);
    w.u8(kind);
    w
}

/// Appends the trailing checksum and yields the finished blob.
fn seal(mut w: Writer) -> Vec<u8> {
    w.u64(fnv1a(w.as_slice()));
    w.into_bytes()
}

/// Appends the key section: `φ`, then the database shape.
fn put_key(w: &mut Writer, key: &CacheKey) {
    let phi = key.phi();
    w.u8(phi.num_vars());
    for &word in phi.words() {
        w.u64(word);
    }
    w.u8(key.k());
    w.u32(key.domain_size());
    w.u32(key.tuples().len() as u32);
    for &tuple in key.tuples() {
        w.tuple(tuple);
    }
}

/// Serializes one artifact under its cache key into a standalone blob.
pub(crate) fn encode_artifact(key: &CacheKey, artifact: &Artifact) -> Vec<u8> {
    // Proposition 3.7 artifacts are the one-leaf template; a d-D's
    // fragmentation always has at least one step on top of `Hole(0)`.
    let mut w = header(if *artifact.template() == Template::Hole(0) {
        KIND_OBDD
    } else {
        KIND_DD
    });
    put_key(&mut w, key);
    w.u32(artifact.leaves().len() as u32);
    for leaf in artifact.leaves() {
        w.u8(leaf.split);
        let order = leaf.manager.order();
        w.u32(order.len() as u32);
        for &v in order {
            w.u32(v);
        }
        let nodes = leaf.manager.prefix_len(leaf.root);
        w.u32(nodes as u32);
        for (level, lo, hi) in leaf.manager.node_entries().take(nodes) {
            w.u32(level);
            w.u32(lo.to_raw());
            w.u32(hi.to_raw());
        }
        w.u32(leaf.root.to_raw());
    }
    seal(w)
}

/// Serializes a live tuple update against its pre-update key into a
/// delta blob.
pub(crate) fn encode_delta(key: &CacheKey, update: &TupleUpdate) -> Vec<u8> {
    let mut w = header(KIND_DELTA);
    put_key(&mut w, key);
    match update {
        TupleUpdate::Insert { desc } => {
            w.u8(0);
            w.tuple(*desc);
        }
        TupleUpdate::Remove { id } => {
            w.u8(1);
            w.u32(*id);
        }
    }
    seal(w)
}

/// Serializes a cache snapshot (entries already in ascending last-used
/// order) into a bundle blob.
pub(crate) fn encode_bundle(entries: &[(&CacheKey, &Arc<Artifact>)]) -> Vec<u8> {
    let mut w = header(KIND_BUNDLE);
    w.u32(entries.len() as u32);
    for (key, artifact) in entries {
        let blob = encode_artifact(key, artifact);
        w.u64(blob.len() as u64);
        w.raw(&blob);
    }
    seal(w)
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// The container a kind byte names, as [`StoreError::WrongContainer`]
/// reports it.
fn container(kind: u8) -> Result<&'static str, StoreError> {
    match kind {
        KIND_OBDD | KIND_DD => Ok("artifact"),
        KIND_BUNDLE => Ok("cache bundle"),
        KIND_DELTA => Ok("update delta"),
        other => Err(StoreError::BadKind(other)),
    }
}

/// Verifies magic, version, trailing checksum and that the kind byte
/// names the `expected` container; returns the kind byte and a reader
/// over the content between the header and the checksum.
fn open<'a>(bytes: &'a [u8], expected: &'static str) -> Result<(u8, Reader<'a>), StoreError> {
    if bytes.len() < MIN_LEN {
        return Err(StoreError::Truncated);
    }
    let (content, stored) = bytes.split_at(bytes.len() - 8);
    let mut r = Reader::new(content);
    if r.take(8)? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let stored = Reader::new(stored).u64()?;
    let computed = fnv1a(content);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    let kind = r.u8()?;
    let got = container(kind)?;
    if got != expected {
        return Err(StoreError::WrongContainer { expected, got });
    }
    Ok((kind, r))
}

/// Rejects bytes left between the end of the body and the checksum.
fn done(r: &Reader<'_>) -> Result<(), StoreError> {
    match r.remaining() {
        0 => Ok(()),
        extra => Err(StoreError::TrailingBytes { extra }),
    }
}

/// Reads and revalidates the cache-key material: the truth table must be
/// a canonical [`BoolFn`] and the tuples must rebuild into a legal
/// [`Database`] — so a loaded key is exactly the key a live engine would
/// compute for that `(φ, shape)`.
fn read_key(r: &mut Reader<'_>) -> Result<(BoolFn, Database), StoreError> {
    let n = r.u8()?;
    if !(1..=intext_boolfn::MAX_VARS).contains(&n) {
        return Err(StoreError::BadPhi);
    }
    let word_count = BoolFn::word_count(n);
    let mut words = Vec::with_capacity(word_count);
    for _ in 0..word_count {
        words.push(r.u64()?);
    }
    let phi = BoolFn::from_words(n, words).ok_or(StoreError::BadPhi)?;
    let k = r.u8()?;
    if k == 0 {
        return Err(StoreError::ZeroChainLength);
    }
    let domain_size = r.u32()?;
    let mut db = Database::new(k, domain_size);
    let tuple_count = r.u32()?;
    for _ in 0..tuple_count {
        db.insert(r.tuple()?).map_err(StoreError::BadTuple)?;
    }
    Ok((phi, db))
}

/// `var`, if it is a tuple id of `db`'s shape.
fn tuple_var(var: u32, db: &Database) -> Result<u32, StoreError> {
    let tuples = db.len();
    if (var as usize) < tuples {
        Ok(var)
    } else {
        Err(StoreError::ForeignVariable { var, tuples })
    }
}

/// Decodes and fully validates a standalone artifact blob, yielding the
/// recomputed cache key and the reconstructed artifact.
pub(crate) fn decode_artifact(bytes: &[u8]) -> Result<(CacheKey, Artifact), StoreError> {
    let (kind, mut r) = open(bytes, "artifact")?;
    let kind = if kind == KIND_OBDD {
        ArtifactKind::Obdd
    } else {
        ArtifactKind::Dd
    };
    let (phi, db) = read_key(&mut r)?;
    // Kind-vs-plan revalidation: the engine compiles an OBDD exactly for
    // degenerate φ and a d-D exactly for nondegenerate zero-Euler φ. An
    // artifact whose kind contradicts φ's region is one this engine
    // could never have written, so it never enters the cache.
    let region = classify(&phi);
    let (template, holes) = match (kind, region) {
        (ArtifactKind::Obdd, Region::DegenerateObdd) => (Template::Hole(0), 1),
        // φ classified ZeroEulerDD, so the fragmentation the compiler
        // would have produced exists and is recomputed deterministically
        // from the truth table alone.
        (ArtifactKind::Dd, Region::ZeroEulerDD) => {
            let frag =
                Fragmentation::of(&phi).expect("zero-Euler φ always fragments (Proposition 5.1)");
            let holes = frag.num_leaves();
            (frag.template, holes)
        }
        _ => return Err(StoreError::PlanMismatch { kind, region }),
    };
    let got = r.u32()?;
    if got as usize != holes {
        return Err(StoreError::LeafCount {
            expected: holes,
            got,
        });
    }
    let leaves = (0..holes)
        .map(|_| read_leaf(&mut r, &db))
        .collect::<Result<Vec<_>, _>>()?;
    done(&r)?;
    let key = CacheKey::new(&phi, &db);
    Ok((key, Artifact::new(template, leaves)))
}

/// Reads and fully validates one leaf OBDD of an artifact body.
fn read_leaf(r: &mut Reader<'_>, db: &Database) -> Result<DegenerateLineage, StoreError> {
    let split = r.u8()?;
    if split > db.k() {
        return Err(StoreError::SplitOutOfRange { split, k: db.k() });
    }
    let order_len = r.u32()? as usize;
    let mut order = Vec::with_capacity(order_len.min(r.remaining() / 4));
    for _ in 0..order_len {
        order.push(tuple_var(r.u32()?, db)?);
    }
    let node_count = r.u32()? as usize;
    let mut entries = Vec::with_capacity(node_count.min(r.remaining() / 12));
    for _ in 0..node_count {
        let level = r.u32()?;
        let lo = NodeRef::from_raw(r.u32()?);
        let hi = NodeRef::from_raw(r.u32()?);
        entries.push((level, lo, hi));
    }
    let manager = ObddManager::from_parts(order, &entries)?;
    let root = r.u32()?;
    if root as usize >= entries.len() + 2 {
        return Err(StoreError::RootOutOfRange {
            root,
            len: entries.len(),
        });
    }
    // `new` builds a trace-less lineage: a deserialized leaf can be
    // walked and shipped but not incrementally patched — the unroll
    // trace is a compile-time object and is not persisted (`DESIGN.md`
    // §9).
    Ok(DegenerateLineage::new(
        manager,
        NodeRef::from_raw(root),
        split,
    ))
}

/// Decodes and validates an update-delta blob, yielding the pre-update
/// `(φ, shape)` and the shipped operation. The shape is revalidated the
/// same way artifact keys are; whether the *operation* is legal on that
/// shape (duplicate insert, unknown remove id) is checked when it is
/// applied, because that is a property of the pairing, not of the bytes.
pub(crate) fn decode_delta(bytes: &[u8]) -> Result<(BoolFn, Database, TupleUpdate), StoreError> {
    let (_, mut r) = open(bytes, "update delta")?;
    let (phi, db) = read_key(&mut r)?;
    let update = match r.u8()? {
        0 => TupleUpdate::Insert { desc: r.tuple()? },
        1 => TupleUpdate::Remove { id: r.u32()? },
        op => return Err(StoreError::BadDeltaOp(op)),
    };
    done(&r)?;
    Ok((phi, db, update))
}

/// Decodes a cache bundle into its artifacts, in stored (ascending
/// last-used) order. All-or-nothing: the first malformed entry rejects
/// the whole bundle, so a warm start never half-populates the cache.
pub(crate) fn decode_bundle(bytes: &[u8]) -> Result<Vec<(CacheKey, Artifact)>, StoreError> {
    let (_, mut r) = open(bytes, "cache bundle")?;
    let count = r.u32()? as usize;
    let mut artifacts = Vec::with_capacity(count.min(r.remaining() / MIN_LEN));
    for _ in 0..count {
        let len = usize::try_from(r.u64()?).map_err(|_| StoreError::Truncated)?;
        let blob = r.take(len)?;
        artifacts.push(decode_artifact(blob)?);
    }
    done(&r)?;
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_boolfn::{phi9, BoolFn};
    use intext_numeric::BigRational;
    use intext_query::HQuery;
    use intext_tid::{complete_database, uniform_tid};

    use crate::{Plan, PqeEngine};

    fn half() -> BigRational {
        BigRational::from_ratio(1, 2)
    }

    /// A compiled d-D artifact (φ9) and its key.
    fn dd_blob() -> Vec<u8> {
        let mut engine = PqeEngine::new();
        let q = HQuery::new(phi9());
        let tid = uniform_tid(complete_database(3, 1), half());
        engine.evaluate(&q, &tid).unwrap();
        engine.export_artifact(&q, tid.database()).unwrap()
    }

    /// A compiled OBDD artifact (degenerate φ) and its key.
    fn obdd_blob() -> Vec<u8> {
        let mut engine = PqeEngine::new();
        let q = HQuery::new(BoolFn::var(3, 0));
        let tid = uniform_tid(complete_database(2, 2), half());
        assert_eq!(engine.plan(&q, &tid), Ok(Plan::Obdd));
        engine.evaluate(&q, &tid).unwrap();
        engine.export_artifact(&q, tid.database()).unwrap()
    }

    #[test]
    fn checksum_is_fnv1a_reference_values() {
        // Reference vectors: FNV-1a 64 of "" and "a".
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn artifact_blobs_round_trip() {
        for blob in [dd_blob(), obdd_blob()] {
            let (key, artifact) = decode_artifact(&blob).unwrap();
            // Re-encoding the decoded artifact reproduces the bytes:
            // the encoding is canonical, which is what lets CI pin
            // golden fixtures byte-for-byte.
            assert_eq!(encode_artifact(&key, &artifact), blob);
        }
    }

    #[test]
    fn bundle_entries_are_importable_blobs() {
        let mut engine = PqeEngine::new();
        let q = HQuery::new(phi9());
        for domain in 1..=2 {
            let tid = uniform_tid(complete_database(3, domain), half());
            engine.evaluate(&q, &tid).unwrap();
        }
        let bundle = engine.save_cache();
        let decoded = decode_bundle(&bundle).unwrap();
        assert_eq!(decoded.len(), 2);
        // Saving is deterministic (recency order, not HashMap order).
        assert_eq!(engine.save_cache(), bundle);
        // And a bundle is not an artifact, nor vice versa.
        assert_eq!(
            decode_artifact(&bundle).unwrap_err(),
            StoreError::WrongContainer {
                expected: "artifact",
                got: "cache bundle"
            }
        );
        assert_eq!(
            decode_bundle(&dd_blob()).unwrap_err(),
            StoreError::WrongContainer {
                expected: "cache bundle",
                got: "artifact"
            }
        );
    }

    #[test]
    fn delta_blobs_round_trip_and_validate() {
        let (phi, db) = dd_ctx();
        let key = CacheKey::new(&phi, &db);
        for update in [
            TupleUpdate::Insert {
                desc: TupleDesc::S(2, 0, 0),
            },
            TupleUpdate::Remove { id: 3 },
        ] {
            let bytes = encode_delta(&key, &update);
            let (phi2, db2, update2) = decode_delta(&bytes).unwrap();
            assert_eq!(CacheKey::new(&phi2, &db2), key, "key section survives");
            assert_eq!(update2, update);
            // Canonical encoding, like artifacts: re-encode reproduces
            // the bytes, so delta fixtures can be pinned byte-for-byte.
            assert_eq!(encode_delta(&CacheKey::new(&phi2, &db2), &update2), bytes);
        }

        // A delta is not an artifact or a bundle, and vice versa.
        let delta = encode_delta(
            &key,
            &TupleUpdate::Insert {
                desc: TupleDesc::R(0),
            },
        );
        assert_eq!(
            decode_artifact(&delta).unwrap_err(),
            StoreError::WrongContainer {
                expected: "artifact",
                got: "update delta"
            }
        );
        assert_eq!(
            decode_bundle(&delta).unwrap_err(),
            StoreError::WrongContainer {
                expected: "cache bundle",
                got: "update delta"
            }
        );
        assert_eq!(
            decode_delta(&dd_blob()).unwrap_err(),
            StoreError::WrongContainer {
                expected: "update delta",
                got: "artifact"
            }
        );

        // Malformed bodies: unknown op, unknown tuple tag, truncation,
        // trailing bytes — all typed errors, never panics.
        let body = |bytes: &[u8]| decode_delta(&blob(KIND_DELTA, &phi, &db, bytes)).unwrap_err();
        assert_eq!(body(&[9]), StoreError::BadDeltaOp(9));
        assert_eq!(body(&[0, 7]), StoreError::BadTupleTag(7));
        assert_eq!(body(&[1]), StoreError::Truncated);
        assert_eq!(
            body(&[1, 0, 0, 0, 0, 0xaa]),
            StoreError::TrailingBytes { extra: 1 }
        );
    }

    #[test]
    fn empty_and_tiny_inputs_are_truncated_not_panics() {
        for len in 0..MIN_LEN {
            let bytes = vec![0u8; len];
            assert_eq!(decode_artifact(&bytes).unwrap_err(), StoreError::Truncated);
            assert_eq!(decode_bundle(&bytes).unwrap_err(), StoreError::Truncated);
        }
    }

    /// A blob with a hand-crafted body after a *valid* key section:
    /// full control over every body byte, correctly checksummed, so the
    /// decoder's structural validation (not the checksum) is what
    /// rejects it.
    fn blob(kind: u8, phi: &BoolFn, db: &Database, body: &[u8]) -> Vec<u8> {
        let mut w = header(kind);
        put_key(&mut w, &CacheKey::new(phi, db));
        w.raw(body);
        seal(w)
    }

    /// Degenerate φ on a tiny shape (for OBDD-kind bodies).
    fn obdd_ctx() -> (BoolFn, Database) {
        (BoolFn::var(2, 0), complete_database(1, 1))
    }

    /// Zero-Euler nondegenerate φ on a tiny shape (for d-D bodies).
    fn dd_ctx() -> (BoolFn, Database) {
        (phi9(), complete_database(3, 1))
    }

    fn u32s(values: &[u32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn corruption_matrix_key_section() {
        let (phi, db) = dd_ctx();

        // Unknown artifact kind byte.
        assert_eq!(
            decode_artifact(&blob(9, &phi, &db, &[])).unwrap_err(),
            StoreError::BadKind(9)
        );

        // φ.n = 0 and n > MAX_VARS: invalid truth table.
        for n in [0u8, intext_boolfn::MAX_VARS + 1] {
            let mut w = header(KIND_DD);
            w.u8(n);
            assert_eq!(decode_artifact(&seal(w)).unwrap_err(), StoreError::BadPhi);
        }

        // k = 0: no H-query vocabulary.
        let mut w = header(KIND_DD);
        w.u8(phi.num_vars());
        for &word in phi.words() {
            w.u64(word);
        }
        w.u8(0); // k
        assert_eq!(
            decode_artifact(&seal(w)).unwrap_err(),
            StoreError::ZeroChainLength
        );

        // Unknown tuple tag / tuple rejected by the shape validator.
        let bad_shapes: [(&[u8], StoreError); 3] = [
            (&[7], StoreError::BadTupleTag(7)),
            (
                &[0, 99, 0, 0, 0],
                StoreError::BadTuple(intext_tid::DatabaseError::BadConstant(99)),
            ),
            (
                &[1, 9, 0, 0, 0, 0, 0, 0, 0, 0],
                StoreError::BadTuple(intext_tid::DatabaseError::BadRelationIndex(9)),
            ),
        ];
        for (tuple_bytes, expected) in bad_shapes {
            let mut w = header(KIND_DD);
            w.u8(phi.num_vars());
            for &word in phi.words() {
                w.u64(word);
            }
            w.u8(3); // k
            w.u32(1); // domain size
            w.u32(1); // one tuple
            w.raw(tuple_bytes);
            assert_eq!(decode_artifact(&seal(w)).unwrap_err(), expected);
        }

        // Kind contradicts φ's region, both ways (checked before the
        // body, so an empty body suffices).
        let (deg, deg_db) = obdd_ctx();
        assert_eq!(
            decode_artifact(&blob(KIND_DD, &deg, &deg_db, &[])).unwrap_err(),
            StoreError::PlanMismatch {
                kind: ArtifactKind::Dd,
                region: Region::DegenerateObdd
            }
        );
        assert_eq!(
            decode_artifact(&blob(KIND_OBDD, &phi, &db, &[])).unwrap_err(),
            StoreError::PlanMismatch {
                kind: ArtifactKind::Obdd,
                region: Region::ZeroEulerDD
            }
        );
    }

    #[test]
    fn corruption_matrix_obdd_body() {
        // The shape has 3 tuples: R(0), S1(0,0), T(0).
        let (phi, db) = obdd_ctx();
        // Every body starts with the leaf count: one leaf, for an OBDD.
        let obdd = |leaf: &[u8]| {
            let mut body = u32s(&[1]);
            body.extend_from_slice(leaf);
            decode_artifact(&blob(KIND_OBDD, &phi, &db, &body)).unwrap_err()
        };

        // Split variable beyond k.
        assert_eq!(obdd(&[9]), StoreError::SplitOutOfRange { split: 9, k: 1 });

        // Order entry that is not a tuple id of the shape.
        let mut body = vec![1u8]; // split
        body.extend(u32s(&[1, 99])); // order_len = 1, order = [99]
        assert_eq!(
            obdd(&body),
            StoreError::ForeignVariable { var: 99, tuples: 3 }
        );

        // Structural OBDD violations surface as their ObddError. Each
        // body: split, order_len, order…, node_count, (level, lo, hi)…
        let cases: [(&[u32], ObddError); 5] = [
            // Duplicate variable in the order.
            (&[2, 0, 0, 0], ObddError::DuplicateVariable(0)),
            // Node level outside the order.
            (
                &[1, 0, 1, 7, 0, 1],
                ObddError::LevelOutOfRange { node: 0, level: 7 },
            ),
            // Forward child reference.
            (
                &[1, 0, 1, 0, 2, 1],
                ObddError::DanglingChild { node: 0, child: 2 },
            ),
            // lo == hi.
            (&[1, 0, 1, 0, 1, 1], ObddError::RedundantNode { node: 0 }),
            // Two identical nodes.
            (
                &[2, 0, 1, 2, 1, 0, 1, 1, 0, 1],
                ObddError::DuplicateNode { node: 1 },
            ),
        ];
        for (words, expected) in cases {
            let mut body = vec![1u8];
            body.extend(u32s(words));
            assert_eq!(obdd(&body), StoreError::Obdd(expected), "{words:?}");
        }

        // Order violation: child at the same level as its parent.
        let mut body = vec![1u8];
        body.extend(u32s(&[2, 0, 1, 2, 0, 0, 1, 0, 2, 1]));
        assert_eq!(
            obdd(&body),
            StoreError::Obdd(ObddError::OrderViolation { node: 1 })
        );

        // Root outside the node table.
        let mut body = vec![1u8];
        body.extend(u32s(&[1, 0, 1, 0, 0, 1, 5]));
        assert_eq!(obdd(&body), StoreError::RootOutOfRange { root: 5, len: 1 });

        // Trailing garbage between body and checksum.
        let mut body = vec![1u8];
        body.extend(u32s(&[1, 0, 1, 0, 0, 1, 2]));
        body.push(0xaa);
        assert_eq!(obdd(&body), StoreError::TrailingBytes { extra: 1 });
    }

    #[test]
    fn corruption_matrix_dd_body() {
        let (phi, db) = dd_ctx();
        let holes = Fragmentation::of(&phi).unwrap().num_leaves();
        let dd = |body: &[u8]| decode_artifact(&blob(KIND_DD, &phi, &db, body)).unwrap_err();

        // A leaf count that differs from the template's hole count.
        for got in [0, 1, holes as u32 + 1] {
            assert_eq!(
                dd(&u32s(&[got])),
                StoreError::LeafCount {
                    expected: holes,
                    got
                }
            );
        }

        // The first leaf is valid (empty order, constant-false root);
        // the second is validated like any OBDD body.
        let with_second = |second: &[u8]| {
            let mut body = u32s(&[holes as u32]);
            body.push(0); // split
            body.extend(u32s(&[0, 0, 0])); // order_len, node_count, root
            body.extend_from_slice(second);
            dd(&body)
        };
        let mut second = vec![1u8];
        second.extend(u32s(&[1, 42])); // order = [42]
        assert_eq!(
            with_second(&second),
            StoreError::ForeignVariable { var: 42, tuples: 5 }
        );
        let mut second = vec![1u8];
        second.extend(u32s(&[1, 0, 1, 0, 2, 1])); // forward child
        assert_eq!(
            with_second(&second),
            StoreError::Obdd(ObddError::DanglingChild { node: 0, child: 2 })
        );
        let mut second = vec![1u8];
        second.extend(u32s(&[1, 0, 1, 0, 0, 1, 3])); // root = 3
        assert_eq!(
            with_second(&second),
            StoreError::RootOutOfRange { root: 3, len: 1 }
        );
        // A valid second leaf and nothing after it: truncated.
        let mut second = vec![1u8];
        second.extend(u32s(&[0, 0, 1]));
        assert_eq!(with_second(&second), StoreError::Truncated);
    }

    #[test]
    fn fresh_patched_and_decoded_phi9_plug_into_valid_dds() {
        let db = complete_database(3, 1);
        let mut shrunk = db.clone();
        shrunk.remove(intext_tid::TupleId(2)).unwrap();
        let fresh = intext_core::compile_dd(&phi9(), &db).unwrap();
        let patched = fresh.patched(&db, &shrunk).expect("one tuple removed");
        let key = CacheKey::new(&phi9(), &db);
        let (_, decoded) = decode_artifact(&encode_artifact(&key, &fresh)).unwrap();
        for (name, artifact, shape) in [
            ("fresh", &fresh, &db),
            ("patched", &patched, &shrunk),
            ("decoded", &decoded, &db),
        ] {
            let (circuit, root) = artifact.to_circuit();
            intext_circuits::verify::check_dd(&circuit, root)
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
            let probs: Vec<BigRational> = (0..shape.len() as i64)
                .map(|i| BigRational::from_ratio(i + 1, shape.len() as u64 + 3))
                .collect();
            let tid = intext_tid::Tid::new(shape.clone(), probs).unwrap();
            let via_circuit = circuit.probability(
                root,
                |v| tid.prob_f64(intext_tid::TupleId(v)),
                &mut intext_circuits::EvalScratch::new(),
            );
            assert_eq!(
                artifact.probability::<f64>(&tid).to_bits(),
                via_circuit.to_bits(),
                "{name}: the artifact walk gives the plugged circuit's bits"
            );
        }
    }

    #[test]
    fn header_field_errors_take_precedence_in_order() {
        let blob = dd_blob();

        // Magic flipped → BadMagic (even though the checksum also broke).
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_artifact(&bad).unwrap_err(), StoreError::BadMagic);

        // Version bumped → UnsupportedVersion.
        let mut bad = blob.clone();
        bad[8] = 0x2a;
        bad[9] = 0;
        assert_eq!(
            decode_artifact(&bad).unwrap_err(),
            StoreError::UnsupportedVersion(0x2a)
        );

        // Any body byte flipped → ChecksumMismatch (checksum is checked
        // before the body is parsed).
        let mut bad = blob.clone();
        bad[11] ^= 0x01;
        assert!(matches!(
            decode_artifact(&bad).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));

        // Checksum itself flipped → ChecksumMismatch.
        let mut bad = blob.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            decode_artifact(&bad).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));

        // Truncation anywhere → Truncated or ChecksumMismatch, never a
        // panic.
        for cut in [blob.len() - 1, blob.len() / 2, MIN_LEN] {
            let err = decode_artifact(&blob[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated | StoreError::ChecksumMismatch { .. }
                ),
                "cut={cut}: {err:?}"
            );
        }
    }
}
