//! The length-prefixed binary protocol (std only, no serde).
//!
//! Every message is one **frame**: a little-endian `u32` payload length
//! (capped at [`MAX_FRAME_LEN`]) followed by the payload, whose first
//! byte is an opcode. Requests use opcodes `0x01..`, responses `0x81..`
//! with `0xEE` carrying a typed [`ServeError`]. Decoding is **total**:
//! every byte is validated and malformed input returns a typed
//! [`WireError`] — the server never panics on hostile frames.
//!
//! Exact probabilities cross the wire as sign + numerator/denominator
//! limbs ([`BigUint::limbs`]), already normalized, so a round trip is
//! bit-lossless — the property that lets the differential tests compare
//! remote answers with `==` on [`BigRational`]. Floating-point values
//! travel as IEEE 754 bits, likewise lossless.

use std::time::Duration;

use intext_boolfn::BoolFn;
use intext_core::Region;
use intext_engine::codec::{CodecError, Reader, Writer};
use intext_engine::{EngineError, Estimate, SamplerKind};
use intext_numeric::{BigInt, BigRational, BigUint, Sign};
use intext_query::{HQuery, Query};
use intext_tid::{Database, Tid, Vocabulary};

use crate::error::ServeError;
use crate::server::{Request, Response};

/// Protocol version byte, the first payload byte of a `Hello` exchange
/// is reserved for future use; for now the opcode set is the version.
///
/// Version 2 (the UCQ front door): queries are tagged — tag `0` is an
/// H-query as `φ`'s truth-table words, tag `1` a general UCQ as its
/// vocabulary names plus the query text, decoded by re-parsing — and
/// the region/error codes grew [`Region::SafeLifted`],
/// [`Region::GroundCircuit`], and
/// [`EngineError::GroundingTooLarge`]. Version 1 peers reject the new
/// tag byte instead of misreading it.
///
/// Version 3 (crash-safe serving): every frame — request, response,
/// and error — carries a little-endian `u64` **request id** right
/// after the opcode. The server echoes the request's id in its reply,
/// which is what makes a reconnect-and-resend safe: evaluation is
/// pure, so a [`RemoteClient`](crate::net::RemoteClient) that loses
/// the connection mid-exchange re-sends the *same* id over a fresh
/// connection (an idempotent retry) and rejects any reply whose id
/// does not match the request in flight. Version 2 peers reject v3
/// frames as malformed instead of misreading the id bytes as a body.
pub const PROTOCOL_VERSION: u8 = 3;

/// Largest accepted frame payload: the codec's one frame bound, shared
/// with the WAL.
pub use intext_engine::codec::MAX_FRAME_LEN;

/// Why a frame failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated,
    /// The payload has bytes after the last field.
    TrailingBytes,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// A field failed validation (the name says which).
    BadValue(&'static str),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// The peer disconnected mid-frame after `bytes_read` bytes of the
    /// frame had arrived. Unlike the other variants this is not a
    /// protocol violation but a *retryable* transport loss: the frame
    /// never completed, so resending the same request id over a fresh
    /// connection cannot double-apply anything.
    ConnectionLost {
        /// Bytes of the frame (length prefix + payload) received
        /// before the stream ended.
        bytes_read: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TrailingBytes => write!(f, "frame has trailing bytes"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::BadValue(what) => write!(f, "invalid field: {what}"),
            WireError::FrameTooLarge(len) => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                )
            }
            WireError::ConnectionLost { bytes_read } => {
                write!(f, "connection lost mid-frame after {bytes_read} byte(s)")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => WireError::Truncated,
            CodecError::BadTupleTag(_) => WireError::BadValue("tuple tag"),
        }
    }
}

// ---------------------------------------------------------------- opcodes

const OP_EVALUATE: u8 = 0x01;
const OP_EVALUATE_F64: u8 = 0x02;
const OP_ESTIMATE: u8 = 0x03;
const OP_BATCH: u8 = 0x04;
const OP_BATCH_F64: u8 = 0x05;
const OP_SNAPSHOT: u8 = 0x06;
const OP_PING: u8 = 0x07;

const OP_RESP_EXACT: u8 = 0x81;
const OP_RESP_F64: u8 = 0x82;
const OP_RESP_ESTIMATE: u8 = 0x83;
const OP_RESP_BATCH: u8 = 0x84;
const OP_RESP_BATCH_F64: u8 = 0x85;
const OP_RESP_SNAPSHOT: u8 = 0x86;
const OP_RESP_PONG: u8 = 0x87;
const OP_RESP_ERROR: u8 = 0xEE;

// ------------------------------------------------------------ primitives

/// A frame payload header: opcode, then the v3 request id.
fn frame(op: u8, id: u64) -> Writer {
    let mut w = Writer::default();
    w.u8(op);
    w.u64(id);
    w
}

/// Rejects bytes after the last field.
fn finish(r: &Reader<'_>) -> Result<(), WireError> {
    match r.remaining() {
        0 => Ok(()),
        _ => Err(WireError::TrailingBytes),
    }
}

/// A list: a `u32` count, then each item through `put`.
fn put_list<T>(w: &mut Writer, items: &[T], mut put: impl FnMut(&mut Writer, &T)) {
    w.u32(u32::try_from(items.len()).expect("list fits a frame"));
    for item in items {
        put(w, item);
    }
}

/// Reads a [`put_list`] list whose items take at least
/// `min_item_bytes` each (a hostile count fails before allocating).
fn get_list<'a, T>(
    r: &mut Reader<'a>,
    min_item_bytes: usize,
    mut get: impl FnMut(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let count = r.count(min_item_bytes)?;
    let mut items = Vec::with_capacity(capacity::<T>(count, r));
    for _ in 0..count {
        items.push(get(r)?);
    }
    Ok(items)
}

/// The capacity to reserve for `count` decoded `T`s: at most what the
/// unread bytes could fill, so a count that passed
/// [`Reader::count`]'s few-bytes-per-item check still cannot reserve
/// more memory than the frame holds. Items past it grow the `Vec` as
/// they decode.
fn capacity<T>(count: usize, r: &Reader<'_>) -> usize {
    count.min(r.remaining() / size_of::<T>().max(1))
}

// ------------------------------------------------------------ value codecs

fn put_biguint(w: &mut Writer, v: &BigUint) {
    put_list(w, v.limbs(), |w, &limb| w.u32(limb));
}

fn get_biguint(r: &mut Reader) -> Result<BigUint, WireError> {
    let count = r.count(4)?;
    let v = if count <= 2 {
        // Below 2⁶⁴: straight into `BigUint`'s inline form, no limb `Vec`.
        let mut word = 0u64;
        for i in 0..count {
            word |= u64::from(r.u32()?) << (32 * i);
        }
        BigUint::from(word)
    } else {
        let mut limbs = Vec::with_capacity(capacity::<u32>(count, r));
        for _ in 0..count {
            limbs.push(r.u32()?);
        }
        BigUint::from_limbs(limbs)
    };
    if v.limbs().len() != count {
        // Building the value normalized a zero top limb away, but a
        // non-canonical encoding is a protocol violation worth surfacing
        // (it breaks byte-level determinism of re-encoded values).
        return Err(WireError::BadValue("denormalized limbs"));
    }
    Ok(v)
}

fn put_rational(w: &mut Writer, v: &BigRational) {
    w.u8(match v.numer().sign() {
        Sign::Negative => 1,
        Sign::Zero | Sign::Positive => 0,
    });
    put_biguint(w, v.numer().magnitude());
    put_biguint(w, v.denom());
}

fn get_rational(r: &mut Reader) -> Result<BigRational, WireError> {
    let sign_byte = r.u8()?;
    let numer_mag = get_biguint(r)?;
    let denom = get_biguint(r)?;
    if denom.is_zero() {
        return Err(WireError::BadValue("zero denominator"));
    }
    let sign = match (sign_byte, numer_mag.is_zero()) {
        (0, true) => Sign::Zero,
        (0, false) => Sign::Positive,
        (1, false) => Sign::Negative,
        _ => return Err(WireError::BadValue("rational sign")),
    };
    Ok(BigRational::new(
        BigInt::from_sign_mag(sign, numer_mag),
        denom,
    ))
}

fn put_str(w: &mut Writer, s: &str) {
    w.bytes(s.as_bytes());
}

fn get_str<'a>(r: &mut Reader<'a>) -> Result<&'a str, WireError> {
    std::str::from_utf8(r.bytes()?).map_err(|_| WireError::BadValue("utf-8 string"))
}

/// Query tag `0`: H-query, `φ` as truth-table words.
fn put_h_query(w: &mut Writer, q: &HQuery) {
    let phi = q.phi();
    w.u8(phi.num_vars());
    put_list(w, phi.words(), |w, &word| w.u64(word));
}

fn get_h_query(r: &mut Reader) -> Result<HQuery, WireError> {
    let num_vars = r.u8()?;
    let words = get_list(r, 8, |r| Ok(r.u64()?))?;
    let phi = BoolFn::from_words(num_vars, words).ok_or(WireError::BadValue("truth table"))?;
    Ok(HQuery::new(phi))
}

/// Tagged query codec (protocol v2). An H-query travels as `φ` (tag
/// `0`), a general UCQ as its vocabulary names plus the rendered query
/// text (tag `1`); the receiver rebuilds it by re-parsing, so every
/// hostile byte funnels through the parser's own validation and comes
/// back as a typed [`WireError::BadValue`].
fn put_query(w: &mut Writer, q: &Query) {
    if let Some(h) = q.as_h() {
        w.u8(0);
        put_h_query(w, h);
        return;
    }
    let (_, voc) = q.general().expect("a query is H or general");
    w.u8(1);
    w.u8(u8::try_from(voc.unary_names().len()).expect("2 unary names"));
    for name in voc.unary_names() {
        put_str(w, name);
    }
    w.u8(voc.k());
    for name in voc.binary_names() {
        put_str(w, name);
    }
    put_str(w, &q.to_string());
}

fn get_query(r: &mut Reader) -> Result<Query, WireError> {
    match r.u8()? {
        0 => Ok(Query::from(get_h_query(r)?)),
        1 => {
            let unary_count = r.u8()? as usize;
            let mut unary = Vec::with_capacity(unary_count.min(2));
            for _ in 0..unary_count {
                unary.push(get_str(r)?.to_owned());
            }
            let binary_count = r.u8()? as usize;
            let mut binary = Vec::with_capacity(binary_count.min(255));
            for _ in 0..binary_count {
                binary.push(get_str(r)?.to_owned());
            }
            let voc =
                Vocabulary::new(unary, binary).map_err(|_| WireError::BadValue("vocabulary"))?;
            let text = get_str(r)?;
            Query::parse(text, &voc).map_err(|_| WireError::BadValue("query text"))
        }
        _ => Err(WireError::BadValue("query tag")),
    }
}

fn put_tid(w: &mut Writer, tid: &Tid) {
    let db = tid.database();
    w.u8(db.k());
    w.u32(db.domain_size());
    w.u32(u32::try_from(db.len()).expect("tuple count fits u32"));
    for (id, desc) in db.iter() {
        w.tuple(desc);
        put_rational(w, tid.prob(id));
    }
}

fn get_tid(r: &mut Reader) -> Result<Tid, WireError> {
    let k = r.u8()?;
    if k == 0 {
        return Err(WireError::BadValue("vocabulary k"));
    }
    let domain_size = r.u32()?;
    let mut db = Database::new(k, domain_size);
    let count = r.count(6)?;
    let mut probs = Vec::with_capacity(capacity::<BigRational>(count, r));
    for _ in 0..count {
        db.insert(r.tuple()?)
            .map_err(|_| WireError::BadValue("tuple"))?;
        probs.push(get_rational(r)?);
    }
    Tid::new(db, probs).map_err(|_| WireError::BadValue("tuple probability"))
}

fn put_estimate(w: &mut Writer, e: &Estimate) {
    w.f64(e.value);
    w.f64(e.eps);
    w.f64(e.delta);
    w.u64(e.samples);
    w.u64(u64::try_from(e.elapsed.as_nanos()).unwrap_or(u64::MAX));
    w.u8(match e.sampler {
        None => 0,
        Some(SamplerKind::KarpLuby) => 1,
        Some(SamplerKind::NaiveWorlds) => 2,
    });
    w.u8(u8::from(e.deadline_hit));
}

fn get_estimate(r: &mut Reader) -> Result<Estimate, WireError> {
    Ok(Estimate {
        value: r.f64()?,
        eps: r.f64()?,
        delta: r.f64()?,
        samples: r.u64()?,
        elapsed: Duration::from_nanos(r.u64()?),
        sampler: match r.u8()? {
            0 => None,
            1 => Some(SamplerKind::KarpLuby),
            2 => Some(SamplerKind::NaiveWorlds),
            _ => return Err(WireError::BadValue("sampler kind")),
        },
        deadline_hit: match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::BadValue("deadline flag")),
        },
    })
}

fn put_region(w: &mut Writer, region: Region) {
    w.u8(match region {
        Region::DegenerateObdd => 0,
        Region::ZeroEulerDD => 1,
        Region::HardMonotone => 2,
        Region::HardByTransfer => 3,
        Region::ConjecturedHard => 4,
        Region::SafeLifted => 5,
        Region::GroundCircuit => 6,
    });
}

fn get_region(r: &mut Reader) -> Result<Region, WireError> {
    Ok(match r.u8()? {
        0 => Region::DegenerateObdd,
        1 => Region::ZeroEulerDD,
        2 => Region::HardMonotone,
        3 => Region::HardByTransfer,
        4 => Region::ConjecturedHard,
        5 => Region::SafeLifted,
        6 => Region::GroundCircuit,
        _ => return Err(WireError::BadValue("region")),
    })
}

fn put_usize(w: &mut Writer, v: usize) {
    w.u64(u64::try_from(v).expect("usize fits u64"));
}

fn get_usize(r: &mut Reader) -> Result<usize, WireError> {
    usize::try_from(r.u64()?).map_err(|_| WireError::BadValue("size"))
}

// ---------------------------------------------------------- frame codecs

/// Encodes a request into one frame payload (opcode + request id +
/// body). The id is the client's to choose; the server echoes it in
/// the reply frame, which is what lets a reconnecting client resend
/// under the same id and pair replies with requests.
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut w;
    match req {
        Request::Evaluate { q, tid } => {
            w = frame(OP_EVALUATE, id);
            put_query(&mut w, q);
            put_tid(&mut w, tid);
        }
        Request::EvaluateF64 { q, tid } => {
            w = frame(OP_EVALUATE_F64, id);
            put_query(&mut w, q);
            put_tid(&mut w, tid);
        }
        Request::Estimate { q, tid } => {
            w = frame(OP_ESTIMATE, id);
            put_query(&mut w, q);
            put_tid(&mut w, tid);
        }
        Request::Batch { q, tids } => {
            w = frame(OP_BATCH, id);
            put_query(&mut w, q);
            put_list(&mut w, tids, put_tid);
        }
        Request::BatchF64 { q, tids, shards } => {
            w = frame(OP_BATCH_F64, id);
            put_query(&mut w, q);
            put_usize(&mut w, *shards);
            put_list(&mut w, tids, put_tid);
        }
        Request::Snapshot => w = frame(OP_SNAPSHOT, id),
        Request::Ping => w = frame(OP_PING, id),
    }
    w.into_bytes()
}

/// Decodes one frame payload into its request id and request (total:
/// every malformed byte is a typed [`WireError`]).
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), WireError> {
    let mut r = Reader::new(payload);
    let op = r.u8()?;
    let id = r.u64()?;
    let req = match op {
        OP_EVALUATE => Request::Evaluate {
            q: get_query(&mut r)?,
            tid: get_tid(&mut r)?,
        },
        OP_EVALUATE_F64 => Request::EvaluateF64 {
            q: get_query(&mut r)?,
            tid: get_tid(&mut r)?,
        },
        OP_ESTIMATE => Request::Estimate {
            q: get_query(&mut r)?,
            tid: get_tid(&mut r)?,
        },
        OP_BATCH => Request::Batch {
            q: get_query(&mut r)?,
            tids: get_list(&mut r, 1, get_tid)?,
        },
        OP_BATCH_F64 => Request::BatchF64 {
            q: get_query(&mut r)?,
            shards: get_usize(&mut r)?,
            tids: get_list(&mut r, 1, get_tid)?,
        },
        OP_SNAPSHOT => Request::Snapshot,
        OP_PING => Request::Ping,
        other => return Err(WireError::BadOpcode(other)),
    };
    finish(&r)?;
    Ok((id, req))
}

/// Encodes a successful response into one frame payload, echoing the
/// request's id.
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut w;
    match resp {
        Response::Exact(p) => {
            w = frame(OP_RESP_EXACT, id);
            put_rational(&mut w, p);
        }
        Response::F64(v) => {
            w = frame(OP_RESP_F64, id);
            w.f64(*v);
        }
        Response::Estimate(e) => {
            w = frame(OP_RESP_ESTIMATE, id);
            put_estimate(&mut w, e);
        }
        Response::Batch(ps) => {
            w = frame(OP_RESP_BATCH, id);
            put_list(&mut w, ps, put_rational);
        }
        Response::BatchF64(vs) => {
            w = frame(OP_RESP_BATCH_F64, id);
            put_list(&mut w, vs, |w, &v| w.f64(v));
        }
        Response::Snapshot(bytes) => {
            w = frame(OP_RESP_SNAPSHOT, id);
            w.bytes(bytes);
        }
        Response::Pong => w = frame(OP_RESP_PONG, id),
    }
    w.into_bytes()
}

/// Encodes a typed rejection into one frame payload, echoing the
/// request's id.
pub fn encode_error(id: u64, err: &ServeError) -> Vec<u8> {
    let mut w = frame(OP_RESP_ERROR, id);
    match err {
        ServeError::QueueFull { capacity } => {
            w.u8(1);
            put_usize(&mut w, *capacity);
        }
        ServeError::DeadlineExceeded { late_by } => {
            w.u8(2);
            w.u64(u64::try_from(late_by.as_nanos()).unwrap_or(u64::MAX));
        }
        ServeError::BudgetExceeded { scenarios, budget } => {
            w.u8(3);
            put_usize(&mut w, *scenarios);
            put_usize(&mut w, *budget);
        }
        ServeError::Cancelled => w.u8(4),
        ServeError::Closed => w.u8(5),
        ServeError::WorkerPanicked => w.u8(6),
        ServeError::Engine(EngineError::VocabularyMismatch {
            query_k,
            database_k,
        }) => {
            w.u8(7);
            w.u8(*query_k);
            w.u8(*database_k);
        }
        ServeError::Engine(EngineError::Intractable {
            region,
            tuples,
            budget,
        }) => {
            w.u8(8);
            put_region(&mut w, *region);
            put_usize(&mut w, *tuples);
            put_usize(&mut w, *budget);
        }
        ServeError::Engine(EngineError::GroundingTooLarge { tuples, budget }) => {
            w.u8(9);
            put_usize(&mut w, *tuples);
            put_usize(&mut w, *budget);
        }
    }
    w.into_bytes()
}

/// Decodes one frame payload into its echoed request id and a
/// response or typed rejection.
pub fn decode_reply(payload: &[u8]) -> Result<(u64, Result<Response, ServeError>), WireError> {
    let mut r = Reader::new(payload);
    let op = r.u8()?;
    let id = r.u64()?;
    let reply = match op {
        OP_RESP_EXACT => Ok(Response::Exact(get_rational(&mut r)?)),
        OP_RESP_F64 => Ok(Response::F64(r.f64()?)),
        OP_RESP_ESTIMATE => Ok(Response::Estimate(get_estimate(&mut r)?)),
        OP_RESP_BATCH => Ok(Response::Batch(get_list(&mut r, 1, get_rational)?)),
        OP_RESP_BATCH_F64 => Ok(Response::BatchF64(get_list(&mut r, 8, |r| Ok(r.f64()?))?)),
        OP_RESP_SNAPSHOT => Ok(Response::Snapshot(r.bytes()?.to_vec())),
        OP_RESP_PONG => Ok(Response::Pong),
        OP_RESP_ERROR => Err(match r.u8()? {
            1 => ServeError::QueueFull {
                capacity: get_usize(&mut r)?,
            },
            2 => ServeError::DeadlineExceeded {
                late_by: Duration::from_nanos(r.u64()?),
            },
            3 => ServeError::BudgetExceeded {
                scenarios: get_usize(&mut r)?,
                budget: get_usize(&mut r)?,
            },
            4 => ServeError::Cancelled,
            5 => ServeError::Closed,
            6 => ServeError::WorkerPanicked,
            7 => ServeError::Engine(EngineError::VocabularyMismatch {
                query_k: r.u8()?,
                database_k: r.u8()?,
            }),
            8 => ServeError::Engine(EngineError::Intractable {
                region: get_region(&mut r)?,
                tuples: get_usize(&mut r)?,
                budget: get_usize(&mut r)?,
            }),
            9 => ServeError::Engine(EngineError::GroundingTooLarge {
                tuples: get_usize(&mut r)?,
                budget: get_usize(&mut r)?,
            }),
            _ => return Err(WireError::BadValue("error code")),
        }),
        other => return Err(WireError::BadOpcode(other)),
    };
    finish(&r)?;
    Ok((id, reply))
}

#[cfg(test)]
mod tests {
    use super::*;
    use intext_boolfn::phi9;
    use intext_tid::{complete_database, uniform_tid};

    fn sample_tid() -> Tid {
        uniform_tid(complete_database(3, 2), BigRational::from_ratio(1, 3))
    }

    #[test]
    fn requests_round_trip() {
        let q = Query::from(HQuery::new(phi9()));
        let tid = sample_tid();
        let requests = [
            Request::Evaluate {
                q: q.clone(),
                tid: tid.clone(),
            },
            Request::EvaluateF64 {
                q: q.clone(),
                tid: tid.clone(),
            },
            Request::Estimate {
                q: q.clone(),
                tid: tid.clone(),
            },
            Request::Batch {
                q: q.clone(),
                tids: vec![tid.clone(), tid.clone()],
            },
            Request::BatchF64 {
                q: q.clone(),
                tids: vec![tid.clone()],
                shards: 4,
            },
            Request::Snapshot,
            Request::Ping,
        ];
        for (i, req) in requests.iter().enumerate() {
            let id = 0xA5A5_0000 + i as u64;
            let bytes = encode_request(id, req);
            let (back_id, back) = decode_request(&bytes).unwrap();
            assert_eq!(back_id, id, "request id lost in transit");
            // Request has no PartialEq (Tid doesn't); compare re-encodings,
            // which are canonical.
            assert_eq!(encode_request(id, &back), bytes);
        }
    }

    #[test]
    fn general_queries_round_trip_by_reparsing() {
        let voc =
            Vocabulary::new(vec!["Author".into(), "Cited".into()], vec!["Wrote".into()]).unwrap();
        let q = Query::parse("Author(x), Wrote(x,y), Cited(y)", &voc).unwrap();
        let req = Request::Evaluate {
            q,
            tid: sample_tid(),
        };
        let bytes = encode_request(7, &req);
        let (id, back) = decode_request(&bytes).unwrap();
        assert_eq!(id, 7);
        assert_eq!(encode_request(7, &back), bytes);
        let Request::Evaluate { q: decoded, .. } = back else {
            panic!("request changed shape over the wire");
        };
        // The user's relation names survive (variables normalize to
        // the canonical x0, x1, … at parse time on both sides).
        assert_eq!(decoded.to_string(), "Author(x0),Wrote(x0,x1),Cited(x1)");
        assert!(decoded.as_h().is_none());
    }

    #[test]
    fn hostile_query_frames_are_typed_errors() {
        let good = {
            let voc = Vocabulary::h(1);
            let q = Query::parse("R(x),S1(x,y),T(y)", &voc).unwrap();
            encode_request(
                0,
                &Request::Evaluate {
                    q,
                    tid: sample_tid(),
                },
            )
        };
        // An unknown query tag is rejected, not misread. (Payload
        // layout: opcode, 8 id bytes, then the query tag.)
        let mut bad_tag = good.clone();
        bad_tag[9] = 7;
        assert_eq!(
            decode_request(&bad_tag).unwrap_err(),
            WireError::BadValue("query tag")
        );
        // Corrupting the text bytes funnels through the parser.
        let mut w = frame(OP_EVALUATE, 0);
        w.u8(1); // general tag
        w.u8(2);
        put_str(&mut w, "R");
        put_str(&mut w, "T");
        w.u8(1);
        put_str(&mut w, "S1");
        put_str(&mut w, "R(x,"); // torn query text
        assert_eq!(
            decode_request(&w.into_bytes()).unwrap_err(),
            WireError::BadValue("query text")
        );
        // A vocabulary with duplicate names is rejected before parsing.
        let mut w = frame(OP_EVALUATE, 0);
        w.u8(1);
        w.u8(2);
        put_str(&mut w, "R");
        put_str(&mut w, "R");
        w.u8(1);
        put_str(&mut w, "S1");
        put_str(&mut w, "R(x)");
        assert_eq!(
            decode_request(&w.into_bytes()).unwrap_err(),
            WireError::BadValue("vocabulary")
        );
        // Non-UTF-8 name bytes are a typed error, not a panic.
        let mut w = frame(OP_EVALUATE, 0);
        w.u8(1);
        w.u8(2);
        w.bytes(&[0xFF, 0xFE]);
        assert_eq!(
            decode_request(&w.into_bytes()).unwrap_err(),
            WireError::BadValue("utf-8 string")
        );
    }

    #[test]
    fn general_regions_and_errors_cross_the_wire() {
        for region in [Region::SafeLifted, Region::GroundCircuit] {
            let mut w = Writer::default();
            put_region(&mut w, region);
            let bytes = w.into_bytes();
            assert_eq!(get_region(&mut Reader::new(&bytes)).unwrap(), region);
        }
        let err = ServeError::Engine(EngineError::GroundingTooLarge {
            tuples: 4096,
            budget: 2048,
        });
        let bytes = encode_error(42, &err);
        let (id, reply) = decode_reply(&bytes).unwrap();
        assert_eq!(id, 42);
        assert_eq!(reply.unwrap_err(), err);
    }

    #[test]
    fn replies_round_trip_bit_exactly() {
        let p = BigRational::from_ratio(355, 452);
        // Parts at the limb-count edges: 2³² − 1, 2³², 2⁶⁴ − 1 (the
        // widest inline value) and 2⁶⁴ (the narrowest limb vector).
        let edges = [
            BigUint::from(u64::from(u32::MAX)),
            BigUint::from(1u64 << 32),
            BigUint::from(u64::MAX),
            BigUint::from_limbs(vec![0, 0, 1]),
        ];
        let mut edge_rationals = Vec::new();
        for (i, num) in edges.iter().enumerate() {
            for den in &edges[i..] {
                for sign in [Sign::Positive, Sign::Negative] {
                    let num = BigInt::from_sign_mag(sign, num.clone());
                    edge_rationals.push(BigRational::new(num, den.clone()));
                }
            }
        }
        let replies: Vec<Result<Response, ServeError>> = vec![
            Ok(Response::Exact(p.clone())),
            Ok(Response::Exact(edge_rationals[5].clone())),
            Ok(Response::F64(0.1 + 0.2)),
            Ok(Response::Batch(vec![p.clone(), BigRational::zero()])),
            Ok(Response::Batch(edge_rationals)),
            Ok(Response::BatchF64(vec![f64::MIN_POSITIVE, 1.0])),
            Ok(Response::Snapshot(vec![1, 2, 3])),
            Ok(Response::Pong),
            Err(ServeError::QueueFull { capacity: 8 }),
            Err(ServeError::DeadlineExceeded {
                late_by: Duration::from_micros(17),
            }),
            Err(ServeError::BudgetExceeded {
                scenarios: 100,
                budget: 10,
            }),
            Err(ServeError::Cancelled),
            Err(ServeError::Closed),
            Err(ServeError::WorkerPanicked),
            Err(ServeError::Engine(EngineError::VocabularyMismatch {
                query_k: 2,
                database_k: 3,
            })),
            Err(ServeError::Engine(EngineError::Intractable {
                region: Region::HardMonotone,
                tuples: 99,
                budget: 20,
            })),
        ];
        for (i, reply) in replies.iter().enumerate() {
            let id = u64::MAX - i as u64;
            let bytes = match reply {
                Ok(resp) => encode_response(id, resp),
                Err(err) => encode_error(id, err),
            };
            let (back_id, back) = decode_reply(&bytes).unwrap();
            assert_eq!(back_id, id, "reply id lost in transit");
            match (reply, &back) {
                (Ok(Response::Exact(a)), Ok(Response::Exact(b))) => assert_eq!(a, b),
                (Ok(Response::F64(a)), Ok(Response::F64(b))) => {
                    assert_eq!(a.to_bits(), b.to_bits())
                }
                (Ok(Response::Batch(a)), Ok(Response::Batch(b))) => assert_eq!(a, b),
                (Ok(Response::BatchF64(a)), Ok(Response::BatchF64(b))) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                (Ok(Response::Snapshot(a)), Ok(Response::Snapshot(b))) => assert_eq!(a, b),
                (Ok(Response::Pong), Ok(Response::Pong)) => {}
                (Err(a), Err(b)) => assert_eq!(a, b),
                other => panic!("reply changed shape over the wire: {other:?}"),
            }
        }
    }

    #[test]
    fn estimates_round_trip() {
        let e = Estimate {
            value: 0.123456789,
            eps: 0.05,
            delta: 1e-3,
            samples: 738,
            elapsed: Duration::from_nanos(98_765),
            sampler: Some(SamplerKind::KarpLuby),
            deadline_hit: true,
        };
        let bytes = encode_response(3, &Response::Estimate(e));
        match decode_reply(&bytes).unwrap().1.unwrap() {
            Response::Estimate(back) => {
                assert_eq!(back.value.to_bits(), e.value.to_bits());
                assert_eq!(back.eps.to_bits(), e.eps.to_bits());
                assert_eq!(back.delta.to_bits(), e.delta.to_bits());
                assert_eq!(back.samples, e.samples);
                assert_eq!(back.elapsed, e.elapsed);
                assert_eq!(back.sampler, e.sampler);
                assert_eq!(back.deadline_hit, e.deadline_hit);
            }
            other => panic!("expected an estimate, got {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors_not_panics() {
        assert_eq!(decode_request(&[]).unwrap_err(), WireError::Truncated);
        // An unknown opcode with a complete id is a typed rejection…
        let mut unknown = vec![0x99];
        unknown.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            decode_request(&unknown).unwrap_err(),
            WireError::BadOpcode(0x99)
        );
        // …and a frame cut inside the request id is truncated, not
        // misread (the id is part of every v3 frame).
        assert_eq!(
            decode_request(&[OP_PING, 0xFF]).unwrap_err(),
            WireError::Truncated
        );
        let mut trailing = vec![OP_PING];
        trailing.extend_from_slice(&9u64.to_le_bytes());
        trailing.push(0xFF);
        assert_eq!(
            decode_request(&trailing).unwrap_err(),
            WireError::TrailingBytes
        );
        // A hostile tuple count cannot force a huge allocation.
        // (Leading 0 after the opcode + id: the H-query tag.)
        let mut bad = vec![OP_EVALUATE];
        bad.extend_from_slice(&0u64.to_le_bytes()); // request id
        bad.extend_from_slice(&[0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        bad.extend_from_slice(&[1, 4, 0, 0, 0]); // k=1, domain=4
        bad.extend_from_slice(&u32::MAX.to_le_bytes()); // "4 billion tuples"
        assert_eq!(decode_request(&bad).unwrap_err(), WireError::Truncated);
        // Zero denominators are rejected, not a divide-by-zero panic.
        let mut w = frame(OP_RESP_EXACT, 0);
        w.u8(0);
        w.u32(1);
        w.u32(5); // numerator 5
        w.u32(0); // denominator: zero limbs = 0
        assert_eq!(
            decode_reply(&w.into_bytes()).unwrap_err(),
            WireError::BadValue("zero denominator")
        );
        // A zero top limb is a typed rejection, inline or not, and a
        // limb count past the frame is truncation.
        for numerator in [&[0][..], &[5, 0], &[1, 2, 0]] {
            let mut w = frame(OP_RESP_EXACT, 0);
            w.u8(0);
            put_list(&mut w, numerator, |w, &limb| w.u32(limb));
            put_biguint(&mut w, &BigUint::one());
            assert_eq!(
                decode_reply(&w.into_bytes()).unwrap_err(),
                WireError::BadValue("denormalized limbs"),
                "numerator limbs {numerator:?}"
            );
        }
        for count in [2, 3] {
            let mut w = frame(OP_RESP_EXACT, 0);
            w.u8(0);
            w.u32(count);
            w.u32(5);
            assert_eq!(
                decode_reply(&w.into_bytes()).unwrap_err(),
                WireError::Truncated,
                "{count} limbs claimed, one sent"
            );
        }
    }
}
