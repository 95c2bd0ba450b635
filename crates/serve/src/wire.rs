//! The psi-serve wire format: length-prefixed binary frames whose
//! payloads are encoded with the store's bounds-checked [`MetaBuf`] /
//! [`MetaCursor`] primitives.
//!
//! ```text
//! frame     := len:u32le | payload (len bytes, len ≤ max_frame_bytes)
//! request   := 0x01 | id:u64 | n:u64 | n × condition
//! condition := attr:str | lo:u32 | hi:u32 | negated:bool
//! rows      := 0x06 | id:u64 | universe:u64 | count:u64 | complemented:bool
//!              | codec:u8 | codes | blocks_read:u64 | degraded:bool
//! codes     := (codec 0, gamma) bit_len:u64 | ⌈bit_len/64⌉ × word:u64
//!            | (codec 1, words) base:u64 | n:u64 | n × word:u64
//! error     := 0x03 | id:u64 | code:u8 | message:str
//! stats     := 0x04 | id:u64
//! statsrep  := 0x05 | id:u64 | n:u64 | n × entry
//! entry     := name:str | kind:u8 | value        (kind 1 counter:u64,
//!              2 gauge:i64, 3 histogram: count:u64 sum:u64 vec<(hi,n)>,
//!              4 list: vec<u64>)
//! str       := len:u64 | bytes   (length-prefixed UTF-8, like MetaBuf)
//! ```
//!
//! A rows frame carries the answer as the server holds it, a `RidSet`:
//! its stored set's `count` positions below `universe`, which are the
//! answer itself or, when `complemented`, the rows the answer leaves out.
//! The stored set is gamma codes of its gaps (MSB-first words, bits past
//! `bit_len` zero) or plain words, bit `j` of word `i` being position
//! `base + 64i + j`. The server copies the words verbatim, so an answer
//! costs about `lg C(n, z)` bits on the wire instead of 64 per row. Tag
//! `0x02`, the retired frame of 8-byte row ids, is refused as an
//! unexpected tag.
//!
//! [`decode_response`] checks a rows frame's header before allocating
//! anything of the size it claims: `count ≤ universe`, the logical row
//! count (`count`, or `universe − count` when complemented) at most
//! [`MAX_REPLY_ROWS`], a known codec, code words present in the frame,
//! at most one gamma code per bit, and a words span that is word-aligned
//! and ends inside the universe. Then it decodes: gamma through the
//! psi-bits SWAR kernel's fallible entry ([`psi_bits::try_decode_gaps`]:
//! exactly `count` codes ending at `bit_len`, positions strictly
//! increasing and below the universe), words by bit scan after their
//! popcount matched `count`. A complemented answer is expanded over its
//! universe from those stored positions (at most one per bit of the
//! frame), so every client gets the same ascending `Vec<u64>`.
//!
//! Every decoder path returns a typed error — a malformed frame can
//! never panic the server or the client, and a frame longer than the
//! negotiated cap is rejected *before* any allocation. Requests and
//! responses carry a caller-chosen `id`; responses may come back in any
//! order (the server batches per tick), so the id is the only
//! correlation.

use std::io::{self, Read, Write};

use psi_obs::{HistSnapshot, Snapshot, Value};
use psi_query::{AttrCondition, ConjunctiveQuery, QueryError, QueryOutcome};
use psi_store::{MetaBuf, MetaCursor};

/// Default cap on a single frame's payload, requests and responses alike.
pub const MAX_FRAME_BYTES: u32 = 8 << 20;

/// Most rows a client materializes from one rows frame: the 1,048,576
/// row ids an [`MAX_FRAME_BYTES`] frame of 8-byte ids could carry. A
/// frame whose header claims more is refused before anything is
/// allocated; a compressed frame, complemented ones above all, could
/// otherwise claim any number of rows in a few bytes. The server answers
/// a larger answer with a typed [`ErrorCode::AnswerTooLarge`] instead of
/// a rows frame.
pub const MAX_REPLY_ROWS: u64 = MAX_FRAME_BYTES as u64 / 8;

/// Message tag: a conjunctive query request.
pub const MSG_QUERY: u8 = 0x01;
/// Message tag: a successful response carrying the answer's stored form.
pub const MSG_ROWS: u8 = 0x06;
/// Message tag: a typed failure response.
pub const MSG_ERROR: u8 = 0x03;
/// Message tag: a live metrics-snapshot request. Answered inline by the
/// connection's reader thread — it bypasses admission control and
/// batching, so a saturated server still answers its operator.
pub const MSG_STATS: u8 = 0x04;
/// Message tag: the metrics-snapshot response.
pub const MSG_STATS_REPLY: u8 = 0x05;

/// Request id used for an error response when the offending frame was
/// too malformed to yield the real id.
pub const UNKNOWN_ID: u64 = u64::MAX;

/// Rows-frame codec: gamma codes of the stored set's gaps.
const CODEC_GAMMA: u8 = 0;
/// Rows-frame codec: the stored set as plain words over its span.
const CODEC_WORDS: u8 = 1;
/// Bytes of a gamma rows frame besides its code words (a words frame
/// adds its span length).
const ROWS_FIXED_BYTES: usize = 1 + 8 + 8 + 8 + 1 + 1 + 8 + 8 + 1;

/// Typed failure codes carried by [`MSG_ERROR`] responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request frame did not decode (bad tag, truncated payload,
    /// non-UTF-8 attribute, trailing garbage).
    Protocol = 1,
    /// Admission control shed the request: the server's in-flight budget
    /// (global or per-connection) was full. Retry after backoff.
    Overloaded = 2,
    /// The query names an attribute the served table does not have.
    UnknownAttribute = 3,
    /// A block read failed with a transient fault (pool frame budget
    /// exhausted, injected flake). Retryable.
    ReadTransient = 4,
    /// A block read failed permanently.
    ReadPermanent = 5,
    /// A block read came back corrupt and no fallback could answer.
    ReadCorrupt = 6,
    /// The attribute is quarantined with no scan fallback.
    Quarantined = 7,
    /// Query execution panicked server-side (contained to this request).
    Panicked = 8,
    /// The predicate was not a conjunction of per-attribute conditions.
    NotConjunctive = 9,
    /// The answer has more than [`MAX_REPLY_ROWS`] rows, more than a
    /// client expands from one frame. Narrow the query.
    AnswerTooLarge = 10,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Overloaded,
            3 => ErrorCode::UnknownAttribute,
            4 => ErrorCode::ReadTransient,
            5 => ErrorCode::ReadPermanent,
            6 => ErrorCode::ReadCorrupt,
            7 => ErrorCode::Quarantined,
            8 => ErrorCode::Panicked,
            9 => ErrorCode::NotConjunctive,
            10 => ErrorCode::AnswerTooLarge,
            _ => return None,
        })
    }
}

/// A typed failure response as seen on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Failure taxonomy — drives the client's remedy.
    pub code: ErrorCode,
    /// Human-readable cause from the failing layer.
    pub message: String,
}

impl WireError {
    /// A protocol (malformed frame) error.
    pub fn protocol(message: impl Into<String>) -> WireError {
        WireError {
            code: ErrorCode::Protocol,
            message: message.into(),
        }
    }

    /// The admission-control shed response.
    pub fn overloaded() -> WireError {
        WireError {
            code: ErrorCode::Overloaded,
            message: "server overloaded: in-flight budget full".into(),
        }
    }

    /// The refusal of an executed answer of `rows` rows, over
    /// [`MAX_REPLY_ROWS`].
    pub fn answer_too_large(rows: u64) -> WireError {
        WireError {
            code: ErrorCode::AnswerTooLarge,
            message: format!("answer of {rows} rows exceeds the {MAX_REPLY_ROWS}-row reply cap"),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

impl From<&QueryError> for WireError {
    fn from(e: &QueryError) -> WireError {
        let code = match e {
            QueryError::NotConjunctive => ErrorCode::NotConjunctive,
            QueryError::UnknownAttribute(_) => ErrorCode::UnknownAttribute,
            QueryError::Read(r) => match r.class {
                psi_io::ErrorClass::Transient => ErrorCode::ReadTransient,
                psi_io::ErrorClass::Permanent => ErrorCode::ReadPermanent,
                psi_io::ErrorClass::Corrupt => ErrorCode::ReadCorrupt,
            },
            QueryError::Quarantined(_) => ErrorCode::Quarantined,
            QueryError::Panicked(_) => ErrorCode::Panicked,
        };
        WireError {
            code,
            message: e.to_string(),
        }
    }
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request id (or [`UNKNOWN_ID`]).
    pub id: u64,
    /// Rows or a typed failure.
    pub body: Result<RowsReply, WireError>,
}

/// The payload of a successful response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowsReply {
    /// Matching row ids, ascending.
    pub rows: Vec<u64>,
    /// Simulated blocks charged server-side (the paper's I/O measure).
    pub blocks_read: u64,
    /// Whether any attribute was answered by a degraded (scan) path.
    pub degraded: bool,
}

// ---------------------------------------------------------------- frames

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    // One write for prefix + payload: the server writes frames straight
    // to a nodelay socket, where a bare 4-byte length prefix would leave
    // as its own TCP segment — two packets per response.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Outcome of [`read_frame`].
#[derive(Debug)]
pub enum FrameIn {
    /// A complete payload.
    Payload(Vec<u8>),
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The frame declared a payload larger than `max_frame_bytes`; the
    /// stream cannot be resynchronized and must be closed after the
    /// typed error response.
    TooLarge(u32),
}

/// Reads one frame. `fill` must behave like `read_exact` but may return
/// `Ok(false)` for clean EOF *before the first byte* (mid-frame EOF is an
/// error). The indirection lets the server thread poll a shutdown flag
/// between reads; plain blocking callers use [`read_frame_blocking`].
pub fn read_frame(
    mut fill: impl FnMut(&mut [u8], bool) -> io::Result<bool>,
    max_frame_bytes: u32,
) -> io::Result<FrameIn> {
    let mut len4 = [0u8; 4];
    if !fill(&mut len4, true)? {
        return Ok(FrameIn::Closed);
    }
    let len = u32::from_le_bytes(len4);
    if len > max_frame_bytes {
        return Ok(FrameIn::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    fill(&mut payload, false)?;
    Ok(FrameIn::Payload(payload))
}

/// [`read_frame`] over a plain blocking reader (the client side).
pub fn read_frame_blocking(r: &mut impl Read, max_frame_bytes: u32) -> io::Result<FrameIn> {
    read_frame(
        |buf, eof_ok| match r.read_exact(buf) {
            Ok(()) => Ok(true),
            Err(e) if eof_ok && e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
            Err(e) => Err(e),
        },
        max_frame_bytes,
    )
}

// -------------------------------------------------------------- requests

/// Encodes a query request payload.
pub fn encode_request(id: u64, query: &ConjunctiveQuery) -> Vec<u8> {
    let mut b = MetaBuf::new();
    b.put_u8(MSG_QUERY);
    b.put_u64(id);
    b.put_len(query.conditions.len());
    for c in &query.conditions {
        b.put_str(&c.attr);
        b.put_u32(c.lo);
        b.put_u32(c.hi);
        b.put_bool(c.negated);
    }
    b.into_bytes()
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen correlation id.
    pub id: u64,
    /// The conditions to execute (already in conjunctive normal form —
    /// the server re-normalizes nothing).
    pub query: ConjunctiveQuery,
}

/// Decodes a request payload. On failure the error carries the request
/// id if the header got far enough to yield one ([`UNKNOWN_ID`] else),
/// so the server can still answer the offending request specifically.
pub fn decode_request(payload: &[u8]) -> Result<Request, (u64, WireError)> {
    let mut c = MetaCursor::new(payload);
    let proto = |what: &str, e: psi_store::StoreError| WireError::protocol(format!("{what}: {e}"));
    let tag = c
        .get_u8()
        .map_err(|e| (UNKNOWN_ID, proto("request tag", e)))?;
    if tag != MSG_QUERY {
        return Err((
            UNKNOWN_ID,
            WireError::protocol(format!("unexpected message tag {tag:#04x}")),
        ));
    }
    let id = c
        .get_u64()
        .map_err(|e| (UNKNOWN_ID, proto("request id", e)))?;
    let fail = |w: WireError| (id, w);
    let n = c
        .get_len(13) // minimum encoded condition: 8 (attr len) + 4 + 1
        .map_err(|e| fail(proto("condition count", e)))?;
    let mut conditions = Vec::with_capacity(n);
    for i in 0..n {
        let what = format!("condition {i}");
        let attr = c.get_str().map_err(|e| fail(proto(&what, e)))?;
        let lo = c.get_u32().map_err(|e| fail(proto(&what, e)))?;
        let hi = c.get_u32().map_err(|e| fail(proto(&what, e)))?;
        let negated = c.get_bool().map_err(|e| fail(proto(&what, e)))?;
        conditions.push(AttrCondition {
            attr,
            lo,
            hi,
            negated,
        });
    }
    if c.remaining() != 0 {
        return Err((
            id,
            WireError::protocol(format!("{} trailing bytes after request", c.remaining())),
        ));
    }
    Ok(Request {
        id,
        query: ConjunctiveQuery { conditions },
    })
}

// ------------------------------------------------------------- responses

/// Encodes a rows response from an executed outcome: the answer's
/// stored form, its code words copied as they are.
pub fn encode_rows(id: u64, outcome: &QueryOutcome) -> Vec<u8> {
    let stored = outcome.rows.stored();
    let (codec, head, words) = match stored.plain_words() {
        Some((base, span)) => (CODEC_WORDS, base, span),
        None => {
            let bits = stored.code_bits();
            let n = bits.len().div_ceil(64) as usize;
            (CODEC_GAMMA, bits.len(), &bits.words()[..n])
        }
    };
    let mut b = MetaBuf::with_capacity(ROWS_FIXED_BYTES + 8 + 8 * words.len());
    b.put_u8(MSG_ROWS);
    b.put_u64(id);
    b.put_u64(stored.universe());
    b.put_u64(stored.count());
    b.put_bool(outcome.rows.is_complemented());
    b.put_u8(codec);
    b.put_u64(head);
    if codec == CODEC_WORDS {
        b.put_vec_u64(words);
    } else {
        for &w in words {
            b.put_u64(w);
        }
    }
    b.put_u64(outcome.io.reads);
    b.put_bool(!outcome.degraded.is_empty());
    b.into_bytes()
}

/// Encodes a typed error response.
pub fn encode_error(id: u64, err: &WireError) -> Vec<u8> {
    let mut b = MetaBuf::new();
    b.put_u8(MSG_ERROR);
    b.put_u64(id);
    b.put_u8(err.code as u8);
    b.put_str(&err.message);
    b.into_bytes()
}

/// Decodes a response payload (the client side). Malformed responses are
/// a protocol error — the server never produces them, so the stream is
/// unusable.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut c = MetaCursor::new(payload);
    let proto = |what: &str, e: psi_store::StoreError| WireError::protocol(format!("{what}: {e}"));
    let tag = c.get_u8().map_err(|e| proto("response tag", e))?;
    let id = c.get_u64().map_err(|e| proto("response id", e))?;
    let body = match tag {
        MSG_ROWS => Ok(decode_rows(&mut c)?),
        MSG_ERROR => {
            let code = c.get_u8().map_err(|e| proto("error code", e))?;
            let code = ErrorCode::from_u8(code)
                .ok_or_else(|| WireError::protocol(format!("unknown error code {code}")))?;
            let message = c.get_str().map_err(|e| proto("error message", e))?;
            Err(WireError { code, message })
        }
        other => {
            return Err(WireError::protocol(format!(
                "unexpected response tag {other:#04x}"
            )))
        }
    };
    if c.remaining() != 0 {
        return Err(WireError::protocol(format!(
            "{} trailing bytes after response",
            c.remaining()
        )));
    }
    Ok(Response { id, body })
}

/// The body of a rows frame after its id; see the module docs for the
/// checks and their order.
fn decode_rows(c: &mut MetaCursor<'_>) -> Result<RowsReply, WireError> {
    let proto = |what: &str, e: psi_store::StoreError| WireError::protocol(format!("{what}: {e}"));
    let universe = c.get_u64().map_err(|e| proto("universe", e))?;
    let count = c.get_u64().map_err(|e| proto("count", e))?;
    let complemented = c.get_bool().map_err(|e| proto("complemented flag", e))?;
    let codec = c.get_u8().map_err(|e| proto("codec", e))?;
    if count > universe {
        return Err(WireError::protocol(format!(
            "count {count} exceeds universe {universe}"
        )));
    }
    let rows_n = if complemented {
        universe - count
    } else {
        count
    };
    if rows_n > MAX_REPLY_ROWS {
        return Err(WireError::protocol(format!(
            "answer of {rows_n} rows exceeds the {MAX_REPLY_ROWS}-row cap"
        )));
    }
    // The stored positions: the answer itself, or what it leaves out.
    // Either way at most one per bit of the frame.
    let stored = match codec {
        CODEC_GAMMA => gamma_positions(c, universe, count)?,
        CODEC_WORDS => words_positions(c, universe, count)?,
        other => return Err(WireError::protocol(format!("unknown rows codec {other}"))),
    };
    let rows = if complemented {
        // Strictly increasing and below the universe, so the gaps
        // between them are exactly the answer's `rows_n` rows.
        let mut rows = Vec::with_capacity(rows_n as usize);
        let mut next = 0;
        for p in stored {
            rows.extend(next..p);
            next = p + 1;
        }
        rows.extend(next..universe);
        rows
    } else {
        stored
    };
    let blocks_read = c.get_u64().map_err(|e| proto("blocks_read", e))?;
    let degraded = c.get_bool().map_err(|e| proto("degraded flag", e))?;
    Ok(RowsReply {
        rows,
        blocks_read,
        degraded,
    })
}

/// A gamma-coded stored set: `bit_len` and its words, decoded by the
/// fallible SWAR entry.
fn gamma_positions(
    c: &mut MetaCursor<'_>,
    universe: u64,
    count: u64,
) -> Result<Vec<u64>, WireError> {
    let bit_len = c
        .get_u64()
        .map_err(|e| WireError::protocol(format!("bit length: {e}")))?;
    let n = bit_len.div_ceil(64);
    // Every code is at least one bit.
    if n > (c.remaining() / 8) as u64 || count > bit_len {
        return Err(WireError::protocol(format!(
            "{count} codes in {bit_len} bits do not fit {} bytes",
            c.remaining()
        )));
    }
    let words = get_words(c, n as usize)?;
    if bit_len % 64 != 0 && words.last().is_some_and(|&w| w << (bit_len % 64) != 0) {
        return Err(WireError::protocol("set bits after the last code"));
    }
    let mut positions = Vec::new();
    psi_bits::try_decode_gaps(&words, bit_len, count, universe, &mut positions)
        .map_err(|e| WireError::protocol(format!("codes: {e}")))?;
    Ok(positions)
}

/// A words-form stored set: `base` and its span, read by bit scan.
fn words_positions(
    c: &mut MetaCursor<'_>,
    universe: u64,
    count: u64,
) -> Result<Vec<u64>, WireError> {
    let proto = |what: &str, e: psi_store::StoreError| WireError::protocol(format!("{what}: {e}"));
    let base = c.get_u64().map_err(|e| proto("span base", e))?;
    let n = c.get_len(8).map_err(|e| proto("span", e))?;
    let universe_words = universe.div_ceil(64);
    if !base.is_multiple_of(64) || base / 64 + n as u64 > universe_words {
        return Err(WireError::protocol(format!(
            "span of {n} words at {base} lies outside universe {universe}"
        )));
    }
    let words = get_words(c, n)?;
    let tail = universe % 64;
    if tail != 0
        && base / 64 + n as u64 == universe_words
        && words.last().is_some_and(|&w| w >> tail != 0)
    {
        return Err(WireError::protocol(format!(
            "span sets a position at or past universe {universe}"
        )));
    }
    let ones: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
    if ones != count {
        return Err(WireError::protocol(format!(
            "span holds {ones} positions, header says {count}"
        )));
    }
    let mut positions = Vec::with_capacity(count as usize);
    for (i, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            positions.push(base + 64 * i as u64 + u64::from(w.trailing_zeros()));
            w &= w - 1;
        }
    }
    Ok(positions)
}

/// Reads `n` code words; the caller has checked that the frame holds
/// them.
fn get_words(c: &mut MetaCursor<'_>, n: usize) -> Result<Vec<u64>, WireError> {
    (0..n)
        .map(|_| c.get_u64())
        .collect::<Result<_, _>>()
        .map_err(|e| WireError::protocol(format!("code words: {e}")))
}

// ----------------------------------------------------------------- stats

/// Encodes a metrics-snapshot request.
pub fn encode_stats_request(id: u64) -> Vec<u8> {
    let mut b = MetaBuf::new();
    b.put_u8(MSG_STATS);
    b.put_u64(id);
    b.into_bytes()
}

/// Decodes a metrics-snapshot request, returning its id.
pub fn decode_stats_request(payload: &[u8]) -> Result<u64, (u64, WireError)> {
    let mut c = MetaCursor::new(payload);
    let proto = |what: &str, e: psi_store::StoreError| WireError::protocol(format!("{what}: {e}"));
    let tag = c
        .get_u8()
        .map_err(|e| (UNKNOWN_ID, proto("stats tag", e)))?;
    if tag != MSG_STATS {
        return Err((
            UNKNOWN_ID,
            WireError::protocol(format!("unexpected message tag {tag:#04x}")),
        ));
    }
    let id = c
        .get_u64()
        .map_err(|e| (UNKNOWN_ID, proto("stats id", e)))?;
    if c.remaining() != 0 {
        return Err((
            id,
            WireError::protocol(format!(
                "{} trailing bytes after stats request",
                c.remaining()
            )),
        ));
    }
    Ok(id)
}

/// Value-kind tags inside a stats reply.
const VAL_COUNTER: u8 = 1;
const VAL_GAUGE: u8 = 2;
const VAL_HISTOGRAM: u8 = 3;
const VAL_LIST: u8 = 4;

/// Encodes a metrics-snapshot reply.
pub fn encode_stats_reply(id: u64, snap: &Snapshot) -> Vec<u8> {
    let mut b = MetaBuf::new();
    b.put_u8(MSG_STATS_REPLY);
    b.put_u64(id);
    b.put_len(snap.entries.len());
    for (name, value) in &snap.entries {
        b.put_str(name);
        match value {
            Value::Counter(v) => {
                b.put_u8(VAL_COUNTER);
                b.put_u64(*v);
            }
            Value::Gauge(v) => {
                b.put_u8(VAL_GAUGE);
                b.put_u64(*v as u64);
            }
            Value::Histogram(h) => {
                b.put_u8(VAL_HISTOGRAM);
                b.put_u64(h.count);
                b.put_u64(h.sum);
                b.put_len(h.buckets.len());
                for &(hi, n) in &h.buckets {
                    b.put_u64(hi);
                    b.put_u64(n);
                }
            }
            Value::List(xs) => {
                b.put_u8(VAL_LIST);
                b.put_vec_u64(xs);
            }
        }
    }
    b.into_bytes()
}

/// Decodes a metrics-snapshot reply into `(id, snapshot)`. The decoded
/// snapshot compares structurally equal ([`Snapshot`] is `PartialEq`) to
/// the one the server encoded — the wire round-trip test's contract.
pub fn decode_stats_reply(payload: &[u8]) -> Result<(u64, Snapshot), WireError> {
    let mut c = MetaCursor::new(payload);
    let proto = |what: &str, e: psi_store::StoreError| WireError::protocol(format!("{what}: {e}"));
    let tag = c.get_u8().map_err(|e| proto("stats reply tag", e))?;
    if tag != MSG_STATS_REPLY {
        return Err(WireError::protocol(format!(
            "unexpected response tag {tag:#04x}"
        )));
    }
    let id = c.get_u64().map_err(|e| proto("stats reply id", e))?;
    // Minimum encoded entry: 8 (name len) + 1 (kind) + 8 (payload word).
    let n = c.get_len(17).map_err(|e| proto("entry count", e))?;
    let mut snap = Snapshot::default();
    for i in 0..n {
        let what = format!("entry {i}");
        let name = c.get_str().map_err(|e| proto(&what, e))?;
        let kind = c.get_u8().map_err(|e| proto(&what, e))?;
        let value = match kind {
            VAL_COUNTER => Value::Counter(c.get_u64().map_err(|e| proto(&what, e))?),
            VAL_GAUGE => Value::Gauge(c.get_u64().map_err(|e| proto(&what, e))? as i64),
            VAL_HISTOGRAM => {
                let count = c.get_u64().map_err(|e| proto(&what, e))?;
                let sum = c.get_u64().map_err(|e| proto(&what, e))?;
                let m = c.get_len(16).map_err(|e| proto(&what, e))?;
                let mut buckets = Vec::with_capacity(m);
                for _ in 0..m {
                    let hi = c.get_u64().map_err(|e| proto(&what, e))?;
                    let cnt = c.get_u64().map_err(|e| proto(&what, e))?;
                    buckets.push((hi, cnt));
                }
                Value::Histogram(HistSnapshot {
                    count,
                    sum,
                    buckets,
                })
            }
            VAL_LIST => Value::List(c.get_vec_u64().map_err(|e| proto(&what, e))?),
            other => {
                return Err(WireError::protocol(format!(
                    "unknown stats value kind {other} in {what}"
                )))
            }
        };
        snap.set(&name, value);
    }
    if c.remaining() != 0 {
        return Err(WireError::protocol(format!(
            "{} trailing bytes after stats reply",
            c.remaining()
        )));
    }
    Ok((id, snap))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> ConjunctiveQuery {
        ConjunctiveQuery {
            conditions: vec![
                AttrCondition {
                    attr: "age".into(),
                    lo: 30,
                    hi: 35,
                    negated: false,
                },
                AttrCondition {
                    attr: "sex".into(),
                    lo: 1,
                    hi: 1,
                    negated: true,
                },
            ],
        }
    }

    #[test]
    fn request_roundtrip() {
        let q = query();
        let req = decode_request(&encode_request(77, &q)).expect("roundtrip");
        assert_eq!(req.id, 77);
        assert_eq!(req.query, q);
    }

    #[test]
    fn truncated_request_is_typed_with_recovered_id() {
        let full = encode_request(42, &query());
        for cut in 0..full.len() {
            match decode_request(&full[..cut]) {
                Ok(_) => assert_eq!(cut, full.len()),
                Err((id, e)) => {
                    assert_eq!(e.code, ErrorCode::Protocol, "cut at {cut}");
                    // Once tag + id are present the id must be recovered.
                    if cut >= 9 {
                        assert_eq!(id, 42, "cut at {cut}");
                    }
                }
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut full = encode_request(7, &query());
        full.push(0);
        let (id, e) = decode_request(&full).expect_err("trailing byte");
        assert_eq!(id, 7);
        assert_eq!(e.code, ErrorCode::Protocol);
    }

    fn outcome(rows: psi_api::RidSet, reads: u64, degraded: bool) -> QueryOutcome {
        let strategy = psi_query::CombineStrategy::Gallop;
        QueryOutcome {
            plan: psi_query::Plan {
                order: Vec::new(),
                estimates: Vec::new(),
                strategy,
            },
            io: psi_io::IoStats {
                reads,
                ..Default::default()
            },
            degraded: if degraded {
                vec!["a".into()]
            } else {
                Vec::new()
            },
            trace: psi_query::PlanTrace {
                strategy,
                conditions: Vec::new(),
                result_rows: rows.cardinality(),
                elapsed_ns: 0,
            },
            rows,
        }
    }

    /// One answer of every stored form a rows frame carries.
    fn answers() -> Vec<(&'static str, psi_api::RidSet)> {
        use psi_api::RidSet;
        use psi_bits::GapBitmap;
        let sparse: Vec<u64> = (0..300).map(|i| i * i + 7).collect();
        let dense: Vec<u64> = vec![0b1011_0110, u64::MAX, 0, 1 << 63];
        vec![
            (
                "gamma",
                RidSet::from_positions(GapBitmap::from_sorted(&sparse, 100_000)),
            ),
            (
                "words at a non-zero base",
                RidSet::from_positions(GapBitmap::from_plain_words(dense.clone(), 640, 1000)),
            ),
            (
                "complemented gamma",
                RidSet::from_complement(GapBitmap::from_sorted(&[0, 5, 999], 1000)),
            ),
            (
                "complemented words",
                RidSet::from_complement(GapBitmap::from_plain_words(dense, 704, 1000)),
            ),
            ("empty", RidSet::from_positions(GapBitmap::empty(1000))),
            (
                "complemented empty universe",
                RidSet::from_complement(GapBitmap::empty(0)),
            ),
            (
                "universe not a multiple of 64",
                RidSet::from_positions(GapBitmap::from_sorted(&[1, 62, 63, 64, 130], 131)),
            ),
        ]
    }

    #[test]
    fn rows_frames_roundtrip_every_stored_form() {
        for (i, (form, rows)) in answers().into_iter().enumerate() {
            let want = rows.to_vec();
            let o = outcome(rows, 3 + i as u64, i % 2 == 1);
            let resp = decode_response(&encode_rows(40 + i as u64, &o)).expect(form);
            assert_eq!(resp.id, 40 + i as u64, "{form}");
            assert_eq!(
                resp.body,
                Ok(RowsReply {
                    rows: want,
                    blocks_read: o.io.reads,
                    degraded: !o.degraded.is_empty(),
                }),
                "{form}"
            );
        }
    }

    #[test]
    fn a_rows_frame_carries_the_codes_not_the_rows() {
        let (_, rows) = answers().swap_remove(0);
        let o = outcome(rows, 0, false);
        assert_eq!(
            encode_rows(1, &o).len() as u64,
            ROWS_FIXED_BYTES as u64 + o.rows.size_bits().div_ceil(64) * 8
        );
        // The complement of three rows in a thousand is three codes.
        let (_, rows) = answers().swap_remove(2);
        assert!(encode_rows(1, &outcome(rows, 0, false)).len() < ROWS_FIXED_BYTES + 16);
    }

    #[test]
    fn the_retired_rows_tag_is_an_unexpected_tag() {
        let mut b = MetaBuf::new();
        b.put_u8(0x02);
        b.put_u64(1);
        b.put_vec_u64(&[1, 2, 3]);
        b.put_u64(0);
        b.put_bool(false);
        let e = decode_response(b.bytes()).expect_err("old rows frame");
        assert_eq!(e.code, ErrorCode::Protocol);
        assert!(
            e.message.contains("unexpected response tag"),
            "{}",
            e.message
        );
    }

    #[test]
    fn error_response_roundtrip() {
        let e = WireError::overloaded();
        let resp = decode_response(&encode_error(9, &e)).expect("decode");
        assert_eq!(resp.id, 9);
        assert_eq!(resp.body, Err(e));
    }

    #[test]
    fn every_error_code_roundtrips() {
        for code in 1..=10u8 {
            let c = ErrorCode::from_u8(code).expect("code");
            assert_eq!(c as u8, code);
            let resp = decode_response(&encode_error(
                1,
                &WireError {
                    code: c,
                    message: "m".into(),
                },
            ))
            .expect("decode");
            assert_eq!(resp.body.unwrap_err().code, c);
        }
        assert!(ErrorCode::from_u8(0).is_none());
        assert!(ErrorCode::from_u8(11).is_none());
    }

    #[test]
    fn stats_request_roundtrip_and_rejects_garbage() {
        assert_eq!(decode_stats_request(&encode_stats_request(5)), Ok(5));
        let mut full = encode_stats_request(5);
        full.push(0);
        let (id, e) = decode_stats_request(&full).expect_err("trailing byte");
        assert_eq!(id, 5);
        assert_eq!(e.code, ErrorCode::Protocol);
        let (_, e) = decode_stats_request(&encode_request(1, &query())).expect_err("wrong tag");
        assert_eq!(e.code, ErrorCode::Protocol);
    }

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.set("pool/hits", Value::Counter(321));
        snap.set("serve/queue_depth", Value::Gauge(-2));
        let h = psi_obs::Histogram::new();
        for v in [1u64, 900, 7, 1 << 40] {
            h.record(v);
        }
        snap.set("wal/fsync_ns", Value::Histogram(h.snapshot()));
        snap.set("quarantine/age", Value::List(vec![0, 17, 41]));
        snap.set(
            "serve/empty_hist",
            Value::Histogram(HistSnapshot::default()),
        );
        snap
    }

    #[test]
    fn stats_reply_roundtrips_every_value_kind() {
        let snap = sample_snapshot();
        let (id, got) = decode_stats_reply(&encode_stats_reply(88, &snap)).expect("decode");
        assert_eq!(id, 88);
        assert_eq!(got, snap, "decoded snapshot is structurally identical");
    }

    #[test]
    fn truncated_stats_reply_is_typed_never_panics() {
        let full = encode_stats_reply(3, &sample_snapshot());
        for cut in 0..full.len() {
            match decode_stats_reply(&full[..cut]) {
                Ok(_) => assert_eq!(cut, full.len()),
                Err(e) => assert_eq!(e.code, ErrorCode::Protocol, "cut at {cut}"),
            }
        }
        let mut trailing = full.clone();
        trailing.push(9);
        assert_eq!(
            decode_stats_reply(&trailing).expect_err("trailing").code,
            ErrorCode::Protocol
        );
    }

    #[test]
    fn stats_reply_rejects_unknown_value_kind() {
        let mut b = MetaBuf::new();
        b.put_u8(MSG_STATS_REPLY);
        b.put_u64(1);
        b.put_len(1);
        b.put_str("x");
        b.put_u8(200); // not a known kind
        b.put_u64(0);
        let e = decode_stats_reply(b.bytes()).expect_err("bad kind");
        assert_eq!(e.code, ErrorCode::Protocol);
        assert!(e.message.contains("kind 200"), "{}", e.message);
    }

    #[test]
    fn oversized_frame_is_reported_before_allocation() {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let got = read_frame_blocking(&mut buf.as_slice(), MAX_FRAME_BYTES).expect("read");
        assert!(matches!(got, FrameIn::TooLarge(len) if len == u32::MAX));
    }

    #[test]
    fn clean_eof_is_closed_mid_frame_eof_is_error() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame_blocking(&mut { empty }, MAX_FRAME_BYTES).expect("eof"),
            FrameIn::Closed
        ));
        let mut partial: Vec<u8> = Vec::new();
        partial.extend_from_slice(&8u32.to_le_bytes());
        partial.extend_from_slice(&[1, 2, 3]); // 3 of 8 payload bytes
        let err = read_frame_blocking(&mut partial.as_slice(), MAX_FRAME_BYTES)
            .expect_err("mid-frame eof");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
