//! The wire fuzz gate: malformed frames are typed errors, never panics.
//!
//! One frame of every kind the protocol carries — a request, a STATS
//! request, a rows frame of each stored form (gamma, words at a non-zero
//! base, complemented, empty, and a universe that is not a multiple of
//! 64), an error frame and a STATS reply — is decoded at every
//! truncation and with every single-bit and whole-byte flip at every
//! offset. Each decode must return a value or a typed `Protocol` error;
//! a panic hook counts any panic. Hand-built hostile rows headers must
//! be refused before the decoder allocates anything of the size they
//! claim: a counting allocator records the largest single allocation.
//!
//! The binary holds this one test, because the hook and the allocator
//! are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use psi_api::RidSet;
use psi_bits::{codes, BitBuf, GapBitmap};
use psi_obs::{HistSnapshot, Snapshot, Value};
use psi_query::{AttrCondition, CombineStrategy, ConjunctiveQuery, Plan, PlanTrace, QueryOutcome};
use psi_serve::wire::{
    decode_request, decode_response, decode_stats_reply, decode_stats_request, encode_error,
    encode_request, encode_rows, encode_stats_reply, encode_stats_request, ErrorCode, WireError,
    MAX_REPLY_ROWS, MSG_ROWS,
};
use psi_store::MetaBuf;

/// Largest single allocation (or reallocation) since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract is the system allocator's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn outcome(rows: RidSet, reads: u64) -> QueryOutcome {
    let strategy = CombineStrategy::Gallop;
    QueryOutcome {
        plan: Plan {
            order: Vec::new(),
            estimates: Vec::new(),
            strategy,
        },
        io: psi_io::IoStats {
            reads,
            ..Default::default()
        },
        degraded: Vec::new(),
        trace: PlanTrace {
            strategy,
            conditions: Vec::new(),
            result_rows: rows.cardinality(),
            elapsed_ns: 0,
        },
        rows,
    }
}

/// A rows frame of every stored form.
fn rows_frames() -> Vec<(&'static str, Vec<u8>)> {
    let gaps: Vec<u64> = (0..40u64).map(|i| i * i + (i % 5) * 1000).collect();
    let mut sparse = Vec::new();
    let mut p = 0;
    for g in gaps {
        p += g + 1;
        sparse.push(p);
    }
    let forms = [
        (
            "rows/gamma",
            RidSet::from_positions(GapBitmap::from_sorted(&sparse, p + 1)),
        ),
        (
            "rows/words",
            RidSet::from_positions(GapBitmap::from_plain_words(
                vec![0x8000_0000_0000_0001, 0, u64::MAX, 0xF0F0],
                256,
                600,
            )),
        ),
        (
            "rows/complemented",
            RidSet::from_complement(GapBitmap::from_sorted(&[3, 64, 65, 900], 1000)),
        ),
        ("rows/empty", RidSet::from_positions(GapBitmap::empty(500))),
        (
            "rows/ragged universe",
            RidSet::from_complement(GapBitmap::from_plain_words(vec![0b1011, 1 << 5], 64, 141)),
        ),
    ];
    forms
        .into_iter()
        .enumerate()
        .map(|(i, (name, rows))| (name, encode_rows(i as u64, &outcome(rows, 7))))
        .collect()
}

fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    snap.set("serve/admitted", Value::Counter(12));
    snap.set("serve/queue_depth", Value::Gauge(-1));
    snap.set(
        "serve/encode_ns",
        Value::Histogram(HistSnapshot {
            count: 3,
            sum: 700,
            buckets: vec![(255, 2), (511, 1)],
        }),
    );
    snap.set("quarantine/a", Value::List(vec![2, 9]));
    snap
}

/// Which decoder a frame goes through; `Ok(true)` a value, `Ok(false)`
/// a typed `Protocol` error, `Err` anything else.
type Decoder = fn(&[u8]) -> Result<bool, String>;

fn protocol(e: &WireError) -> Result<bool, String> {
    if e.code == ErrorCode::Protocol {
        Ok(false)
    } else {
        Err(format!("error of code {:?}: {}", e.code, e.message))
    }
}

fn as_request(b: &[u8]) -> Result<bool, String> {
    decode_request(b).map_or_else(|(_, e)| protocol(&e), |_| Ok(true))
}

fn as_stats_request(b: &[u8]) -> Result<bool, String> {
    decode_stats_request(b).map_or_else(|(_, e)| protocol(&e), |_| Ok(true))
}

fn as_response(b: &[u8]) -> Result<bool, String> {
    match decode_response(b) {
        Err(e) => protocol(&e),
        // A decoded answer is still a set: ascending, within the cap.
        Ok(r) => match r.body {
            Ok(rows) if !rows.rows.windows(2).all(|w| w[0] < w[1]) => {
                Err("rows out of order".into())
            }
            Ok(rows) if rows.rows.len() as u64 > MAX_REPLY_ROWS => Err("rows past the cap".into()),
            _ => Ok(true),
        },
    }
}

fn as_stats_reply(b: &[u8]) -> Result<bool, String> {
    decode_stats_reply(b).map_or_else(|e| protocol(&e), |_| Ok(true))
}

/// A rows frame assembled field by field.
struct Hostile {
    universe: u64,
    count: u64,
    complemented: bool,
    codec: u8,
    /// `bit_len` for gamma, `base` for words.
    head: u64,
    words: Vec<u64>,
}

impl Hostile {
    fn frame(&self) -> Vec<u8> {
        let mut b = MetaBuf::new();
        b.put_u8(MSG_ROWS);
        b.put_u64(1);
        b.put_u64(self.universe);
        b.put_u64(self.count);
        b.put_bool(self.complemented);
        b.put_u8(self.codec);
        b.put_u64(self.head);
        if self.codec == 1 {
            b.put_vec_u64(&self.words);
        } else {
            for &w in &self.words {
                b.put_u64(w);
            }
        }
        b.put_u64(0);
        b.put_bool(false);
        b.into_bytes()
    }
}

/// Gamma code words for `gaps` (the first is `p₀ + 1`).
fn gamma(gaps: &[u64]) -> (u64, Vec<u64>) {
    let mut bits = BitBuf::new();
    for &g in gaps {
        codes::put_gamma(&mut bits, g);
    }
    (bits.len(), bits.into_words())
}

fn hostile_headers() -> Vec<(&'static str, Hostile)> {
    let (three_len, three) = gamma(&[1, 4, 9]);
    let (wrap_len, wrap) = gamma(&[6, u64::MAX - 2]);
    vec![
        (
            "count above universe",
            Hostile {
                universe: 1000,
                count: 1 << 30,
                complemented: false,
                codec: 0,
                head: three_len,
                words: three.clone(),
            },
        ),
        (
            "count disagreeing with the gamma codes",
            Hostile {
                universe: 1 << 20,
                count: 1 << 19,
                complemented: false,
                codec: 0,
                head: three_len,
                words: three.clone(),
            },
        ),
        (
            "count disagreeing with the span's bits",
            Hostile {
                universe: 1 << 20,
                count: 1 << 19,
                complemented: false,
                codec: 1,
                head: 0,
                words: vec![u64::MAX],
            },
        ),
        (
            "a span past the universe",
            Hostile {
                universe: 1000,
                count: 64,
                complemented: false,
                codec: 1,
                head: 1 << 40,
                words: vec![u64::MAX],
            },
        ),
        (
            "trailing code bits",
            Hostile {
                universe: 1000,
                count: 2,
                complemented: false,
                codec: 0,
                head: three_len,
                words: three,
            },
        ),
        (
            "a wrapping running sum",
            Hostile {
                universe: 1 << 20,
                count: 2,
                complemented: true,
                codec: 0,
                head: wrap_len,
                words: wrap,
            },
        ),
        (
            "a complemented answer over a 2^40 universe",
            Hostile {
                universe: 1 << 40,
                count: 0,
                complemented: true,
                codec: 0,
                head: 0,
                words: Vec::new(),
            },
        ),
    ]
}

#[test]
fn malformed_frames_are_typed_errors_never_panics() {
    let query = ConjunctiveQuery {
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
    };
    let mut frames: Vec<(&str, Vec<u8>, Decoder)> = vec![
        ("request", encode_request(42, &query), as_request),
        ("stats request", encode_stats_request(5), as_stats_request),
        (
            "error",
            encode_error(
                9,
                &WireError {
                    code: ErrorCode::ReadTransient,
                    message: "flaky".into(),
                },
            ),
            as_response,
        ),
        (
            "stats reply",
            encode_stats_reply(3, &snapshot()),
            as_stats_reply,
        ),
    ];
    for (name, frame) in rows_frames() {
        frames.push((name, frame, as_response));
    }

    // Warm up whatever is set up on first use before the hook goes in.
    for (name, frame, decode) in &frames {
        assert_eq!(decode(frame), Ok(true), "{name} must decode whole");
    }

    let panics = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&panics);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |_| {
        counted.fetch_add(1, Ordering::SeqCst);
    }));
    let mut failures = Vec::new();
    let mut run =
        |what: String, bytes: &[u8], decode: Decoder, whole_is_error: bool| match catch_unwind(
            AssertUnwindSafe(|| decode(bytes)),
        ) {
            Err(_) => failures.push(format!("{what}: panicked")),
            Ok(Err(e)) => failures.push(format!("{what}: {e}")),
            Ok(Ok(true)) if whole_is_error => failures.push(format!("{what}: decoded")),
            Ok(_) => {}
        };
    for (name, frame, decode) in &frames {
        for cut in 0..frame.len() {
            run(format!("{name} cut at {cut}"), &frame[..cut], *decode, true);
        }
        let mut trailing = frame.clone();
        trailing.push(0);
        run(
            format!("{name} with a trailing byte"),
            &trailing,
            *decode,
            true,
        );
        for at in 0..frame.len() {
            for mask in (0..8).map(|b| 1u8 << b).chain([0xFF]) {
                let mut flipped = frame.clone();
                flipped[at] ^= mask;
                run(
                    format!("{name} ^ {mask:#04x} at {at}"),
                    &flipped,
                    *decode,
                    false,
                );
            }
        }
    }

    // Hostile headers: each refused, with no allocation near its claim.
    for (name, h) in hostile_headers() {
        let frame = h.frame();
        LARGEST.store(0, Ordering::SeqCst);
        let got = catch_unwind(AssertUnwindSafe(|| decode_response(&frame)));
        let largest = LARGEST.load(Ordering::SeqCst);
        match got {
            Err(_) => failures.push(format!("{name}: panicked")),
            Ok(Ok(r)) => failures.push(format!(
                "{name}: decoded, {:?} rows",
                r.body.map(|b| b.rows.len())
            )),
            Ok(Err(e)) if e.code != ErrorCode::Protocol => failures.push(format!("{name}: {e}")),
            Ok(Err(_)) if largest > 4096 => {
                failures.push(format!("{name}: allocated {largest} bytes"))
            }
            Ok(Err(_)) => {}
        }
    }
    std::panic::set_hook(previous);

    assert_eq!(
        panics.load(Ordering::SeqCst),
        0,
        "a malformed frame panicked the decoder: {failures:?}"
    );
    assert!(failures.is_empty(), "{failures:#?}");
}
