//! Server soak suite (PR 8 satellite): open-loop clients against a live
//! server with injected transient read faults and overload bursts.
//!
//! The pinned contract:
//!
//! * **exactly one response per request** — rows, a typed error, or
//!   `Overloaded`; never zero, never two;
//! * **non-shed row responses are bit-identical** to a direct
//!   `execute_conjunctive` of the same query on an identical fault-free
//!   table;
//! * **typed errors only of the injected kinds** — `ReadTransient` from
//!   the `FaultyStore` schedule, `Overloaded` from admission control,
//!   `Protocol` only for deliberately malformed frames;
//! * **oversized answers are typed** — an answer over `MAX_REPLY_ROWS`
//!   is refused with `AnswerTooLarge`, and the connection stays usable;
//! * **clean shutdown** — `Server::shutdown` joins every thread and the
//!   final counters balance against what the clients saw.

use std::collections::HashMap;
use std::sync::Arc;

use psi_api::{naive_query, RidSet, SecondaryIndex, Symbol};
use psi_core::OptimalIndex;
use psi_io::{
    BufferPool, Disk, ExtentId, Fault, FaultyStore, IoConfig, IoSession, MemStore, StoredExtent,
};
use psi_query::{ConjunctiveQuery, IndexedColumn, IndexedTable, Predicate};
use psi_serve::wire::{ErrorCode, Response};
use psi_serve::{Client, ServeConfig, Server};
use psi_store::PersistIndex;
use rand::prelude::*;
use rand::rngs::StdRng;

const BLOCK_BITS: u64 = 512;
const N: usize = 6000;

fn column_data(seed: u64, sigma: u32) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N).map(|_| rng.gen_range(0..sigma)).collect()
}

/// Re-hosts a built index over a pool whose backing store injects
/// transient faults at the given global fetch ordinals.
fn rehost_faulty(built: &OptimalIndex, fault_ordinals: &[u64]) -> OptimalIndex {
    let mut meta = psi_store::MetaBuf::new();
    built.write_meta(&mut meta);
    let disks = PersistIndex::disks(built);
    let d = disks[0];
    let stored: Vec<StoredExtent> = (0..d.num_extents())
        .map(|i| StoredExtent {
            bit_len: d.extent_bits(ExtentId(i as u32)),
            freed: d.is_freed(ExtentId(i as u32)),
        })
        .collect();
    let mem = MemStore::from_disk(d);
    let faulty = FaultyStore::new(mem, fault_ordinals.iter().map(|&o| (o, Fault::Transient)));
    let pool = Arc::new(BufferPool::new(Arc::new(faulty), 2048, d.block_bits()));
    let disk = Disk::from_stored(*d.config(), &stored, pool);
    let mut cursor = psi_store::MetaCursor::new(meta.bytes());
    OptimalIndex::from_parts(&mut cursor, vec![disk]).expect("re-host")
}

/// (served table with transient faults on "a", identical fault-free
/// oracle table).
fn tables(fault_ordinals: &[u64]) -> (IndexedTable, IndexedTable) {
    let a = column_data(11, 16);
    let b = column_data(12, 8);
    let cfg = IoConfig::with_block_bits(BLOCK_BITS);
    let built_a = OptimalIndex::build(&a, 16, cfg);
    let mk = |index_a: OptimalIndex| {
        IndexedTable::from_columns(vec![
            IndexedColumn {
                name: "a".into(),
                sigma: 16,
                index: Box::new(index_a),
            },
            IndexedColumn {
                name: "b".into(),
                sigma: 8,
                index: Box::new(OptimalIndex::build(&b, 8, cfg)),
            },
        ])
    };
    let served = mk(rehost_faulty(&built_a, fault_ordinals));
    let oracle = mk(OptimalIndex::build(&a, 16, cfg));
    (served, oracle)
}

fn random_query(rng: &mut StdRng) -> ConjunctiveQuery {
    let (attr, sigma) = if rng.gen_bool(0.5) {
        ("a", 16u32)
    } else {
        ("b", 8u32)
    };
    let lo = rng.gen_range(0..sigma);
    let hi = (lo + rng.gen_range(0..4u32)).min(sigma - 1);
    let pred = if rng.gen_bool(0.3) {
        Predicate::and([
            Predicate::range(attr, lo, hi),
            Predicate::point(if attr == "a" { "b" } else { "a" }, rng.gen_range(0..4)),
        ])
    } else {
        Predicate::range(attr, lo, hi)
    };
    pred.normalize().expect("normalize")
}

/// Drives `count` pipelined requests through `client` and returns the
/// responses by id, asserting exactly one response per request.
fn drive(
    client: &mut Client,
    queries: &[(u64, ConjunctiveQuery)],
    window: usize,
) -> HashMap<u64, Response> {
    let mut got: HashMap<u64, Response> = HashMap::new();
    let mut sent = 0;
    while got.len() < queries.len() {
        while sent < queries.len() && sent - got.len() < window {
            let (id, q) = &queries[sent];
            client.send(*id, q).expect("send");
            sent += 1;
        }
        let resp = client
            .recv()
            .expect("recv")
            .expect("server closed with responses outstanding");
        let prev = got.insert(resp.id, resp);
        assert!(prev.is_none(), "duplicate response for one request");
    }
    got
}

#[test]
fn soak_transient_faults_every_request_answered_exactly_once() {
    // Transient faults sprinkled over the first ~3000 pooled fetches.
    let ordinals: Vec<u64> = (0..3000u64).filter(|o| o % 41 == 5).collect();
    let (served, oracle) = tables(&ordinals);
    let server = Server::serve(
        Arc::new(served),
        ServeConfig {
            batch_window: 8,
            ..ServeConfig::default()
        },
    )
    .expect("serve");
    let addr = server.addr().expect("tcp addr");

    let mut rng = StdRng::seed_from_u64(99);
    let queries: Vec<(u64, ConjunctiveQuery)> =
        (0..400u64).map(|id| (id, random_query(&mut rng))).collect();
    let mut client = Client::connect(addr).expect("connect");
    let got = drive(&mut client, &queries, 16);
    drop(client);

    let mut rows_ok = 0usize;
    let mut transient = 0usize;
    for (id, q) in &queries {
        let resp = &got[id];
        match &resp.body {
            Ok(reply) => {
                let want = oracle.execute_conjunctive(q).expect("oracle");
                assert_eq!(
                    reply.rows,
                    want.rows.to_vec(),
                    "request {id}: rows must be bit-identical to direct execution"
                );
                rows_ok += 1;
            }
            Err(e) => {
                assert_eq!(
                    e.code,
                    ErrorCode::ReadTransient,
                    "request {id}: only injected transient faults may fail, got {e}"
                );
                transient += 1;
            }
        }
    }
    assert!(rows_ok > 0, "no request succeeded");
    assert!(
        transient > 0,
        "fault schedule never fired — weaken the soak"
    );

    let stats = server.shutdown();
    assert_eq!(stats.admitted, queries.len() as u64);
    assert_eq!(stats.served_rows, rows_ok as u64);
    assert_eq!(stats.served_errors, transient as u64);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.protocol_errors, 0);
}

/// An index whose queries take a while — forces queue build-up so
/// admission control actually sheds under a burst.
struct SlowScan {
    data: Vec<Symbol>,
    sigma: u32,
}

impl SecondaryIndex for SlowScan {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }
    fn sigma(&self) -> Symbol {
        self.sigma
    }
    fn space_bits(&self) -> u64 {
        0
    }
    fn try_query(
        &self,
        lo: Symbol,
        hi: Symbol,
        _io: &IoSession,
    ) -> Result<RidSet, psi_io::ReadError> {
        std::thread::sleep(std::time::Duration::from_millis(3));
        Ok(naive_query(&self.data, lo, hi))
    }
}

#[test]
fn soak_overload_burst_sheds_typed_and_stays_fair() {
    let data: Vec<u32> = (0..1000u32).map(|i| i % 5).collect();
    let table = IndexedTable::from_columns(vec![IndexedColumn {
        name: "v".into(),
        sigma: 5,
        index: Box::new(SlowScan {
            data: data.clone(),
            sigma: 5,
        }),
    }]);
    let server = Server::serve(
        Arc::new(table),
        ServeConfig {
            batch_window: 2,
            max_inflight: 4,
            max_inflight_per_conn: 2,
            ..ServeConfig::default()
        },
    )
    .expect("serve");
    let addr = server.addr().expect("tcp addr");
    let q = Predicate::point("v", 3).normalize().expect("normalize");
    let want = naive_query(&data, 3, 3).to_vec();

    // Hot client: floods 60 pipelined requests, far over its 2-slot
    // budget. Polite client: sequential one-at-a-time calls on another
    // connection, concurrently.
    let polite = std::thread::spawn({
        let q = q.clone();
        let want = want.clone();
        move || {
            let mut c = Client::connect(addr).expect("connect polite");
            for id in 0..12u64 {
                let resp = c.call(id, &q).expect("call");
                assert_eq!(resp.id, id);
                let reply = resp.body.unwrap_or_else(|e| {
                    panic!("a sequential client must never be shed by a hot peer: {e}")
                });
                assert_eq!(reply.rows, want);
            }
        }
    });

    let mut hot = Client::connect(addr).expect("connect hot");
    const BURST: u64 = 60;
    for id in 0..BURST {
        hot.send(id, &q).expect("send");
    }
    let mut answered: HashMap<u64, Response> = HashMap::new();
    while answered.len() < BURST as usize {
        let resp = hot.recv().expect("recv").expect("server closed mid-burst");
        assert!(
            answered.insert(resp.id, resp).is_none(),
            "duplicate response"
        );
    }
    let mut ok = 0usize;
    let mut shed = 0usize;
    for (id, resp) in &answered {
        match &resp.body {
            Ok(reply) => {
                assert_eq!(&reply.rows, &want, "request {id}");
                ok += 1;
            }
            Err(e) => {
                assert_eq!(e.code, ErrorCode::Overloaded, "request {id}: {e}");
                shed += 1;
            }
        }
    }
    assert_eq!(ok + shed, BURST as usize);
    assert!(shed > 0, "burst never overflowed the 2-slot budget");
    assert!(ok > 0, "admission must not shed everything");
    polite.join().expect("polite client");
    drop(hot);

    let stats = server.shutdown();
    assert_eq!(stats.shed, shed as u64);
    assert_eq!(stats.admitted, ok as u64 + 12);
    assert_eq!(stats.served_rows, ok as u64 + 12);
    assert_eq!(stats.served_errors, 0);
}

#[test]
fn an_answer_over_the_reply_cap_is_a_typed_error() {
    use psi_serve::wire::MAX_REPLY_ROWS;
    // One row more than a client expands from one frame. The empty
    // conjunction matches every row without reading the index.
    let n = MAX_REPLY_ROWS as usize + 1;
    let data: Vec<u32> = (0..n).map(|i| u32::from(i % 100_000 == 7)).collect();
    let table = IndexedTable::from_columns(vec![IndexedColumn {
        name: "v".into(),
        sigma: 2,
        index: Box::new(SlowScan {
            data: data.clone(),
            sigma: 2,
        }),
    }]);
    let server = Server::serve(Arc::new(table), ServeConfig::default()).expect("serve");
    let mut client = Client::connect(server.addr().expect("tcp addr")).expect("connect");
    let all = ConjunctiveQuery {
        conditions: Vec::new(),
    };
    let err = client
        .call(1, &all)
        .expect("a typed reply, not an unreadable frame")
        .body
        .expect_err("answer over the cap");
    assert_eq!(err.code, ErrorCode::AnswerTooLarge);
    for figure in [n as u64, MAX_REPLY_ROWS] {
        assert!(
            err.message.contains(&figure.to_string()),
            "{figure} missing from {:?}",
            err.message
        );
    }
    // The connection stays usable.
    let q = Predicate::point("v", 1).normalize().expect("normalize");
    let reply = client.call(2, &q).expect("call").body.expect("rows");
    assert_eq!(reply.rows, naive_query(&data, 1, 1).to_vec());
    drop(client);
    let stats = server.shutdown();
    assert_eq!((stats.served_errors, stats.served_rows), (1, 1));
}

#[test]
fn soak_unix_socket_transport() {
    let (served, oracle) = tables(&[]);
    let dir = std::env::temp_dir().join(format!("psi_serve_soak_{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("sock");
    let server =
        Server::serve_unix(Arc::new(served), ServeConfig::default(), &path).expect("serve unix");

    let mut rng = StdRng::seed_from_u64(7);
    let queries: Vec<(u64, ConjunctiveQuery)> =
        (0..60u64).map(|id| (id, random_query(&mut rng))).collect();
    let mut client = Client::connect_unix(&path).expect("connect unix");
    let got = drive(&mut client, &queries, 8);
    for (id, q) in &queries {
        let reply = got[id].body.as_ref().expect("fault-free serving");
        let want = oracle.execute_conjunctive(q).expect("oracle");
        assert_eq!(reply.rows, want.rows.to_vec(), "request {id}");
    }
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.admitted, queries.len() as u64);
    assert!(!path.exists(), "socket file swept on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn complemented_answers_cross_the_wire_as_their_complement() {
    let (served, oracle) = tables(&[]);
    let server = Server::serve(Arc::new(served), ServeConfig::default()).expect("serve");
    let mut client = Client::connect(server.addr().expect("tcp addr")).expect("connect");
    // A range over most of `a`'s rows, which the index answers with the
    // complement of the rest; the same range negated; and the empty
    // conjunction, every row as the complement of none.
    let wide = Predicate::range("a", 0, 12).normalize().expect("normalize");
    let mut narrow = wide.clone();
    narrow.conditions[0].negated = true;
    let all = ConjunctiveQuery {
        conditions: Vec::new(),
    };
    for (id, q) in [(1, &wide), (2, &narrow), (3, &all)] {
        let want = oracle.execute_conjunctive(q).expect("oracle").rows;
        if id != 2 {
            assert!(
                want.is_complemented(),
                "query {id} is not answered complemented"
            );
        }
        let reply = client.call(id, q).expect("call").body.expect("rows");
        assert_eq!(reply.rows, want.to_vec(), "query {id}");
    }
    drop(client);
    server.shutdown();
}

#[test]
fn soak_malformed_frames_get_typed_errors_not_panics() {
    let (served, _) = tables(&[]);
    let server = Server::serve(Arc::new(served), ServeConfig::default()).expect("serve");
    let addr = server.addr().expect("tcp addr");

    // A frame whose body is truncated mid-condition: the id survives, the
    // connection stays usable.
    {
        use std::io::Write;
        let q = Predicate::point("a", 1).normalize().expect("normalize");
        let mut full = psi_serve::wire::encode_request(5, &q);
        full.truncate(full.len() - 3);
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        raw.write_all(&(full.len() as u32).to_le_bytes())
            .expect("len");
        raw.write_all(&full).expect("body");
        let mut reader = raw.try_clone().expect("clone");
        let resp = read_one(&mut reader);
        assert_eq!(resp.id, 5);
        assert_eq!(resp.body.unwrap_err().code, ErrorCode::Protocol);
        // Same connection, now a valid request: still served.
        let frame = psi_serve::wire::encode_request(6, &q);
        raw.write_all(&(frame.len() as u32).to_le_bytes())
            .expect("len");
        raw.write_all(&frame).expect("body");
        let resp = read_one(&mut reader);
        assert_eq!(resp.id, 6);
        assert!(resp.body.is_ok());
    }

    // A frame that cannot even yield an id: answered with UNKNOWN_ID and
    // the connection closed — but the server survives for new clients.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        raw.write_all(&2u32.to_le_bytes()).expect("len");
        raw.write_all(&[0xFF, 0xFF]).expect("garbage");
        let mut reader = raw.try_clone().expect("clone");
        let resp = read_one(&mut reader);
        assert_eq!(resp.id, psi_serve::wire::UNKNOWN_ID);
        assert_eq!(resp.body.unwrap_err().code, ErrorCode::Protocol);
    }
    let q = Predicate::point("b", 2).normalize().expect("normalize");
    let mut fresh = Client::connect(addr).expect("connect after garbage");
    let resp = fresh.call(1, &q).expect("call");
    assert!(resp.body.is_ok(), "server must outlive malformed peers");
    drop(fresh);
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 2);
}

fn read_one(r: &mut std::net::TcpStream) -> Response {
    use psi_serve::wire::{decode_response, read_frame_blocking, FrameIn, MAX_FRAME_BYTES};
    match read_frame_blocking(r, MAX_FRAME_BYTES).expect("frame") {
        FrameIn::Payload(p) => decode_response(&p).expect("decode"),
        other => panic!("expected payload, got {other:?}"),
    }
}
