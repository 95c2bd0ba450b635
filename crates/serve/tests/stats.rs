//! Live-stats suite (PR 9): the `STATS` wire op against a running
//! server.
//!
//! The pinned contract:
//!
//! * **exactness** — a quiesced server's wire-decoded snapshot is
//!   structurally identical (`Snapshot: PartialEq`) to the snapshot the
//!   server assembles locally, and its `serve/*` counters equal
//!   [`Server::stats`] field for field, with one `serve/encode_ns` and
//!   one `serve/write_ns` sample per response;
//! * **shed causes split** — `shed == shed_global + shed_conn`, and the
//!   per-connection totals account every shed and served response;
//! * **slow-query ring** — with a zero threshold every served request
//!   lands in the ring with its full plan trace;
//! * **quarantine visibility** — quarantined extents appear as
//!   `quarantine/<attr>` list entries in the live snapshot;
//! * **splice visibility** — a position-disjoint cover is spliced, and
//!   the splice shows live as `kernel/merge_concat`;
//! * **word-arm visibility** — an intersection of two dense results
//!   decodes one into a word bitset, and shows live as
//!   `kernel/intersect_words`;
//! * **directory-build visibility** — a lifted slot's skip directory is
//!   built on first use, and shows live as `kernel/skip_build`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use psi_api::{naive_query, RidSet, SecondaryIndex, Symbol};
use psi_core::OptimalIndex;
use psi_io::{IoConfig, IoSession};
use psi_query::{IndexedColumn, IndexedTable, Predicate};
use psi_serve::wire::ErrorCode;
use psi_serve::{Client, ServeConfig, Server};

fn table() -> IndexedTable {
    let cfg = IoConfig::with_block_bits(512);
    let a: Vec<u32> = (0..4000u32).map(|i| i % 16).collect();
    let b: Vec<u32> = (0..4000u32).map(|i| (i * 7) % 8).collect();
    IndexedTable::from_columns(vec![
        IndexedColumn {
            name: "a".into(),
            sigma: 16,
            index: Box::new(OptimalIndex::build(&a, 16, cfg)),
        },
        IndexedColumn {
            name: "b".into(),
            sigma: 8,
            index: Box::new(OptimalIndex::build(&b, 8, cfg)),
        },
    ])
}

/// Polls until `cond` holds (the batcher's post-response bookkeeping
/// runs after the client already saw the response bytes).
fn quiesce(mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "server did not quiesce");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn stats_reply_matches_the_servers_own_counters_exactly() {
    let table = Arc::new(table());
    table.quarantine_extent("b", 3).expect("quarantine");
    table.quarantine_extent("b", 1).expect("quarantine");
    let server = Server::serve(Arc::clone(&table), ServeConfig::default()).expect("serve");
    let addr = server.addr().expect("tcp addr");

    let mut client = Client::connect(addr).expect("connect");
    let mut rows_total = 0u64;
    for id in 0..40u64 {
        let q = Predicate::range("a", (id % 14) as u32, (id % 14) as u32 + 2)
            .normalize()
            .expect("normalize");
        let resp = client.call(id, &q).expect("call");
        rows_total += resp.body.expect("rows").rows.len() as u64;
    }
    assert!(rows_total > 0);
    quiesce(|| {
        server.stats().served_rows == 40
            && server
                .conn_stats()
                .iter()
                .map(|(_, c)| c.served)
                .sum::<u64>()
                == 40
    });

    let over_wire = client.stats(777).expect("stats");
    let local = server.snapshot();
    // Global-registry entries (pool/*, query/*, …) are shared with the
    // sibling tests of this binary and may move between the two
    // snapshots; the server-local sections are quiesced and must agree
    // entry for entry.
    let own = |snap: &psi_obs::Snapshot| {
        snap.entries
            .iter()
            .filter(|(n, _)| n.starts_with("serve/") || n.starts_with("quarantine/"))
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(
        own(&over_wire),
        own(&local),
        "wire-decoded snapshot must be structurally identical to the server's own"
    );

    // And the injected serve/* entries equal the typed counters.
    let s = server.stats();
    assert_eq!(over_wire.counter("serve/admitted"), Some(s.admitted));
    assert_eq!(over_wire.counter("serve/served_rows"), Some(s.served_rows));
    assert_eq!(
        over_wire.counter("serve/served_errors"),
        Some(s.served_errors)
    );
    assert_eq!(over_wire.counter("serve/shed"), Some(0));
    assert_eq!(over_wire.counter("serve/batches"), Some(s.batches));
    assert_eq!(over_wire.counter("serve/max_batch"), Some(s.max_batch));
    assert_eq!(over_wire.gauge("serve/queue_depth"), Some(0));
    let lat = over_wire
        .histogram("serve/request_ns")
        .expect("latency histogram");
    assert_eq!(lat.count, 40, "one latency sample per served request");
    for stage in ["serve/encode_ns", "serve/write_ns"] {
        let h = over_wire.histogram(stage).expect("stage histogram");
        assert_eq!(h.count, 40, "one {stage} sample per served response");
    }
    assert_eq!(over_wire.counter("serve/conn/1/served"), Some(40));
    // The quarantine planted above is visible live, ascending.
    assert_eq!(over_wire.list("quarantine/b"), Some(&[1u64, 3][..]));
    // Lower layers flow through the same snapshot (the planner recorded
    // every query this server executed into the global registry).
    assert!(over_wire.counter("query/executed").unwrap_or(0) >= 40);
    assert!(over_wire
        .histogram("query/latency_ns")
        .is_some_and(|h| h.count >= 40));
    // Every kernel-path counter ships in the reply, and at least one
    // decode kernel actually ran while serving the 40 queries above.
    let mut decodes = 0u64;
    for (name, _) in psi_bits::kernel::snapshot() {
        let v = over_wire.counter(name);
        assert!(v.is_some(), "{name} missing from the STATS reply");
        if name.starts_with("kernel/decode_") {
            decodes += v.unwrap();
        }
    }
    assert!(decodes > 0, "no decode kernel recorded any work");
    // The rendering mentions every section an operator would look for.
    let text = over_wire.render();
    for needle in ["serve/request_ns", "quarantine/b", "query/latency_ns"] {
        assert!(text.contains(needle), "{needle} missing from:\n{text}");
    }

    drop(client);
    server.shutdown();
}

#[test]
fn position_disjoint_covers_are_spliced_and_counted_live() {
    // A clustered column: each value fills one contiguous run of 500
    // rows, one leaf each, so a multi-value range is a position-disjoint
    // cover.
    let c: Vec<u32> = (0..4000u32).map(|i| i / 500).collect();
    let table = IndexedTable::from_columns(vec![IndexedColumn {
        name: "c".into(),
        sigma: 8,
        index: Box::new(OptimalIndex::build(&c, 8, IoConfig::with_block_bits(512))),
    }]);
    let server = Server::serve(Arc::new(table), ServeConfig::default()).expect("serve");
    let mut client = Client::connect(server.addr().expect("tcp addr")).expect("connect");
    let spliced = |client: &mut Client, id| {
        client
            .stats(id)
            .expect("stats")
            .counter("kernel/merge_concat")
            .expect("kernel/merge_concat missing from the STATS reply")
    };
    // Sibling tests share the process-wide kernel counters, so only the
    // increase is pinned.
    let before = spliced(&mut client, 1);
    let q = Predicate::range("c", 2, 4).normalize().expect("normalize");
    let rows = client.call(2, &q).expect("call").body.expect("rows").rows;
    assert_eq!(rows, (1000..2500).collect::<Vec<u64>>());
    assert!(
        spliced(&mut client, 3) > before,
        "the cover was not spliced"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn dense_intersections_take_the_word_arm_and_are_counted_live() {
    let server = Server::serve(Arc::new(table()), ServeConfig::default()).expect("serve");
    let mut client = Client::connect(server.addr().expect("tcp addr")).expect("connect");
    let word_runs = |client: &mut Client, id| {
        client
            .stats(id)
            .expect("stats")
            .counter("kernel/intersect_words")
            .expect("kernel/intersect_words missing from the STATS reply")
    };
    // Sibling tests share the process-wide kernel counters, so only the
    // increase is pinned.
    let before = word_runs(&mut client, 1);
    // 1500 and 2000 of 4000 rows: each operand is dense, and galloping
    // one with the other would probe every sample block.
    let q = Predicate::and([Predicate::range("a", 0, 5), Predicate::range("b", 0, 3)])
        .normalize()
        .expect("normalize");
    let rows = client.call(2, &q).expect("call").body.expect("rows").rows;
    let want: Vec<u64> = (0..4000u64)
        .filter(|i| i % 16 <= 5 && (i * 7) % 8 <= 3)
        .collect();
    assert_eq!(rows, want);
    assert!(
        word_runs(&mut client, 3) > before,
        "the dense intersection did not take the word arm"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn words_slots_lift_as_a_copy_and_are_counted_live() {
    // 8^4 rows, each value filling one child of the root: value 1 holds
    // every other row of the first 1024, so its leaf is smaller as plain
    // words (2 bits per element) than as gamma codes (3).
    let w: Vec<u32> = (0..4096u32)
        .map(|i| if i < 1024 { i % 2 } else { 2 + (i - 1024) % 6 })
        .collect();
    let table = IndexedTable::from_columns(vec![IndexedColumn {
        name: "w".into(),
        sigma: 8,
        index: Box::new(OptimalIndex::build(&w, 8, IoConfig::with_block_bits(512))),
    }]);
    let server = Server::serve(Arc::new(table), ServeConfig::default()).expect("serve");
    let mut client = Client::connect(server.addr().expect("tcp addr")).expect("connect");
    let lifts = |client: &mut Client, id| {
        client
            .stats(id)
            .expect("stats")
            .counter("kernel/lift_words")
            .expect("kernel/lift_words missing from the STATS reply")
    };
    // Sibling tests share the process-wide kernel counters, so only the
    // increase is pinned.
    let before = lifts(&mut client, 1);
    let q = Predicate::point("w", 1).normalize().expect("normalize");
    let rows = client.call(2, &q).expect("call").body.expect("rows").rows;
    assert_eq!(rows, (0..512u64).map(|i| 2 * i + 1).collect::<Vec<_>>());
    assert!(
        lifts(&mut client, 3) > before,
        "the words slot was not lifted as words"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn lifted_directories_build_on_first_use_and_are_counted_live() {
    // 8192 rows over 128 values: a point condition lifts one sparse slot
    // as its gamma codes, with no directory, and intersecting two of them
    // gallops, which builds a directory on first use.
    let cfg = IoConfig::with_block_bits(512);
    let x: Vec<u32> = (0..8192u32).map(|i| i % 128).collect();
    let y: Vec<u32> = (0..8192u32).map(|i| (i / 3) % 128).collect();
    let table = IndexedTable::from_columns(vec![
        IndexedColumn {
            name: "x".into(),
            sigma: 128,
            index: Box::new(OptimalIndex::build(&x, 128, cfg)),
        },
        IndexedColumn {
            name: "y".into(),
            sigma: 128,
            index: Box::new(OptimalIndex::build(&y, 128, cfg)),
        },
    ]);
    let server = Server::serve(Arc::new(table), ServeConfig::default()).expect("serve");
    let mut client = Client::connect(server.addr().expect("tcp addr")).expect("connect");
    let builds = |client: &mut Client, id| {
        client
            .stats(id)
            .expect("stats")
            .counter("kernel/skip_build")
            .expect("kernel/skip_build missing from the STATS reply")
    };
    // Sibling tests share the process-wide kernel counters, so only the
    // increase is pinned.
    let before = builds(&mut client, 1);
    let q = Predicate::and([Predicate::point("x", 1), Predicate::point("y", 43)])
        .normalize()
        .expect("normalize");
    let rows = client.call(2, &q).expect("call").body.expect("rows").rows;
    let want: Vec<u64> = (0..8192u64)
        .filter(|&i| x[i as usize] == 1 && y[i as usize] == 43)
        .collect();
    assert!(!want.is_empty());
    assert_eq!(rows, want);
    assert!(
        builds(&mut client, 3) > before,
        "no directory was built on first use"
    );
    drop(client);
    server.shutdown();
}

/// An index slow enough to force queue build-up.
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
        std::thread::sleep(Duration::from_millis(2));
        Ok(naive_query(&self.data, lo, hi))
    }
}

#[test]
fn shed_causes_split_per_conn_totals_and_slow_log() {
    let data: Vec<u32> = (0..500u32).map(|i| i % 5).collect();
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
            max_inflight: 64,
            max_inflight_per_conn: 2,
            // Every served request is "slow" — the ring must see them all
            // (up to capacity) with full traces.
            slow_query_ns: 0,
            slow_log_capacity: 8,
            ..ServeConfig::default()
        },
    )
    .expect("serve");
    let addr = server.addr().expect("tcp addr");

    let q = Predicate::point("v", 3).normalize().expect("normalize");
    let mut client = Client::connect(addr).expect("connect");
    const BURST: u64 = 30;
    for id in 0..BURST {
        client.send(id, &q).expect("send");
    }
    let mut ok = 0u64;
    let mut shed = 0u64;
    for _ in 0..BURST {
        let resp = client.recv().expect("recv").expect("open");
        match resp.body {
            Ok(_) => ok += 1,
            Err(e) => {
                assert_eq!(e.code, ErrorCode::Overloaded);
                shed += 1;
            }
        }
    }
    assert!(
        shed > 0,
        "burst never overflowed the 2-slot per-conn budget"
    );
    // Per-conn totals are the last thing the batcher writes per tick, so
    // they quiescing implies the slow-log pushes are in too.
    quiesce(|| {
        server.stats().served_rows == ok
            && server
                .conn_stats()
                .iter()
                .map(|(_, c)| c.served)
                .sum::<u64>()
                == ok
    });

    let s = server.stats();
    assert_eq!(s.shed, shed);
    assert_eq!(
        s.shed_global + s.shed_conn,
        s.shed,
        "every shed has exactly one cause"
    );
    assert_eq!(
        s.shed_conn, shed,
        "a single client over its own cap is a per-conn shed"
    );
    let conns = server.conn_stats();
    assert_eq!(conns.len(), 1);
    assert_eq!(conns[0].1.shed, shed);
    assert_eq!(conns[0].1.served, ok);

    let slow = server.slow_queries();
    assert_eq!(slow.len() as u64, ok.min(8), "ring keeps the newest 8");
    for sq in &slow {
        assert!(sq.elapsed_ns > 0);
        let trace = sq.trace.as_ref().expect("served slow query has a trace");
        assert_eq!(trace.conditions.len(), 1);
        assert_eq!(trace.conditions[0].attr, "v");
        assert!(sq.error.is_none());
    }
    // The wire snapshot agrees on the split and the ring accounting.
    let snap = client.stats(1).expect("stats");
    assert_eq!(snap.counter("serve/shed_conn"), Some(shed));
    assert_eq!(snap.counter("serve/shed_global"), Some(s.shed_global));
    assert_eq!(snap.counter("serve/slow_queries"), Some(ok.min(8)));
    assert_eq!(
        snap.counter("serve/slow_queries_evicted"),
        Some(ok.saturating_sub(8))
    );
    assert_eq!(snap.counter("serve/conn/1/shed"), Some(shed));

    drop(client);
    server.shutdown();
}
