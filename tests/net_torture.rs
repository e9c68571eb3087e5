//! Seeded deterministic torture tests for the xynet reactor.
//!
//! Every test drives a real [`Reactor`] over the in-memory [`SimNet`]
//! driver — no sockets, no kernel, and a virtual clock that only moves
//! when the test says so. Traffic shapes (request mixes, byte-boundary
//! splits, disconnect points) all derive from a single `u64` seed via
//! SplitMix64, and every assertion message carries that seed: a CI failure
//! line is a complete reproduction recipe
//! (`XYNET_SEED_START=<seed> XYNET_SEED_COUNT=1 cargo test --test
//! net_torture`).
//!
//! The harness mirrors `tests/sched_determinism.rs`, which does the same
//! for the keyed run queue underneath this front.

mod common;

use std::time::Duration;

use common::seed_range;
use xydiff_suite::xynet::{NetConfig, Reactor, SimClient, SimDriver, SimNet};
use xydiff_suite::xyserve::ServeConfig;

/// SplitMix64: tiny, deterministic, and good enough to scatter traffic.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A reactor over a simulated network, plus a small ingest pipeline.
fn sim_reactor(net: NetConfig) -> (Reactor<SimDriver>, SimNet) {
    let (driver, sim) = SimNet::new();
    let serve = ServeConfig::new()
        .with_workers(2)
        .expect("valid worker count")
        .with_queue_capacity(512)
        .expect("valid capacity");
    let reactor = Reactor::new(driver, net, serve).expect("reactor start");
    (reactor, sim)
}

/// Turn the reactor until `cond` holds, or panic with `what` (and the
/// caller's seed, which should be part of `what`).
fn drive_until(
    reactor: &mut Reactor<SimDriver>,
    mut cond: impl FnMut() -> bool,
    what: &str,
) {
    for _ in 0..20_000 {
        if cond() {
            return;
        }
        reactor.turn(Some(Duration::from_millis(1)));
    }
    panic!("drive_until stalled: {what}");
}

/// Split `buf` into complete HTTP responses by `Content-Length` framing:
/// returns `(status, full response text)` per response plus unconsumed
/// leftover bytes.
fn parse_responses(buf: &[u8]) -> (Vec<(u16, String)>, Vec<u8>) {
    let mut out = Vec::new();
    let mut rest = buf;
    while let Some(head_end) = rest.windows(4).position(|w| w == b"\r\n\r\n") {
        let head = String::from_utf8_lossy(&rest[..head_end + 4]).to_string();
        let Some(len) = head.lines().find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .and_then(|v| v.trim().parse::<usize>().ok())
        }) else {
            panic!("response without Content-Length: {head:?}");
        };
        let total = head_end + 4 + len;
        if rest.len() < total {
            break;
        }
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparseable status line: {head:?}"));
        out.push((status, String::from_utf8_lossy(&rest[..total]).to_string()));
        rest = &rest[total..];
    }
    (out, rest.to_vec())
}

/// One scripted request: raw bytes plus the status it must produce.
struct Scripted {
    raw: Vec<u8>,
    expect: u16,
}

/// A seeded mix of requests for one connection, all keep-alive.
fn scripted_requests(rng: &mut SplitMix64, conn: u64, count: usize) -> Vec<Scripted> {
    (0..count)
        .map(|i| match rng.next() % 6 {
            0 | 1 => {
                let body = format!("<d><v>{i}</v><pad>{}</pad></d>", "x".repeat((rng.next() % 200) as usize));
                Scripted {
                    raw: format!(
                        "POST /ingest/torture-{conn} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len(),
                    )
                    .into_bytes(),
                    expect: 200,
                }
            }
            2 => Scripted {
                raw: b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(),
                expect: 200,
            },
            3 => Scripted {
                raw: format!("GET /doc/ghost-{conn} HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes(),
                expect: 404,
            },
            4 => Scripted {
                raw: b"DELETE /metrics HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(),
                expect: 405,
            },
            _ => Scripted {
                raw: b"GET /nowhere HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(),
                expect: 404,
            },
        })
        .collect()
}

/// Feed one connection's whole pipelined byte stream in seeded chunks and
/// check the responses come back with the scripted statuses, in order.
fn explore_byte_splits(seed: u64) {
    let mut rng = SplitMix64(seed);
    let (mut reactor, sim) = sim_reactor(NetConfig::new());
    let client = sim.connect();

    let count = 3 + (rng.next() % 4) as usize;
    let scripts = scripted_requests(&mut rng, 0, count);
    let raw: Vec<u8> = scripts.iter().flat_map(|s| s.raw.iter().copied()).collect();
    let expect: Vec<u16> = scripts.iter().map(|s| s.expect).collect();

    // Seeded split points: deliver in 1..=17 byte chunks with turns between.
    let mut sent = 0;
    while sent < raw.len() {
        let n = (1 + rng.next() % 17) as usize;
        let n = n.min(raw.len() - sent);
        client.send(&raw[sent..sent + n]);
        sent += n;
        if rng.next() % 3 == 0 {
            reactor.turn(Some(Duration::from_millis(1)));
        }
    }
    client.finish();

    let mut buf = Vec::new();
    drive_until(
        &mut reactor,
        || {
            buf.extend(client.take_output());
            let (responses, _) = parse_responses(&buf);
            responses.len() >= expect.len()
        },
        &format!("seed {seed}: responses never completed"),
    );
    let (responses, leftover) = parse_responses(&buf);
    assert!(leftover.is_empty(), "seed {seed}: trailing bytes {leftover:?}");
    let got: Vec<u16> = responses.iter().map(|(s, _)| *s).collect();
    assert_eq!(got, expect, "seed {seed}: statuses out of order");
    drive_until(
        &mut reactor,
        || client.server_closed(),
        &format!("seed {seed}: connection never closed after half-close"),
    );

    let report = reactor.into_report();
    assert!(report.ingest.is_balanced(), "seed {seed}: {report:?}");
}

#[test]
fn byte_boundary_splits_over_seed_range() {
    for seed in seed_range("XYNET", 40) {
        explore_byte_splits(seed);
    }
}

/// 100+ connections pipelining seeded request mixes, deliveries interleaved
/// across connections in seeded order: every connection must get exactly
/// its scripted statuses, in its own order.
fn explore_many_connections(seed: u64) {
    let mut rng = SplitMix64(seed ^ 0x00C0_FFEE);
    let conns = 100 + (rng.next() % 28) as usize;
    let (mut reactor, sim) = sim_reactor(NetConfig::new());

    struct Lane {
        client: SimClient,
        raw: Vec<u8>,
        sent: usize,
        expect: Vec<u16>,
        buf: Vec<u8>,
    }
    let mut lanes: Vec<Lane> = (0..conns)
        .map(|c| {
            let count = 1 + (rng.next() % 3) as usize;
            let scripts = scripted_requests(&mut rng, c as u64, count);
            Lane {
                client: sim.connect(),
                raw: scripts.iter().flat_map(|s| s.raw.iter().copied()).collect(),
                sent: 0,
                expect: scripts.iter().map(|s| s.expect).collect(),
                buf: Vec::new(),
            }
        })
        .collect();

    // Interleave deliveries across lanes until every lane's bytes are out.
    let mut remaining: Vec<usize> = (0..conns).collect();
    while !remaining.is_empty() {
        let pick = (rng.next() % remaining.len() as u64) as usize;
        let lane = &mut lanes[remaining[pick]];
        let n = (1 + rng.next() % 64) as usize;
        let n = n.min(lane.raw.len() - lane.sent);
        lane.client.send(&lane.raw[lane.sent..lane.sent + n]);
        lane.sent += n;
        if lane.sent == lane.raw.len() {
            lane.client.finish();
            remaining.swap_remove(pick);
        }
        if rng.next() % 5 == 0 {
            reactor.turn(Some(Duration::from_millis(1)));
        }
    }

    drive_until(
        &mut reactor,
        || {
            lanes.iter_mut().all(|lane| {
                lane.buf.extend(lane.client.take_output());
                parse_responses(&lane.buf).0.len() >= lane.expect.len()
            })
        },
        &format!("seed {seed}: some lane never finished"),
    );
    for (c, lane) in lanes.iter().enumerate() {
        let (responses, _) = parse_responses(&lane.buf);
        let got: Vec<u16> = responses.iter().map(|(s, _)| *s).collect();
        assert_eq!(got, lane.expect, "seed {seed} conn {c}: statuses out of order");
    }

    let report = reactor.into_report();
    assert!(report.ingest.is_balanced(), "seed {seed}: {report:?}");
    assert_eq!(report.connections, conns as u64, "seed {seed}");
}

#[test]
fn pipelined_requests_across_many_connections() {
    for seed in seed_range("XYNET", 8) {
        explore_many_connections(seed);
    }
}

/// Seeded disconnects: connections drop mid-head, mid-body, or right after
/// a full request — none of which may disturb a well-behaved neighbour.
fn explore_disconnects(seed: u64) {
    let mut rng = SplitMix64(seed ^ 0xD15C_0000);
    let (mut reactor, sim) = sim_reactor(NetConfig::new());

    let good = sim.connect();
    let victims: Vec<SimClient> = (0..12)
        .map(|v| {
            let client = sim.connect();
            let body = format!("<d>{v}</d>");
            let raw = format!(
                "POST /ingest/victim-{v} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len(),
            );
            let raw = raw.as_bytes();
            match rng.next() % 3 {
                // Drop mid-head.
                0 => client.send(&raw[..(4 + rng.next() % 10) as usize]),
                // Drop mid-body: head plus an incomplete body.
                1 => client.send(&raw[..raw.len() - 3]),
                // Half-close mid-head: parsed as 400, answered, closed.
                _ => {
                    client.send(&raw[..8]);
                    client.finish();
                    return client;
                }
            }
            client.reset();
            client
        })
        .collect();

    // The well-behaved connection still gets served, repeatedly.
    let mut buf = Vec::new();
    for i in 0..3 {
        good.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        drive_until(
            &mut reactor,
            || {
                buf.extend(good.take_output());
                parse_responses(&buf).0.len() > i
            },
            &format!("seed {seed}: healthy connection starved (round {i})"),
        );
    }
    let (responses, _) = parse_responses(&buf);
    assert!(responses.iter().all(|(s, _)| *s == 200), "seed {seed}: {responses:?}");

    // Every victim ends closed; half-closed ones got a 400 first.
    drive_until(
        &mut reactor,
        || victims.iter().all(SimClient::server_closed),
        &format!("seed {seed}: victims never reaped"),
    );
    for (v, client) in victims.iter().enumerate() {
        let out = client.take_output();
        if !out.is_empty() {
            let (responses, _) = parse_responses(&out);
            assert!(
                responses.iter().all(|(s, _)| *s == 400),
                "seed {seed} victim {v}: unexpected responses {responses:?}"
            );
        }
    }

    drop((good, victims));
    let report = reactor.into_report();
    assert!(report.ingest.is_balanced(), "seed {seed}: {report:?}");
}

#[test]
fn mid_request_disconnects_leave_neighbours_unharmed() {
    for seed in seed_range("XYNET", 30) {
        explore_disconnects(seed);
    }
}

/// A slow-loris connection trickling header bytes must be evicted when the
/// virtual clock passes the idle deadline — while a well-behaved neighbour
/// keeps getting answers, before and after the eviction.
#[test]
fn slow_loris_is_evicted_without_stalling_others() {
    let (mut reactor, sim) =
        sim_reactor(NetConfig::new().with_idle_timeout(Duration::from_secs(5)));
    let handle = reactor.handle();

    let loris = sim.connect();
    let good = sim.connect();
    let mut buf = Vec::new();

    // The loris dribbles one header byte per virtual second — each arrival
    // is processed (so this is not a dead socket) but no request ever
    // completes, so `last_progress` must not advance. The neighbour
    // completes a full request every second, which keeps its own deadline
    // fresh and proves the loop never stalls on the loris.
    let dribble = b"GET /healthz HT";
    for (i, byte) in dribble.iter().enumerate() {
        loris.send(std::slice::from_ref(byte));
        sim.advance(Duration::from_secs(1));
        reactor.turn(Some(Duration::from_millis(1)));
        good.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        drive_until(
            &mut reactor,
            || {
                buf.extend(good.take_output());
                parse_responses(&buf).0.len() > i
            },
            "neighbour starved while the loris dribbled",
        );
    }

    drive_until(&mut reactor, || loris.server_closed(), "slow loris never evicted");
    assert!(loris.take_output().is_empty(), "an unfinished request deserves no response");
    assert_eq!(handle.http_metrics().evicted.get(), 1);
    assert!(!good.server_closed(), "the in-deadline neighbour was evicted too");

    // The neighbour keeps working after the eviction.
    good.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    drive_until(
        &mut reactor,
        || {
            buf.extend(good.take_output());
            parse_responses(&buf).0.len() > dribble.len()
        },
        "neighbour starved after the eviction",
    );

    drop(handle);
    let report = reactor.into_report();
    assert!(report.ingest.is_balanced(), "{report:?}");
}

/// An idle keep-alive connection (complete requests, then silence) is also
/// evicted on the same deadline.
#[test]
fn idle_keep_alive_is_evicted_on_the_same_deadline() {
    let (mut reactor, sim) =
        sim_reactor(NetConfig::new().with_idle_timeout(Duration::from_secs(5)));
    let client = sim.connect();
    client.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    let mut buf = Vec::new();
    drive_until(
        &mut reactor,
        || {
            buf.extend(client.take_output());
            !parse_responses(&buf).0.is_empty()
        },
        "first request never answered",
    );
    sim.advance(Duration::from_secs(6));
    drive_until(&mut reactor, || client.server_closed(), "idle keep-alive never evicted");
    drop(reactor.into_report());
}

/// A peer that never reads its response (zero receive window) cannot pin
/// a buffer forever: the unflushed connection hits the same deadline.
#[test]
fn write_stalled_connection_is_evicted() {
    let (mut reactor, sim) =
        sim_reactor(NetConfig::new().with_idle_timeout(Duration::from_secs(5)));
    let stalled = sim.connect();
    stalled.set_recv_window(Some(0));
    stalled.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    for _ in 0..20 {
        reactor.turn(Some(Duration::from_millis(1)));
    }
    assert_eq!(stalled.output_len(), 0, "zero window must block the response");
    sim.advance(Duration::from_secs(6));
    drive_until(&mut reactor, || stalled.server_closed(), "write-stalled conn never evicted");
    drop(reactor.into_report());
}

/// Oversized heads and bodies get their status (431 / 413) written and the
/// connection closed.
#[test]
fn oversized_head_and_body_are_rejected_and_closed() {
    let (mut reactor, sim) =
        sim_reactor(NetConfig::new().with_max_head_bytes(256).with_max_body_bytes(64));
    let handle = reactor.handle();

    let fat_head = sim.connect();
    fat_head.send(
        format!("GET /healthz HTTP/1.1\r\nCookie: {}\r\n\r\n", "c".repeat(400)).as_bytes(),
    );
    let fat_body = sim.connect();
    let body = "x".repeat(65);
    fat_body.send(
        format!(
            "POST /ingest/fat HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        )
        .as_bytes(),
    );

    for (client, expect) in [(&fat_head, 431), (&fat_body, 413)] {
        let mut buf = Vec::new();
        drive_until(
            &mut reactor,
            || {
                buf.extend(client.take_output());
                !parse_responses(&buf).0.is_empty()
            },
            &format!("{expect} never written"),
        );
        let (responses, _) = parse_responses(&buf);
        assert_eq!(responses[0].0, expect, "{:?}", responses[0].1);
        assert!(responses[0].1.contains("Connection: close"), "{:?}", responses[0].1);
        drive_until(
            &mut reactor,
            || client.server_closed(),
            &format!("{expect} connection never closed"),
        );
    }
    assert_eq!(handle.http_metrics().rejected.get(), 2);
    assert_eq!(handle.ingest().metrics().enqueued.get(), 0, "nothing reached the pipeline");

    drop(handle);
    let report = reactor.into_report();
    assert!(report.ingest.is_balanced(), "{report:?}");
}

/// Above `shed_connections` open connections, new arrivals get a
/// best-effort 503 + `Retry-After` and are dropped without registration.
#[test]
fn connection_count_backpressure_sheds_with_503() {
    let (mut reactor, sim) = sim_reactor(
        NetConfig::new().with_max_connections(8).with_shed_connections(4).with_retry_after_secs(9),
    );
    let handle = reactor.handle();

    // Four idle connections occupy the soft cap.
    let held: Vec<SimClient> = (0..4).map(|_| sim.connect()).collect();
    drive_until(&mut reactor, || handle.http_metrics().connections.get() >= 4, "accepts stalled");

    let shed = sim.connect();
    drive_until(&mut reactor, || shed.output_len() > 0, "shed 503 never written");
    let (responses, _) = parse_responses(&shed.take_output());
    assert_eq!(responses[0].0, 503, "{:?}", responses[0].1);
    assert!(responses[0].1.contains("Retry-After: 9"), "{:?}", responses[0].1);
    drive_until(&mut reactor, || shed.server_closed(), "shed connection never dropped");
    assert_eq!(handle.http_metrics().shed.get(), 1);
    assert!(!held.iter().any(|c| c.server_closed()), "held connections must survive");

    drop(handle);
    drop(reactor.into_report());
}

/// A drain requested while many idle keep-alive connections sit open must
/// close them, finish the in-flight request, and exit loss-free.
#[test]
fn drain_with_many_idle_connections_is_loss_free() {
    let (mut reactor, sim) = sim_reactor(NetConfig::new());
    let handle = reactor.handle();

    // 64 idle keep-alive connections: each completes one request first so
    // the reactor has them registered and idle, not merely accepted.
    let idle: Vec<SimClient> = (0..64).map(|_| sim.connect()).collect();
    for client in &idle {
        client.send(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    }
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); idle.len()];
    drive_until(
        &mut reactor,
        || {
            idle.iter().zip(&mut bufs).all(|(c, buf)| {
                buf.extend(c.take_output());
                !parse_responses(buf).0.is_empty()
            })
        },
        "idle connections never got their first response",
    );

    // One request in flight when the drain lands.
    let busy = sim.connect();
    let body = "<d><final>1</final></d>";
    busy.send(
        format!(
            "POST /ingest/drain-k HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        )
        .as_bytes(),
    );
    drive_until(
        &mut reactor,
        || handle.ingest().metrics().enqueued.get() >= 1,
        "in-flight ingest never submitted",
    );

    handle.request_shutdown();
    // The loop must now wind down on its own: idle connections closed, the
    // in-flight response delivered, then `turn` reports completion.
    let mut done = false;
    for _ in 0..20_000 {
        if !reactor.turn(Some(Duration::from_millis(1))) {
            done = true;
            break;
        }
    }
    assert!(done, "reactor never finished draining");
    assert!(idle.iter().all(SimClient::server_closed), "idle connections survived the drain");

    let (responses, _) = parse_responses(&busy.take_output());
    assert_eq!(responses.len(), 1, "in-flight request lost in the drain");
    assert_eq!(responses[0].0, 200, "{:?}", responses[0].1);
    assert!(
        responses[0].1.contains("Connection: close"),
        "drain responses must end the session: {:?}",
        responses[0].1
    );

    drop(handle);
    let report = reactor.into_report();
    assert!(report.ingest.is_balanced(), "{report:?}");
    assert_eq!(report.ingest.succeeded, 1);
}
