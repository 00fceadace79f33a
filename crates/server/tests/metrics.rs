//! End-to-end observability checks: the `Request::Metrics` wire frame must
//! return exactly what `ServerHandle::metrics_text()` renders, the commit
//! pipeline must actually land samples in the registry, and disabling
//! metrics must degrade to a constant exposition rather than an error.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use greedy_engine::prelude::Engine;
use greedy_server::prelude::*;
use greedy_server::protocol::read_frame;

/// Pulls `name value` off the exposition (first exact-name match).
fn metric_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (n, v) = line.split_once(' ')?;
        (n == name).then(|| v.parse().ok())?
    })
}

#[test]
fn wire_metrics_match_handle_metrics_byte_for_byte() {
    let handle = serve(Engine::new(200, 11), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // Traffic: a few committed rounds plus reads on both query paths.
    client.insert_edges(&[(0, 1), (1, 2), (2, 3)]).unwrap();
    client.insert_edges(&[(3, 4), (10, 11)]).unwrap();
    client.delete_edges(&[(1, 2)]).unwrap();
    client.query_mis(&[0, 1, 2, 3]).unwrap();
    client.query_matched(&[10, 11]).unwrap();

    // The server is quiesced: every round above was acknowledged *after* its
    // trace was recorded, and scraping touches no instrument — so the wire
    // exposition and the in-process one must be identical bytes, repeatedly.
    let over_wire = client.metrics().unwrap();
    let in_process = handle.metrics_text();
    assert_eq!(over_wire, in_process, "wire and handle expositions differ");
    assert_eq!(
        client.metrics().unwrap(),
        over_wire,
        "scrape perturbed state"
    );

    if greedy_obs::ENABLED {
        assert_eq!(
            metric_value(&over_wire, "server_rounds_committed_total"),
            Some(3)
        );
        assert_eq!(metric_value(&over_wire, "server_queries_total"), Some(2));
        assert_eq!(
            metric_value(&over_wire, "server_commit_total_us_count"),
            Some(3)
        );
        assert_eq!(metric_value(&over_wire, "server_query_us_count"), Some(2));
        assert_eq!(
            metric_value(&over_wire, "server_repair_rounds_mis_count"),
            Some(3)
        );
        assert!(metric_value(&over_wire, "server_connections_total").unwrap() >= 1);
        // 3 + 2 - 1 effective updates across the three rounds.
        assert_eq!(
            metric_value(&over_wire, "server_updates_effective_total"),
            Some(6)
        );

        // The flight recorder kept every round, newest last.
        let traces = handle.recent_rounds();
        assert_eq!(traces.len(), 3);
        assert_eq!(traces.last().unwrap().round, handle.committed_round());
        assert!(traces.iter().all(|t| t.total_us >= t.apply_us));

        // Stats carries the histogram-backed percentiles.
        let stats = client.stats().unwrap();
        assert!(stats.commit_p50_us <= stats.commit_p99_us);
        assert!(stats.commit_p99_us > 0);
    }

    handle.shutdown();
}

#[test]
fn trace_frame_over_tcp_is_byte_identical_to_in_process_encoding() {
    let handle = serve(Engine::new(300, 23), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client.insert_edges(&[(0, 1), (1, 2), (4, 5)]).unwrap();
    client.insert_edges(&[(2, 3), (20, 21)]).unwrap();
    client.delete_edges(&[(1, 2)]).unwrap();

    // Raw socket: the tentpole guarantee is that the wire body of a Trace
    // response is *exactly* `encode_round_traces` over what the in-process
    // flight recorder returns — one canonical encoder, zero drift.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let payload = Request::Trace { last_k: u64::MAX }.encode();
    raw.write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&payload).unwrap();
    let reply = read_frame(&mut raw).unwrap().expect("a trace frame");
    assert_eq!(reply[0], 11, "Trace response tag");
    let expected = encode_round_traces(&handle.recent_rounds());
    assert_eq!(
        &reply[1..],
        &expected[..],
        "wire trace body must be byte-identical to the in-process encoding"
    );

    // The typed client decodes the same bytes back to the same traces, and
    // `last_k` clamps to the newest records.
    let all = client.trace(u64::MAX).unwrap();
    assert_eq!(all, handle.recent_rounds());
    let last_two = client.trace(2).unwrap();
    assert_eq!(last_two, handle.trace(2));
    if greedy_obs::ENABLED {
        assert_eq!(all.len(), 3);
        assert_eq!(last_two.len(), 2);
        assert_eq!(last_two[1].round, handle.committed_round());
        assert_eq!(&all[1..], &last_two[..], "tail must be the newest rounds");
    } else {
        assert!(all.is_empty());
        assert!(last_two.is_empty());
    }
    assert!(client.trace(0).unwrap().is_empty());

    handle.shutdown();
}

#[test]
fn engine_internals_and_journal_ride_the_exposition() {
    let handle = serve(Engine::new(400, 9), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    // Enough churn to guarantee arena activity beyond the initial build.
    let edges: Vec<(u32, u32)> = (0..300u32).map(|i| (i, (i + 7) % 400)).collect();
    client.insert_edges(&edges).unwrap();
    client.delete_edges(&edges[..150]).unwrap();

    let text = client.metrics().unwrap();
    assert_eq!(text, handle.metrics_text(), "wire and handle must agree");
    if greedy_obs::ENABLED {
        // The engine set is merged into the same exposition as the server
        // set, and the mandatory internals are live after real traffic.
        let value = |name: &str| {
            text.lines()
                .find_map(|l| {
                    let (n, v) = l.split_once(' ')?;
                    (n == name).then(|| v.parse::<i64>().ok())?
                })
                .unwrap_or_else(|| panic!("metric {name} missing"))
        };
        assert!(value("engine_rebuilds_total") >= 1, "initial build counts");
        assert!(value("engine_arena_capacity") > 0);
        assert!(value("engine_arena_live") > 0);
        assert!(value("engine_mis_repair_work_count") > 0);
        // Per-trigger counters tile the total.
        let by_reason: i64 = [
            "engine_rebuilds_initial_total",
            "engine_rebuilds_insert_overflow_total",
            "engine_rebuilds_dead_space_total",
            "engine_rebuilds_shrink_total",
        ]
        .iter()
        .map(|n| value(n))
        .sum();
        assert_eq!(by_reason, value("engine_rebuilds_total"));
        // The journal rendering rides along, comment-prefixed. The *initial*
        // build predates the journal attachment (only its counter survives,
        // via the instrument clone's first delta), but inserting 300 edges
        // into segments built empty forces a runtime overflow rebuild, and
        // that one must be journalled with its trigger.
        assert!(text.contains("# event_journal retained="));
        assert!(text.contains("# event seq="));
        assert!(text.contains("arena_rebuild reason=insert_overflow"));
        let journal_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# event")).collect();
        assert!(!journal_lines.is_empty());
        // Everything non-metric in the exposition is comment-prefixed.
        assert!(text
            .lines()
            .all(|l| l.starts_with('#') || l.split(' ').count() == 2));
    }
    handle.shutdown();
}

#[test]
fn subscriber_resyncs_and_gauge_show_up() {
    let handle = serve(Engine::new(100, 5), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.insert_edges(&[(0, 1)]).unwrap();

    let mut sub = Client::connect(handle.addr())
        .unwrap()
        .subscribe_fresh()
        .unwrap();
    sub.set_timeout(Some(Duration::from_secs(30))).unwrap();
    // A fresh subscriber is seeded by a full snapshot stream.
    sub.next_round().unwrap().expect("snapshot seed");

    if greedy_obs::ENABLED {
        let text = handle.metrics_text();
        assert_eq!(metric_value(&text, "server_feed_subscribers"), Some(1));
        assert!(metric_value(&text, "server_feed_resyncs_total").unwrap() >= 1);
    }
    drop(sub);
    handle.shutdown();
}

#[test]
fn disabled_metrics_serve_a_constant_exposition() {
    let config = ServerConfig {
        metrics: false,
        ..ServerConfig::default()
    };
    let handle = serve(Engine::new(50, 3), config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.insert_edges(&[(0, 1)]).unwrap();

    assert_eq!(handle.metrics_text(), "# metrics disabled\n");
    assert_eq!(client.metrics().unwrap(), handle.metrics_text());
    assert!(handle.metrics().is_none());
    assert!(handle.recent_rounds().is_empty());

    // Stats still answers; the histogram-backed fields just stay zero.
    let stats = client.stats().unwrap();
    assert_eq!(stats.commit_p50_us, 0);
    assert_eq!(stats.round, 1);

    handle.shutdown();
}
