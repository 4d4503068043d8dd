//! End-to-end exercises of the serve daemon over real loopback TCP:
//! byte-identity against the serial oracle, cache warm/cold behaviour,
//! persistence across restarts, connection capping, error handling, a
//! concurrent soak, and graceful drain.

use rmm_serve::{
    fetch_metrics, local_lines, parse_metric, request_shutdown, soak, submit_one, Request,
    RunRequest, ServeConfig, Server, SoakSpec, MAX_LINE_BYTES,
};
use rmm_workload::{MobilityConfig, Scenario};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn tiny() -> Scenario {
    Scenario {
        n_nodes: 10,
        sim_slots: 400,
        n_runs: 1,
        ..Scenario::default()
    }
}

fn start(config: ServeConfig) -> (Server, String) {
    let server = Server::start(config).expect("server starts");
    let addr = server.addr().to_string();
    (server, addr)
}

fn run_req(id: u64, protocol: &str, seed: u64, trace: bool) -> RunRequest {
    RunRequest {
        id,
        protocol: protocol.into(),
        scenario: tiny(),
        seed,
        trace,
        profile: false,
    }
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rmm-serve-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn drain(server: Server, addr: &str) {
    // A connection slot can stay occupied for a moment after a client
    // drops its stream (the server-side reader has to observe the EOF),
    // so a capacity-limited server may refuse the first shutdown
    // attempt — retry until the Draining ack actually comes back.
    for _ in 0..500 {
        if request_shutdown(addr).is_ok() {
            server.join();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("server never admitted the shutdown request");
}

#[test]
fn served_response_is_byte_identical_to_local_oracle() {
    let (server, addr) = start(ServeConfig::default());
    for (id, protocol, trace) in [(1, "bmmm", false), (2, "lamm", true), (3, "802.11", true)] {
        let req = run_req(id, protocol, 7, trace);
        let got = submit_one(&addr, &req).expect("served");
        let want = local_lines(&req).expect("oracle");
        assert_eq!(got, want, "served bytes must equal the serial oracle");
    }
    drain(server, &addr);
}

#[test]
fn second_request_is_served_from_cache_without_engine_work() {
    let (server, addr) = start(ServeConfig::default());
    let req = run_req(9, "bmw", 3, true);
    let cold = submit_one(&addr, &req).expect("cold");
    let runs_after_cold = parse_metric(
        &fetch_metrics(&addr).unwrap(),
        "rmm_serve_engine_runs_total",
    )
    .unwrap();
    let warm = submit_one(&addr, &req).expect("warm");
    let runs_after_warm = parse_metric(
        &fetch_metrics(&addr).unwrap(),
        "rmm_serve_engine_runs_total",
    )
    .unwrap();
    assert_eq!(
        runs_after_cold, runs_after_warm,
        "warm hit must not run the engine"
    );
    assert_eq!(cold.len(), warm.len());
    assert_eq!(cold[..cold.len() - 1], warm[..warm.len() - 1]);
    assert!(cold.last().unwrap().contains("\"cached\":false"));
    assert!(warm.last().unwrap().contains("\"cached\":true"));
    let hits = parse_metric(&fetch_metrics(&addr).unwrap(), "rmm_serve_cache_hits_total").unwrap();
    assert!(hits >= 1);
    drain(server, &addr);
}

#[test]
fn disk_cache_survives_server_restart() {
    let cache = tmp_dir("restart").join("cache.jsonl");
    let req = run_req(1, "leader", 11, false);
    let cold = {
        let (server, addr) = start(ServeConfig {
            cache_path: Some(cache.clone()),
            ..ServeConfig::default()
        });
        let lines = submit_one(&addr, &req).expect("cold");
        drain(server, &addr);
        lines
    };
    let (server, addr) = start(ServeConfig {
        cache_path: Some(cache),
        ..ServeConfig::default()
    });
    let warm = submit_one(&addr, &req).expect("warm from reloaded cache");
    let runs = parse_metric(
        &fetch_metrics(&addr).unwrap(),
        "rmm_serve_engine_runs_total",
    )
    .unwrap();
    assert_eq!(
        runs, 0,
        "restarted server must answer entirely from the reloaded cache"
    );
    assert!(warm.last().unwrap().contains("\"cached\":true"));
    assert_eq!(cold[..cold.len() - 1], warm[..warm.len() - 1]);
    drain(server, &addr);
}

#[test]
fn sequential_cached_requests_do_not_wait_for_delayed_acks() {
    // One request at a time on one connection, as an interactive client
    // sends them. If the server split a response over writes with
    // Nagle's algorithm on, each round trip would wait for this
    // client's delayed-ACK timer (about 40 ms on Linux). At 60 stations
    // and 2 000 slots a `Result` line is about 11 KB, more than one
    // buffered write of the server's writer takes.
    let scenario = Scenario {
        n_nodes: 60,
        sim_slots: 2_000,
        ..tiny()
    };
    let (server, addr) = start(ServeConfig::default());
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let mut write_half = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut round_trip = move |id: u64| -> Vec<String> {
        let request = Request::Run(RunRequest {
            scenario: scenario.clone(),
            ..run_req(id, "bmmm", 4, false)
        });
        let line = format!("{}\n", serde_json::to_string(&request).unwrap());
        write_half.write_all(line.as_bytes()).unwrap();
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "server closed");
            let done = line.starts_with("{\"Result\"") || line.starts_with("{\"Error\"");
            lines.push(line);
            if done {
                return lines;
            }
        }
    };
    let cold = round_trip(0);
    assert!(cold.last().unwrap().contains("\"cached\":false"));
    let t0 = std::time::Instant::now();
    for id in 1..=40 {
        let lines = round_trip(id);
        assert!(
            lines.last().unwrap().contains("\"cached\":true"),
            "{lines:?}"
        );
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "40 cached round trips took {elapsed:?}"
    );
    drop(round_trip); // owns both halves: closes our connection so the drain can complete
    drain(server, &addr);
}

#[test]
fn bad_lines_and_unknown_protocols_error_without_killing_the_connection() {
    let (server, addr) = start(ServeConfig::default());
    let mut stream = TcpStream::connect(&addr).unwrap();
    writeln!(stream, "this is not json").unwrap();
    writeln!(
        stream,
        "{}",
        serde_json::to_string(&Request::Run(run_req(5, "carrier-pigeon", 0, false))).unwrap()
    )
    .unwrap();
    writeln!(stream, "{}", serde_json::to_string(&Request::Ping).unwrap()).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        lines.push(line);
    }
    assert!(lines[0].contains("\"Error\"") && lines[0].contains("unparseable"));
    assert!(lines[1].contains("\"Error\"") && lines[1].contains("carrier-pigeon"));
    assert!(
        lines[2].contains("\"Pong\""),
        "connection stays usable after errors"
    );
    drop(reader); // close our connection so the drain can complete
    drain(server, &addr);
}

#[test]
fn over_long_request_lines_are_refused_and_the_server_keeps_serving() {
    let (server, addr) = start(ServeConfig::default());
    let stream = TcpStream::connect(&addr).unwrap();
    // Twice the cap with no newline. The server stops reading at the
    // cap and closes the connection, so the tail of the flood may never
    // be accepted: it is written from a thread that stops at the first
    // write error.
    let mut flood = stream.try_clone().unwrap();
    let flooder = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..2 * MAX_LINE_BYTES / chunk.len() {
            if flood.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert!(
        line.contains("\"Error\"") && line.contains("longer than"),
        "expected a line-length error, got {line:?}"
    );
    flooder.join().unwrap();
    let req = run_req(4, "bmw", 2, false);
    assert_eq!(submit_one(&addr, &req).unwrap(), local_lines(&req).unwrap());
    drain(server, &addr);
}

#[test]
fn invalid_fault_plan_is_rejected_before_the_engine() {
    let (server, addr) = start(ServeConfig::default());
    let mut req = run_req(2, "bmmm", 0, false);
    req.scenario.faults =
        rmm_sim::FaultPlan::parse("crash:99@5").expect("parses; node 99 is out of range for n=10");
    let lines = submit_one(&addr, &req).expect("response");
    assert_eq!(lines.len(), 1);
    assert!(lines[0].contains("\"Error\"") && lines[0].contains("fault plan"));
    drain(server, &addr);
}

#[test]
fn invalid_mobility_is_rejected_and_the_server_keeps_answering() {
    let (server, addr) = start(ServeConfig::default());
    let bad = [
        MobilityConfig {
            update_period: 0,
            ..MobilityConfig::default()
        },
        MobilityConfig {
            beacon_period: 0,
            ..MobilityConfig::default()
        },
        MobilityConfig {
            speed_min: 1e-4,
            speed_max: 1e-5,
            ..MobilityConfig::default()
        },
        MobilityConfig {
            speed_min: -1e-5,
            ..MobilityConfig::default()
        },
    ];
    let mut stream = TcpStream::connect(&addr).unwrap();
    for (i, mobility) in bad.iter().enumerate() {
        let mut req = run_req(20 + i as u64, "lamm", 0, false);
        req.scenario.mobility = Some(*mobility);
        writeln!(
            stream,
            "{}",
            serde_json::to_string(&Request::Run(req)).unwrap()
        )
        .unwrap();
    }
    writeln!(stream, "{}", serde_json::to_string(&Request::Ping).unwrap()).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    for i in 0..bad.len() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"Error\"")
                && line.contains(&format!("\"id\":{}", 20 + i))
                && line.contains("mobility"),
            "request {i}: {line}"
        );
    }
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"Pong\""),
        "server stopped answering: {line}"
    );
    drop(reader);
    drain(server, &addr);
}

#[test]
fn mobile_cell_is_byte_identical_to_local_oracle() {
    let (server, addr) = start(ServeConfig::default());
    let mut req = run_req(8, "lamm", 5, true);
    req.scenario.mobility = Some(MobilityConfig {
        speed_max: 2e-4,
        update_period: 50,
        beacon_period: 100,
        ..MobilityConfig::default()
    });
    let got = submit_one(&addr, &req).expect("served");
    let want = local_lines(&req).expect("oracle");
    assert_eq!(got, want, "served bytes must equal the serial oracle");
    drain(server, &addr);
}

#[test]
fn connections_beyond_the_cap_are_refused() {
    let (server, addr) = start(ServeConfig {
        max_conns: 1,
        ..ServeConfig::default()
    });
    // First connection occupies the only slot until dropped.
    let held = TcpStream::connect(&addr).unwrap();
    let second = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(second);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"Error\"") && line.contains("capacity"));
    drop(held);
    // Capacity frees up once the held connection closes.
    let req = run_req(1, "bsma", 1, false);
    let retry = loop {
        match submit_one(&addr, &req) {
            Ok(lines) if lines.last().unwrap().contains("\"Result\"") => break lines,
            _ => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    };
    assert_eq!(retry, local_lines(&req).unwrap());
    drain(server, &addr);
}

#[test]
fn http_get_scrapes_metrics() {
    let (server, addr) = start(ServeConfig::default());
    let mut stream = TcpStream::connect(&addr).unwrap();
    write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut body = String::new();
    BufReader::new(stream).read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.0 200 OK"));
    assert!(body.contains("rmm_serve_requests_total"));
    assert!(body.contains("rmm_serve_workers"));
    drain(server, &addr);
}

#[test]
fn concurrent_soak_is_byte_identical_then_fully_cached() {
    let cache = tmp_dir("soak").join("cache.jsonl");
    let (server, addr) = start(ServeConfig {
        cache_path: Some(cache),
        queue_cap: 16,
        ..ServeConfig::default()
    });
    let mut spec = SoakSpec {
        requests: 48,
        conns: 6,
        scenario: tiny(),
        seed_base: 1000,
        trace_every: 7,
        expect_cached: false,
    };
    let cold = soak(&addr, &spec).expect("cold soak byte-identical");
    assert_eq!(cold.requests, 48);
    // Second sweep: same cells, must be answered entirely from cache.
    spec.expect_cached = true;
    let warm = soak(&addr, &spec).expect("warm soak fully cached");
    assert_eq!(warm.cached, 48);
    assert_eq!(warm.engine_runs, 0);
    assert_eq!(warm.cache_hits, 48);
    drain(server, &addr);
}

#[test]
fn graceful_drain_refuses_new_work_but_finishes_the_ack() {
    let (server, addr) = start(ServeConfig::default());
    server.begin_shutdown();
    // New engine work on an already-open path is refused while draining.
    // The drain wake-up connection races with us; the listener may
    // accept us before observing the flag, in which case the Run is
    // refused, or refuse the connection outright.
    let mut stream = match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(_) => {
            server.join();
            return;
        }
    };
    let _ = writeln!(
        stream,
        "{}",
        serde_json::to_string(&Request::Run(run_req(1, "bmmm", 0, false))).unwrap()
    );
    let _ = stream.flush();
    let mut line = String::new();
    let _ = BufReader::new(stream).read_line(&mut line);
    if !line.is_empty() {
        assert!(
            line.contains("draining") || line.contains("\"Error\""),
            "a run accepted mid-drain must be refused: {line}"
        );
    }
    server.join();
}
