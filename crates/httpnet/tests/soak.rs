//! Connection soak: thousands of keep-alive connections, all
//! mid-request at once, against one event-driven server.
//!
//! Client and server share this process's fd table, so the connection
//! count is sized from the soft `RLIMIT_NOFILE`:
//! `min(10 000, (soft − 256) / 2)`, keeping 256 fds for the harness,
//! the reactors' epoll and eventfd descriptors and the listener. At the
//! common default soft limit of 1024 that is 384 connections; CI runs
//! this binary under `ulimit -n 20500` to reach the full 10 000.
//!
//! It lives in its own test binary so no other test competes for the
//! fd table while it runs.

use httpnet::{Handler, Request, Response, Server, ServerConfig};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Fds reserved for everything but the soak's connections.
const RESERVED_FDS: u64 = 256;
const MAX_CONNS: u64 = 10_000;
const ROUNDS: usize = 2;
const RSS_CEILING_MIB: u64 = 512;

/// The soft `Max open files` limit from `/proc/self/limits`
/// (`u64::MAX` when unlimited).
fn soft_nofile() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    let line = limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .expect("a `Max open files` line");
    let soft = line["Max open files".len()..].split_whitespace().next().expect("a soft limit");
    if soft == "unlimited" {
        u64::MAX
    } else {
        soft.parse().expect("numeric soft limit")
    }
}

/// A `kB` field (`VmHWM`, `VmRSS`, ...) of `/proc/self/status`.
fn proc_status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// Open `conns` connections from several threads: one at a time,
/// thousands of connects against a busy accept loop take long enough
/// for the earliest connections to idle into a read deadline.
fn connect_all(addr: SocketAddr, conns: usize) -> Vec<BufReader<TcpStream>> {
    const CONNECTORS: usize = 8;
    let all = Mutex::new(Vec::with_capacity(conns));
    std::thread::scope(|scope| {
        for part in 0..CONNECTORS {
            let all = &all;
            let share = conns / CONNECTORS + usize::from(part < conns % CONNECTORS);
            scope.spawn(move || {
                let mut local = Vec::with_capacity(share);
                for i in 0..share {
                    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
                        panic!("connect {i} of {share} (connector {part}) failed: {e}")
                    });
                    stream.set_nodelay(true).unwrap();
                    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                    // Small buffers: 10k default 8 KiB readers would be
                    // 80 MiB of client ballast for ~100-byte responses.
                    local.push(BufReader::with_capacity(512, stream));
                }
                all.lock().unwrap().extend(local);
            });
        }
    });
    all.into_inner().unwrap()
}

#[test]
fn thousands_of_connections_mid_request_at_once() {
    let soft = soft_nofile();
    let conns = (soft.saturating_sub(RESERVED_FDS) / 2).min(MAX_CONNS) as usize;
    assert!(
        conns >= 64,
        "soft RLIMIT_NOFILE {soft} leaves room for only {conns} connections; raise `ulimit -n`"
    );

    let handler: Arc<dyn Handler> = Arc::new(|_: &Request| Response::html("ok".to_string()));
    let mut server = Server::start(
        handler,
        ServerConfig {
            workers: 4,
            queue: 1024,
            // Effectively no read deadline: early connections sit idle
            // while the rest are still opening, and again during the
            // hold between rounds. This soaks memory, not timeouts.
            read_timeout: Duration::from_secs(300),
            write_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let mut streams = connect_all(server.addr(), conns);
    assert_eq!(streams.len(), conns);
    let request = b"GET /soak HTTP/1.1\r\nHost: sim.local\r\n\r\n";
    for round in 0..ROUNDS {
        // Every connection sends its request before any response is
        // read, so all of them are mid-request on the server at once.
        for conn in &mut streams {
            conn.get_mut().write_all(request).unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        for conn in &mut streams {
            let resp = httpnet::http::read_response(conn)
                .unwrap_or_else(|e| panic!("round {round}: bad response: {e:?}"));
            assert!(resp.status.is_success(), "round {round}: status {}", resp.status);
        }
        if round + 1 < ROUNDS {
            // Idle hold: every connection stays open and silent, and the
            // server must carry all of them without timing them out.
            std::thread::sleep(Duration::from_secs(2));
        }
    }

    assert_eq!(server.requests_served(), (conns * ROUNDS) as u64);
    let peak_mib = proc_status_kib("VmHWM") / 1024;
    assert!(
        peak_mib <= RSS_CEILING_MIB,
        "peak RSS {peak_mib} MiB over the {RSS_CEILING_MIB} MiB ceiling at {conns} connections"
    );
    eprintln!("soak: {conns} connections x {ROUNDS} rounds, peak RSS {peak_mib} MiB");
    drop(streams);
    server.shutdown();
}
