//! File-descriptor exhaustion: the server's accept loop and the crawl
//! under a tiny `RLIMIT_NOFILE`.
//!
//! The test re-runs its own binary as a child under
//! `sh -c 'ulimit -n 64; exec …'`, which lowers the limit of that one
//! child process only. Inside the child it:
//!
//! 1. fills the fd table, lets one client connect and send a request,
//!    and checks that the accept loop's `accept()` failures (EMFILE) are
//!    counted under `accept.errors` while the loop backs off and keeps
//!    retrying; the raw `epoll_create1` and `eventfd2` wrappers must
//!    return `Err` there, not panic;
//! 2. frees the fds and checks that the waiting request and a new
//!    connection are both served;
//! 3. crawls a tiny world with only a few fds to spare and checks that
//!    every phase's books balance: attempted = succeeded + dead-lettered.

use crawler::{Crawler, Endpoints};
use httpnet::{Client, Handler, Request, Response, Server, ServerConfig};
use std::fs::File;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use synth::config::Scale;
use synth::WorldConfig;

const CHILD_ENV: &str = "FD_EXHAUSTION_CHILD";
const LIMIT: u64 = 64;
const EMFILE: i32 = 24;
/// Free fds left to the crawl: fewer than the four fronts' accept
/// threads and the crawler's connections would use unhindered.
const CRAWL_HEADROOM: usize = 6;

#[test]
fn accept_backoff_and_crawl_books_survive_fd_exhaustion() {
    if std::env::var_os(CHILD_ENV).is_some() {
        child();
        return;
    }
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -n {LIMIT} && exec \"$0\" \"$@\""))
        .arg(exe)
        .args([
            "--exact",
            "accept_backoff_and_crawl_books_survive_fd_exhaustion",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD_ENV, "1")
        .output()
        .expect("spawn the child under a lowered fd limit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child failed ({}):\n{stdout}\n{stderr}", out.status);
    assert!(stdout.contains("fd-exhaustion: ok"), "child did not run the checks:\n{stdout}");
}

/// The soft `Max open files` limit of this process.
fn soft_nofile() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    let line = limits.lines().find(|l| l.starts_with("Max open files")).expect("limit line");
    line["Max open files".len()..]
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .expect("numeric soft limit")
}

/// Open `/dev/null` until the process is out of fds (or only `spare`
/// would remain), returning the hoard.
fn hoard_fds(spare: usize) -> Vec<File> {
    let mut hoard = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => hoard.push(f),
            Err(e) => {
                assert_eq!(e.raw_os_error(), Some(EMFILE), "unexpected open error: {e}");
                break;
            }
        }
    }
    hoard.truncate(hoard.len().saturating_sub(spare));
    hoard
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn send_get(stream: &mut TcpStream, target: &str) {
    let req = format!("GET {target} HTTP/1.1\r\nHost: sim.local\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("write request");
}

fn read_reply(stream: &mut TcpStream) -> Response {
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    httpnet::http::read_response(&mut std::io::BufReader::new(stream)).expect("response")
}

fn child() {
    assert_eq!(soft_nofile(), LIMIT, "the child must run under the lowered limit");

    // 1. Exhaustion at the accept loop.
    let registry = obs::Registry::new();
    let handler: Arc<dyn Handler> =
        Arc::new(|req: &Request| Response::html(format!("echo:{}", req.path())));
    let server = Server::start(
        handler,
        ServerConfig { workers: 1, metrics: Some(registry.clone()), ..ServerConfig::default() },
    )
    .expect("server starts");
    let accept_errors = || registry.snapshot().counter("accept.errors").unwrap_or(0);

    // Warm up so the accept thread has started and is back in accept().
    let client = Client::builder(server.addr()).timeout(Duration::from_secs(10)).build();
    assert_eq!(client.get("/warm").expect("served before exhaustion").text(), "echo:/warm");

    let mut hoard = hoard_fds(0);
    // Free fds one at a time until a client socket gets one: the accept
    // thread, blocked in accept(), may take the first freed slot.
    let mut pending = loop {
        drop(hoard.pop().expect("fds left to free"));
        match TcpStream::connect(server.addr()) {
            Ok(stream) => break stream,
            Err(e) => assert_eq!(e.raw_os_error(), Some(EMFILE), "unexpected connect error: {e}"),
        }
    };
    send_get(&mut pending, "/pending");
    // The table is full again: whether or not that connection got in,
    // the accept loop's next accept() fails, is counted, and is retried
    // with backoff instead of ending the loop.
    wait_for("accept.errors to count EMFILE", || accept_errors() >= 1);
    let seen = accept_errors();
    wait_for("another counted accept failure", || accept_errors() > seen);
    let epoll = httpnet::sys::Epoll::new();
    assert_eq!(epoll.map(drop).unwrap_err().raw_os_error(), Some(EMFILE));
    let eventfd = httpnet::sys::EventFd::new();
    assert_eq!(eventfd.map(drop).unwrap_err().raw_os_error(), Some(EMFILE));

    // 2. Recovery once fds are freed.
    drop(hoard);
    assert_eq!(read_reply(&mut pending).text(), "echo:/pending");
    assert_eq!(client.get("/after").expect("served after recovery").text(), "echo:/after");
    assert_eq!(server.requests_served(), 3);
    let errors = accept_errors();
    drop(pending);
    drop(server);

    // 3. A tiny crawl with only a few fds to spare.
    let cfg = WorldConfig { scale: Scale::Custom(0.001), ..WorldConfig::small() };
    let (world, _) = synth::generate(&cfg);
    let services = webfront::SimServices::start(
        Arc::new(world),
        ServerConfig { workers: 1, ..ServerConfig::default() },
    )
    .expect("services start");
    let mut crawler = Crawler::new(Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    });
    crawler.config.workers = 2;
    crawler.config.retries = 3;
    crawler.config.backoff = Duration::from_millis(1);
    crawler.config.timeout = Duration::from_millis(500);
    let hoard = hoard_fds(CRAWL_HEADROOM);
    let store = crawler.full_crawl();
    drop(hoard);
    let mut attempted = 0;
    for (phase, snap) in store.stats.phase_snapshots() {
        assert_eq!(
            snap.attempted,
            snap.succeeded + snap.dead_lettered,
            "{}: unbalanced books under fd pressure: {snap:?}",
            phase.name()
        );
        attempted += snap.attempted;
    }
    assert!(attempted > 0, "the crawl fetched nothing");
    println!(
        "fd-exhaustion: ok ({errors} accept errors counted; crawl {attempted} fetches, \
         {} dead-lettered)",
        store.dead_letters().len()
    );
}
