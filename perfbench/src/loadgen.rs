//! Open-loop load generator.
//!
//! Every connection ("lane") has a fixed schedule of due times. One
//! sender thread sends each request when it falls due, whatever the
//! replies — pipelining behind earlier requests when the connection is
//! busy, up to a window of requests in flight, as HTTP/1.1 clients bound
//! their pipelines. One receiver thread waits on every lane at once
//! (epoll) and timestamps each reply as it arrives. Latency is measured
//! from the request's **due** time, so a stall anywhere — server,
//! network, a full window, or the generator itself — is charged to every
//! request it delays. How late the sender was is recorded separately: a
//! late generator invalidates a run rather than indicting the server.
//! Two threads in all, whatever the number of lanes.
//!
//! A run may also stop sending at a fixed time (`send_for`). Then the
//! sender sends strictly in due order across lanes, waiting for a full
//! window rather than sending ahead on another lane, so with more
//! requests due than the server can answer the replies keep the
//! schedule's mix of lanes and their rate measures the server's capacity
//! for that mix. Requests still unsent at that time are dropped from the
//! books (neither attempted nor failed).

use httpnet::sys::{Epoll, EpollEvent, EPOLLIN, EPOLLRDHUP};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Nap of the sender on a full socket buffer.
const NAP: Duration = Duration::from_micros(20);

/// Longest wait of the sender while every due request waits on a full
/// window; the receiver wakes it as soon as a reply reopens one.
const WINDOW_WAIT: Duration = Duration::from_millis(1);

/// One parsed reply.
#[derive(Debug)]
pub struct Reply<'a> {
    /// HTTP status code.
    pub status: u16,
    /// The `ETag` header, if any.
    pub etag: Option<&'a str>,
    /// Body bytes.
    pub body: &'a [u8],
}

/// What a lane sends and how its replies are judged.
pub trait Session: Send {
    /// Append the wire bytes of request `i`, rendered when it is sent.
    fn request(&mut self, i: usize, out: &mut Vec<u8>);
    /// Judge the reply to request `i`: `true` when it is correct.
    fn reply(&mut self, i: usize, reply: &Reply<'_>) -> bool;
}

/// One connection's schedule and users.
pub struct Lane<'a, S> {
    /// Server address.
    pub addr: SocketAddr,
    /// Due times, ascending, as offsets from the run's start.
    pub due: &'a [Duration],
    /// Renders requests and judges replies.
    pub session: &'a mut S,
}

/// One lane's measurements.
#[derive(Debug, Clone)]
pub struct ConnStats {
    /// Per request, milliseconds from due time to reply; infinite for a
    /// request that failed, was refused, or got a wrong reply.
    pub latency_ms: Vec<f64>,
    /// Per request, milliseconds the sender itself was late: from its
    /// due time, or from when a full window reopened.
    pub late_ms: Vec<f64>,
    /// Most requests due but not yet answered at once.
    pub backlog_max: usize,
    /// Requests that got no correct reply.
    pub failed: u64,
    /// Requests sent.
    pub sent: usize,
    /// Seconds from the start of the run to the last reply.
    pub last_reply_s: f64,
}

/// Parse one complete reply from the front of `buf`: the reply and the
/// bytes it used, `Ok(None)` if incomplete.
pub fn parse_reply(buf: &[u8]) -> Result<Option<(Reply<'_>, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > 64 * 1024 {
            Err("reply head over 64 KiB".into())
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "reply head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let (mut len, mut etag) = (0usize, None);
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                len = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length {v:?}"))?;
            } else if k.trim().eq_ignore_ascii_case("etag") {
                etag = Some(v.trim());
            }
        }
    }
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        Reply {
            status,
            etag,
            body: &buf[head_end + 4..total],
        },
        total,
    )))
}

/// A lane's state, shared by the sender and the receiver.
struct LaneState<'a, S> {
    session: &'a mut S,
    inflight: VecDeque<usize>,
    stats: ConnStats,
    /// When a reply last freed a slot of a full window.
    window_opened: Option<Instant>,
}

/// A lane as both threads see it.
struct Shared<'a, S> {
    state: Mutex<LaneState<'a, S>>,
    /// The connection is gone: nothing more will be sent or answered.
    broken: AtomicBool,
}

impl<'a, S> Shared<'a, S> {
    fn lock(&self) -> MutexGuard<'_, LaneState<'a, S>> {
        self.state
            .lock()
            .expect("load generator lane lock (the other thread panicked)")
    }

    fn is_broken(&self) -> bool {
        self.broken.load(Ordering::SeqCst)
    }

    fn set_broken(&self) {
        self.broken.store(true, Ordering::SeqCst);
    }
}

/// One run as both threads see it.
struct Wire<'a, S> {
    streams: Vec<Option<TcpStream>>,
    dues: Vec<&'a [Duration]>,
    shared: Vec<Shared<'a, S>>,
    t0: Instant,
    /// Most requests in flight per lane.
    depth: usize,
    /// When the sender stops sending.
    until: Instant,
    /// When both threads stop waiting.
    give_up: Instant,
    /// Send one request at a time in due order across lanes.
    in_order: bool,
}

/// Run every lane from `t0`, with at most `depth` requests in flight per
/// lane, waiting at most `drain` past the last due time (or past
/// `send_for`, when set) for replies. With `send_for`, requests go out
/// strictly in due order across lanes, nothing is sent after
/// `t0 + send_for`, and the requests not sent by then are dropped from
/// the returned stats. The calling thread sends; one spawned thread
/// receives. Returns one [`ConnStats`] per lane, in order.
pub fn run<S: Session>(
    lanes: Vec<Lane<'_, S>>,
    t0: Instant,
    depth: usize,
    drain: Duration,
    send_for: Option<Duration>,
) -> Vec<ConnStats> {
    let depth = depth.max(1);
    let last_due = lanes
        .iter()
        .filter_map(|l| l.due.last())
        .max()
        .copied()
        .unwrap_or_default();
    let give_up = t0 + send_for.unwrap_or(last_due) + drain;
    let mut wire = Wire {
        streams: Vec::new(),
        dues: Vec::new(),
        shared: Vec::new(),
        t0,
        depth,
        until: send_for.map_or(give_up, |d| t0 + d),
        give_up,
        in_order: send_for.is_some(),
    };
    for lane in lanes {
        let n = lane.due.len();
        let stream = TcpStream::connect(lane.addr)
            .and_then(|s| s.set_nodelay(true).and(s.set_nonblocking(true)).map(|()| s))
            .ok();
        wire.shared.push(Shared {
            state: Mutex::new(LaneState {
                session: lane.session,
                inflight: VecDeque::new(),
                stats: ConnStats {
                    latency_ms: vec![f64::INFINITY; n],
                    late_ms: vec![0.0; n],
                    backlog_max: 0,
                    failed: 0,
                    sent: 0,
                    last_reply_s: 0.0,
                },
                window_opened: None,
            }),
            broken: AtomicBool::new(stream.is_none()),
        });
        wire.streams.push(stream);
        wire.dues.push(lane.due);
    }
    let sending_done = AtomicBool::new(false);
    let sender = std::thread::current();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(&wire, &sending_done, &sender));
        send(&wire);
        sending_done.store(true, Ordering::SeqCst);
        receiver.join().expect("load generator receiver thread");
    });
    wire.shared
        .into_iter()
        .map(|m| {
            let mut st = m.state.into_inner().expect("lane state lock");
            if send_for.is_some() {
                let sent = st.stats.sent;
                st.stats.latency_ms.truncate(sent);
                st.stats.late_ms.truncate(sent);
            }
            st.stats.failed = st
                .stats
                .latency_ms
                .iter()
                .filter(|l| l.is_infinite())
                .count() as u64;
            st.stats
        })
        .collect()
}

/// The sender: every request goes out when due (or when its lane's
/// window reopens), until `until`; a write may wait on a full socket
/// buffer until `give_up`. Lanes go independently, or with `in_order`
/// one request at a time in due order across lanes.
fn send<S: Session>(wire: &Wire<'_, S>) {
    let (streams, dues, shared) = (&wire.streams, &wire.dues, &wire.shared);
    let (t0, depth, until, give_up) = (wire.t0, wire.depth, wire.until, wire.give_up);
    let mut next = vec![0usize; dues.len()];
    let mut buf = Vec::new();
    loop {
        // Earliest unsent request among the lanes still open.
        let earliest = (0..dues.len())
            .filter(|&l| next[l] < dues[l].len() && !shared[l].is_broken())
            .min_by_key(|&l| dues[l][next[l]]);
        let Some(first) = earliest else { return };
        let at = t0 + dues[first][next[first]];
        let now = Instant::now();
        if now > until {
            return;
        }
        if at > now {
            std::thread::sleep(at - now);
            continue;
        }
        let mut sent_any = false;
        let lanes = if wire.in_order {
            first..first + 1
        } else {
            0..dues.len()
        };
        for l in lanes {
            let due = dues[l];
            let Some(stream) = &streams[l] else { continue };
            let now = Instant::now();
            while next[l] < due.len() && t0 + due[next[l]] <= now {
                let i = next[l];
                buf.clear();
                {
                    let mut st = shared[l].lock();
                    if shared[l].is_broken() || st.inflight.len() >= depth {
                        break;
                    }
                    st.session.request(i, &mut buf);
                    let ready = (t0 + due[i]).max(st.window_opened.unwrap_or(t0));
                    st.stats.late_ms[i] = now.saturating_duration_since(ready).as_secs_f64() * 1e3;
                    st.inflight.push_back(i);
                    st.stats.sent = i + 1;
                    let waiting = due.partition_point(|d| t0 + *d <= now) - (i + 1);
                    let backlog = st.inflight.len() + waiting;
                    st.stats.backlog_max = st.stats.backlog_max.max(backlog);
                }
                if write_all(stream, &buf, give_up).is_err() {
                    shared[l].set_broken();
                    break;
                }
                next[l] += 1;
                sent_any = true;
                if wire.in_order {
                    break;
                }
            }
        }
        if !sent_any {
            std::thread::park_timeout(WINDOW_WAIT);
        }
    }
}

/// `write_all` for a non-blocking socket (the window keeps the send
/// buffer from filling in practice).
fn write_all(mut stream: &TcpStream, mut bytes: &[u8], give_up: Instant) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(k) => bytes = &bytes[k..],
            Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() <= give_up => {
                std::thread::sleep(NAP);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The receiver: wait on every lane, timestamp and judge each reply;
/// wake the sender when a reply reopens a full window.
fn receive<S: Session>(wire: &Wire<'_, S>, sending_done: &AtomicBool, sender: &Thread) {
    let (streams, dues, shared) = (&wire.streams, &wire.dues, &wire.shared);
    let (t0, depth, give_up) = (wire.t0, wire.depth, wire.give_up);
    let epoll = Epoll::new().expect("epoll for the load generator");
    for (l, s) in streams.iter().enumerate() {
        if let Some(s) = s {
            epoll
                .add(s.as_raw_fd(), EPOLLIN | EPOLLRDHUP, l as u64)
                .expect("watch a lane");
        }
    }
    let mut bufs: Vec<Vec<u8>> = vec![Vec::with_capacity(1 << 16); streams.len()];
    let mut chunk = vec![0u8; 1 << 16];
    let mut events = vec![EpollEvent::default(); streams.len().max(1)];
    loop {
        let settled = sending_done.load(Ordering::SeqCst)
            && shared
                .iter()
                .all(|m| m.is_broken() || m.lock().inflight.is_empty());
        if settled || Instant::now() > give_up {
            return;
        }
        let ready = epoll.wait(&mut events, 2).unwrap_or(0);
        for ev in &events[..ready] {
            let l = ev.token() as usize;
            let Some(mut stream) = streams[l].as_ref() else {
                continue;
            };
            let mut closed = false;
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(k) => bufs[l].extend_from_slice(&chunk[..k]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
            let received = Instant::now();
            let mut used = 0;
            loop {
                match parse_reply(&bufs[l][used..]) {
                    Ok(Some((reply, k))) => {
                        used += k;
                        // Locked per reply, so the sender is never held
                        // up behind a whole batch.
                        let mut st = shared[l].lock();
                        if st.inflight.len() >= depth {
                            st.window_opened = Some(received);
                            sender.unpark();
                        }
                        let Some(i) = st.inflight.pop_front() else {
                            closed = true; // a reply nobody asked for
                            break;
                        };
                        st.stats.last_reply_s = (received - t0).as_secs_f64();
                        if st.session.reply(i, &reply) {
                            st.stats.latency_ms[i] =
                                (received - (t0 + dues[l][i])).as_secs_f64() * 1e3;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
            bufs[l].drain(..used);
            if closed {
                shared[l].set_broken();
                epoll.delete(stream.as_raw_fd()).ok();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpnet::{Request, Response, Server, ServerConfig};
    use std::sync::Arc;

    /// Plain GETs of `/<i>`; a reply is right when its body names `i`.
    /// `stall_at` makes the generator itself stall (a slow reply judge)
    /// on that reply.
    struct Echo {
        stall_at: Option<(usize, Duration)>,
    }

    impl Session for Echo {
        fn request(&mut self, i: usize, out: &mut Vec<u8>) {
            out.extend_from_slice(format!("GET /{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes());
        }
        fn reply(&mut self, i: usize, reply: &Reply<'_>) -> bool {
            if let Some((at, d)) = self.stall_at {
                if at == i {
                    std::thread::sleep(d);
                }
            }
            reply.status == 200 && reply.body == format!("/{i}").as_bytes()
        }
    }

    /// A one-reactor server whose handler sleeps `stall` on `/<stall_at>`.
    fn server(stall_at: usize, stall: Duration) -> Server {
        let handler = move |req: &Request| {
            if req.target == format!("/{stall_at}") {
                std::thread::sleep(stall);
            }
            Response::html(req.target.clone())
        };
        Server::start(
            Arc::new(handler),
            ServerConfig {
                workers: 1,
                max_requests_per_conn: usize::MAX,
                ..ServerConfig::default()
            },
        )
        .expect("start test server")
    }

    fn every_ms(n: usize) -> Vec<Duration> {
        (0..n).map(|i| Duration::from_millis(i as u64)).collect()
    }

    fn run_one(addr: SocketAddr, due: &[Duration], session: &mut Echo, depth: usize) -> ConnStats {
        let t0 = Instant::now() + Duration::from_millis(20);
        let lanes = vec![Lane { addr, due, session }];
        run(lanes, t0, depth, Duration::from_secs(5), None)
            .pop()
            .expect("one lane")
    }

    #[test]
    fn parses_pipelined_replies() {
        let wire = b"HTTP/1.1 200 OK\r\nETag: \"x\"\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 304 Not Modified\r\n\r\nHTTP/1.1 200";
        let (a, k) = parse_reply(wire).expect("valid").expect("complete");
        assert_eq!((a.status, a.etag, a.body), (200, Some("\"x\""), &b"hi"[..]));
        let (b, k2) = parse_reply(&wire[k..]).expect("valid").expect("complete");
        assert_eq!((b.status, b.body.len()), (304, 0));
        assert!(parse_reply(&wire[k + k2..]).expect("valid").is_none());
    }

    #[test]
    fn a_stalled_handler_is_charged_to_every_request_due_behind_it() {
        let stall = Duration::from_millis(60);
        let srv = server(10, stall);
        let due = every_ms(100);
        let stats = run_one(srv.addr(), &due, &mut Echo { stall_at: None }, 64);
        assert_eq!(stats.failed, 0);
        // Requests due while request 10 was being handled were still sent
        // on time (pipelined): the generator did not stall with the server.
        assert!(stats.backlog_max >= 30, "backlog {}", stats.backlog_max);
        assert!(
            stats.late_ms[11..=40].iter().all(|l| *l < 20.0),
            "{:?}",
            &stats.late_ms[11..=40]
        );
        // Each of them waited at least until the stall ended, and that
        // wait is in its latency because the clock starts at the due time.
        let stall_end_ms = 10.0 + stall.as_secs_f64() * 1e3;
        for i in 11..=40 {
            assert!(
                stats.latency_ms[i] >= stall_end_ms - i as f64 - 1.0,
                "request {i}: {} ms",
                stats.latency_ms[i]
            );
        }
    }

    #[test]
    fn a_full_window_holds_requests_back_and_their_wait_counts() {
        let stall = Duration::from_millis(60);
        let srv = server(10, stall);
        let due = every_ms(100);
        let stats = run_one(srv.addr(), &due, &mut Echo { stall_at: None }, 4);
        assert_eq!(stats.failed, 0);
        // With a window of 4, requests due during the stall waited unsent;
        // that is the server's backpressure, not generator lateness...
        assert!(stats.backlog_max >= 30, "backlog {}", stats.backlog_max);
        assert!(
            stats.late_ms.iter().all(|l| *l < 20.0),
            "max late {:?}",
            stats.late_ms.iter().copied().fold(0.0, f64::max)
        );
        // ...and it is still charged to their latency.
        for i in 15..=40 {
            assert!(
                stats.latency_ms[i] >= 10.0 + 60.0 - i as f64 - 1.0,
                "request {i}: {} ms",
                stats.latency_ms[i]
            );
        }
    }

    #[test]
    fn a_timed_send_keeps_the_window_full_and_drops_the_unsent() {
        let srv = server(usize::MAX, Duration::ZERO);
        let due = vec![Duration::ZERO; 1_000_000];
        let mut session = Echo { stall_at: None };
        let t0 = Instant::now() + Duration::from_millis(20);
        let lanes = vec![Lane {
            addr: srv.addr(),
            due: &due,
            session: &mut session,
        }];
        let send_for = Duration::from_millis(200);
        let stats = run(lanes, t0, 16, Duration::from_secs(5), Some(send_for))
            .pop()
            .expect("one lane");
        assert!(
            stats.sent > 100 && stats.sent < due.len(),
            "sent {}",
            stats.sent
        );
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.latency_ms.len(), stats.sent);
        assert!(
            stats.last_reply_s >= 0.19,
            "last reply at {} s",
            stats.last_reply_s
        );
        assert!(
            stats.last_reply_s < 1.0,
            "last reply at {} s",
            stats.last_reply_s
        );
    }

    #[test]
    fn a_dead_server_fails_every_request() {
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let due = every_ms(5);
        let t0 = Instant::now();
        let mut session = Echo { stall_at: None };
        let lanes = vec![Lane {
            addr,
            due: &due,
            session: &mut session,
        }];
        let stats = run(lanes, t0, 8, Duration::from_millis(50), None)
            .pop()
            .expect("one lane");
        assert_eq!(stats.failed, 5);
        assert!(stats.latency_ms.iter().all(|l| l.is_infinite()));
    }

    #[test]
    fn a_stalled_generator_is_reported_late_and_charged() {
        // The generator itself stalls 80 ms judging reply 5 (it holds the
        // lane's users meanwhile, so nothing can be sent): requests due in
        // that time go out late, the lateness is reported, and a latency
        // clock started at send time would have hidden it.
        let srv = server(usize::MAX, Duration::ZERO);
        let due = every_ms(100);
        let stall = Some((5, Duration::from_millis(80)));
        let stats = run_one(srv.addr(), &due, &mut Echo { stall_at: stall }, 64);
        assert_eq!(stats.failed, 0);
        let late = stats.late_ms.iter().filter(|l| **l > 20.0).count();
        assert!(late >= 40, "only {late} late sends");
        for i in 0..due.len() {
            assert!(stats.latency_ms[i] >= stats.late_ms[i], "request {i}");
        }
        let worst = stats.latency_ms.iter().copied().fold(0.0, f64::max);
        assert!(worst >= 60.0, "worst latency {worst} ms hides the stall");
    }
}
