//! The `serve` workload: an open loop of independent users against the
//! Dissenter and Gab fronts, served in-process over loopback by
//! `webfront::SimServices`.
//!
//! Traffic: every request starts from one comment drawn uniformly from
//! the world's comments, so threads are read in proportion to their
//! comment counts and authors in proportion to what they wrote (the
//! world's own, paper-calibrated activity skew). The request then GETs
//! that comment's page or its author's user page (Dissenter) or Gab
//! account, or votes on its thread (`POST /url/:cuid/vote`, which
//! invalidates the Dissenter front's cache). A share of the GETs carry
//! `If-None-Match` with the last validator the users saw. The target set
//! is larger than each front's response cache. One generator connection
//! per front, so requests to a front are served in the order sent.
//!
//! Checks on every reply: the status is right for the request; a
//! `200` body matches the page rendered in-process by a fresh front; an
//! ETag never names two bodies; a `304` answers only a validator minted
//! after the last vote sent before it (a vote must rotate every tag);
//! a vote reply carries exactly the tally the votes sent so far imply.
//!
//! The window is split into rounds. Each round offers the reference rate
//! as Poisson arrivals (the latency figures, and the check that the
//! generator keeps to its schedule), then saturates the fronts: it
//! offers far more than they can answer (`saturation_rps`), the
//! generator sends in due order across both connections (waiting on a
//! full pipeline window rather than sending ahead to the other front, so
//! the replies keep the mix) until the step ends, and the correct
//! replies per second are the fronts' capacity for the mix. `throughput`
//! is the best round's capacity: the host's slow spells (seconds long on
//! a shared virtual machine) only ever lower a round, so the best round
//! is the steadiest estimate of what the fronts can do, and a slower
//! program lowers every round.

use crate::layers::fnv64;
use crate::loadgen::{self, ConnStats, Lane, Reply, Session};
use crate::spec::Params;
use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use httpnet::{Handler, Request, ServerConfig};
use platform::World;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use webfront::{SimFronts, SimServices};

/// Generator connections: one per front (Dissenter, Gab).
pub const LANES: usize = 2;

/// SplitMix64: the seeded stream every serve input is drawn from.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform pick from a non-empty slice.
    fn pick<T: Copy>(&mut self, v: &[T]) -> T {
        v[(self.next_u64() % v.len() as u64) as usize]
    }
}

/// Page kinds of the GET mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Comment,
    User,
    Gab,
}

/// A GET target and the digest of its reference page.
struct Target {
    path: String,
    body: u64,
}

/// One page kind's targets, each rendered once by a reference front.
#[derive(Default)]
struct Pages {
    targets: Vec<Target>,
    by_path: HashMap<String, Option<u32>>,
}

impl Pages {
    /// The target index of `path`, rendering it on first sight; `None`
    /// when the page does not render `200`.
    fn intern(&mut self, path: String, front: &dyn Handler) -> Option<u32> {
        if let Some(known) = self.by_path.get(&path) {
            return *known;
        }
        let r = front.handle(&Request::get(&path));
        let idx = (r.status.0 == 200).then(|| {
            self.targets.push(Target {
                path: path.clone(),
                body: fnv64(&r.body),
            });
            (self.targets.len() - 1) as u32
        });
        self.by_path.insert(path, idx);
        idx
    }
}

/// A thread users vote on, and its upvotes before the run.
struct VoteUrl {
    cuid: String,
    base_up: u64,
}

/// Everything the users may request, with reference pages, and the draw
/// tables that weight each target by the world's activity.
struct Catalog {
    comments: Vec<Target>,
    users: Vec<Target>,
    gab: Vec<Target>,
    votes: Vec<VoteUrl>,
    /// One row per comment whose own page and author page render `200`:
    /// that comment's page, its author's page, its thread.
    rows: Vec<(u32, u32, u32)>,
    /// One Gab account per such comment whose author's account renders.
    gab_rows: Vec<u32>,
}

impl Catalog {
    fn targets(&self, kind: Kind) -> &[Target] {
        match kind {
            Kind::Comment => &self.comments,
            Kind::User => &self.users,
            Kind::Gab => &self.gab,
        }
    }

    /// Every comment of the world, with its author and thread, rendered
    /// through a fresh, cache-cold front set.
    fn build(world: &Arc<World>) -> Self {
        let reference = SimFronts::new(world.clone());
        let (dissenter, gab_front) = (reference.dissenter.as_ref(), reference.gab.as_ref());
        let (mut comments, mut users, mut gab) =
            (Pages::default(), Pages::default(), Pages::default());
        let mut votes = Vec::new();
        let mut thread = HashMap::new();
        let (mut rows, mut gab_rows) = (Vec::new(), Vec::new());
        for c in world.dissenter.comments() {
            let Some(author) = world.user_by_author_id(c.author_id).map(|i| world.user(i)) else {
                continue;
            };
            let Some(page) = comments.intern(format!("/comment/{}", c.id), dissenter) else {
                continue;
            };
            let Some(user) = users.intern(format!("/user/{}", author.username), dissenter) else {
                continue;
            };
            let Some(url) = world.dissenter.url_by_id(c.url_id) else {
                continue;
            };
            let vote = *thread.entry(c.url_id).or_insert_with(|| {
                votes.push(VoteUrl {
                    cuid: url.id.to_hex(),
                    base_up: u64::from(url.upvotes),
                });
                (votes.len() - 1) as u32
            });
            rows.push((page, user, vote));
            if !author.gab_deleted {
                let path = format!("/api/v1/accounts/{}", author.gab_id);
                gab_rows.extend(gab.intern(path, gab_front));
            }
        }
        assert!(
            !rows.is_empty() && !gab_rows.is_empty(),
            "the serve world is too small: every page kind needs a target that renders"
        );
        Self {
            comments: comments.targets,
            users: users.targets,
            gab: gab.targets,
            votes,
            rows,
            gab_rows,
        }
    }
}

/// One planned request.
#[derive(Debug, Clone, Copy)]
enum What {
    Get {
        kind: Kind,
        idx: usize,
        conditional: bool,
    },
    Vote {
        idx: usize,
    },
}

/// One connection's schedule for a step.
#[derive(Default)]
struct Plan {
    due: Vec<Duration>,
    what: Vec<What>,
}

/// The request mix: shares of each request kind over the catalog's draw
/// tables.
struct Mix {
    cat: Arc<Catalog>,
    comment: f64,
    user: f64,
    vote: f64,
    conditional: f64,
}

impl Mix {
    fn new(p: &Params, cat: Arc<Catalog>) -> Self {
        Self {
            cat,
            comment: p.f64("mix_comment"),
            user: p.f64("mix_user"),
            vote: p.f64("mix_vote"),
            conditional: p.f64("conditional_frac"),
        }
    }

    /// One request and the connection (front) it goes to.
    fn draw(&self, rng: &mut Rng) -> (usize, What) {
        let u = rng.unit();
        let conditional = rng.unit() < self.conditional;
        let (page, user, vote) = rng.pick(&self.cat.rows);
        let get = |kind, idx: u32| What::Get {
            kind,
            idx: idx as usize,
            conditional,
        };
        if u < self.vote {
            (0, What::Vote { idx: vote as usize })
        } else if u < self.vote + self.comment {
            (0, get(Kind::Comment, page))
        } else if u < self.vote + self.comment + self.user {
            (0, get(Kind::User, user))
        } else {
            (1, get(Kind::Gab, rng.pick(&self.cat.gab_rows)))
        }
    }

    /// Poisson arrivals at `rate` for `secs`, split by front:
    /// `[dissenter, gab]`.
    fn plan(&self, rate: f64, secs: f64, rng: &mut Rng) -> [Plan; LANES] {
        let mut plans = [Plan::default(), Plan::default()];
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.unit()).ln() / rate;
            if t >= secs {
                return plans;
            }
            let (conn, what) = self.draw(rng);
            plans[conn].due.push(Duration::from_secs_f64(t));
            plans[conn].what.push(what);
        }
    }
}

/// What was sent for one request, for judging its reply.
#[derive(Debug, Clone, Default)]
enum Sent {
    #[default]
    Nothing,
    /// A GET, with the validator it carried (and the vote count when
    /// that validator was minted) and the vote count when it was sent.
    Get {
        validator: Option<(String, u64)>,
        votes: u64,
    },
    /// A vote and the upvote tally its reply must carry.
    Vote { expected_up: u64 },
}

/// The users behind one connection (one front).
struct Users {
    cat: Arc<Catalog>,
    what: Vec<What>,
    sent: Vec<Sent>,
    votes_sent: u64,
    up: HashMap<usize, u64>,
    validators: HashMap<(Kind, usize), (String, u64)>,
    etag_body: HashMap<String, u64>,
    replies: u64,
    not_modified: u64,
    problems: Vec<String>,
}

impl Users {
    fn new(cat: Arc<Catalog>) -> Self {
        Self {
            cat,
            what: Vec::new(),
            sent: Vec::new(),
            votes_sent: 0,
            up: HashMap::new(),
            validators: HashMap::new(),
            etag_body: HashMap::new(),
            replies: 0,
            not_modified: 0,
            problems: Vec::new(),
        }
    }

    fn start(&mut self, what: Vec<What>) {
        self.sent = vec![Sent::Nothing; what.len()];
        self.what = what;
    }

    fn problem(&mut self, msg: String) -> bool {
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
        false
    }
}

impl Session for Users {
    fn request(&mut self, i: usize, out: &mut Vec<u8>) {
        match self.what[i] {
            What::Get {
                kind,
                idx,
                conditional,
            } => {
                let validator = if conditional {
                    self.validators.get(&(kind, idx)).cloned()
                } else {
                    None
                };
                out.extend_from_slice(b"GET ");
                out.extend_from_slice(self.cat.targets(kind)[idx].path.as_bytes());
                out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n");
                if let Some((etag, _)) = &validator {
                    out.extend_from_slice(format!("If-None-Match: {etag}\r\n").as_bytes());
                }
                out.extend_from_slice(b"\r\n");
                self.sent[i] = Sent::Get {
                    validator,
                    votes: self.votes_sent,
                };
            }
            What::Vote { idx } => {
                self.votes_sent += 1;
                let n = self.up.entry(idx).or_insert(0);
                *n += 1;
                let url = &self.cat.votes[idx];
                self.sent[i] = Sent::Vote {
                    expected_up: url.base_up + *n,
                };
                out.extend_from_slice(
                    format!(
                        "POST /url/{}/vote?dir=up HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n",
                        url.cuid
                    )
                    .as_bytes(),
                );
            }
        }
    }

    fn reply(&mut self, i: usize, reply: &Reply<'_>) -> bool {
        self.replies += 1;
        let what = self.what[i];
        match (what, std::mem::take(&mut self.sent[i])) {
            (What::Vote { .. }, Sent::Vote { expected_up }) => {
                let up = std::str::from_utf8(reply.body)
                    .ok()
                    .and_then(|b| jsonlite::parse(b).ok())
                    .and_then(|v| v.get("upvotes").and_then(|u| u.as_i64()));
                if reply.status == 200 && up == Some(expected_up as i64) {
                    true
                } else {
                    self.problem(format!(
                        "vote: status {} upvotes {up:?}, expected {expected_up}",
                        reply.status
                    ))
                }
            }
            (What::Get { kind, idx, .. }, Sent::Get { validator, votes }) => {
                let target = &self.cat.targets(kind)[idx];
                match reply.status {
                    304 => {
                        self.not_modified += 1;
                        match validator {
                            Some((_, minted)) if minted == votes => true,
                            Some((etag, _)) => self.problem(format!(
                                "{}: 304 for validator {etag} minted before a later vote",
                                target.path
                            )),
                            None => self
                                .problem(format!("{}: 304 to an unconditional GET", target.path)),
                        }
                    }
                    200 => {
                        let body = fnv64(reply.body);
                        let path = target.path.clone();
                        if body != target.body {
                            return self
                                .problem(format!("{path}: body differs from the reference page"));
                        }
                        let Some(etag) = reply.etag else {
                            return self.problem(format!("{path}: 200 without an ETag"));
                        };
                        if let Some((old, minted)) = &validator {
                            if *minted != votes && old == etag {
                                return self
                                    .problem(format!("{path}: ETag {etag} not rotated by a vote"));
                            }
                        }
                        if *self.etag_body.entry(etag.to_owned()).or_insert(body) != body {
                            return self.problem(format!("{path}: ETag {etag} names two bodies"));
                        }
                        self.validators
                            .insert((kind, idx), (etag.to_owned(), votes));
                        true
                    }
                    s => self.problem(format!("{}: status {s}", target.path)),
                }
            }
            _ => self.problem(format!("reply {i} does not match what was sent")),
        }
    }
}

/// One step's measurements over both connections.
struct Step {
    requests: usize,
    failed: u64,
    p50_ms: f64,
    p99_ms: f64,
    late_p99_ms: f64,
    backlog_max: usize,
    per_front_us: [(f64, f64); LANES],
    /// Correct replies per second, from the start to the last reply.
    reply_rps: f64,
    /// Whether a connection sent every request planned for it.
    ran_out: bool,
    lanes: usize,
}

fn sorted(v: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = v.collect();
    v.sort_by(f64::total_cmp);
    v
}

impl Step {
    fn new(conns: &[ConnStats], planned: [usize; LANES]) -> Self {
        let all = sorted(conns.iter().flat_map(|c| c.latency_ms.iter().copied()));
        let late = sorted(conns.iter().flat_map(|c| c.late_ms.iter().copied()));
        let per_front_us = [0, 1].map(|i| {
            let v = sorted(conns[i].latency_ms.iter().copied());
            (quantile(&v, 0.5) * 1e3, quantile(&v, 0.99) * 1e3)
        });
        let failed: u64 = conns.iter().map(|c| c.failed).sum();
        let last_reply_s = conns.iter().map(|c| c.last_reply_s).fold(0.0, f64::max);
        Self {
            requests: all.len(),
            failed,
            p50_ms: quantile(&all, 0.5),
            p99_ms: quantile(&all, 0.99),
            late_p99_ms: quantile(&late, 0.99),
            backlog_max: conns.iter().map(|c| c.backlog_max).max().unwrap_or(0),
            per_front_us,
            reply_rps: ratio((all.len() as u64 - failed) as f64, last_reply_s),
            ran_out: conns.iter().zip(planned).any(|(c, n)| c.sent == n),
            lanes: conns.len(),
        }
    }
}

/// The running system: world, services, reference catalog.
struct Rig {
    world: Arc<World>,
    services: SimServices,
    dissenter: Arc<webfront::dissenter::DissenterFront>,
    gab: Arc<webfront::gab::GabFront>,
    registry: obs::Registry,
    catalog: Arc<Catalog>,
}

fn start(p: &Params, seed: u64, tracer: &Tracer) -> Rig {
    let world = tracer.span("synth.world", || {
        let cfg = synth::WorldConfig {
            seed,
            ..synth::WorldConfig::at(synth::Scale::Custom(p.f64("scale")))
        };
        Arc::new(synth::generate_sharded(&cfg, p.usize("workers")).0)
    });
    let registry = obs::Registry::new();
    let (services, dissenter, gab) = tracer.span("webfront.start", || {
        let fronts = SimFronts::with_registry(world.clone(), &registry);
        let (dissenter, gab) = (fronts.dissenter.clone(), fronts.gab.clone());
        let config = ServerConfig {
            workers: p.usize("server_reactors"),
            // One generator connection carries many users' requests.
            max_requests_per_conn: usize::MAX,
            metrics: Some(registry.clone()),
            ..crawler::default_server_config()
        };
        (
            SimServices::start_with(fronts, config).expect("start services"),
            dissenter,
            gab,
        )
    });
    let catalog = tracer.span("webfront.reference", || Arc::new(Catalog::build(&world)));
    Rig {
        world,
        services,
        dissenter,
        gab,
        registry,
        catalog,
    }
}

/// Run one step on both connections; with `send_for`, sending stops
/// after that long and the unsent requests are dropped.
fn step(
    addrs: [SocketAddr; LANES],
    users: &mut [Users; LANES],
    plans: [Plan; LANES],
    p: &Params,
    send_for: Option<Duration>,
) -> Step {
    let drain = Duration::from_secs_f64(p.f64("drain_s"));
    let depth = p.usize("pipeline_depth");
    let planned = [plans[0].due.len(), plans[1].due.len()];
    let [d, g] = plans;
    let [ud, ug] = users;
    ud.start(d.what);
    ug.start(g.what);
    let t0 = Instant::now() + Duration::from_millis(10);
    let lanes = vec![
        Lane {
            addr: addrs[0],
            due: &d.due,
            session: ud,
        },
        Lane {
            addr: addrs[1],
            due: &g.due,
            session: ug,
        },
    ];
    let conns = loadgen::run(lanes, t0, depth, drain, send_for);
    Step::new(&conns, planned)
}

/// One serve run: set-up (repeated `setup_reps` times), then the rounds.
fn serve_once(p: &Params, seed: u64, seconds: f64, tracer: &Tracer, out: &mut Outcome) {
    let reference = p.f64("reference_rps");
    let limit = p.f64("p99_limit_ms");
    let mut rng = Rng(seed);

    // Set-up: world, services, reference pages, and a warm-up at the
    // reference rate (connections, caches, validators).
    let mut setups = Vec::new();
    let mut running: Option<(Rig, [Users; LANES])> = None;
    for _ in 0..p.usize("setup_reps").max(1) {
        // Stop the previous set-up's services first, keeping its verdicts.
        if let Some((_, users)) = running.take() {
            out.problems
                .extend(users.into_iter().flat_map(|u| u.problems));
        }
        let t = Instant::now();
        let rig = start(p, seed, tracer);
        let mix = Mix::new(p, rig.catalog.clone());
        let addrs = [rig.services.dissenter.addr(), rig.services.gab.addr()];
        let mut users = [
            Users::new(rig.catalog.clone()),
            Users::new(rig.catalog.clone()),
        ];
        let plans = mix.plan(reference, p.f64("warmup_s"), &mut Rng(seed ^ 0x3a3a));
        let w = tracer.span("loadgen.warmup", || step(addrs, &mut users, plans, p, None));
        setups.push(t.elapsed().as_secs_f64());
        out.attempted += w.requests as u64;
        out.failed += w.failed;
        running = Some((rig, users));
    }
    out.set("setup_s", median(&setups));
    // The users that warmed the last set-up keep their validators and
    // vote tallies for the rounds.
    let (rig, mut users) = running.expect("at least one set-up");
    let generation_before = rig.dissenter.cache().generation();

    // Rounds: each offers the reference rate, then saturates the fronts,
    // for a short window. Figures are medians over rounds, so a passing
    // disturbance of the shared machine spoils one window, not the run.
    let mix = Mix::new(p, rig.catalog.clone());
    let addrs = [rig.services.dissenter.addr(), rig.services.gab.addr()];
    let rounds = p.usize("rounds").max(1);
    let round_s = seconds / rounds as f64;
    let ref_s = round_s * p.f64("reference_share");
    let sat_s = round_s - ref_s;
    let saturation = p.f64("saturation_rps");
    let (mut at_ref, mut at_sat): (Vec<Step>, Vec<Step>) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let plans = mix.plan(reference, ref_s, &mut rng);
        let s = tracer.span("loadgen.reference", || {
            step(addrs, &mut users, plans, p, None)
        });
        let plans = mix.plan(saturation, sat_s, &mut rng);
        let send_for = Some(Duration::from_secs_f64(sat_s));
        let c = tracer.span("loadgen.saturate", || {
            step(addrs, &mut users, plans, p, send_for)
        });
        eprintln!(
            "serve round {round}: {reference} req/s: {} requests, p50 {:.3} ms, p99 {:.3} ms, late p99 {:.3} ms, backlog max {}; saturated: {} requests, {:.0} replies/s",
            s.requests, s.p50_ms, s.p99_ms, s.late_p99_ms, s.backlog_max, c.requests, c.reply_rps,
        );
        out.check(!c.ran_out, || {
            format!("round {round}: a connection ran out of requests while saturating: raise saturation_rps")
        });
        for st in [&s, &c] {
            out.attempted += st.requests as u64;
            out.failed += st.failed;
        }
        at_ref.push(s);
        at_sat.push(c);
    }
    for u in &users {
        out.problems.extend(u.problems.iter().cloned());
    }

    let med =
        |steps: &[Step], f: &dyn Fn(&Step) -> f64| median(&steps.iter().map(f).collect::<Vec<_>>());
    let late = med(&at_ref, &|s| s.late_p99_ms);
    out.check(late <= limit, || {
        format!("generator ran late: p99 lateness {late:.3} ms exceeds the {limit} ms limit at the reference rate")
    });
    let capacity = at_sat.iter().map(|s| s.reply_rps).fold(0.0, f64::max);
    let (p50, p99) = (med(&at_ref, &|s| s.p50_ms), med(&at_ref, &|s| s.p99_ms));
    eprintln!(
        "serve: capacity {capacity:.0} replies/s; at {reference} req/s p50 {p50:.3} ms, p99 {p99:.3} ms (limit {limit} ms)"
    );
    out.set("throughput", capacity);

    // Layer numbers (printed by traced runs).
    out.set("loadgen.p50_ms", p50);
    out.set("loadgen.p99_ms", p99);
    out.set("loadgen.capacity_rps", capacity);
    out.set("loadgen.late_ms_p99", late);
    out.set(
        "loadgen.backlog_max",
        at_ref.iter().map(|s| s.backlog_max).max().unwrap_or(0) as f64,
    );
    out.set(
        "loadgen.reference_samples",
        at_ref.iter().map(|s| s.requests).sum::<usize>() as f64,
    );
    out.set(
        "loadgen.connections",
        at_ref
            .iter()
            .chain(&at_sat)
            .map(|s| s.lanes)
            .max()
            .unwrap_or(0) as f64,
    );
    for (i, front) in ["dissenter", "gab"].iter().enumerate() {
        out.set(
            &format!("httpnet.{front}.latency_us_p50"),
            med(&at_ref, &|s| s.per_front_us[i].0),
        );
        out.set(
            &format!("httpnet.{front}.latency_us_p99"),
            med(&at_ref, &|s| s.per_front_us[i].1),
        );
    }
    let snap = rig.registry.snapshot();
    let c = |n: &str| snap.counter(n).unwrap_or(0) as f64;
    let (hits, misses) = (c("cache.hits"), c("cache.misses"));
    out.set("webfront.cache_hit_frac", ratio(hits, hits + misses));
    out.set(
        "webfront.invalidations",
        (rig.dissenter.cache().generation() - generation_before) as f64,
    );
    out.set("httpnet.accept_errors", c("accept.errors"));
    let served = rig.services.dissenter.requests_served() + rig.services.gab.requests_served();
    out.set("httpnet.requests", served as f64);
    let replies: u64 = users.iter().map(|u| u.replies).sum();
    let not_modified: u64 = users.iter().map(|u| u.not_modified).sum();
    out.set(
        "httpnet.not_modified_frac",
        ratio(not_modified as f64, replies as f64),
    );
    out.set(
        "input.comments",
        rig.world.dissenter.comments().len() as f64,
    );
    out.set("input.urls", rig.world.dissenter.urls().len() as f64);

    if tracer.is_on() {
        let probe = tracer.span("webfront.handle_probe", || {
            handle_probe(&rig, &mix, &mut rng)
        });
        out.set("webfront.handle_us_p50", probe);
        out.set(
            "synth.world_s",
            tracer.total_s("synth.world") / setups.len() as f64,
        );
        out.set(
            "synth.comments_per_s",
            rig.world.dissenter.comments().len() as f64 * setups.len() as f64
                / tracer.total_s("synth.world"),
        );
        out.set(
            "webfront.start_s",
            tracer.total_s("webfront.start") / setups.len() as f64,
        );
    }
    drop(users);
    tracer.span("webfront.stop", || drop(rig));
}

/// Median in-process `Handler::handle` time over GETs of the serve mix,
/// through the served fronts (their caches as the rounds left them).
fn handle_probe(rig: &Rig, mix: &Mix, rng: &mut Rng) -> f64 {
    let plans = mix.plan(4000.0, 0.5, rng);
    let mut times = Vec::new();
    for (conn, plan) in plans.iter().enumerate() {
        let front: &dyn Handler = if conn == 0 {
            rig.dissenter.as_ref()
        } else {
            rig.gab.as_ref()
        };
        for what in &plan.what {
            if let What::Get { kind, idx, .. } = *what {
                let req = Request::get(&rig.catalog.targets(kind)[idx].path);
                let t = Instant::now();
                std::hint::black_box(front.handle(&req));
                times.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    median(&times)
}

/// Run the workload.
pub fn run(p: &Params, args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    if tracer.is_on() {
        // The untraced pass gives the tracing overhead; its checks count.
        let t = Instant::now();
        let mut plain = Outcome::default();
        serve_once(p, args.seed, args.seconds, &Tracer::off(), &mut plain);
        out.set("trace.untraced_wall_s", t.elapsed().as_secs_f64());
        out.attempted += plain.attempted;
        out.failed += plain.failed;
        out.problems.extend(plain.problems);
        tracer.span("core.serve", || {
            serve_once(p, args.seed, args.seconds, tracer, &mut out)
        });
    } else {
        serve_once(p, args.seed, args.seconds, tracer, &mut out);
    }
    out
}
