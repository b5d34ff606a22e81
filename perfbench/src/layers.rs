//! Pieces the crawl-based workloads share: stable digests, the crawl's
//! phase table, and per-layer numbers read from the `obs` counters the
//! crates already publish.

use crate::stats::ratio;
use crate::trace::Tracer;
use crate::Outcome;
use crawler::{CrawlStore, Crawler, Phase};

/// The four simulated services, as named in `http.<service>.*` metrics.
pub const SERVICES: [&str; 4] = ["dissenter", "gab", "reddit", "youtube"];

/// FNV-1a 64 over `bytes`: a stable digest for comparing outputs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The public function that runs one crawl phase (the crawler's
/// `full_crawl` runs the same functions in [`Phase::ALL`] order).
pub fn phase_fn(phase: Phase) -> fn(&Crawler, &mut CrawlStore) {
    match phase {
        Phase::GabEnum => crawler::gab_enum::enumerate,
        Phase::Probe => crawler::probe::probe_dissenter_accounts,
        Phase::Spider => crawler::spider::spider,
        Phase::Shadow => crawler::shadow::shadow_crawl,
        Phase::Youtube => crawler::youtube::crawl_youtube,
        Phase::Social => crawler::social::crawl_social,
        Phase::Reddit => crawler::reddit::crawl_reddit,
    }
}

/// Run every crawl phase in order, each under a `crawler.<phase>` span,
/// recording the phase's coverage counts at its boundary. `after` runs
/// once per phase inside the sweep (the durable commit, when journaled).
pub fn crawl_phases(
    tracer: &Tracer,
    crawler: &Crawler,
    store: &mut CrawlStore,
    mut after: impl FnMut(Phase, &CrawlStore),
) {
    for phase in Phase::ALL {
        tracer.span(&format!("crawler.{}", phase.name()), || {
            phase_fn(phase)(crawler, store)
        });
        let s = store.stats.phase(phase).snapshot();
        tracer.count(
            &format!("crawler.{}.attempted", phase.name()),
            s.attempted as f64,
        );
        tracer.count(
            &format!("crawler.{}.dead_lettered", phase.name()),
            s.dead_lettered as f64,
        );
        after(phase, store);
    }
}

/// Per-layer numbers from a run's `obs` registry: crawl coverage and
/// throttling, wire requests, revalidations, retries, per-service client
/// latency, and the scoring pass's wall and rate.
pub fn from_registry(snap: &obs::Snapshot, out: &mut Outcome) {
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let (mut attempted, mut succeeded, mut throttled) = (0.0, 0.0, 0.0);
    for phase in Phase::ALL {
        let p = phase.name();
        for what in ["attempted", "retried", "dead_lettered"] {
            out.set(
                &format!("crawler.{p}.{what}"),
                c(&format!("crawl.{p}.{what}")),
            );
        }
        attempted += c(&format!("crawl.{p}.attempted"));
        succeeded += c(&format!("crawl.{p}.succeeded"));
        throttled += c(&format!("crawl.{p}.throttle_sleeps"));
    }
    out.set("crawler.useful_frac", ratio(succeeded, attempted));
    out.set("crawler.throttle_sleeps", throttled);

    let sum = |suffix: &str| {
        SERVICES
            .iter()
            .map(|s| c(&format!("http.{s}.{suffix}")))
            .sum::<f64>()
    };
    let requests = sum("requests");
    out.set("httpnet.requests", requests);
    out.set(
        "httpnet.not_modified_frac",
        ratio(sum("not_modified"), requests),
    );
    out.set("httpnet.retries", sum("retries"));
    out.set("httpnet.accept_errors", c("accept.errors"));
    let (reuse, open) = (c("pool.reuse"), c("pool.open"));
    out.set("httpnet.pool_reuse_frac", ratio(reuse, reuse + open));
    for s in SERVICES {
        if let Some(h) = snap.histogram(&format!("http.{s}.latency")) {
            out.set(
                &format!("httpnet.{s}.latency_us_p50"),
                h.p50_ns as f64 / 1e3,
            );
            out.set(
                &format!("httpnet.{s}.latency_us_p99"),
                h.p99_ns as f64 / 1e3,
            );
        }
    }

    let score_s = snap
        .histogram("shard.classify.score.gather")
        .map_or(0.0, |h| h.sum_ns as f64 / 1e9);
    out.set("classify.score_s", score_s);
    let scored = c("shard.classify.score.items");
    out.set("classify.comments_per_s", ratio(scored, score_s));
}

/// Check that every phase's books balance: each attempted fetch either
/// succeeded or was dead-lettered. Returns the totals
/// `(attempted, dead_lettered)`.
pub fn check_books(store: &CrawlStore, out: &mut Outcome, what: &str) -> (u64, u64) {
    let (mut attempted, mut dead) = (0, 0);
    for phase in Phase::ALL {
        let s = store.stats.phase(phase).snapshot();
        out.check(s.attempted == s.succeeded + s.dead_lettered, || {
            format!(
                "{what}: phase {} books unbalanced: attempted {} != succeeded {} + dead-lettered {}",
                phase.name(),
                s.attempted,
                s.succeeded,
                s.dead_lettered
            )
        });
        attempted += s.attempted;
        dead += s.dead_lettered;
    }
    (attempted, dead)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv_is_stable() {
        assert_eq!(super::fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(super::fnv64(b"a"), super::fnv64(b"b"));
    }
}
