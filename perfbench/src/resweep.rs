//! The `resweep` workload: a journaled longitudinal study through
//! `dissenter_core::longitudinal::run_composed` — a base sweep plus
//! `epochs` incremental sweeps over the evolving world, sharing one
//! revalidation cache and clock, carrying `SweepHint`s forward, with
//! every sweep journaled (WAL + snapshots) under its own directory.
//!
//! Untraced, the timed window repeats `run_composed` (at least
//! `min_reps` times); every repetition must balance its crawl books and
//! produce byte-identical artifacts (`longitudinal::artifacts`).
//!
//! Traced, the run performs one untraced `run_composed`, then the same
//! composition step by step through public functions (epoch world,
//! sweep fronts, the seven crawl phases each followed by its journal
//! commit, windowed analysis, report), each under a span; both must
//! produce the same artifacts.

use crate::layers::{self, check_books, crawl_phases, fnv64, SERVICES};
use crate::spec::Params;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{scratch_dir, Args, Outcome};
use analysis::windowed::{self, epoch_end, DRIFT_FLAG_THRESHOLD};
use crawler::{CrawlStore, Crawler, DurableConfig, Endpoints};
use dissenter_core::longitudinal::{
    artifacts, run_composed, version_schedule, LongitudinalConfig, LongitudinalStudy,
};
use dissenter_core::Study;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use synth::Scale;
use webfront::{SimFronts, SimServices};

fn config(p: &Params, seed: u64, scale: f64, root: Option<&Path>) -> LongitudinalConfig {
    let study = Study::builder()
        .scale(Scale::Custom(scale))
        .seed(seed)
        .workers(p.usize("workers"))
        .crawl_workers(p.usize("crawl_workers"))
        .svm(false)
        .build()
        .expect("resweep parameters in spec.json are valid");
    LongitudinalConfig {
        study,
        epochs: p.usize("epochs") as u32,
        drift: p.f64("drift"),
        drift_seed: seed,
        calibration: p.usize("calibration"),
        durable_root: root.map(Path::to_path_buf),
        kill_sweep: None,
    }
}

fn digest(ls: &LongitudinalStudy) -> u64 {
    let mut bytes = Vec::new();
    for (name, body) in artifacts(ls) {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&fnv64(&body).to_le_bytes());
    }
    fnv64(&bytes)
}

/// Total size of the WAL segments under a journal root.
fn wal_bytes(root: &Path) -> u64 {
    let Ok(sweeps) = std::fs::read_dir(root) else {
        return 0;
    };
    sweeps
        .flatten()
        .filter_map(|d| std::fs::read_dir(d.path()).ok())
        .flat_map(|files| files.flatten())
        .filter(|f| f.file_name().to_string_lossy().ends_with(".seg"))
        .filter_map(|f| f.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// One `run_composed` into a fresh journal root, removed afterwards.
fn composed(p: &Params, seed: u64, scale: f64, tag: &str) -> (LongitudinalStudy, f64) {
    let root = scratch_dir(tag);
    let t = Instant::now();
    let ls = run_composed(&config(p, seed, scale, Some(&root)));
    let wall = t.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&root).ok();
    (ls, wall)
}

/// Run the workload.
pub fn run(p: &Params, args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: warm-up compositions at a tiny scale. They are not
    // journaled: at that scale the journal's fsyncs made up most of the
    // set-up time, which then followed the disk rather than the program.
    let warm = config(p, args.seed, p.f64("setup_scale"), None);
    let setups: Vec<f64> = (0..p.usize("setup_reps").max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(run_composed(&warm));
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.set("setup_s", median(&setups));
    if tracer.is_on() {
        traced(p, args.seed, tracer, &mut out);
        return out;
    }

    let window = Instant::now();
    let (mut walls, mut digests, mut comments) = (Vec::new(), Vec::new(), 0);
    while walls.len() < p.usize("min_reps").max(1) || window.elapsed().as_secs_f64() < args.seconds
    {
        let (ls, wall) = composed(
            p,
            args.seed,
            p.f64("scale"),
            &format!("resweep-{}", walls.len()),
        );
        walls.push(wall);
        let (_, dead) = check_books(&ls.study.store, &mut out, "resweep final sweep");
        out.attempted += ls.sweep_requests.iter().sum::<u64>() + 1;
        out.failed += dead;
        digests.push(digest(&ls));
        comments = ls.study.report.overview.comments;
        let nm: u64 = ls.sweep_not_modified.iter().sum();
        let req: u64 = ls.sweep_requests.iter().sum();
        eprintln!(
            "resweep rep {}: {wall:.3} s, sweeps {:?}, {nm}/{req} requests answered 304, {comments} comments",
            walls.len(),
            ls.sweep_wall.iter().map(|d| (d.as_secs_f64() * 1e3).round() / 1e3).collect::<Vec<_>>()
        );
    }
    for (i, d) in digests.iter().enumerate() {
        out.check(*d == digests[0], || {
            format!(
                "resweep rep {i}: artifact digest {d:016x} != rep 0 digest {:016x}",
                digests[0]
            )
        });
    }

    let wall = median(&walls);
    out.set("throughput", comments as f64 / wall);
    out
}

/// Endpoints of a running service set.
fn endpoints(services: &SimServices) -> Endpoints {
    Endpoints {
        dissenter: services.dissenter.addr(),
        gab: services.gab.addr(),
        reddit: services.reddit.addr(),
        youtube: services.youtube.addr(),
    }
}

/// `run_composed`, step by step, each step under a span. One registry
/// collects every sweep's metrics so the layer numbers cover the whole
/// composition.
fn staged(
    cfg: &LongitudinalConfig,
    root: &Path,
    metrics: &obs::Registry,
    tracer: &Tracer,
) -> LongitudinalStudy {
    let workers = cfg.study.workers.max(1);
    let versions = version_schedule(cfg.epochs, cfg.drift, cfg.drift_seed);
    let clock = platform::SimClock::new(epoch_end(0));
    let reval = httpnet::RevalidationCache::new(1 << 18);
    let requests_so_far = || {
        let snap = metrics.snapshot();
        let sum = |suffix: &str| -> u64 {
            SERVICES
                .iter()
                .map(|s| snap.counter(&format!("http.{s}.{suffix}")).unwrap_or(0))
                .sum()
        };
        (sum("not_modified"), sum("requests"))
    };

    let (mut sweep_not_modified, mut sweep_requests, mut sweep_wall) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<(Arc<platform::World>, CrawlStore)> = None;
    for e in 0..=cfg.epochs {
        let (world, store) = tracer.span("core.sweep", || {
            clock.advance_to(epoch_end(e));
            let world = tracer.span("synth.epoch_world", || {
                Arc::new(synth::world_at_epoch(&cfg.study.world, e, workers).0)
            });
            let hint = last
                .as_ref()
                .and_then(|(_, store)| crawler::SweepHint::from_store(store));
            let services = tracer.span("webfront.start", || {
                let fronts = SimFronts::for_sweep(world.clone(), metrics, clock.clone());
                let server_config = httpnet::ServerConfig {
                    faults: cfg.study.faults,
                    metrics: Some(metrics.clone()),
                    ..crawler::default_server_config()
                };
                SimServices::start_with(fronts, server_config).expect("start sweep services")
            });
            let mut crawler = Crawler::new(endpoints(&services));
            crawler.config = cfg.study.crawl.clone();
            crawler.metrics = metrics.clone();
            crawler.config.enum_gap_tolerance = crawler
                .config
                .enum_gap_tolerance
                .min((world.gab.max_id() / 4).max(512));
            crawler.set_revalidation(reval.clone());
            crawler.set_clock(clock.clone());
            if let Some(hint) = hint {
                crawler.set_sweep_hint(hint);
            }

            let before = requests_so_far();
            let started = Instant::now();
            let dir = root.join(format!("sweep-{e}"));
            let mut journal = tracer.span("durable.create", || {
                crawler::journal::Journal::create(&dir, &DurableConfig::default(), metrics.clone())
                    .expect("create sweep journal")
            });
            let mut store = CrawlStore::default();
            crawl_phases(tracer, &crawler, &mut store, |phase, store| {
                tracer.span("durable.commit", || {
                    journal
                        .commit_phase(phase, store, crawler.revalidation_cache())
                        .expect("commit phase")
                })
            });
            sweep_wall.push(started.elapsed());
            let after = requests_so_far();
            sweep_not_modified.push(after.0 - before.0);
            sweep_requests.push(after.1 - before.1);
            tracer.span("webfront.stop", || drop(services));
            (world, store)
        });
        last = Some((world, store));
    }
    let (world, store) = last.expect("at least one sweep");

    tracer.span("core.finish", || {
        let pool = httpnet::ThreadPool::with_metrics(workers, workers * 2, Some(metrics));
        let (growth, windows, crossover, drift) = tracer.span("analysis.windowed", || {
            let growth = windowed::growth_curve(&store, cfg.epochs);
            let windows: Vec<_> = (0..=cfg.epochs)
                .map(|w| {
                    windowed::window_toxicity(
                        &store,
                        w,
                        &versions[w as usize],
                        &pool,
                        Some(metrics),
                    )
                })
                .collect();
            let crossover = windowed::crossover_window(&windows);
            let drift = windowed::drift_report(
                &store,
                &versions,
                cfg.calibration,
                DRIFT_FLAG_THRESHOLD,
                &pool,
                Some(metrics),
            );
            (growth, windows, crossover, drift)
        });
        let report = tracer.span("analysis.report", || {
            analysis::report::build_report_pooled(&store, &world.baselines, &pool, Some(metrics))
        });
        let runstats = dissenter_core::runstats::collect(metrics);
        let study = Study {
            report,
            svm: None,
            store,
            scale_factor: cfg.study.world.scale.factor(),
            runstats,
        };
        LongitudinalStudy {
            study,
            growth,
            windows,
            crossover,
            drift,
            versions,
            sweep_not_modified,
            sweep_requests,
            sweep_wall,
        }
    })
}

fn traced(p: &Params, seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let scale = p.f64("scale");
    let (plain, wall) = composed(p, seed, scale, "resweep-plain");
    out.set("trace.untraced_wall_s", wall);

    let root: PathBuf = scratch_dir("resweep-traced");
    let metrics = obs::Registry::new();
    let cfg = config(p, seed, scale, Some(&root));
    let ls = tracer.span("core.resweep", || staged(&cfg, &root, &metrics, tracer));
    let (_, dead) = check_books(&ls.study.store, out, "traced resweep");
    out.attempted += ls.sweep_requests.iter().sum::<u64>() + 1;
    out.failed += dead;
    let (a, b) = (digest(&plain), digest(&ls));
    out.check(a == b, || {
        format!("traced resweep artifacts {b:016x} != run_composed artifacts {a:016x}")
    });

    let snap = metrics.snapshot();
    layers::from_registry(&snap, out);
    out.set("synth.epoch_world_s", tracer.total_s("synth.epoch_world"));
    out.set("webfront.start_s", tracer.total_s("webfront.start"));
    for phase in crawler::Phase::ALL {
        let name = format!("crawler.{}", phase.name());
        out.set(&format!("{name}_s"), tracer.total_s(&name));
    }
    out.set("durable.commit_s", tracer.total_s("durable.commit"));
    out.set(
        "durable.fsyncs",
        snap.counter("wal.fsyncs").unwrap_or(0) as f64,
    );
    out.set(
        "durable.snapshot_bytes",
        snap.counter("snapshot.bytes").unwrap_or(0) as f64,
    );
    out.set("durable.wal_bytes", wal_bytes(&root) as f64);
    out.set("analysis.windowed_s", tracer.total_s("analysis.windowed"));
    out.set("analysis.report_s", tracer.total_s("analysis.report"));
    out.set(
        "core.self_s",
        tracer.self_times().get("core").copied().unwrap_or(0.0),
    );
    out.set("input.comments", ls.study.report.overview.comments as f64);
    out.set("input.urls", ls.study.report.overview.urls as f64);
    std::fs::remove_dir_all(&root).ok();
}
