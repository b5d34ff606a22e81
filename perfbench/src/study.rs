//! The `study` workload: one fresh paper study through
//! `dissenter_core::run_study` (SVM on, clean network, in memory).
//!
//! Untraced, the timed window repeats `run_study` until `--seconds` have
//! passed (at least `min_reps` times). Every repetition must balance its
//! per-phase crawl books and render the same deterministic report as a
//! `workers = 1` reference study of the same seed, run after the window.
//!
//! Traced, the run performs one untraced `run_study` (the baseline for
//! the tracing overhead) and one inside a span; the stage and crawl-phase
//! spans `run_study` publishes in its own `obs` event log become that
//! span's children. The two studies must render identically.

use crate::layers::{self, check_books, fnv64};
use crate::spec::Params;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Outcome};
use dissenter_core::{render, run_study, Study, StudyConfig};
use std::time::Instant;
use synth::Scale;

fn config(p: &Params, seed: u64, scale: f64, workers: usize) -> StudyConfig {
    Study::builder()
        .scale(Scale::Custom(scale))
        .seed(seed)
        .workers(workers)
        .crawl_workers(p.usize("crawl_workers"))
        .svm(true)
        .svm_corpus(p.usize("svm_corpus"))
        .build()
        .expect("study parameters in spec.json are valid")
}

fn digest(study: &Study) -> u64 {
    fnv64(render::deterministic(study).as_bytes())
}

/// Run the workload.
pub fn run(p: &Params, args: &Args, tracer: &Tracer) -> Outcome {
    let cfg = config(p, args.seed, p.f64("scale"), p.usize("workers"));
    let mut out = Outcome::default();

    // Set-up: warm-up studies at a tiny scale, so code pages, thread
    // stacks and the allocator are warm before anything is timed.
    let warm = config(p, args.seed, p.f64("setup_scale"), p.usize("workers"));
    let setups: Vec<f64> = (0..p.usize("setup_reps").max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(run_study(&warm));
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.set("setup_s", median(&setups));
    if tracer.is_on() {
        traced(&cfg, tracer, &mut out);
        return out;
    }

    let window = Instant::now();
    let (mut walls, mut digests, mut comments) = (Vec::new(), Vec::new(), 0);
    while walls.len() < p.usize("min_reps").max(1) || window.elapsed().as_secs_f64() < args.seconds
    {
        let t = Instant::now();
        let study = run_study(&cfg);
        walls.push(t.elapsed().as_secs_f64());
        let (attempted, dead) = check_books(&study.store, &mut out, "study");
        out.attempted += attempted + 1;
        out.failed += dead;
        digests.push(digest(&study));
        comments = study.report.overview.comments;
        let stages: Vec<String> = study
            .runstats
            .stages
            .iter()
            .map(|s| format!("{} {:.3}", s.name, s.wall_us as f64 / 1e6))
            .collect();
        eprintln!(
            "study rep {}: {:.3} s, {} comments, {} urls; stages {}",
            walls.len(),
            walls[walls.len() - 1],
            comments,
            study.report.overview.urls,
            stages.join(", ")
        );
    }

    // Output check: same report as a single-worker study of the seed.
    let reference = digest(&run_study(&config(p, args.seed, p.f64("scale"), 1)));
    for (i, d) in digests.iter().enumerate() {
        out.check(*d == reference, || {
            format!("study rep {i}: report digest {d:016x} != workers=1 reference {reference:016x}")
        });
    }

    let wall = median(&walls);
    out.set("throughput", comments as f64 / wall);
    out
}

/// The trace name of a span `run_study` publishes as an `obs` span
/// event (`stage.*` around each pipeline stage, `crawl.<phase>` around
/// each crawl phase).
fn layer_name(span: &str) -> String {
    match span {
        "stage.synth" => "synth.world".into(),
        "stage.serve" => "webfront.start".into(),
        "stage.crawl" => "crawler.crawl".into(),
        "stage.report" => "analysis.report".into(),
        "stage.svm" => "core.svm_experiment".into(),
        other => match other.strip_prefix("crawl.") {
            Some(phase) => format!("crawler.{phase}"),
            None => other.to_owned(),
        },
    }
}

/// The span events of a run's event log as `(name, start_s, end_s)`,
/// offset by `origin` (the tracer time the run's registry started).
fn span_events(events_jsonl: &str, origin: f64) -> Vec<(String, f64, f64)> {
    events_jsonl
        .lines()
        .filter_map(|line| jsonlite::parse(line).ok())
        .filter(|e| e.get("event").and_then(|v| v.as_str()) == Some("span"))
        .filter_map(|e| {
            let name = e.get("name")?.as_str()?;
            let end_us = e.get("ts_us")?.as_f64()?;
            let dur_us: f64 = e.get("dur_us")?.as_str()?.parse().ok()?;
            let end = origin + end_us / 1e6;
            Some((layer_name(name), end - dur_us / 1e6, end))
        })
        .collect()
}

/// One untraced `run_study` (the overhead baseline), then one inside a
/// `core.study` span whose children are the stage and crawl-phase spans
/// `run_study` publishes in its own event log.
fn traced(cfg: &StudyConfig, tracer: &Tracer, out: &mut Outcome) {
    let t = Instant::now();
    let plain = run_study(cfg);
    out.set("trace.untraced_wall_s", t.elapsed().as_secs_f64());
    let world_comments = synth::WorldSource::new(&cfg.world, cfg.workers).comments_remaining();

    let study = tracer.span("core.study", || {
        let origin = tracer.now_s();
        let study = run_study(cfg);
        let spans = span_events(&study.runstats.events_jsonl, origin);
        let ids = tracer.adopt(&spans);
        for ((name, _, _), id) in spans.iter().zip(ids) {
            let Some(phase) = study
                .runstats
                .phases
                .iter()
                .find(|p| *name == format!("crawler.{}", p.name))
            else {
                continue;
            };
            tracer.count_in(id, &format!("{name}.attempted"), phase.attempted as f64);
            tracer.count_in(
                id,
                &format!("{name}.dead_lettered"),
                phase.dead_lettered as f64,
            );
        }
        study
    });
    let (attempted, dead) = check_books(&study.store, out, "traced study");
    out.attempted += attempted + 1;
    out.failed += dead;
    let (a, b) = (digest(&plain), digest(&study));
    out.check(a == b, || {
        format!("traced study digest {b:016x} != untraced digest {a:016x}")
    });

    layers::from_registry(&study.runstats.snapshot, out);
    let world_s = tracer.total_s("synth.world");
    out.set("synth.world_s", world_s);
    out.set("synth.comments_per_s", world_comments as f64 / world_s);
    out.set("webfront.start_s", tracer.total_s("webfront.start"));
    for phase in crawler::Phase::ALL {
        let name = format!("crawler.{}", phase.name());
        out.set(&format!("{name}_s"), tracer.total_s(&name));
    }
    out.set("analysis.report_s", tracer.total_s("analysis.report"));
    out.set(
        "core.svm_experiment_s",
        tracer.total_s("core.svm_experiment"),
    );
    out.set("core.self_s", tracer.own_s("core.study"));
    out.set("input.comments", study.report.overview.comments as f64);
    out.set("input.urls", study.report.overview.urls as f64);
}
