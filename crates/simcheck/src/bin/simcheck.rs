//! Seeded scenario sweeps for CI and soak runs.
//!
//! ```text
//! simcheck [--count N] [--start S] [--family all|crash|abuse|longitudinal|scale] [--replay-dir DIR] [--replay FILE]
//! ```
//!
//! Runs `N` seeded scenarios starting at seed `S` through every oracle.
//! On failure the scenario is shrunk to a minimal still-failing case and
//! written as a replay JSON under `--replay-dir` (default
//! `simcheck/replays/`); the sweep continues through the remaining seeds
//! and the process exits nonzero. `--replay FILE` re-executes one replay
//! file instead of sweeping. `--family crash` restricts both the sweep
//! and the shrinker to the crash-recovery oracle family (the CI crash
//! job's mode — a kill-point sweep without the full differential stack);
//! `--family abuse` does the same for the adversarial-traffic family
//! (seeded hostile profiles against hardened services); `--family
//! longitudinal` restricts to the sweep-composition family (incremental
//! sweeps over an evolving world vs a one-shot study); `--family scale`
//! restricts to the out-of-core family (streamed world generation and
//! spilled/merged analysis vs the in-memory reference path).

use simcheck::{check_scenario_family, replay, shrink, Family, Scenario};
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    count: u64,
    start: u64,
    family: Family,
    replay_dir: PathBuf,
    replay_file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        count: 5,
        start: 1,
        family: Family::All,
        replay_dir: PathBuf::from(replay::DEFAULT_DIR),
        replay_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--count" => args.count = value("--count")?.parse().map_err(|e| format!("--count: {e}"))?,
            "--start" => args.start = value("--start")?.parse().map_err(|e| format!("--start: {e}"))?,
            "--family" => args.family = Family::parse(&value("--family")?)?,
            "--replay-dir" => args.replay_dir = PathBuf::from(value("--replay-dir")?),
            "--replay" => args.replay_file = Some(PathBuf::from(value("--replay")?)),
            "--help" | "-h" => {
                println!(
                    "usage: simcheck [--count N] [--start S] [--family all|crash|abuse|longitudinal|scale] \
                     [--replay-dir DIR] [--replay FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn describe(sc: &Scenario) -> String {
    format!(
        "scale {:.5}, workers {}x{}, retries {}, fault mass {:.4}{}{}{}{}{}",
        sc.scale,
        sc.workers,
        sc.crawl_workers,
        sc.retries,
        sc.total_fault_prob(),
        if sc.svm { ", +svm" } else { "" },
        if sc.kill_fraction > 0.0 {
            format!(", kill@{:.2}{}", sc.kill_fraction, if sc.torn_tail { " torn" } else { "" })
        } else {
            String::new()
        },
        if sc.abuse_conns > 0 {
            format!(
                ", abuse {}x{}",
                simcheck::abusegen::Profile::from_index(sc.abuse_profile).name(),
                sc.abuse_conns
            )
        } else {
            String::new()
        },
        if sc.epochs > 0 {
            format!(", longitudinal {}e drift {:.2}", sc.epochs, sc.drift)
        } else {
            String::new()
        },
        if sc.stream_batch > 0 {
            format!(", scale batch {} spill {}", sc.stream_batch, sc.spill_budget)
        } else {
            String::new()
        }
    )
}

fn run_one(sc: &Scenario, family: Family, replay_dir: &std::path::Path) -> bool {
    let started = Instant::now();
    match check_scenario_family(sc, family) {
        Ok(()) => {
            println!(
                "seed {:>6}: ok    ({:.1}s; {})",
                sc.seed,
                started.elapsed().as_secs_f64(),
                describe(sc)
            );
            true
        }
        Err(failure) => {
            eprintln!("seed {:>6}: FAIL  {failure}", sc.seed);
            eprintln!("  shrinking ({})...", describe(sc));
            let (min, min_failure) =
                shrink::shrink(sc.clone(), failure, |c| check_scenario_family(c, family).err());
            eprintln!("  minimal: {} -> {min_failure}", describe(&min));
            match replay::write(replay_dir, &replay::Replay::new(min, &min_failure)) {
                Ok(path) => eprintln!("  replay written: {}", path.display()),
                Err(e) => eprintln!("  replay write failed: {e}"),
            }
            false
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simcheck: {e}");
            std::process::exit(2);
        }
    };

    if let Some(file) = &args.replay_file {
        let replay = match replay::read(file) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("simcheck: {e}");
                std::process::exit(2);
            }
        };
        println!("replaying {} (originally failed: [{}] {})", file.display(), replay.check, replay.detail);
        if !run_one(&replay.scenario, args.family, &args.replay_dir) {
            std::process::exit(1);
        }
        return;
    }

    let started = Instant::now();
    let mut failed = 0u64;
    for seed in args.start..args.start.saturating_add(args.count) {
        if !run_one(&Scenario::from_seed(seed), args.family, &args.replay_dir) {
            failed += 1;
        }
    }
    println!(
        "{} scenarios, {} failed, {:.1}s total",
        args.count,
        failed,
        started.elapsed().as_secs_f64()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
