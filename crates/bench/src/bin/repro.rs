//! The reproduction harness: regenerate any table or figure of the paper.
//!
//! ```text
//! repro [--scale small|medium|paper|<f64>] [--seed N] [--skip-svm]
//!       [--out-of-core] [--budget-gib <f64>]
//!       [--export <dir>] [--save-crawl <dir>] [all|<experiment-id>…]
//! repro --list
//! ```
//!
//! Runs the full pipeline (generate → serve over loopback HTTP → crawl →
//! classify → analyze) once, then prints the requested artifacts.
//!
//! `--out-of-core` streams the world and spills the heavy report tables
//! to disk; `--budget-gib` sets a peak-RSS ceiling that `run_study`
//! checks at every stage boundary and every 100k streamed items,
//! panicking (nonzero exit) with the stage named when it is crossed.
//! The paper-scale run is `repro --scale paper --out-of-core
//! --budget-gib 4`; CI runs the same command at `--scale 0.1` under
//! `ulimit -v` as a smoke test.

use bench::parse_scale;
use dissenter_core::experiments::{by_id, EXPERIMENTS};
use dissenter_core::{render, run_study, MemoryBudget, Study};

fn usage() -> ! {
    eprintln!("usage: repro [--scale small|medium|paper|<f64>] [--seed N] [--skip-svm] [--out-of-core] [--budget-gib <f64>] [--export <dir>] [--save-crawl <dir>] [all|<id>...]");
    eprintln!("       repro --list");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut builder =
        dissenter_core::Study::builder().scale(synth::config::Scale::Custom(1.0 / 32.0));
    let mut wanted: Vec<String> = Vec::new();
    let mut export_dir: Option<std::path::PathBuf> = None;
    let mut save_crawl: Option<std::path::PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for e in EXPERIMENTS {
                    println!("{:<10} {}", e.id, e.artifact);
                }
                return;
            }
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                builder = builder.scale(parse_scale(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                }));
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                builder = builder.seed(v.parse().unwrap_or_else(|_| usage()));
            }
            "--skip-svm" => builder = builder.svm(false),
            "--out-of-core" => builder = builder.out_of_core(true),
            "--budget-gib" => {
                let v = args.next().unwrap_or_else(|| usage());
                let gib = v.parse().ok().filter(|g: &f64| g.is_finite() && *g > 0.0);
                let gib = gib.unwrap_or_else(|| usage());
                builder = builder.memory_budget(MemoryBudget::gib(gib));
            }
            "--export" => {
                let v = args.next().unwrap_or_else(|| usage());
                export_dir = Some(std::path::PathBuf::from(v));
            }
            "--save-crawl" => {
                let v = args.next().unwrap_or_else(|| usage());
                save_crawl = Some(std::path::PathBuf::from(v));
            }
            other if other.starts_with('-') => usage(),
            other => wanted.push(other.to_owned()),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".into());
    }
    let cfg = builder.build().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for w in &wanted {
        if w != "all" && by_id(w).is_none() {
            eprintln!("unknown experiment id {w:?}; try --list");
            std::process::exit(2);
        }
    }

    eprintln!(
        "generating world (scale factor {:.4}, seed {}) and crawling…",
        cfg.world.scale.factor(),
        cfg.world.seed
    );
    let start = std::time::Instant::now();
    let study = run_study(&cfg);
    eprintln!(
        "pipeline complete in {:.1}s ({} comments crawled, peak RSS {:.0} MiB)",
        start.elapsed().as_secs_f64(),
        study.report.overview.comments,
        study.runstats.peak_rss_bytes as f64 / (1u64 << 20) as f64
    );

    for w in wanted {
        if w == "all" {
            println!("{}", render::full(&study));
        } else {
            println!("{}", render_one(&study, &w));
        }
    }

    if let Some(dir) = export_dir {
        match analysis::export::export_csv(&study.report, &dir) {
            Ok(files) => eprintln!("exported {} CSV series to {}", files.len(), dir.display()),
            Err(e) => {
                eprintln!("export failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(dir) = save_crawl {
        match crawler::persist::save(&study.store, &dir) {
            Ok(()) => eprintln!("crawl mirror saved to {}", dir.display()),
            Err(e) => {
                eprintln!("crawl save failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn render_one(study: &Study, id: &str) -> String {
    match id {
        "overview" => render::overview(study),
        "fig2" => render::fig2(study),
        "fig3" => render::fig3(study),
        "table1" => render::table1(study),
        "table2" => render::table2(study),
        "urls" => render::urls(study),
        "youtube" => render::youtube(study),
        "languages" => render::languages(study),
        "fig4" => render::fig4(study),
        "fig5" => render::fig5(study),
        "fig6" => render::fig6_table3(study),
        "fig7" => render::fig7(study),
        "fig8" => render::fig8(study),
        "fig9" => render::fig9_core(study),
        "svm" => render::svm(study),
        "covert" => render::covert(study),
        "runstats" => render::runstats(study),
        other => format!("(no renderer for {other})"),
    }
}
