//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <study|resweep|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload built from `--seed`, measures it for `--seconds`,
//! checks the program's outputs, and prints as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end metrics of `spec.json`;
//! with `--trace 1` the run is traced (spans around every public layer
//! call, written to `.bench_out/trace-<workload>-<seed>.json`) and the
//! metrics are the per-layer ones. All files the run writes stay under
//! `.bench_out/` in the working directory.

mod layers;
mod loadgen;
mod resweep;
mod serve;
#[cfg(test)]
mod smoke;
mod spec;
mod stats;
mod study;
mod trace;

use spec::Spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <study|resweep|serve> --seed <n> --seconds <s> --trace <0|1>";

/// Where every file the benchmark writes goes, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                        return Err(bad("must be in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (studies, sweeps' fetches, requests).
    pub attempted: u64,
    /// Operations that failed (dead letters, failed checks, failed or
    /// refused requests).
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Record a check; a failed check is a problem and a failed op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
            self.failed += 1;
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }
}

/// A fresh directory under [`OUT_DIR`] for one run's scratch files.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(OUT_DIR).join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir under .bench_out");
    dir
}

fn run(spec: &Spec, args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let params = spec
        .params(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    Ok(match args.workload.as_str() {
        "study" => study::run(&params, args, tracer),
        "resweep" => resweep::run(&params, args, tracer),
        "serve" => serve::run(&params, args, tracer),
        other => return Err(format!("workload {other:?} has no runner")),
    })
}

/// Add the per-layer self-time summary and tracing-overhead metrics of
/// a traced run, and write the trace file.
fn finish_trace(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let mut selfs = tracer.self_times();
    // Scoring runs inside the analysis calls; the program's own
    // `shard.classify.score.*` histogram times it, so it moves from the
    // analysis layer's self time to classify's.
    let analysis = selfs.get("analysis").copied().unwrap_or(0.0);
    let score_s = out.metrics.get("classify.score_s").copied().unwrap_or(0.0);
    let moved = score_s.min(analysis).max(0.0);
    if moved > 0.0 {
        *selfs.entry("analysis".into()).or_insert(0.0) -= moved;
        *selfs.entry("classify".into()).or_insert(0.0) += moved;
    }
    let spans = tracer.spans();
    let traced: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_s())
        .sum();
    let accounted: f64 = selfs.values().sum();
    for (layer, secs) in &selfs {
        out.set(&format!("self.{layer}_s"), *secs);
    }
    let untraced = out
        .metrics
        .get("trace.untraced_wall_s")
        .copied()
        .unwrap_or(traced);
    out.set("trace.traced_wall_s", traced);
    out.set("trace.overhead_s", traced - untraced);
    out.set("trace.unaccounted_s", traced - accounted);
    out.set("trace.spans", spans.len() as f64);

    eprintln!("self time by layer (traced wall {traced:.3} s, untraced {untraced:.3} s):");
    for (layer, secs) in &selfs {
        eprintln!(
            "  {layer:<10} {secs:>9.3} s  {:>5.1}%",
            100.0 * secs / traced.max(1e-12)
        );
    }
    let path = Path::new(OUT_DIR).join(format!("trace-{}-{}.json", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, tracer.to_json(&selfs)) {
        out.problems
            .push(format!("writing {}: {e}", path.display()));
    } else {
        eprintln!("trace written to {}", path.display());
    }
}

/// The result line: every metric of the run's kind, with its unit.
pub fn result_line(spec: &Spec, trace: bool, out: &Outcome) -> String {
    use jsonlite::Value;
    let declared = if trace {
        spec.per_layer()
    } else {
        spec.end_to_end()
    };
    let mut metrics = Value::object();
    let mut problems = Vec::new();
    for m in &declared {
        let value = match out.metrics.get(&m.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                problems.push(format!("metric {} is not finite: {v}", m.name));
                0.0
            }
            // A layer the workload bypasses did no work.
            None if trace => 0.0,
            None => {
                problems.push(format!("end-to-end metric {} was not measured", m.name));
                0.0
            }
        };
        metrics = metrics.with(
            &m.name,
            Value::object()
                .with("value", Value::Float(value))
                .with("unit", m.unit.as_str()),
        );
    }
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = out.problems.is_empty() && problems.is_empty();
    jsonlite::to_string(
        &Value::object()
            .with("correct", correct)
            .with("attempted", out.attempted.max(1))
            .with("failed", out.failed)
            .with("metrics", metrics),
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    // The program's own temporary files (artifact CSVs, persisted
    // mirrors) land under the run's directory too.
    let tmp = scratch_dir("tmp");
    std::env::set_var(
        "TMPDIR",
        std::fs::canonicalize(&tmp).unwrap_or_else(|_| tmp.clone()),
    );

    let tracer = if args.trace {
        Tracer::new(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ))
    } else {
        Tracer::off()
    };
    let mut out = match run(&spec, &args, &tracer) {
        Ok(out) => out,
        Err(e) => {
            std::fs::remove_dir_all(&tmp).ok();
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        finish_trace(&args, &tracer, &mut out);
    }
    let peak = dissenter_core::peak_rss_bytes().unwrap_or(0);
    out.set("peak_rss_mb", peak as f64 / (1024.0 * 1024.0));
    out.set(
        "success_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    std::fs::remove_dir_all(&tmp).ok();

    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", result_line(&spec, args.trace, &out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let spec = Spec::load();
        let mut seen = std::collections::HashSet::new();
        for m in spec.end_to_end().iter().chain(spec.per_layer().iter()) {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
            assert!(m.name.len() <= 64, "metric name too long {:?}", m.name);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16,
                "bad unit for {}",
                m.name
            );
            assert!(
                m.better == "higher" || m.better == "lower",
                "bad direction for {}",
                m.name
            );
            assert!(seen.insert(m.name.clone()), "duplicate metric {}", m.name);
        }
        for w in spec.workloads() {
            assert!(valid_name(&w), "bad workload name {w:?}");
        }
    }

    #[test]
    fn predicted_movers_name_real_metrics_and_workloads() {
        let spec = Spec::load();
        let e2e: Vec<String> = spec.end_to_end().into_iter().map(|m| m.name).collect();
        let workloads = spec.workloads();
        for m in spec.per_layer() {
            for mover in spec.moves(&m.name) {
                let (metric, workload) = mover.split_once('@').expect("mover is metric@workload");
                assert!(
                    e2e.iter().any(|e| e == metric),
                    "{}: unknown metric {metric}",
                    m.name
                );
                assert!(
                    workloads.iter().any(|w| w == workload),
                    "{}: unknown workload {workload}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        let spec = Spec::load();
        for trace in [false, true] {
            let mut out = Outcome {
                attempted: 3,
                ..Outcome::default()
            };
            let declared = if trace {
                spec.per_layer()
            } else {
                spec.end_to_end()
            };
            for m in &declared {
                out.set(&m.name, 1.5);
            }
            let line = result_line(&spec, trace, &out);
            let v = jsonlite::parse(&line).expect("result line is JSON");
            assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
            assert_eq!(v.get("attempted").and_then(|c| c.as_i64()), Some(3));
            let metrics = v
                .get("metrics")
                .and_then(|m| m.as_object())
                .expect("metrics");
            assert_eq!(metrics.len(), declared.len());
            for (m, (name, entry)) in declared.iter().zip(metrics) {
                assert_eq!(&m.name, name);
                assert_eq!(
                    entry.get("unit").and_then(|u| u.as_str()),
                    Some(m.unit.as_str())
                );
                assert_eq!(entry.get("value").and_then(|u| u.as_f64()), Some(1.5));
            }
        }
    }

    #[test]
    fn a_missing_end_to_end_metric_makes_the_run_incorrect() {
        let spec = Spec::load();
        let line = result_line(&spec, false, &Outcome::default());
        let v = jsonlite::parse(&line).expect("JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(false));
    }

    #[test]
    fn benchmark_json_matches_the_spec() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let bench = jsonlite::parse(&text).expect("BENCHMARK.json parses");
        let spec = Spec::load();
        let names = |key: &str| -> Vec<(String, String, String)> {
            bench
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let f = |k: &str| m.get(k).and_then(|x| x.as_str()).expect("field").to_owned();
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let as_tuples = |ms: Vec<spec::Metric>| -> Vec<(String, String, String)> {
            ms.into_iter().map(|m| (m.name, m.unit, m.better)).collect()
        };
        assert_eq!(names("end_to_end"), as_tuples(spec.end_to_end()));
        assert_eq!(names("per_layer"), as_tuples(spec.per_layer()));
        let workloads: Vec<(String, String)> = bench
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                let f = |k: &str| w.get(k).and_then(|x| x.as_str()).expect("field").to_owned();
                (f("name"), f("why"))
            })
            .collect();
        let expected: Vec<(String, String)> = spec
            .workloads()
            .into_iter()
            .map(|w| (w.clone(), spec.why(&w)))
            .collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn workload_sizes_stay_within_the_processor_count() {
        let spec = Spec::load();
        let sized = [
            ("study", "workers"),
            ("study", "crawl_workers"),
            ("resweep", "workers"),
            ("resweep", "crawl_workers"),
            ("serve", "workers"),
            ("serve", "server_reactors"),
        ];
        for (w, key) in sized {
            let p = spec.params(w).expect("params");
            assert!(p.usize(key) <= spec.nproc(), "{w}.{key} exceeds nproc");
        }
        // The serve generator opens one connection per lane; the smoke
        // run checks the connections it actually used.
        assert!(serve::LANES <= spec.nproc());
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload study --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "study".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse("--workload study --seed x --seconds 10").is_err());
        assert!(parse("--workload study --seed 1 --seconds 0").is_err());
        assert!(parse("--workload study --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--seed 1 --seconds 1").is_err());
    }
}
