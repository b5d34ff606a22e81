//! Tiny-scale smoke runs of every workload, untraced and traced: each
//! must pass its own output checks and measure every metric it owns.

use crate::spec::Spec;
use crate::trace::Tracer;
use crate::{run, Args, Outcome};
use jsonlite::Value;

/// The embedded spec with every workload shrunk to seconds of work.
fn tiny() -> Spec {
    let mut spec = Spec::load();
    let f = Value::Float;
    for w in ["study", "resweep"] {
        spec.set_param(w, "scale", f(0.0005));
        spec.set_param(w, "min_reps", Value::Int(1));
        spec.set_param(w, "setup_reps", Value::Int(1));
    }
    spec.set_param("study", "svm_corpus", Value::Int(200));
    spec.set_param("resweep", "epochs", Value::Int(1));
    spec.set_param("serve", "scale", f(0.0005));
    spec.set_param("serve", "reference_rps", f(400.0));
    spec.set_param("serve", "rounds", Value::Int(2));
    spec.set_param("serve", "setup_reps", Value::Int(1));
    spec.set_param("serve", "warmup_s", f(0.1));
    spec
}

fn smoke(workload: &str, trace: bool) -> Outcome {
    let spec = tiny();
    let args = Args {
        workload: workload.into(),
        seed: 7,
        seconds: 0.8,
        trace,
    };
    let tracer = if trace {
        Tracer::new(format!("smoke-{workload}"))
    } else {
        Tracer::off()
    };
    let out = run(&spec, &args, &tracer).expect("known workload");
    assert!(
        out.problems.is_empty(),
        "{workload}: checks failed: {:?}",
        out.problems
    );
    assert_eq!(out.failed, 0, "{workload}: failed ops");
    assert!(out.attempted > 0, "{workload}: attempted nothing");
    if trace {
        assert!(!tracer.spans().is_empty(), "{workload}: no spans recorded");
    } else {
        for m in ["setup_s", "throughput"] {
            let v = out.metrics.get(m).copied().unwrap_or(0.0);
            assert!(v.is_finite() && v > 0.0, "{workload}: {m} = {v}");
        }
    }
    out
}

#[test]
fn study_smoke_passes_its_checks() {
    smoke("study", false);
}

#[test]
fn traced_study_matches_run_study() {
    let out = smoke("study", true);
    assert!(out.metrics["crawler.spider_s"] > 0.0);
    assert!(out.metrics["core.svm_experiment_s"] > 0.0);
}

#[test]
fn resweep_smoke_passes_its_checks() {
    smoke("resweep", false);
}

#[test]
fn traced_resweep_matches_run_composed() {
    let out = smoke("resweep", true);
    assert!(out.metrics["durable.commit_s"] > 0.0);
    assert!(
        out.metrics["httpnet.not_modified_frac"] > 0.0,
        "incremental sweep revalidated nothing"
    );
}

#[test]
fn serve_smoke_passes_its_checks() {
    let out = smoke("serve", false);
    assert!(out.metrics["loadgen.reference_samples"] > 0.0);
    let connections = out.metrics["loadgen.connections"];
    assert!(
        connections >= 1.0 && connections <= Spec::load().nproc() as f64,
        "{connections} generator connections"
    );
}
