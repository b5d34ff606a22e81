//! Seed-driven scenario generation.
//!
//! A [`Scenario`] is the complete input of one simulation run: every
//! knob the pipeline exposes, drawn from a single seed so the run is
//! reproducible from eight bytes. The sampler keeps every draw inside
//! the envelope the resilience layer is contracted to ride out without
//! dead letters (see `study_survives_an_adverse_network`): per-fetch
//! fault mass is capped so that `total_fault_prob ^ (retries + 1)` is
//! negligible against the number of logical fetches a scenario issues.

use crawler::CrawlConfig;
use dissenter_core::StudyConfig;
use httpnet::FaultConfig;
use jsonlite::Value;
use std::time::Duration;
use synth::config::Scale;
use synth::WorldConfig;

/// Smallest world scale the shrinker may reach (worlds below this are
/// too degenerate to exercise the pipeline).
pub const MIN_SCALE: f64 = 0.0005;

/// Cap on any single fault probability.
pub const MAX_SINGLE_FAULT: f64 = 0.02;

/// Cap on the summed fault mass. With `retries >= 6` the per-fetch
/// dead-letter chance is at most `0.12^7 ≈ 4e-7`, far below one
/// expected dead letter per scenario.
pub const MAX_TOTAL_FAULT: f64 = 0.12;

/// One complete simulation input.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The master seed this scenario was expanded from.
    pub seed: u64,
    /// World-generation seed.
    pub world_seed: u64,
    /// World scale factor (fraction of paper-scale counts).
    pub scale: f64,
    /// CPU-stage worker threads (synth, scoring, SVM).
    pub workers: usize,
    /// Crawl worker connections per phase.
    pub crawl_workers: usize,
    /// Retry attempts per logical fetch.
    pub retries: usize,
    /// Fault matrix probabilities, in [`FaultConfig`] field order.
    pub drop_prob: f64,
    /// 500 responses.
    pub error_prob: f64,
    /// Truncated bodies.
    pub truncate_prob: f64,
    /// Mid-status-line resets.
    pub reset_prob: f64,
    /// Slow-loris stalls.
    pub stall_prob: f64,
    /// Garbage status lines.
    pub malformed_prob: f64,
    /// 429 + Retry-After.
    pub rate_limit_prob: f64,
    /// 503 + Retry-After.
    pub unavailable_prob: f64,
    /// Fault-injector RNG seed.
    pub fault_seed: u64,
    /// Run the SVM experiment.
    pub svm: bool,
    /// Labeled-corpus size when `svm` is set.
    pub svm_corpus: usize,
    /// Where along the journaled-op axis the crash oracle kills the
    /// durable crawl, as a fraction in `(0, 1]` of the uninterrupted
    /// run's WAL appends. `0.0` disables the `crash.*` family (the
    /// shrinker's off switch, and the default for replays written
    /// before the family existed).
    pub kill_fraction: f64,
    /// Kill with a torn (half-written) final WAL record instead of a
    /// clean cut, exercising tail truncation on recovery.
    pub torn_tail: bool,
    /// Which [`crate::abusegen::Profile`] the `abuse.*` family drives
    /// (index into `Profile::ALL`, reduced modulo its length).
    pub abuse_profile: u8,
    /// Hostile connections per abuse profile. `0` disables the
    /// `abuse.*` family (the shrinker's off switch, and the default for
    /// replays written before the family existed).
    pub abuse_conns: usize,
    /// Evolution epochs past the base study window for the
    /// `longitudinal.*` family. `0` disables the family (the shrinker's
    /// off switch, and the default for replays written before it
    /// existed).
    pub epochs: u32,
    /// Scorer-drift magnitude of the mid-study revision the
    /// longitudinal family deploys (`0.0` = a bit-identical re-deploy).
    pub drift: f64,
    /// [`synth::WorldSource`] batch size the `scale.*` family streams
    /// at. `0` disables the family (the shrinker's off switch, and the
    /// default for replays written before it existed).
    pub stream_batch: usize,
    /// Resident-entry budget in bytes for the `scale.merge`
    /// external-merge leg — kept tiny so every armed run genuinely
    /// spills sorted runs to disk.
    pub spill_budget: usize,
}

/// SplitMix64 step — the scenario sampler's only randomness source.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl Scenario {
    /// Expand a seed into a full scenario.
    pub fn from_seed(seed: u64) -> Self {
        let mut st = seed ^ 0x51AC_CEC0_5EED_0001;
        let world_seed = splitmix(&mut st);
        let scale = 0.0008 + unit(&mut st) * 0.0017;
        let workers = [1, 2, 4, 8][(splitmix(&mut st) % 4) as usize];
        let crawl_workers = [1, 2, 4][(splitmix(&mut st) % 3) as usize];
        let retries = 6 + (splitmix(&mut st) % 5) as usize;

        let mut probs = [0.0f64; 8];
        // One scenario in eight runs on a clean network: the differential
        // then isolates pure sharding effects from fault effects.
        if !splitmix(&mut st).is_multiple_of(8) {
            for p in &mut probs {
                if splitmix(&mut st).is_multiple_of(2) {
                    *p = unit(&mut st) * MAX_SINGLE_FAULT;
                }
            }
        }
        let total: f64 = probs.iter().sum();
        if total > MAX_TOTAL_FAULT {
            for p in &mut probs {
                *p *= MAX_TOTAL_FAULT / total;
            }
        }
        let fault_seed = splitmix(&mut st);
        // Drawn after every pre-existing knob so adding the crash family
        // left all earlier per-seed draws (and committed replays) intact.
        let kill_fraction = 1.0 - unit(&mut st); // (0, 1]: every seed crashes somewhere
        let torn_tail = splitmix(&mut st).is_multiple_of(2);
        // Drawn after torn_tail for the same replay-stability reason.
        let abuse_profile = (splitmix(&mut st) % 5) as u8;
        let abuse_conns = 2 + (splitmix(&mut st) % 3) as usize;
        // Drawn after abuse_conns, again for replay stability. Half the
        // seeds stay at the one-window study (epochs 0: longitudinal
        // family disarmed); armed seeds evolve 1–3 epochs, and half of
        // those deploy a genuinely drifted mid-study scorer revision.
        let epochs = if splitmix(&mut st).is_multiple_of(2) {
            1 + (splitmix(&mut st) % 3) as u32
        } else {
            0
        };
        let drift = if splitmix(&mut st).is_multiple_of(2) {
            0.05 + unit(&mut st) * 0.25
        } else {
            0.0
        };
        // Drawn after drift, once more for replay stability. Half the
        // seeds arm the scale family; armed seeds stream the world at a
        // batch size spanning tiny (every stage crosses many batch
        // boundaries) to large (single-batch stages), and spill with a
        // byte budget small enough that the merge leg always writes
        // sorted runs to disk.
        let stream_batch = if splitmix(&mut st).is_multiple_of(2) {
            [64, 256, 1024, 4096][(splitmix(&mut st) % 4) as usize]
        } else {
            0
        };
        let spill_budget = 256 + (splitmix(&mut st) % 1793) as usize;

        Self {
            seed,
            world_seed,
            scale,
            workers,
            crawl_workers,
            retries,
            drop_prob: probs[0],
            error_prob: probs[1],
            truncate_prob: probs[2],
            reset_prob: probs[3],
            stall_prob: probs[4],
            malformed_prob: probs[5],
            rate_limit_prob: probs[6],
            unavailable_prob: probs[7],
            fault_seed,
            svm: seed.is_multiple_of(4),
            svm_corpus: 300,
            kill_fraction,
            torn_tail,
            abuse_profile,
            abuse_conns,
            epochs,
            drift,
            stream_batch,
            spill_budget,
        }
    }

    /// Summed fault mass.
    pub fn total_fault_prob(&self) -> f64 {
        self.faults().total_fault_prob()
    }

    /// The scenario's fault matrix. Stall and Retry-After durations are
    /// pinned to a few milliseconds so faulted runs stay fast.
    pub fn faults(&self) -> FaultConfig {
        FaultConfig {
            drop_prob: self.drop_prob,
            error_prob: self.error_prob,
            truncate_prob: self.truncate_prob,
            reset_prob: self.reset_prob,
            stall_prob: self.stall_prob,
            malformed_prob: self.malformed_prob,
            rate_limit_prob: self.rate_limit_prob,
            unavailable_prob: self.unavailable_prob,
            stall: Duration::from_millis(5),
            retry_after: Duration::from_millis(5),
            seed: self.fault_seed,
            ..FaultConfig::none()
        }
    }

    fn base_config(&self) -> StudyConfig {
        dissenter_core::Study::builder()
            .world(WorldConfig {
                seed: self.world_seed,
                scale: Scale::Custom(self.scale),
                ..WorldConfig::small()
            })
            // Generous retry budget and an effectively-disabled breaker:
            // scenarios probe correctness under faults, not the degraded
            // coverage modes (the chaos suite owns those).
            .crawl(CrawlConfig {
                workers: self.crawl_workers,
                retries: self.retries,
                backoff: Duration::from_millis(1),
                retry_budget: 100_000,
                breaker_threshold: 1_000_000,
                ..CrawlConfig::default()
            })
            .workers(self.workers)
            .svm_corpus(self.svm_corpus)
            .svm(self.svm)
            .faults(self.faults())
            .build()
            .expect("the sampler envelope only emits valid configs")
    }

    /// The scenario as run: faulted network, sharded workers.
    pub fn config_faulted(&self) -> StudyConfig {
        self.base_config()
    }

    /// The differential control: identical world and SVM settings, but a
    /// clean network and fully serial execution.
    pub fn config_control(&self) -> StudyConfig {
        let mut cfg = self.base_config();
        cfg.faults = FaultConfig::none();
        cfg.workers = 1;
        cfg.crawl.workers = 1;
        cfg
    }

    /// Serialize to JSON. Seeds are written as hex strings: `u64` does
    /// not fit `f64` exactly, and a replay that loses seed bits replays
    /// a different world.
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("seed", format!("{:#x}", self.seed))
            .with("world_seed", format!("{:#x}", self.world_seed))
            .with("scale", self.scale)
            .with("workers", self.workers)
            .with("crawl_workers", self.crawl_workers)
            .with("retries", self.retries)
            .with(
                "faults",
                Value::object()
                    .with("drop", self.drop_prob)
                    .with("error", self.error_prob)
                    .with("truncate", self.truncate_prob)
                    .with("reset", self.reset_prob)
                    .with("stall", self.stall_prob)
                    .with("malformed", self.malformed_prob)
                    .with("rate_limit", self.rate_limit_prob)
                    .with("unavailable", self.unavailable_prob)
                    .with("seed", format!("{:#x}", self.fault_seed)),
            )
            .with("svm", self.svm)
            .with("svm_corpus", self.svm_corpus)
            .with(
                "crash",
                Value::object()
                    .with("kill_fraction", self.kill_fraction)
                    .with("torn_tail", self.torn_tail),
            )
            .with(
                "abuse",
                Value::object()
                    .with("profile", u64::from(self.abuse_profile))
                    .with("conns", self.abuse_conns),
            )
            .with(
                "longitudinal",
                Value::object()
                    .with("epochs", u64::from(self.epochs))
                    .with("drift", self.drift),
            )
            .with(
                "scale_family",
                Value::object()
                    .with("stream_batch", self.stream_batch)
                    .with("spill_budget", self.spill_budget),
            )
    }

    /// Deserialize from JSON written by [`Scenario::to_json`].
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let hex = |key: &str, v: &Value| -> Result<u64, String> {
            let s = v
                .get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("scenario: missing hex field {key:?}"))?;
            u64::from_str_radix(s.trim_start_matches("0x"), 16)
                .map_err(|e| format!("scenario: bad {key:?}: {e}"))
        };
        let num = |key: &str, v: &Value| -> Result<f64, String> {
            v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("scenario: missing {key:?}"))
        };
        let int = |key: &str, v: &Value| -> Result<usize, String> {
            v.get(key)
                .and_then(Value::as_i64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| format!("scenario: missing {key:?}"))
        };
        let faults = v.get("faults").ok_or("scenario: missing \"faults\"")?;
        Ok(Self {
            seed: hex("seed", v)?,
            world_seed: hex("world_seed", v)?,
            scale: num("scale", v)?,
            workers: int("workers", v)?,
            crawl_workers: int("crawl_workers", v)?,
            retries: int("retries", v)?,
            drop_prob: num("drop", faults)?,
            error_prob: num("error", faults)?,
            truncate_prob: num("truncate", faults)?,
            reset_prob: num("reset", faults)?,
            stall_prob: num("stall", faults)?,
            malformed_prob: num("malformed", faults)?,
            rate_limit_prob: num("rate_limit", faults)?,
            unavailable_prob: num("unavailable", faults)?,
            fault_seed: hex("seed", faults)?,
            svm: v.get("svm").and_then(Value::as_bool).ok_or("scenario: missing \"svm\"")?,
            svm_corpus: int("svm_corpus", v)?,
            // Absent in replays written before the crash family existed:
            // default to "no kill" so their meaning is unchanged.
            kill_fraction: v
                .get("crash")
                .and_then(|c| c.get("kill_fraction"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            torn_tail: v
                .get("crash")
                .and_then(|c| c.get("torn_tail"))
                .and_then(Value::as_bool)
                .unwrap_or(false),
            // Absent in replays written before the abuse family existed:
            // default to disarmed so their meaning is unchanged.
            abuse_profile: v
                .get("abuse")
                .and_then(|a| a.get("profile"))
                .and_then(Value::as_i64)
                .map(|n| (n.rem_euclid(5)) as u8)
                .unwrap_or(0),
            abuse_conns: v
                .get("abuse")
                .and_then(|a| a.get("conns"))
                .and_then(Value::as_i64)
                .and_then(|n| usize::try_from(n).ok())
                .unwrap_or(0),
            // Absent in replays written before the longitudinal family
            // existed: default to disarmed so their meaning is unchanged.
            epochs: v
                .get("longitudinal")
                .and_then(|l| l.get("epochs"))
                .and_then(Value::as_i64)
                .and_then(|n| u32::try_from(n).ok())
                .unwrap_or(0),
            drift: v
                .get("longitudinal")
                .and_then(|l| l.get("drift"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            // Absent in replays written before the scale family existed:
            // default to disarmed so their meaning is unchanged.
            stream_batch: v
                .get("scale_family")
                .and_then(|s| s.get("stream_batch"))
                .and_then(Value::as_i64)
                .and_then(|n| usize::try_from(n).ok())
                .unwrap_or(0),
            spill_budget: v
                .get("scale_family")
                .and_then(|s| s.get("spill_budget"))
                .and_then(Value::as_i64)
                .and_then(|n| usize::try_from(n).ok())
                .unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic() {
        assert_eq!(Scenario::from_seed(17), Scenario::from_seed(17));
        assert_ne!(Scenario::from_seed(17), Scenario::from_seed(18));
    }

    #[test]
    fn sampled_scenarios_stay_inside_the_safety_envelope() {
        for seed in 0..500 {
            let sc = Scenario::from_seed(seed);
            assert!((0.0008..=0.0025).contains(&sc.scale), "seed {seed}: scale {}", sc.scale);
            assert!([1, 2, 4, 8].contains(&sc.workers), "seed {seed}");
            assert!([1, 2, 4].contains(&sc.crawl_workers), "seed {seed}");
            assert!((6..=10).contains(&sc.retries), "seed {seed}");
            for p in [
                sc.drop_prob,
                sc.error_prob,
                sc.truncate_prob,
                sc.reset_prob,
                sc.stall_prob,
                sc.malformed_prob,
                sc.rate_limit_prob,
                sc.unavailable_prob,
            ] {
                assert!((0.0..=MAX_SINGLE_FAULT).contains(&p), "seed {seed}: prob {p}");
            }
            assert!(sc.total_fault_prob() <= MAX_TOTAL_FAULT + 1e-12, "seed {seed}");
            assert!(sc.abuse_profile < 5, "seed {seed}");
            assert!((2..=4).contains(&sc.abuse_conns), "seed {seed}");
            assert!(sc.epochs <= 3, "seed {seed}: epochs {}", sc.epochs);
            assert!(
                sc.drift == 0.0 || (0.05..=0.30).contains(&sc.drift),
                "seed {seed}: drift {}",
                sc.drift
            );
            assert!(
                [0, 64, 256, 1024, 4096].contains(&sc.stream_batch),
                "seed {seed}: stream_batch {}",
                sc.stream_batch
            );
            assert!(
                (256..=2048).contains(&sc.spill_budget),
                "seed {seed}: spill_budget {}",
                sc.spill_budget
            );
            sc.faults().validate();
        }
    }

    #[test]
    fn fault_classes_and_shapes_all_get_exercised_across_seeds() {
        // Sanity on sampler coverage: across a modest seed range every
        // fault class fires somewhere and every worker shape appears.
        let scenarios: Vec<Scenario> = (0..200).map(Scenario::from_seed).collect();
        assert!(scenarios.iter().any(|s| s.drop_prob > 0.0));
        assert!(scenarios.iter().any(|s| s.malformed_prob > 0.0));
        assert!(scenarios.iter().any(|s| s.rate_limit_prob > 0.0));
        assert!(scenarios.iter().any(|s| s.total_fault_prob() == 0.0), "clean scenarios exist");
        for w in [1, 2, 4, 8] {
            assert!(scenarios.iter().any(|s| s.workers == w), "workers={w} never sampled");
        }
        assert!(scenarios.iter().any(|s| s.svm) && scenarios.iter().any(|s| !s.svm));
        for profile in 0..5u8 {
            assert!(
                scenarios.iter().any(|s| s.abuse_profile == profile),
                "abuse profile {profile} never sampled"
            );
        }
        // The longitudinal family: disarmed, armed-driftless, and
        // armed-with-drift scenarios must all occur.
        assert!(scenarios.iter().any(|s| s.epochs == 0), "disarmed studies exist");
        for epochs in 1..=3u32 {
            assert!(
                scenarios.iter().any(|s| s.epochs == epochs),
                "epochs={epochs} never sampled"
            );
        }
        assert!(scenarios.iter().any(|s| s.epochs > 0 && s.drift == 0.0));
        assert!(scenarios.iter().any(|s| s.epochs > 0 && s.drift > 0.0));
        // The scale family: disarmed seeds exist, and every armed batch
        // size is reached somewhere.
        assert!(scenarios.iter().any(|s| s.stream_batch == 0), "disarmed scale scenarios exist");
        for batch in [64, 256, 1024, 4096] {
            assert!(
                scenarios.iter().any(|s| s.stream_batch == batch),
                "stream_batch={batch} never sampled"
            );
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        for seed in [0, 1, 42, u64::MAX] {
            let sc = Scenario::from_seed(seed);
            let text = jsonlite::to_string_pretty(&sc.to_json());
            let back = Scenario::from_json(&jsonlite::parse(&text).expect("parses"))
                .expect("deserializes");
            // Bit-exact: f64 Display round-trips exactly and seeds travel
            // as hex strings.
            assert_eq!(back, sc, "seed {seed}");
        }
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let v = jsonlite::parse(r#"{"seed":"0x1"}"#).unwrap();
        let err = Scenario::from_json(&v).unwrap_err();
        assert!(err.contains("faults"), "{err}");
        let v = jsonlite::parse(r#"{"seed":"0x1","faults":{}}"#).unwrap();
        let err = Scenario::from_json(&v).unwrap_err();
        assert!(err.contains("world_seed"), "{err}");
    }

    #[test]
    fn control_config_is_clean_and_serial() {
        let sc = Scenario::from_seed(9);
        let c = sc.config_control();
        assert_eq!(c.faults.total_fault_prob(), 0.0);
        assert_eq!(c.workers, 1);
        assert_eq!(c.crawl.workers, 1);
        // The world is the same one the faulted config runs.
        let f = sc.config_faulted();
        assert_eq!(c.world.seed, f.world.seed);
        assert_eq!(c.world.scale.factor(), f.world.scale.factor());
        assert_eq!(c.skip_svm, f.skip_svm);
    }
}
