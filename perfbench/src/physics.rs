//! The physics workloads: the paper's wafer engine on a Ta slab
//! (`wse-slab`), and the f64 reference engine split into two shards
//! with amortized ghost exchange (`baseline-sharded`).
//!
//! Both check a recorded prefix on a separate engine, then time whole
//! timesteps in fixed windows after set-up and a short warm-up, and
//! report the median window rate, so one stalled window (another
//! process, a page fault) moves the result little.

use std::time::Instant;

use wafer_md::json::fnv1a64;
use wafer_md::md::materials::Species;
use wafer_md::scenario::{Engine, EngineKind, GhostPeriod, Scenario};
use wafer_md::shard::ShardedEngine;
use wafer_md::wse::{FoldSpec, HaloEngine, Mapping, WseMdConfig, WseMdSim};

use crate::stats::{median, tail_percentile};
use crate::trace::Recorder;
use crate::{peak_rss_mb, trace_path, Checks, Outcome, Params};

/// Engine builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Steps of the recorded prefix, and of the warm-up before timing.
const CHECK_STEPS: usize = 20;
/// NVE energy drift allowed over a whole run, eV per atom. Both
/// engines hold well under 1e-4 eV/atom at 290 K and 2 fs; a broken
/// force or integrator step blows far past this.
pub const DRIFT_BOUND: f64 = 1e-3;
/// Timesteps per timing window on `wse-slab`.
const WSE_WINDOW: usize = 32;
/// Ghost-exchange period of `baseline-sharded`.
const GHOST_PERIOD: usize = 4;
/// Timesteps per timing window on `baseline-sharded`: a whole multiple
/// of the ghost period, so every window holds the same exchanges.
const SHARDED_WINDOW: usize = 4 * GHOST_PERIOD;
/// Steps of the unsharded reference run in the traced sharded run.
const UNSHARDED_STEPS: usize = 64;

/// The seed whose outputs are recorded below.
pub const DEFAULT_SEED: u64 = 1;

/// The deterministic outputs of the checked prefix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recorded {
    /// FNV-1a 64 over the bits of every final position coordinate.
    pub digest: u64,
    /// Candidates examined in the last prefix step, summed over atoms.
    pub candidates: u64,
    /// Interactions accepted in the last prefix step, summed over atoms.
    pub interactions: u64,
    /// The modeled WSE rate (timesteps/s) — a cost-model output that
    /// is checked here and never reported as host speed.
    pub modeled_rate: Option<f64>,
}

/// The prefix outputs of `wse-slab` at [`DEFAULT_SEED`].
const WSE_SLAB_RECORDED: Recorded = Recorded {
    digest: 0x517f_723d_f771_bec4,
    candidates: 870_298,
    interactions: 87_306,
    modeled_rate: Some(238_004.463_388_782_43),
};

/// The prefix outputs of `baseline-sharded` at [`DEFAULT_SEED`].
const SHARDED_RECORDED: Recorded = Recorded {
    digest: 0x57cf_e190_b659_46b8,
    candidates: 308_064,
    interactions: 241_566,
    modeled_rate: None,
};

/// `wse-slab`: ~8k-atom Ta bcc slab at 290 K, NVE, no swaps.
pub fn wse_slab_scenario(seed: u64) -> Scenario {
    Scenario::slab(Species::Ta, 45, 45, 2)
        .temperature(290.0)
        .seed(seed)
        .engine(EngineKind::Wse)
}

/// `baseline-sharded`: 8192-atom Cu fcc slab at 290 K on the reference
/// engine, K = 2 shards, ghost period 4.
pub fn sharded_scenario(seed: u64) -> Scenario {
    Scenario::slab(Species::Cu, 32, 32, 2)
        .temperature(290.0)
        .seed(seed)
        .engine(EngineKind::Baseline)
        .shards(2)
        .ghost_period(GhostPeriod::Every(GHOST_PERIOD))
}

/// The deterministic outputs an engine shows now.
pub fn recorded_of(engine: &dyn Engine) -> Recorded {
    let p = engine.positions_view();
    let mut bytes = Vec::with_capacity(24 * p.len());
    for v in p.iter() {
        for c in v.to_array() {
            bytes.extend_from_slice(&c.to_bits().to_le_bytes());
        }
    }
    let o = engine.observables();
    let n = engine.n_atoms() as f64;
    Recorded {
        digest: fnv1a64(&bytes),
        candidates: (o.mean_candidates * n).round() as u64,
        interactions: (o.mean_interactions * n).round() as u64,
        modeled_rate: o.modeled_rate,
    }
}

/// Build `times` engines, returning the last and every build time (s).
fn timed_builds<E>(times: usize, build: impl Fn() -> E) -> (E, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        // Free the previous engine first so peak memory holds one.
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one build"), secs)
}

/// Step a fresh engine at [`DEFAULT_SEED`] through the checked prefix
/// and compare its deterministic outputs with the recorded ones. Every
/// run does this, whatever its `--seed`, so a change to the trajectory
/// fails the run even when it conserves energy. The engine is dropped
/// before the timed builds, so peak memory still holds one engine.
fn check_recorded(mut engine: impl Engine, expect: &Recorded, checks: &mut Checks) {
    engine.run(CHECK_STEPS);
    let got = recorded_of(&engine);
    eprintln!("prefix outputs at seed {DEFAULT_SEED}: {got:?}");
    checks.check(got.digest == expect.digest, || {
        format!(
            "position digest {:#x} != recorded {:#x}",
            got.digest, expect.digest
        )
    });
    checks.check(got.candidates == expect.candidates, || {
        format!(
            "candidates {} != recorded {}",
            got.candidates, expect.candidates
        )
    });
    checks.check(got.interactions == expect.interactions, || {
        format!(
            "interactions {} != recorded {}",
            got.interactions, expect.interactions
        )
    });
    checks.check(
        got.modeled_rate.map(f64::to_bits) == expect.modeled_rate.map(f64::to_bits),
        || {
            format!(
                "modeled rate {:?} != recorded {:?}",
                got.modeled_rate, expect.modeled_rate
            )
        },
    );
}

/// Warm the measured engine up over the prefix; returns the energy
/// after its first step, the drift reference.
fn warm_up(engine: &mut dyn Engine) -> f64 {
    engine.step();
    let e1 = engine.total_energy();
    engine.run(CHECK_STEPS - 1);
    e1
}

/// Timings of a run of windows.
#[derive(Debug, Default)]
struct Windows {
    /// Wall time of every step (ms).
    step_ms: Vec<f64>,
    /// Atom-steps per second of every window.
    rates: Vec<f64>,
}

/// Step `engine` in windows of `window` steps until `deadline` (at
/// least `min_windows`), checking the energy drift after every window.
#[allow(clippy::too_many_arguments)]
fn run_windows<E: ?Sized>(
    engine: &mut E,
    window: usize,
    deadline: Instant,
    min_windows: usize,
    e1: f64,
    checks: &mut Checks,
    mut step: impl FnMut(&mut E, u64),
    energy: impl Fn(&E) -> (f64, usize),
) -> Windows {
    let mut w = Windows::default();
    let mut i = 0u64;
    while w.rates.len() < min_windows || Instant::now() < deadline {
        let start = Instant::now();
        let mut at = start;
        for _ in 0..window {
            step(engine, i);
            i += 1;
            let now = Instant::now();
            w.step_ms.push((now - at).as_secs_f64() * 1e3);
            at = now;
        }
        let (e, atoms) = energy(engine);
        w.rates
            .push((atoms * window) as f64 / (at - start).as_secs_f64());
        let drift = (e - e1).abs() / atoms as f64;
        checks.check(drift.is_finite() && drift <= DRIFT_BOUND, || {
            format!("energy drift {drift:.3e} eV/atom exceeds {DRIFT_BOUND:.0e}")
        });
    }
    w
}

/// The end-to-end metrics every physics workload reports; the tail is
/// the `tail`-th percentile of the step times.
fn report_e2e(out: &mut Outcome, setup: &[f64], w: &Windows, tail: f64) {
    out.e2e("setup_s", median(setup).unwrap_or(f64::NAN), "s");
    out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    out.e2e(
        "throughput_per_s",
        median(&w.rates).unwrap_or(f64::NAN),
        "1/s",
    );
    out.e2e(
        "latency_ms_p50",
        median(&w.step_ms).unwrap_or(f64::NAN),
        "ms",
    );
    out.e2e(
        "latency_ms_tail",
        tail_percentile(&w.step_ms, tail).unwrap_or(f64::NAN),
        "ms",
    );
}

/// Split a run into its untraced and traced halves.
fn halves(p: &Params) -> (Instant, Instant) {
    let start = Instant::now();
    if p.trace {
        (start + p.seconds / 2, start + p.seconds)
    } else {
        (start + p.seconds, start + p.seconds)
    }
}

/// `(traced − untraced) / untraced` step time.
fn overhead(untraced: &Windows, traced: &Windows) -> f64 {
    let (u, t) = (median(&untraced.step_ms), median(&traced.step_ms));
    match (u, t) {
        (Some(u), Some(t)) => (t - u) / u,
        _ => f64::NAN,
    }
}

pub fn wse_slab(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    check_recorded(
        wse_slab_scenario(DEFAULT_SEED).build_wse(),
        &WSE_SLAB_RECORDED,
        &mut out.checks,
    );
    let sc = wse_slab_scenario(p.seed);
    let (mut engine, setup) = timed_builds(SETUP_REPS, || sc.build_wse());
    let atoms = engine.n_atoms();
    let e1 = warm_up(&mut engine);
    let energy = |e: &WseMdSim| (Engine::total_energy(e), e.n_atoms());
    let (untraced_end, end) = halves(p);
    let w = run_windows(
        &mut engine,
        WSE_WINDOW,
        untraced_end,
        3,
        e1,
        &mut out.checks,
        |e, _| {
            e.step();
        },
        energy,
    );
    // p90, not p99: one step in a hundred on a shared host is whatever
    // another tenant did in those milliseconds.
    report_e2e(&mut out, &setup, &w, 90.0);
    eprintln!(
        "energy drift {:.3e} eV/atom",
        (Engine::total_energy(&engine) - e1).abs() / atoms as f64
    );
    if !p.trace {
        return Ok(out);
    }

    // Traced half: the step split into its two public halves, exactly
    // `WseMdSim::step`, with the per-step candidate statistics.
    let mut rec = Recorder::new(true);
    let (mut cand, mut inter) = (0.0, 0.0);
    let traced = run_windows(
        &mut engine,
        WSE_WINDOW,
        end,
        3,
        e1,
        &mut out.checks,
        |e, i| {
            let t0 = Instant::now();
            HaloEngine::refresh_forces(e);
            let t1 = Instant::now();
            HaloEngine::advance_positions(e);
            let t2 = Instant::now();
            let root = rec.record("step", t0, t2, None, i);
            rec.record("wse-md.refresh_forces", t0, t1, root, i);
            rec.record("wse-md.advance_positions", t1, t2, root, i);
            cand += e.last_stats.mean_candidates;
            inter += e.last_stats.mean_interactions;
        },
        energy,
    );
    let steps = traced.step_ms.len() as f64;
    let force_ms = median(&rec.durations_ms("wse-md.refresh_forces")).unwrap_or(f64::NAN);
    let cand_per_atom = cand / steps;

    // The same window at one thread: scaling efficiency of the pool.
    let threads = rayon::current_num_threads();
    rayon::set_num_threads(1);
    let single = run_windows(
        &mut engine,
        WSE_WINDOW,
        Instant::now(),
        4,
        e1,
        &mut out.checks,
        |e, _| {
            e.step();
        },
        energy,
    );
    rayon::set_num_threads(0);
    let rate_n = median(&w.rates).unwrap_or(f64::NAN);
    let rate_1 = median(&single.rates).unwrap_or(f64::NAN);

    // The mapping alone, as `WseMdSim::new` computes it.
    let positions = sc.positions();
    let mut config = WseMdConfig::open_for(positions.len(), sc.spare, sc.dt);
    config.periodic = sc.periodic;
    config.box_lengths = sc.bounding_box().lengths;
    let fold = FoldSpec::new(config.periodic, config.box_lengths);
    let folded: Vec<_> = positions.iter().map(|&x| fold.fold(x)).collect();
    let (_, mapping_s) = timed_builds(SETUP_REPS, || Mapping::greedy(&folded, config.extent));

    out.layer("wse-md.force_ms_per_step", force_ms, "ms");
    out.layer(
        "wse-md.move_ms_per_step",
        median(&rec.durations_ms("wse-md.advance_positions")).unwrap_or(f64::NAN),
        "ms",
    );
    out.layer("wse-md.candidates_per_atom", cand_per_atom, "count");
    out.layer("wse-md.interaction_yield", inter / cand, "ratio");
    out.layer(
        "wse-md.ns_per_candidate",
        force_ms * 1e6 / (cand_per_atom * atoms as f64),
        "ns",
    );
    out.layer(
        "rayon.scaling_eff",
        rate_n / (threads as f64 * rate_1),
        "ratio",
    );
    out.layer(
        "wse-md.mapping_ms",
        median(&mapping_s).unwrap_or(f64::NAN) * 1e3,
        "ms",
    );
    out.layer(
        "scenario.build_engine_ms",
        median(&setup).unwrap_or(f64::NAN) * 1e3,
        "ms",
    );
    out.layer("trace.overhead", overhead(&w, &traced), "ratio");
    rec.write_jsonl(&trace_path("wse-slab", p.seed), &crate::fingerprint())
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(out)
}

pub fn baseline_sharded(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let recorded = sharded_scenario(DEFAULT_SEED)
        .build_sharded()
        .map_err(|e| format!("sharding the recorded slab: {e}"))?;
    check_recorded(recorded, &SHARDED_RECORDED, &mut out.checks);
    let sc = sharded_scenario(p.seed);
    let (mut engine, setup) =
        timed_builds(SETUP_REPS, || sc.build_sharded().expect("a slab shards"));
    let e1 = warm_up(&mut engine);
    let energy = |e: &ShardedEngine| (e.total_energy(), e.n_atoms());
    let (untraced_end, end) = halves(p);
    let w = run_windows(
        &mut engine,
        SHARDED_WINDOW,
        untraced_end,
        3,
        e1,
        &mut out.checks,
        |e, _| e.step(),
        energy,
    );
    // Every fourth step exchanges ghosts, so p90 sits in the exchange
    // steps.
    report_e2e(&mut out, &setup, &w, 90.0);
    eprintln!(
        "energy drift {:.3e} eV/atom",
        (engine.total_energy() - e1).abs() / engine.n_atoms() as f64
    );
    if !p.trace {
        return Ok(out);
    }

    let mut rec = Recorder::new(true);
    let before = engine.shard_phase_nanos();
    let traced = run_windows(
        &mut engine,
        SHARDED_WINDOW,
        end,
        3,
        e1,
        &mut out.checks,
        |e, i| {
            rec.time("shard.step", None, i, || e.step());
        },
        energy,
    );
    let steps = traced.step_ms.len() as f64;
    let phases: Vec<(f64, f64)> = engine
        .shard_phase_nanos()
        .iter()
        .zip(&before)
        .map(|(a, b)| {
            (
                (a.0 - b.0) as f64 / 1e6 / steps,
                (a.1 - b.1) as f64 / 1e6 / steps,
            )
        })
        .collect();
    let slowest = phases
        .iter()
        .copied()
        .max_by(|a, b| (a.0 + a.1).total_cmp(&(b.0 + b.1)))
        .unwrap_or((f64::NAN, f64::NAN));
    let mean_integrate = phases.iter().map(|p| p.0).sum::<f64>() / phases.len() as f64;
    let max_integrate = phases.iter().map(|p| p.0).fold(0.0, f64::max);

    // The same system unsharded, same thread count.
    let mut single = Scenario::from_spec(sc.to_spec()).shards(1).build_baseline();
    for i in 0..UNSHARDED_STEPS as u64 {
        rec.time("md-baseline.step", None, i, || Engine::step(&mut single));
    }
    for i in 0..SHARDED_WINDOW as u64 {
        rec.time("md-baseline.compute_forces", None, i, || {
            single.compute_forces()
        });
    }
    let o = single.observables();
    let sharded_ms = median(&traced.step_ms).unwrap_or(f64::NAN);
    let unsharded_ms = median(&rec.durations_ms("md-baseline.step")).unwrap_or(f64::NAN);

    out.layer("shard.integrate_ms_per_step", slowest.0, "ms");
    out.layer("shard.exchange_ms_per_step", slowest.1, "ms");
    out.layer("shard.imbalance", max_integrate / mean_integrate, "ratio");
    out.layer("shard.exchanges", engine.exchanges() as f64, "count");
    out.layer(
        "shard.early_exchanges",
        engine.early_exchanges() as f64,
        "count",
    );
    out.layer("shard.ghost_copies", engine.ghost_copies() as f64, "count");
    out.layer("shard.overhead", sharded_ms / unsharded_ms, "ratio");
    out.layer(
        "md-baseline.force_ms_per_step",
        median(&rec.durations_ms("md-baseline.compute_forces")).unwrap_or(f64::NAN),
        "ms",
    );
    out.layer(
        "md-baseline.interaction_yield",
        o.mean_interactions / o.mean_candidates,
        "ratio",
    );
    out.layer(
        "md-baseline.list_rebuilds",
        single.list_rebuilds() as f64,
        "count",
    );
    out.layer("trace.overhead", overhead(&w, &traced), "ratio");
    rec.write_jsonl(
        &trace_path("baseline-sharded", p.seed),
        &crate::fingerprint(),
    )
    .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn seeds_choose_the_initial_velocities() {
        let a = wse_slab_scenario(5).build_wse();
        let b = wse_slab_scenario(5).build_wse();
        let c = wse_slab_scenario(6).build_wse();
        let bits = |e: &WseMdSim| -> Vec<u64> {
            e.velocities_view()
                .iter()
                .flat_map(|v| v.to_array())
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&c));
    }

    #[test]
    fn workloads_have_the_stated_sizes() {
        assert_eq!(wse_slab_scenario(1).positions().len(), 8100);
        assert_eq!(sharded_scenario(1).positions().len(), 8192);
        assert_eq!(SHARDED_WINDOW % GHOST_PERIOD, 0);
    }

    /// The bound `BENCHMARK.json` fixes for an end-to-end metric.
    fn benchmark_bound(metric: &str) -> f64 {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = wafer_md::json::Value::parse(&text).unwrap();
        doc.get("end_to_end")
            .and_then(|v| v.as_arr())
            .and_then(|ms| {
                ms.iter()
                    .find(|m| m.get("name").and_then(|n| n.as_str()) == Some(metric))
            })
            .and_then(|m| m.get("bound"))
            .and_then(|b| b.as_f64())
            .unwrap()
    }

    /// A fake layer timed by the workloads' own window loop: a slowdown
    /// larger than the throughput bound, injected into it, is flagged
    /// by the bound's rule, and the unchanged layer is not.
    #[test]
    fn injected_slowdown_beyond_the_bound_is_flagged() {
        use crate::stats::{regressed, Better};
        let bound = benchmark_bound("throughput_per_s");
        // One window's rate; the three variants take turns window by
        // window, so a change in the host's speed meets all three alike.
        let rate = |work: u64| -> f64 {
            let mut acc = 0u64;
            let mut checks = Checks::default();
            let w = run_windows(
                &mut acc,
                8,
                Instant::now(),
                1,
                0.0,
                &mut checks,
                |acc, _| {
                    // A dependent multiply-add chain in a register: a
                    // fixed cost per iteration that cannot be folded.
                    let mut x = *acc;
                    for _ in 0..std::hint::black_box(work) {
                        x = x
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                    }
                    *acc = std::hint::black_box(x);
                },
                |_| (0.0, 1),
            );
            w.rates[0]
        };
        let base = 100_000;
        let slow = (base as f64 * (1.0 + 2.0 * bound)) as u64;
        let (mut parent, mut same, mut slowed) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..41 {
            parent.push(rate(base));
            slowed.push(rate(slow));
            same.push(rate(base));
        }
        assert!(!regressed(&parent, &same, Better::Higher, bound));
        assert!(regressed(&parent, &slowed, Better::Higher, bound));
    }

    #[test]
    fn window_loop_respects_deadline_and_minimum() {
        let mut checks = Checks::default();
        let mut n = 0u32;
        let w = run_windows(
            &mut n,
            4,
            Instant::now() + Duration::from_millis(1),
            3,
            0.0,
            &mut checks,
            |n, _| *n += 1,
            |_| (0.0, 10),
        );
        assert!(w.rates.len() >= 3);
        assert_eq!(w.step_ms.len(), 4 * w.rates.len());
        assert_eq!(n as usize, w.step_ms.len());
        assert_eq!(
            (checks.attempted as usize, checks.failed),
            (w.rates.len(), 0)
        );
    }
}
