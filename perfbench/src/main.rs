//! The wafer-md benchmark: one command runs a named workload from a
//! seed, checks the program's outputs, and prints every metric by name
//! with its unit; the last line of stdout is one JSON result object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wse-slab --seed 1 --seconds 26 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run (see `perfbench/README.md`).

mod client;
mod physics;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Where runs leave their trace files and temporary caches.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// The trace file of a traced run.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    out_dir().join(format!("trace-{workload}-seed{seed}.jsonl"))
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Output checks: every check counts as attempted; a failed one is
/// counted and its description kept for stderr.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Fold in another set of checks (another thread's or phase's).
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    /// Reported with `--trace 0`.
    pub end_to_end: Vec<Metric>,
    /// Reported with `--trace 1`.
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }
}

/// Run parameters shared by every workload.
#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// The machine fingerprint stamped on every result: a result is only
/// comparable with one taken on the same fingerprint.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"fingerprint\":{{\"cpu\":\"{}\",\"nproc\":{nproc},\"threads\":{}}}}}",
        cpu.replace(['"', '\\'], ""),
        rayon::current_num_threads()
    )
}

/// Peak resident set size of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The client and server width of the serve workloads, and the pool
/// width of the physics workloads: the process default.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

const WORKLOADS: [&str; 4] = ["wse-slab", "baseline-sharded", "serve-miss", "serve-hit"];

const USAGE: &str =
    "usage: wafer-md-perfbench --workload <wse-slab|baseline-sharded|serve-miss|serve-hit> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(String, Params), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| (1..=600).contains(s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(s), Some(trace)) => Ok((
            w,
            Params {
                seed,
                seconds: Duration::from_secs(s),
                trace,
            },
        )),
        _ => Err("missing or malformed argument".into()),
    }
}

fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    match workload {
        "wse-slab" => physics::wse_slab(p),
        "baseline-sharded" => physics::baseline_sharded(p),
        "serve-miss" => serve::serve_miss(p),
        _ => serve::serve_hit(p),
    }
}

/// A traced run reports every per-layer metric, whichever workload it
/// names. The named workload is traced for half of `--seconds`; each
/// other workload is traced for an equal share of the other half, so
/// the layers the named workload bypasses are measured on the workload
/// that loads them. Where two workloads give the same metric
/// (`trace.overhead`), the named workload's figure is kept.
fn run_traced(workload: &str, p: &Params) -> Result<Outcome, String> {
    let others: Vec<&str> = WORKLOADS.into_iter().filter(|w| *w != workload).collect();
    let share = |d: std::time::Duration| Params {
        seconds: d,
        ..p.clone()
    };
    let mut out = run(workload, &share(p.seconds / 2))?;
    for other in &others {
        let probe = run(other, &share(p.seconds / (2 * others.len() as u32)))
            .map_err(|e| format!("tracing {other}: {e}"))?;
        out.checks.absorb(probe.checks);
        for m in probe.per_layer {
            if !out.per_layer.iter().any(|o| o.name == m.name) {
                out.per_layer.push(m);
            }
        }
    }
    Ok(out)
}

/// The `end_to_end` (untraced) or `per_layer` (traced) metric names of
/// `BENCHMARK.json`, in its order.
fn manifest_metrics(trace: bool) -> Vec<String> {
    let manifest = wafer_md::json::Value::parse(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let key = if trace { "per_layer" } else { "end_to_end" };
    manifest
        .get(key)
        .and_then(|v| v.as_arr())
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(|n| n.as_str()).map(String::from))
        .collect()
}

/// The measured metrics in the manifest's order. Every metric of the
/// manifest must have been measured, and measured as a finite number;
/// each that was not fails a check, and a measured metric the manifest
/// does not name is dropped.
fn in_manifest_order(measured: Vec<Metric>, names: &[String], checks: &mut Checks) -> Vec<Metric> {
    let mut ordered = Vec::with_capacity(names.len());
    for name in names {
        match measured.iter().find(|m| m.name == name.as_str()) {
            Some(m) => {
                checks.check(m.value.is_finite(), || format!("{name} was not measured"));
                ordered.push(m.clone());
            }
            None => checks.check(false, || format!("{name} is not reported")),
        }
    }
    ordered
}

fn render(outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut json = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        // JSON has no NaN: an unmeasurable value renders as null and
        // has already failed its check.
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".into()
        };
        let _ = write!(
            json,
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    json.push('}');
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{json}}}",
        outcome.checks.failed == 0,
        outcome.checks.attempted.max(1),
        outcome.checks.failed
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `serve-hit` runs its cache fill as a child: `--fill-cache DIR SEED`.
    if let [flag, dir, seed] = args.as_slice() {
        if flag == "--fill-cache" {
            let filled = seed
                .parse()
                .map_err(|e| format!("seed: {e}"))
                .and_then(|seed| serve::fill_cache(std::path::Path::new(dir), seed));
            return match filled {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: cache fill: {e}");
                    ExitCode::from(1)
                }
            };
        }
    }
    let (workload, params) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if params.trace {
        run_traced(&workload, &params)
    } else {
        run(&workload, &params)
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {workload} could not run: {e}");
            return ExitCode::from(1);
        }
    };
    let measured = if params.trace {
        std::mem::take(&mut outcome.per_layer)
    } else {
        std::mem::take(&mut outcome.end_to_end)
    };
    let metrics = in_manifest_order(
        measured,
        &manifest_metrics(params.trace),
        &mut outcome.checks,
    );
    for f in &outcome.checks.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", fingerprint());
    for m in &metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<32} {:>16.6} (failed {} of {} checks)",
        "failed_frac",
        outcome.checks.failed as f64 / outcome.checks.attempted.max(1) as f64,
        outcome.checks.failed,
        outcome.checks.attempted
    );
    println!("{}", render(&outcome, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let (w, p) =
            parse_args(&args("--workload serve-hit --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(w, "serve-hit");
        assert_eq!((p.seed, p.seconds.as_secs(), p.trace), (9, 3, true));
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 3 --trace 0")).is_err());
        assert!(parse_args(&args("--workload wse-slab --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload wse-slab --seed 1 --seconds 3 --trace 2")).is_err());
        assert!(parse_args(&args("--workload wse-slab --seed 1 --seconds 3")).is_err());
    }

    #[test]
    fn metrics_follow_the_manifest_and_missing_ones_fail() {
        let m = |name, value| Metric {
            name,
            value,
            unit: "ms",
        };
        let names: Vec<String> = ["a", "b", "c"].map(String::from).into();
        let mut checks = Checks::default();
        let ordered = in_manifest_order(
            vec![m("c", 3.0), m("x", 9.0), m("a", 1.0)],
            &names,
            &mut checks,
        );
        let got: Vec<&str> = ordered.iter().map(|m| m.name).collect();
        assert_eq!(got, ["a", "c"]);
        assert_eq!((checks.attempted, checks.failed), (3, 1));
        assert!(checks.failures[0].contains('b'));
    }

    #[test]
    fn manifest_names_both_metric_sets() {
        let e2e = manifest_metrics(false);
        assert!(e2e.iter().any(|n| n == "setup_s"));
        assert!(manifest_metrics(true).len() > e2e.len());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.checks.check(true, String::new);
        o.e2e("setup_s", 0.25, "s");
        let line = render(&o, &o.end_to_end);
        let v = wafer_md::json::Value::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }
}
