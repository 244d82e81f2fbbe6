//! The serve workloads: an in-process `wafer-md serve` on loopback,
//! driven by a closed loop of keep-alive clients (each waits for its
//! reply before sending again), one client per core.
//!
//! - `serve-miss` sends distinct seeded specs: every request runs an
//!   engine and writes the cache.
//! - `serve-hit` has a child process serve a fixed set of distinct
//!   specs into the cache (untimed), then serves that warm cache while
//!   the clients re-send the specs, field-scrambled and in a seeded
//!   order: every request is answered from the cache.

use std::collections::HashMap;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wafer_md::json::Value;
use wafer_md::md::materials::Species;
use wafer_md::scenario::{EngineKind, Scenario, ScenarioSpec};
use wafer_md::serve::{
    run_batch, run_spec, Disposition, ResultCache, Scheduler, ServeConfig, Server,
};

use crate::client::{Client, Response};
use crate::stats::{median, tail_percentile};
use crate::trace::Recorder;
use crate::{nproc, out_dir, peak_rss_mb, trace_path, Checks, Outcome, Params};

/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Distinct specs `serve-hit` caches before its timed phase: one
/// stratified block, so every seed's set holds the whole mix.
const HIT_SPECS: u64 = BLOCK;
/// Miss replies compared byte-for-byte against an in-process run.
const MISS_SPOT_CHECKS: u64 = 8;
/// Requests a phase keeps for its percentiles and its in-process
/// replay; past this many, a uniform sample of them.
const SAMPLE_CAP: usize = 8192;
/// Where the traced hit phase picks up each client's request stream.
const TRACED_J0: u64 = 1 << 24;

/// splitmix64: a small seeded generator, so inputs depend on the seed
/// alone.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Specs per stratified block: a multiple of 3 species, 2 engines and
/// the 1-in-5 sharded share.
const BLOCK: u64 = 60;

/// A seeded permutation of `0..BLOCK`.
fn permutation(rng: &mut Rng) -> Vec<u64> {
    let mut p: Vec<u64> = (0..BLOCK).collect();
    for i in (1..p.len()).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// The `i`-th distinct spec of a seed, every field drawn from the seed
/// within the ranges the workload states: Cu, W or Ta; either engine;
/// 50–2,000 atoms, log-uniform; 20–100 steps, uniform; two shards with
/// probability 1/5.
///
/// The draws are stratified: each block of [`BLOCK`] specs cuts every
/// field's range into `BLOCK` equal strata and gives each spec one
/// stratum per field, by an independent seeded permutation, with the
/// value drawn inside its stratum. Every field keeps its stated
/// distribution, but every block holds the whole of it, so runs with
/// different seeds send the same mix in different combinations and
/// orders. Over five seeds on a 2-vCPU host, `serve-miss` throughput
/// varied 13% (IQR over the median) with independent draws and 7.5%
/// with stratified ones. The velocity seed embeds `i`, so the specs of
/// one run never share a key.
pub fn spec(seed: u64, i: u64) -> ScenarioSpec {
    let (block, k) = (i / BLOCK, (i % BLOCK) as usize);
    let mut strata = Rng::new(Rng::new(seed ^ 0xB10C).next_u64() ^ block);
    let mut stratum = || permutation(&mut strata)[k];
    let (species, engine, shards, atoms_q, steps_q) =
        (stratum(), stratum(), stratum(), stratum(), stratum());
    let mut rng = Rng::new(Rng::new(seed).next_u64() ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut within = |q: u64| (q as f64 + rng.unit()) / BLOCK as f64;
    let species = [Species::Cu, Species::W, Species::Ta][(species % 3) as usize];
    let engine = [EngineKind::Wse, EngineKind::Baseline][(engine % 2) as usize];
    let shards = if shards % 5 == 0 { 2 } else { 1 };
    let atoms = (50f64.ln() + within(atoms_q) * (2000f64 / 50.0).ln())
        .exp()
        .round() as usize;
    let steps = 20 + (within(steps_q) * 81.0) as usize;
    let nz = 1 + rng.below(2) as usize;
    Scenario::slab(species, 2, 2, nz)
        .approx_atoms(atoms)
        .temperature(290.0)
        .steps(steps)
        .engine(engine)
        .shards(shards)
        .seed(Rng::new(seed).next_u64() ^ i)
        .to_spec()
}

fn shuffle(v: &mut Value, rng: &mut Rng) {
    match v {
        Value::Obj(fields) => {
            for i in (1..fields.len()).rev() {
                fields.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for (_, f) in fields.iter_mut() {
                shuffle(f, rng);
            }
        }
        Value::Arr(items) => items.iter_mut().for_each(|f| shuffle(f, rng)),
        _ => {}
    }
}

/// The spec's JSON with the fields of every object in a seeded order:
/// the same request to the server, different bytes on the wire.
pub fn scrambled(spec: &ScenarioSpec, rng: &mut Rng) -> String {
    let mut v = Value::parse(&spec.to_json()).expect("canonical JSON parses");
    shuffle(&mut v, rng);
    v.render()
}

/// The seeded stream of hit requests of client `c`: (spec index, body).
pub fn hit_request(seed: u64, client: u64, j: u64, specs: &[ScenarioSpec]) -> (usize, String) {
    let mut rng = Rng::new(Rng::new(seed ^ 0x5EED).next_u64() ^ (client << 40) ^ j);
    let idx = rng.below(specs.len() as u64) as usize;
    (idx, scrambled(&specs[idx], &mut rng))
}

/// A running server on loopback over a fresh cache.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
    cache_dirs: Vec<PathBuf>,
}

fn cache_dir(tag: &str) -> PathBuf {
    out_dir().join(format!("cache-{}-{tag}", std::process::id()))
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Start a server on loopback over a fresh cache in `dir`.
fn launch(dir: &Path) -> Result<Running, String> {
    let cache = ResultCache::open(dir).map_err(|e| format!("opening the cache: {e}"))?;
    let config = ServeConfig {
        threads: nproc(),
        ..ServeConfig::default()
    };
    let mut server =
        Server::bind_with("127.0.0.1:0", cache, config).map_err(|e| format!("binding: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || server.serve());
    Ok(Running {
        addr,
        thread,
        cache_dirs: vec![dir.to_path_buf()],
    })
}

/// The request every timed set-up answers first: a small
/// reference-engine run.
fn first_request() -> String {
    Scenario::slab(Species::Cu, 6, 6, 1)
        .temperature(290.0)
        .steps(40)
        .engine(EngineKind::Baseline)
        .to_spec()
        .to_json()
}

/// Set-up as a client sees it, `SETUP_REPS` times: from cache open and
/// bind until the fresh server has answered its first request. Cache
/// open and bind alone take tens of microseconds, mostly one index-file
/// write whose latency follows other tenants' disk traffic; the first
/// answer adds the acceptor start and a cold engine run, so work moved
/// into start-up shows and the figure does not hinge on one write.
fn set_up_times(checks: &mut Checks) -> Result<Vec<f64>, String> {
    let body = first_request();
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for r in 0..SETUP_REPS {
        let dir = cache_dir(&format!("setup{r}"));
        fresh_dir(&dir)?;
        let t = Instant::now();
        let server = launch(&dir)?;
        let reply = Client::new(server.addr).request("POST", "/run", body.as_bytes());
        secs.push(t.elapsed().as_secs_f64());
        checks.check(
            matches!(&reply, Ok(r) if r.status == 200 && r.header("X-Wafer-Cache") == "miss"),
            || format!("first request after set-up: {:?}", reply.map(|r| r.status)),
        );
        server.stats_and_stop()?;
    }
    Ok(secs)
}

/// Time the set-ups, then start the server the phases run against.
fn start_server(checks: &mut Checks) -> Result<(Running, Vec<f64>), String> {
    let secs = set_up_times(checks)?;
    let dir = cache_dir("server");
    fresh_dir(&dir)?;
    Ok((launch(&dir)?, secs))
}

fn remove_dirs(dirs: &[PathBuf]) {
    for d in dirs {
        let _ = fs::remove_dir_all(d);
    }
}

impl Running {
    /// `GET /stats` on a fresh connection (clients have hung up, so an
    /// acceptor is free), then shut down and join the server.
    fn stats_and_stop(self) -> Result<Value, String> {
        let mut c = Client::new(self.addr);
        let stats = c
            .request("GET", "/stats", b"")
            .map_err(|e| format!("GET /stats: {e}"))
            .and_then(|r| {
                Value::parse(&String::from_utf8_lossy(&r.body))
                    .map_err(|e| format!("/stats body: {e}"))
            });
        let down = c.request("POST", "/shutdown", b"");
        let joined = self.thread.join();
        remove_dirs(&self.cache_dirs);
        down.map_err(|e| format!("POST /shutdown: {e}"))?;
        match joined {
            Ok(Ok(())) => stats,
            Ok(Err(e)) => Err(format!("server loop failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// One request as the load generator saw it: who sent it (`client`,
/// and `j`, its place in that client's stream), the spec index, and its
/// latency. The body is not kept; each phase can send it again from
/// `(client, j)`.
#[derive(Clone, Copy, Debug, Default)]
struct Sample {
    client: u64,
    j: u64,
    idx: usize,
    ms: f64,
}

/// A uniform sample of at most [`SAMPLE_CAP`] of a phase's requests
/// (Algorithm R), so the load generator's memory does not grow with
/// the throughput it measures. Its storage is written in full before
/// the phase starts, so its share of `peak_rss_mb` is the same at any
/// request rate. Below the cap it holds every request and the
/// percentiles are exact.
struct Reservoir {
    items: Vec<Sample>,
    len: usize,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    fn new(seed: u64) -> Self {
        Self {
            items: vec![Sample::default(); SAMPLE_CAP],
            len: 0,
            seen: 0,
            rng: Rng::new(seed),
        }
    }

    fn offer(&mut self, s: Sample) {
        self.seen += 1;
        if self.len < self.items.len() {
            self.items[self.len] = s;
            self.len += 1;
        } else {
            let k = self.rng.below(self.seen) as usize;
            if k < self.items.len() {
                self.items[k] = s;
            }
        }
    }
}

/// What one closed-loop phase saw.
struct Phase {
    /// The reservoir's sample of the answered requests.
    samples: Vec<Sample>,
    /// Requests answered.
    answered: u64,
    checks: Checks,
    elapsed: Duration,
}

/// A closed-loop phase: `nproc` clients, each sending its next request
/// once the previous reply is in, until `deadline` or until `next`
/// runs dry. `check` judges every reply. Spans go to `rec` when it is
/// enabled.
fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    deadline: Instant,
    rec: &mut Recorder,
    next: &(dyn Fn(u64, u64) -> Option<(usize, String)> + Sync),
    check: &(dyn Fn(usize, &Response) -> Result<(), String> + Sync),
) -> Phase {
    let reservoir = Mutex::new(Reservoir::new(seed));
    let start = Instant::now();
    let clients = nproc() as u64;
    let results: Vec<(Checks, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut rec = rec.fork();
                let reservoir = &reservoir;
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut checks = Checks::default();
                    let mut j = 0u64;
                    while Instant::now() < deadline {
                        let Some((idx, body)) = next(c, j) else { break };
                        let request = (c << 32) | j;
                        let sent = Instant::now();
                        match client.request("POST", "/run", body.as_bytes()) {
                            Ok(r) => {
                                let root =
                                    rec.record("http.request", sent, sent + r.total, None, request);
                                rec.record(
                                    "http.wait_first_byte",
                                    sent,
                                    sent + r.ttfb,
                                    root,
                                    request,
                                );
                                rec.record(
                                    "http.body",
                                    sent + r.ttfb,
                                    sent + r.total,
                                    root,
                                    request,
                                );
                                checks.check(r.status == 200, || {
                                    format!("status {} for spec {idx}", r.status)
                                });
                                if let Err(e) = check(idx, &r) {
                                    checks.check(false, || e);
                                }
                                reservoir.lock().expect("reservoir lock").offer(Sample {
                                    client: c,
                                    j,
                                    idx,
                                    ms: r.total.as_secs_f64() * 1e3,
                                });
                            }
                            Err(e) => {
                                checks.check(false, || format!("request for spec {idx}: {e}"))
                            }
                        }
                        j += 1;
                    }
                    (checks, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    let reservoir = reservoir.into_inner().expect("reservoir lock");
    let mut samples = reservoir.items;
    samples.truncate(reservoir.len);
    let mut phase = Phase {
        samples,
        answered: reservoir.seen,
        checks: Checks::default(),
        elapsed,
    };
    for (checks, r) in results {
        phase.checks.absorb(checks);
        rec.absorb(r);
    }
    phase
}

fn expect_header(r: &Response, name: &str, want: &str) -> Result<(), String> {
    let got = r.header(name);
    if got == want {
        Ok(())
    } else {
        Err(format!("{name}: got '{got}', want '{want}'"))
    }
}

/// Miss replies kept per spec index, for the comparisons that need
/// them.
type Bodies = Mutex<HashMap<usize, Vec<u8>>>;

/// Send distinct specs, taking spec indices from `counter`, until
/// `deadline`; every reply must be a miss. The bodies of spec indices
/// below `keep` go to `bodies`.
fn miss_phase(
    addr: SocketAddr,
    seed: u64,
    counter: &AtomicU64,
    deadline: Instant,
    rec: &mut Recorder,
    bodies: &Bodies,
    keep: u64,
) -> Phase {
    let next = |_c: u64, _j: u64| {
        let i = counter.fetch_add(1, Ordering::SeqCst);
        Some((i as usize, spec(seed, i).to_json()))
    };
    let check = |idx: usize, r: &Response| {
        expect_header(r, "X-Wafer-Cache", "miss")?;
        expect_header(r, "X-Wafer-Key", &spec(seed, idx as u64).key())?;
        if (idx as u64) < keep {
            bodies
                .lock()
                .expect("bodies lock")
                .insert(idx, r.body.clone());
        }
        Ok(())
    };
    closed_loop(addr, seed, deadline, rec, &next, &check)
}

fn p50_ms(samples: &[Sample]) -> f64 {
    median(&samples.iter().map(|s| s.ms).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

fn report_e2e(out: &mut Outcome, setup: &[f64], phase: &Phase, tail: f64) {
    let ms: Vec<f64> = phase.samples.iter().map(|s| s.ms).collect();
    out.e2e("setup_s", median(setup).unwrap_or(f64::NAN), "s");
    out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    out.e2e(
        "throughput_per_s",
        phase.answered as f64 / phase.elapsed.as_secs_f64(),
        "1/s",
    );
    out.e2e("latency_ms_p50", median(&ms).unwrap_or(f64::NAN), "ms");
    out.e2e(
        "latency_ms_tail",
        tail_percentile(&ms, tail).unwrap_or(f64::NAN),
        "ms",
    );
}

fn stat(stats: &Value, name: &str) -> u64 {
    stats.get(name).and_then(Value::as_u64).unwrap_or(u64::MAX)
}

fn p50_of(rec: &Recorder, name: &str, scale: f64) -> f64 {
    median(&rec.durations_ms(name)).map_or(f64::NAN, |ms| ms * scale)
}

pub fn serve_miss(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (server, setup) = start_server(&mut out.checks)?;
    let bodies = Bodies::default();
    let counter = AtomicU64::new(0);
    let start = Instant::now();
    let half = if p.trace { p.seconds / 2 } else { p.seconds };
    let mut quiet = Recorder::new(false);
    let untraced = miss_phase(
        server.addr,
        p.seed,
        &counter,
        start + half,
        &mut quiet,
        &bodies,
        MISS_SPOT_CHECKS,
    );
    let mut rec = Recorder::new(p.trace);
    let traced = p.trace.then(|| {
        miss_phase(
            server.addr,
            p.seed,
            &counter,
            start + p.seconds,
            &mut rec,
            &bodies,
            u64::MAX,
        )
    });
    let sent = untraced.answered + traced.as_ref().map_or(0, |t| t.answered);
    let stats = server.stats_and_stop()?;
    report_e2e(&mut out, &setup, &untraced, 90.0);
    out.checks.absorb(untraced.checks);

    out.checks.check(stat(&stats, "runs") == sent, || {
        format!(
            "/stats runs {} != distinct specs sent {sent}",
            stat(&stats, "runs")
        )
    });
    out.checks.check(stat(&stats, "cache_hits") == 0, || {
        format!("/stats cache_hits {} != 0", stat(&stats, "cache_hits"))
    });
    let bodies = bodies.into_inner().expect("bodies lock");
    // Served bytes equal an in-process run of the same spec.
    for i in 0..MISS_SPOT_CHECKS.min(sent) {
        let expect = run_spec(&spec(p.seed, i)).report;
        out.checks.check(
            bodies.get(&(i as usize)).map(Vec::as_slice) == Some(expect.as_bytes()),
            || format!("miss body of spec {i} differs from an in-process run"),
        );
    }
    let Some(traced) = traced else {
        return Ok(out);
    };
    out.checks.absorb(traced.checks);

    // The traced specs again, straight through the layers under HTTP.
    let dir = cache_dir("inproc");
    let side_dir = cache_dir("side");
    fresh_dir(&dir)?;
    fresh_dir(&side_dir)?;
    let mut sched = Scheduler::new(ResultCache::open(&dir).map_err(|e| e.to_string())?);
    let mut side = ResultCache::open(&side_dir).map_err(|e| e.to_string())?;
    let mut replay: Vec<&Sample> = traced.samples.iter().collect();
    replay.sort_by_key(|s| s.idx);
    for s in replay {
        let request = s.idx as u64 | 1 << 63;
        let body = spec(p.seed, s.idx as u64).to_json();
        let root = rec.begin("inproc.miss", None, request);
        let parsed = rec.time("json.parse", root, request, || {
            ScenarioSpec::from_json(&body)
        });
        let Ok(spec) = parsed else {
            out.checks
                .check(false, || format!("spec {} did not parse in process", s.idx));
            rec.end(root);
            continue;
        };
        let (key, disposition) = rec.time("scheduler.submit", root, request, || sched.submit(spec));
        let batch = rec.time("scheduler.claim_batch", root, request, || {
            sched.claim_batch()
        });
        let artifacts = rec.time("engine.run", root, request, || {
            run_batch(&batch, batch.len(), &|_| {})
        });
        let mut reports = Vec::new();
        for (job, a) in batch.iter().zip(artifacts) {
            let files = [
                ("spec.json", job.spec.to_json()),
                ("report.txt", a.report.clone()),
                ("counters.json", a.counters.clone()),
            ];
            let landed = rec.time("scheduler.complete", root, request, || {
                sched.complete(job, a)
            });
            let refs: Vec<(&str, &str)> = files.iter().map(|(n, t)| (*n, t.as_str())).collect();
            let inserted = rec.time("cache.insert", root, request, || {
                side.insert(&job.key, &refs)
            });
            out.checks.check(landed.is_ok() && inserted.is_ok(), || {
                format!("landing {key} failed")
            });
            reports.push(files[1].1.clone());
        }
        out.checks.check(
            disposition == Disposition::Queued && reports.len() == 1,
            || {
                format!(
                    "in-process spec {} was {disposition:?} in a batch of {}",
                    s.idx,
                    reports.len()
                )
            },
        );
        out.checks.check(
            reports.first().map(String::as_bytes) == bodies.get(&s.idx).map(Vec::as_slice),
            || {
                format!(
                    "in-process report of spec {} differs from the served body",
                    s.idx
                )
            },
        );
        rec.end(root);
    }
    drop(sched);
    drop(side);
    remove_dirs(&[dir, side_dir]);

    out.layer(
        "http.miss_ttfb_ms_p50",
        p50_of(&rec, "http.wait_first_byte", 1.0),
        "ms",
    );
    out.layer("engine.run_ms_p50", p50_of(&rec, "engine.run", 1.0), "ms");
    out.layer(
        "scheduler.complete_ms_p50",
        p50_of(&rec, "scheduler.complete", 1.0),
        "ms",
    );
    out.layer(
        "cache.insert_ms_p50",
        p50_of(&rec, "cache.insert", 1.0),
        "ms",
    );
    out.layer(
        "queue.jobs_per_batch",
        stat(&stats, "runs") as f64 / stat(&stats, "batches") as f64,
        "ratio",
    );
    out.layer(
        "trace.overhead",
        p50_ms(&traced.samples) / p50_ms(&untraced.samples) - 1.0,
        "ratio",
    );
    rec.write_jsonl(&trace_path("serve-miss", p.seed), &crate::fingerprint())
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(out)
}

/// Send hits until `deadline`; every reply must be a hit whose body is
/// byte-identical to the miss reply for its spec.
fn hit_phase(
    addr: SocketAddr,
    seed: u64,
    specs: &[ScenarioSpec],
    first_j: u64,
    deadline: Instant,
    rec: &mut Recorder,
    bodies: &HashMap<usize, Vec<u8>>,
) -> Phase {
    let next = |c: u64, j: u64| Some(hit_request(seed, c, first_j + j, specs));
    let check = |idx: usize, r: &Response| {
        expect_header(r, "X-Wafer-Cache", "hit")?;
        if bodies.get(&idx).map(Vec::as_slice) == Some(r.body.as_slice()) {
            Ok(())
        } else {
            Err(format!("hit body of spec {idx} differs from its miss body"))
        }
    };
    closed_loop(addr, seed, deadline, rec, &next, &check)
}

/// Where the cache fill leaves the miss bodies of the cache in `dir`.
fn bodies_dir(dir: &Path) -> PathBuf {
    dir.with_extension("bodies")
}

/// The cache fill of `serve-hit`, run in a child process so its engine
/// runs do not set the measured process's peak memory: a server over
/// the fresh cache in `dir` answers the first [`HIT_SPECS`] specs of
/// `seed`, one at a time on one connection. Every reply must be a miss
/// with the spec's key; its body goes to [`bodies_dir`]. At the end
/// `GET /stats` must report one run per spec and no hits. The cache
/// stays in `dir`.
pub fn fill_cache(dir: &Path, seed: u64) -> Result<(), String> {
    let mut server = launch(dir)?;
    server.cache_dirs.clear();
    let kept = bodies_dir(dir);
    let mut client = Client::new(server.addr);
    let mut failures = Vec::new();
    for i in 0..HIT_SPECS {
        let s = spec(seed, i);
        match client.request("POST", "/run", s.to_json().as_bytes()) {
            Ok(r)
                if r.status == 200
                    && r.header("X-Wafer-Cache") == "miss"
                    && r.header("X-Wafer-Key") == s.key() =>
            {
                fs::write(kept.join(i.to_string()), &r.body)
                    .map_err(|e| format!("keeping the body of spec {i}: {e}"))?;
            }
            Ok(r) => failures.push(format!(
                "spec {i}: status {}, X-Wafer-Cache '{}'",
                r.status,
                r.header("X-Wafer-Cache")
            )),
            Err(e) => failures.push(format!("spec {i}: {e}")),
        }
    }
    drop(client);
    let stats = server.stats_and_stop()?;
    if stat(&stats, "runs") != HIT_SPECS || stat(&stats, "cache_hits") != 0 {
        failures.push(format!(
            "/stats runs {} cache_hits {} after {HIT_SPECS} distinct specs",
            stat(&stats, "runs"),
            stat(&stats, "cache_hits")
        ));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

pub fn serve_hit(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setup = set_up_times(&mut out.checks)?;
    let specs: Vec<ScenarioSpec> = (0..HIT_SPECS).map(|i| spec(p.seed, i)).collect();

    // Untimed: a child process fills the cache and leaves the miss
    // bodies beside it; this process then serves the warm cache, as a
    // restarted server would.
    let dir = cache_dir("server");
    let kept = bodies_dir(&dir);
    fresh_dir(&dir)?;
    fresh_dir(&kept)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let filled = Command::new(exe)
        .arg("--fill-cache")
        .arg(&dir)
        .arg(p.seed.to_string())
        .stdout(Stdio::null())
        .status();
    out.checks
        .check(matches!(filled, Ok(s) if s.success()), || {
            format!("the cache fill failed: {filled:?}")
        });
    let mut bodies = HashMap::new();
    for i in 0..HIT_SPECS as usize {
        match fs::read(kept.join(i.to_string())) {
            Ok(b) => {
                bodies.insert(i, b);
            }
            Err(e) => out
                .checks
                .check(false, || format!("miss body of spec {i}: {e}")),
        }
    }
    let mut server = launch(&dir)?;
    server.cache_dirs.push(kept);

    let start = Instant::now();
    let half = if p.trace { p.seconds / 2 } else { p.seconds };
    let untraced = hit_phase(
        server.addr,
        p.seed,
        &specs,
        0,
        start + half,
        &mut Recorder::new(false),
        &bodies,
    );
    let mut rec = Recorder::new(p.trace);
    let traced = p.trace.then(|| {
        // Continue each client's seeded stream past the untraced half.
        hit_phase(
            server.addr,
            p.seed,
            &specs,
            TRACED_J0,
            start + p.seconds,
            &mut rec,
            &bodies,
        )
    });
    let hits = untraced.answered + traced.as_ref().map_or(0, |t| t.answered);
    let stats = server.stats_and_stop()?;
    report_e2e(&mut out, &setup, &untraced, 99.0);
    out.checks.absorb(untraced.checks);
    out.checks.check(stat(&stats, "runs") == 0, || {
        format!("/stats runs {} != 0 on a warm cache", stat(&stats, "runs"))
    });
    out.checks.check(stat(&stats, "cache_hits") == hits, || {
        format!(
            "/stats cache_hits {} != hit requests {hits}",
            stat(&stats, "cache_hits")
        )
    });
    let Some(traced) = traced else {
        return Ok(out);
    };
    out.checks.absorb(traced.checks);

    // The same hits straight through the layers under HTTP, on a cache
    // filled the same way.
    let dir = cache_dir("inproc");
    fresh_dir(&dir)?;
    let mut sched = Scheduler::new(ResultCache::open(&dir).map_err(|e| e.to_string())?);
    for s in &specs {
        sched.submit(*s);
    }
    sched.drain().map_err(|e| format!("in-process fill: {e}"))?;
    for (n, s) in traced.samples.iter().enumerate() {
        let request = n as u64 | 1 << 63;
        let (idx, body) = hit_request(p.seed, s.client, TRACED_J0 + s.j, &specs);
        out.checks.check(idx == s.idx, || {
            format!("hit {} of client {} rebuilt as spec {idx}", s.j, s.client)
        });
        let root = rec.begin("inproc.hit", None, request);
        let parsed = rec.time("json.parse", root, request, || {
            ScenarioSpec::from_json(&body)
        });
        let Ok(spec) = parsed else {
            out.checks.check(false, || {
                format!("hit body for spec {} did not parse", s.idx)
            });
            rec.end(root);
            continue;
        };
        let (key, disposition) = rec.time("scheduler.submit", root, request, || sched.submit(spec));
        let cached = rec.time("cache.lookup", root, request, || sched.result(&key));
        rec.end(root);
        out.checks.check(
            disposition == Disposition::CacheHit
                && cached.map(|c| c.report.into_bytes()).as_deref()
                    == bodies.get(&s.idx).map(Vec::as_slice),
            || {
                format!(
                    "in-process hit for spec {} disagrees with the server",
                    s.idx
                )
            },
        );
    }
    drop(sched);
    remove_dirs(&[dir]);

    let hit_p50 = p50_ms(&untraced.samples);
    let http_self = hit_p50 - p50_of(&rec, "inproc.hit", 1.0);
    out.layer(
        "http.hit_ttfb_ms_p50",
        p50_of(&rec, "http.wait_first_byte", 1.0),
        "ms",
    );
    out.layer("http.hit_tail_ms_p50", p50_of(&rec, "http.body", 1.0), "ms");
    out.layer("http.self_ms_p50", http_self, "ms");
    out.layer("http.self_share", http_self / hit_p50, "ratio");
    out.layer("json.parse_us_p50", p50_of(&rec, "json.parse", 1e3), "us");
    out.layer(
        "scheduler.submit_us_p50",
        p50_of(&rec, "scheduler.submit", 1e3),
        "us",
    );
    out.layer(
        "cache.lookup_us_p50",
        p50_of(&rec, "cache.lookup", 1e3),
        "us",
    );
    out.layer(
        "trace.overhead",
        p50_ms(&traced.samples) / hit_p50 - 1.0,
        "ratio",
    );
    rec.write_jsonl(&trace_path("serve-hit", p.seed), &crate::fingerprint())
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let specs = |seed| -> Vec<String> { (0..32).map(|i| spec(seed, i).to_json()).collect() };
        assert_eq!(specs(3), specs(3));
        assert_ne!(specs(3), specs(4));
        let specs3: Vec<ScenarioSpec> = (0..8).map(|i| spec(3, i)).collect();
        let hits = |seed| -> Vec<(usize, String)> {
            (0..32).map(|j| hit_request(seed, 1, j, &specs3)).collect()
        };
        assert_eq!(hits(3), hits(3));
        assert_ne!(hits(3), hits(4));
    }

    #[test]
    fn specs_are_distinct_and_span_the_stated_mix() {
        let specs: Vec<ScenarioSpec> = (0..360).map(|i| spec(11, i)).collect();
        let keys: std::collections::HashSet<String> = specs.iter().map(ScenarioSpec::key).collect();
        assert_eq!(keys.len(), specs.len());
        let atoms: Vec<usize> = specs
            .iter()
            .map(|s| Scenario::from_spec(*s).positions().len())
            .collect();
        assert!(atoms.iter().all(|&n| (16..=2600).contains(&n)), "{atoms:?}");
        assert!(atoms.iter().any(|&n| n < 100) && atoms.iter().any(|&n| n > 1000));
        assert!(specs.iter().all(|s| (20..=100).contains(&s.steps)));
        // Every block of 60 holds the whole mix.
        for block in specs.chunks(BLOCK as usize) {
            let count = |f: &dyn Fn(&ScenarioSpec) -> bool| block.iter().filter(|s| f(s)).count();
            assert_eq!(count(&|s| s.shards == 2), 12, "one spec in five is sharded");
            for kind in [EngineKind::Wse, EngineKind::Baseline] {
                assert_eq!(count(&|s| s.engine == kind), 30);
            }
            for species in [Species::Cu, Species::W, Species::Ta] {
                assert_eq!(count(&|s| s.species == species), 20);
            }
            // Twenty per third of the 81 step counts.
            for third in 0..3 {
                let lo = 20 + 27 * third;
                assert_eq!(count(&|s| (lo..lo + 27).contains(&s.steps)), 20);
            }
        }
    }

    #[test]
    fn reservoir_keeps_all_below_the_cap_and_a_uniform_sample_above() {
        let sample = |j| Sample {
            client: 0,
            j,
            idx: 0,
            ms: j as f64,
        };
        let mut r = Reservoir::new(5);
        for j in 0..100 {
            r.offer(sample(j));
        }
        assert_eq!((r.len, r.seen), (100, 100));
        assert!(r.items[..100]
            .iter()
            .enumerate()
            .all(|(i, s)| s.j == i as u64));
        let n = 10 * SAMPLE_CAP as u64;
        let mut r = Reservoir::new(5);
        for j in 0..n {
            r.offer(sample(j));
        }
        assert_eq!((r.len, r.seen, r.items.len()), (SAMPLE_CAP, n, SAMPLE_CAP));
        // The kept requests' median sits near the stream's.
        let ms: Vec<f64> = r.items.iter().map(|s| s.ms).collect();
        let m = median(&ms).unwrap() / n as f64;
        assert!((m - 0.5).abs() < 0.03, "median at {m} of the stream");
    }

    #[test]
    fn scrambled_json_is_the_same_request() {
        let mut rng = Rng::new(9);
        for i in 0..16 {
            let s = spec(2, i);
            let text = scrambled(&s, &mut rng);
            assert_ne!(text, s.to_json());
            assert_eq!(ScenarioSpec::from_json(&text).unwrap().key(), s.key());
        }
    }
}
