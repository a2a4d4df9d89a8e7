//! Client-storm benchmark: hammers a running `chainiq-serve` daemon
//! with concurrent submissions and measures jobs/sec cold (all misses)
//! versus warm (mostly cache hits), writing `BENCH_serve.json` plus one
//! appended line in `BENCH_serve_history.jsonl`.
//!
//! ```text
//! storm [--addr HOST:PORT] [--clients N] [--total N] [--distinct N]
//!       [--hit-ratio F] [--sample N] [--seed N]
//!       [--expect-warm-all-hits] [--shutdown]
//! ```
//!
//! Two phases against the same daemon:
//!
//! 1. **cold** — every spec of a `--distinct`-sized pool submitted
//!    once; all misses on a fresh cache.
//! 2. **warm** — `--total` submissions drawn from the pool with
//!    probability `--hit-ratio`, novel specs otherwise, sharded over
//!    `--clients` concurrent connections.
//!
//! The warm job stream is built up front from one seeded RNG, so it is
//! identical whatever the client count. Every response is checked into
//! a key → bytes registry: a second response for a key that differs
//! byte-for-byte — across phases, clients, or hit/miss paths — fails
//! the run. `--expect-warm-all-hits` additionally asserts the warm
//! phase simulated nothing (ci.sh runs it at `--hit-ratio 1.0`).
//! `--shutdown` just asks the daemon to exit. A degenerate (non-finite
//! or non-positive) cold or warm throughput fails the run before either
//! artifact is written.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Mutex;
#[expect(
    clippy::disallowed_types,
    reason = "D2: storm measures host jobs per second against the daemon"
)]
use std::time::Instant;

use chainiq::Bench;
use chainiq_bench::knob::git_rev;
use chainiq_bench::{ideal, knob, results_dir, segmented, PredictorConfig, RunSpec, DEFAULT_SEED};
use chainiq_rng::Rng;
use chainiq_serve::{spec_key, Client, ServeStats, Submission};

struct Args {
    addr: SocketAddr,
    clients: usize,
    total: usize,
    distinct: usize,
    hit_ratio: f64,
    sample: u64,
    seed: u64,
    expect_warm_all_hits: bool,
    shutdown: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: storm [--addr HOST:PORT] [--clients N] [--total N] [--distinct N] \
         [--hit-ratio F] [--sample N] [--seed N] [--expect-warm-all-hits] [--shutdown]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: knob::serve_addr(),
        clients: 8,
        total: 512,
        distinct: 16,
        hit_ratio: 0.95,
        sample: 2_000,
        seed: DEFAULT_SEED,
        expect_warm_all_hits: false,
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || match it.next() {
            Some(v) => v,
            None => {
                eprintln!("storm: {flag} needs a value");
                usage()
            }
        };
        fn num<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
            match raw.parse() {
                Ok(v) => v,
                Err(_) => {
                    eprintln!("storm: bad value {raw:?} for {flag}");
                    usage()
                }
            }
        }
        match flag.as_str() {
            "--addr" => args.addr = num(&flag, &value()),
            "--clients" => args.clients = num(&flag, &value()),
            "--total" => args.total = num(&flag, &value()),
            "--distinct" => args.distinct = num(&flag, &value()),
            "--hit-ratio" => args.hit_ratio = num(&flag, &value()),
            "--sample" => args.sample = num(&flag, &value()),
            "--seed" => args.seed = num(&flag, &value()),
            "--expect-warm-all-hits" => args.expect_warm_all_hits = true,
            "--shutdown" => args.shutdown = true,
            _ => usage(),
        }
    }
    if args.clients == 0 || args.distinct == 0 || !(0.0..=1.0).contains(&args.hit_ratio) {
        eprintln!("storm: --clients/--distinct must be positive, --hit-ratio within [0, 1]");
        usage()
    }
    args
}

/// The `--distinct`-sized spec pool: a spread of benchmarks, queue
/// geometries and predictors, each at its own workload seed so every
/// pool entry is a distinct cache key.
fn spec_pool(args: &Args) -> Vec<RunSpec> {
    (0..args.distinct)
        .map(|i| {
            let bench = Bench::ALL[i % Bench::ALL.len()];
            let iq = match i % 4 {
                0 => segmented(512, Some(128)),
                1 => segmented(256, Some(64)),
                2 => ideal(256),
                _ => segmented(128, None),
            };
            let pred = PredictorConfig::ALL[i % PredictorConfig::ALL.len()];
            RunSpec::new(bench, iq, pred, args.sample).with_seed(args.seed + i as u64)
        })
        .collect()
}

/// The warm-phase job stream: deterministic given the seed, whatever
/// the client count.
fn warm_jobs(args: &Args, pool: &[RunSpec]) -> Vec<RunSpec> {
    let mut rng = Rng::seed_from_u64(args.seed ^ 0x5707_3107_0770_57a7);
    (0..args.total)
        .map(|i| {
            if rng.gen_bool(args.hit_ratio) {
                pool[rng.gen_range(0..pool.len() as u64) as usize]
            } else {
                // A novel spec: a pool template at a seed no pool entry
                // (or earlier novel spec) uses.
                pool[i % pool.len()].with_seed(args.seed + 1_000_000 + i as u64)
            }
        })
        .collect()
}

/// Byte-identity registry: the first response for a key is the truth,
/// every later one must match it exactly.
struct Registry(Mutex<BTreeMap<u64, Vec<u8>>>);

impl Registry {
    fn check(&self, key: u64, image: &[u8]) -> Result<(), String> {
        let mut map = self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match map.get(&key) {
            None => {
                map.insert(key, image.to_vec());
                Ok(())
            }
            Some(first) if first == image => Ok(()),
            Some(first) => Err(format!(
                "response for key {key:#018x} diverged: {} vs {} bytes",
                first.len(),
                image.len()
            )),
        }
    }
}

/// Submits `jobs` sharded round-robin over `clients` connections,
/// retrying whole grids on `Busy`. Returns (wall seconds, busy
/// retries) or the first identity/decode violation.
fn run_phase(
    addr: SocketAddr,
    jobs: &[RunSpec],
    clients: usize,
    registry: &Registry,
) -> Result<(f64, u64), String> {
    let busy_retries = Mutex::new(0u64);
    #[expect(clippy::disallowed_types, reason = "D2: host time of one storm phase")]
    let t0 = Instant::now();
    let errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let busy_retries = &busy_retries;
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    for spec in jobs.iter().skip(t).step_by(clients) {
                        let grid = [*spec];
                        loop {
                            match client.submit(&grid).map_err(|e| e.to_string())? {
                                Submission::Busy { .. } => {
                                    let mut n = busy_retries
                                        .lock()
                                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                                    *n += 1;
                                    drop(n);
                                    std::thread::sleep(std::time::Duration::from_millis(2));
                                }
                                Submission::Done(reply) => {
                                    registry.check(spec_key(spec), &reply.images[0])?;
                                    reply.decode(&grid).map_err(|e| e.to_string())?;
                                    break;
                                }
                            }
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| match h.join() {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(e),
                Err(_) => Some("client thread panicked".to_string()),
            })
            .collect()
    });
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    let retries = *busy_retries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    Ok((t0.elapsed().as_secs_f64(), retries))
}

struct Point {
    name: &'static str,
    jobs: usize,
    wall_s: f64,
    busy_retries: u64,
    delta: ServeStats,
}

impl Point {
    fn jobs_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.jobs as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

fn delta(after: ServeStats, before: ServeStats) -> ServeStats {
    ServeStats {
        submitted: after.submitted - before.submitted,
        hits: after.hits - before.hits,
        joined: after.joined - before.joined,
        simulated: after.simulated - before.simulated,
        busy: after.busy - before.busy,
        store_failures: after.store_failures - before.store_failures,
        evicted: after.evicted - before.evicted,
    }
}

fn point_json(p: &Point) -> String {
    format!(
        "{{\"point\": \"{}\", \"jobs_per_sec\": {:.3}, \"wall_s\": {:.6}, \"jobs\": {}, \
         \"hits\": {}, \"joined\": {}, \"simulated\": {}, \"busy_retries\": {}}}",
        p.name,
        p.jobs_per_sec(),
        p.wall_s,
        p.jobs,
        p.delta.hits,
        p.delta.joined,
        p.delta.simulated,
        p.busy_retries,
    )
}

fn aggregate_json(cold: &Point, warm: &Point) -> String {
    let ratio =
        if cold.jobs_per_sec() > 0.0 { warm.jobs_per_sec() / cold.jobs_per_sec() } else { 0.0 };
    format!(
        "{{\"jobs_per_sec\": {:.3}, \"warm_over_cold\": {:.3}, \"wall_s\": {:.6}}}",
        warm.jobs_per_sec(),
        ratio,
        cold.wall_s + warm.wall_s,
    )
}

fn config_json(args: &Args) -> String {
    format!(
        "{{\"clients\": {}, \"total\": {}, \"distinct\": {}, \"hit_ratio\": {}, \"sample\": {}}}",
        args.clients, args.total, args.distinct, args.hit_ratio, args.sample
    )
}

fn json(args: &Args, points: &[Point]) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"suite\": \"serve\",");
    let _ = writeln!(s, "  \"config\": {},", config_json(args));
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(s, "    {}", point_json(p));
        s.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ = writeln!(s, "  \"aggregate\": {}", aggregate_json(&points[0], &points[1]));
    s.push_str("}\n");
    s
}

/// One self-contained JSON object per line, so the history stays
/// `jsonl` and `grep`/`tail` keep working on it.
fn history_line(rev: &str, args: &Args, points: &[Point]) -> String {
    let mut s = String::from("{");
    let _ = write!(s, "\"suite\": \"serve\", \"rev\": \"{rev}\", ");
    let _ = write!(s, "\"config\": {}, ", config_json(args));
    let _ = write!(s, "\"aggregate\": {}, ", aggregate_json(&points[0], &points[1]));
    s.push_str("\"points\": [");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&point_json(p));
    }
    s.push_str("]}\n");
    s
}

fn main() -> ExitCode {
    let args = parse_args();

    if args.shutdown {
        return match Client::connect(args.addr).and_then(Client::shutdown) {
            Ok(stats) => {
                eprintln!("storm: daemon shut down; {stats}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("storm: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let pool = spec_pool(&args);
    let warm = warm_jobs(&args, &pool);
    let registry = Registry(Mutex::new(BTreeMap::new()));

    let mut stats_client = match Client::connect(args.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("storm: cannot reach daemon at {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let probe = |c: &mut Client| c.stats().map_err(|e| e.to_string());

    eprintln!(
        "storm: {} distinct specs cold, then {} submissions at hit ratio {} over {} clients",
        args.distinct, args.total, args.hit_ratio, args.clients
    );

    let run = |jobs: &[RunSpec], name: &'static str, c: &mut Client| -> Result<Point, String> {
        let before = probe(c)?;
        let (wall_s, busy_retries) = run_phase(args.addr, jobs, args.clients, &registry)?;
        let after = probe(c)?;
        Ok(Point { name, jobs: jobs.len(), wall_s, busy_retries, delta: delta(after, before) })
    };

    let cold = match run(&pool, "cold", &mut stats_client) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("storm: cold phase failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let warm = match run(&warm, "warm", &mut stats_client) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("storm: warm phase failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    for p in [&cold, &warm] {
        eprintln!(
            "  {}: {} jobs in {:.3}s = {:.1} jobs/sec ({} hits, {} joined, {} simulated, \
             {} busy retries)",
            p.name,
            p.jobs,
            p.wall_s,
            p.jobs_per_sec(),
            p.delta.hits,
            p.delta.joined,
            p.delta.simulated,
            p.busy_retries,
        );
    }
    let ratio =
        if cold.jobs_per_sec() > 0.0 { warm.jobs_per_sec() / cold.jobs_per_sec() } else { 0.0 };
    eprintln!("  warm/cold throughput ratio: {ratio:.1}x");

    if args.expect_warm_all_hits && (warm.delta.simulated > 0 || warm.delta.hits < warm.jobs as u64)
    {
        eprintln!(
            "storm: --expect-warm-all-hits violated: {} simulated, {} hits of {} jobs",
            warm.delta.simulated, warm.delta.hits, warm.jobs
        );
        return ExitCode::FAILURE;
    }
    let healthy = |rate: f64| rate.is_finite() && rate > 0.0;
    if !healthy(cold.jobs_per_sec()) || !healthy(warm.jobs_per_sec()) {
        eprintln!("storm: degenerate throughput measurement");
        return ExitCode::FAILURE;
    }

    let points = [cold, warm];
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("storm: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let snapshot = dir.join("BENCH_serve.json");
    if let Err(e) = std::fs::write(&snapshot, json(&args, &points)) {
        eprintln!("storm: cannot write {}: {e}", snapshot.display());
        return ExitCode::FAILURE;
    }
    let history = dir.join("BENCH_serve_history.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .and_then(|mut f| f.write_all(history_line(&git_rev(), &args, &points).as_bytes()));
    if let Err(e) = appended {
        eprintln!("storm: cannot append {}: {e}", history.display());
        return ExitCode::FAILURE;
    }
    println!("storm: wrote {} and appended {}", snapshot.display(), history.display());
    ExitCode::SUCCESS
}
