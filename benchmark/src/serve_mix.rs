//! `serve-mix`: an in-process `chainiq_serve::Server` (one worker) whose
//! result cache is warmed during set-up with a pool of distinct specs,
//! driven by a closed loop of two client connections. Each client submits
//! single-spec grids from a seeded stream: in every block of 20 jobs, 19
//! come from the warm pool (hits) and one is a novel small-sample spec
//! (a miss).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use chainiq::ckpt::CacheDir;
use chainiq::Bench;
use chainiq_bench::{ideal, prescheduled, segmented, PredictorConfig, RunSpec};
use chainiq_rng::Rng;
use chainiq_serve::proto::{decode_result, encode_result, entry_name, ClientMsg};
use chainiq_serve::{spec_key, Client, ServeStats, Server, ServerConfig, Submission};

use crate::grid::paper_grid;
use crate::report::{
    median, quantile, write_spans, Layers, PassFigures, PoolFigures, Report, SimSums,
};
use crate::trace::{run_spec_traced, Span};
use crate::Ctx;

/// Committed instructions per served spec, pool and misses alike.
pub const SERVE_SAMPLE: u64 = 2_000;
/// Distinct specs warmed into the result cache during set-up.
pub const POOL: usize = 48;
/// Client connections of the closed loop.
pub const CLIENTS: usize = 2;
/// Jobs each client submits per pass.
pub const JOBS_PER_CLIENT: usize = 2_000;
/// One miss per this many jobs.
pub const BLOCK: usize = 20;
/// Server set-ups per run (each warms the pool); the median is reported.
pub const SERVE_SETUPS: usize = 7;

/// One job of a client's stream.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// Index into the warm pool.
    Hit(usize),
    /// A spec no earlier job asked for.
    Miss(RunSpec),
}

/// The pool: evenly spaced distinct specs of the paper grid.
fn pool(seed: u64) -> Vec<RunSpec> {
    let mut distinct: Vec<RunSpec> = Vec::new();
    for spec in paper_grid(SERVE_SAMPLE, seed) {
        if !distinct.iter().any(|d| spec_key(d) == spec_key(&spec)) {
            distinct.push(spec);
        }
    }
    (0..POOL).map(|i| distinct[i * distinct.len() / POOL]).collect()
}

/// The miss templates, cycled in order so every pass has the same mix.
fn miss_template(j: usize) -> RunSpec {
    let (bench, iq, pred) = match j % 6 {
        0 => (Bench::Gcc, ideal(64), PredictorConfig::Base),
        1 => (Bench::Swim, segmented(128, Some(64)), PredictorConfig::Comb),
        2 => (Bench::Twolf, prescheduled(8), PredictorConfig::Base),
        3 => (Bench::Mgrid, segmented(256, Some(128)), PredictorConfig::Hmp),
        4 => (Bench::Vortex, ideal(128), PredictorConfig::Base),
        _ => (Bench::Ammp, segmented(64, Some(64)), PredictorConfig::Lrp),
    };
    RunSpec::new(bench, iq, pred, SERVE_SAMPLE)
}

/// Client `client`'s stream for pass `pass`: 19 hits and one miss per
/// block, at seeded positions; miss seeds are unique per (pass, client, j).
fn stream(seed: u64, pass: usize, client: usize) -> Vec<Job> {
    let mut rng =
        Rng::seed_from_u64(seed ^ ((pass as u64) << 20) ^ ((client as u64) << 40) ^ 0x5e7e);
    let mut jobs = Vec::with_capacity(JOBS_PER_CLIENT);
    for block in 0..JOBS_PER_CLIENT / BLOCK {
        let miss_at = rng.gen_range(0..BLOCK as u64) as usize;
        for i in 0..BLOCK {
            jobs.push(if i == miss_at {
                let mut state = seed ^ (((pass * CLIENTS + client) as u64) << 32) ^ block as u64;
                let miss_seed = chainiq_rng::splitmix64(&mut state);
                Job::Miss(miss_template(block + client).with_seed(miss_seed))
            } else {
                Job::Hit(rng.gen_range(0..POOL as u64) as usize)
            });
        }
    }
    jobs
}

/// What one submitted job came back with.
#[derive(Debug)]
struct Answer {
    job: Job,
    latency_s: f64,
    image: Option<Vec<u8>>,
    /// Traced passes only: request encode and cache load of this job, s.
    encode_s: f64,
    load_s: f64,
}

/// The running server plus the pool it was warmed with.
struct Warm {
    server: Server,
    addr: SocketAddr,
    dir: PathBuf,
    pool: Vec<RunSpec>,
    pool_images: Vec<Vec<u8>>,
    /// Per pool entry: whether its served image equals an in-process
    /// `encode_result` of the same spec. A hit on an entry that does not
    /// is a failed operation.
    pool_ok: Vec<bool>,
}

fn start(dir: &Path, pool: Vec<RunSpec>) -> Result<Warm, String> {
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::start(ServerConfig {
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        workers: 1,
        queue_depth: 2 * POOL,
        cache_dir: dir.to_path_buf(),
        cache_max_bytes: None,
        warmup_cache: None,
    })
    .map_err(|e| e.to_string())?;
    let addr = server.addr();
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let pool_images = match client.submit(&pool).map_err(|e| e.to_string())? {
        Submission::Done(reply) => reply.images,
        Submission::Busy { .. } => return Err("pool warm-up refused as busy".to_string()),
    };
    let pool_ok = vec![true; pool.len()];
    Ok(Warm { server, addr, dir: dir.to_path_buf(), pool, pool_images, pool_ok })
}

/// One client's closed loop over its stream.
fn client_loop(
    addr: SocketAddr,
    dir: &Path,
    jobs: &[Job],
    pool: &[RunSpec],
    traced: bool,
) -> Vec<Answer> {
    let mut client = Client::connect(addr).ok();
    let mut cache = if traced { CacheDir::open(dir, None, None).ok() } else { None };
    jobs.iter()
        .map(|&job| {
            let spec = match job {
                Job::Hit(i) => pool[i],
                Job::Miss(s) => s,
            };
            let (mut encode_s, mut load_s) = (0.0, 0.0);
            if traced {
                let t = Instant::now();
                std::hint::black_box(ClientMsg::Submit(vec![spec]).encode());
                encode_s = t.elapsed().as_secs_f64();
            }
            let t = Instant::now();
            let image = client.as_mut().and_then(|c| match c.submit(&[spec]) {
                Ok(Submission::Done(mut reply)) => reply.images.pop(),
                Ok(Submission::Busy { .. }) | Err(_) => None,
            });
            let latency_s = t.elapsed().as_secs_f64();
            if let (Job::Hit(_), Some(cache)) = (job, cache.as_mut()) {
                let t = Instant::now();
                let loaded = cache.load(&entry_name(spec_key(&spec)));
                load_s = t.elapsed().as_secs_f64();
                std::hint::black_box(loaded.ok());
            }
            Answer { job, latency_s, image, encode_s, load_s }
        })
        .collect()
}

/// A pass's answers, its wall clock, and the server counters it moved.
struct Pass {
    wall_s: f64,
    answers: Vec<Answer>,
    stats: ServeStats,
    /// Misses replayed in process: (host seconds, committed instructions).
    replays: Vec<(f64, u64)>,
    decode_s: Vec<f64>,
    spans: Vec<Span>,
    results: Vec<chainiq::RunResult>,
}

fn one_pass(warm: &Warm, seed: u64, k: usize, traced: bool) -> Pass {
    let before = warm.server.stats();
    let streams: Vec<Vec<Job>> = (0..CLIENTS).map(|c| stream(seed, k, c)).collect();
    let t0 = Instant::now();
    let answers: Vec<Answer> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|jobs| s.spawn(|| client_loop(warm.addr, &warm.dir, jobs, &warm.pool, traced)))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let after = warm.server.stats();
    let stats = ServeStats {
        submitted: after.submitted - before.submitted,
        hits: after.hits - before.hits,
        joined: after.joined - before.joined,
        simulated: after.simulated - before.simulated,
        busy: after.busy - before.busy,
        store_failures: after.store_failures - before.store_failures,
        evicted: after.evicted - before.evicted,
    };
    Pass {
        wall_s,
        answers,
        stats,
        replays: Vec::new(),
        decode_s: Vec::new(),
        spans: Vec::new(),
        results: Vec::new(),
    }
}

/// Checks every answer of `pass`: hits byte-equal to the pool image, misses
/// byte-equal to an in-process `encode_result` of the same spec (replayed
/// on timed wrappers in a traced pass). Records replay and decode timings.
fn check(report: &mut Report, warm: &Warm, pass: &mut Pass, traced: bool) {
    let t0 = Instant::now();
    // Images are dropped once checked, so the run's peak RSS does not
    // grow with the number of passes.
    for a in &mut pass.answers {
        let Some(image) = a.image.take() else {
            report.op(false);
            continue;
        };
        let spec = match a.job {
            Job::Hit(i) => warm.pool[i],
            Job::Miss(s) => s,
        };
        let key = spec_key(&spec);
        let t = Instant::now();
        let decoded = decode_result(&image, key, spec.sample);
        pass.decode_s.push(t.elapsed().as_secs_f64());
        let ok = match a.job {
            Job::Hit(i) => warm.pool_ok[i] && image == warm.pool_images[i],
            Job::Miss(_) => {
                let t = Instant::now();
                let result = if traced {
                    let (r, _, span) = run_spec_traced(&spec, None, t0);
                    pass.spans.push(span);
                    r
                } else {
                    spec.execute()
                };
                pass.replays.push((t.elapsed().as_secs_f64(), result.stats.committed));
                let ok = image == encode_result(key, spec.sample, &result) && !result.stats.hung;
                if traced {
                    pass.results.push(result);
                }
                ok
            }
        };
        report.op(ok && decoded.is_ok());
    }
}

fn figures(pass: &Pass) -> PassFigures {
    let busy: f64 = pass.replays.iter().map(|r| r.0).sum();
    let insts: u64 = pass.replays.iter().map(|r| r.1).sum();
    PassFigures::new(pass.wall_s, insts, busy)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) {
    // Every set-up starts a server on an empty cache and warms the pool;
    // the last one stays up for the passes.
    let pool_specs = pool(ctx.seed);
    let mut times = Vec::new();
    let mut warm = Err(String::new());
    for k in 0..SERVE_SETUPS {
        if let Ok(w) = std::mem::replace(&mut warm, Err(String::new())) {
            finish(w, report);
        }
        ctx.speed.sample();
        let t = Instant::now();
        warm = start(&ctx.work.join(format!("cache-{k}")), pool_specs.clone());
        times.push(t.elapsed().as_secs_f64());
        eprintln!("set-up {}: {:.3} s", k + 1, times[k]);
    }
    let setup_s = median(&times);
    let mut warm = match warm {
        Ok(w) => w,
        Err(e) => {
            report.broken(format!("server set-up failed: {e}"));
            report.op(false);
            return;
        }
    };
    for (k, spec) in warm.pool.iter().enumerate() {
        let expected = encode_result(spec_key(spec), spec.sample, &spec.execute());
        if warm.pool_images.get(k) != Some(&expected) {
            eprintln!("pool image of {} differs from in-process encode", spec.label());
            warm.pool_ok[k] = false;
        }
    }

    // Each pass is checked (misses replayed) before the next one starts,
    // so the checks share the measurement window.
    let share = if ctx.trace { 0.5 } else { 1.0 };
    let untraced = ctx.passes(share, 2, |k| {
        let mut pass = one_pass(&warm, ctx.seed, k, false);
        check(report, &warm, &mut pass, false);
        pass
    });
    let figs: Vec<PassFigures> = untraced.iter().map(figures).collect();
    if !ctx.trace {
        finish(warm, report);
        PassFigures::of_run(&figs, setup_s, ctx.speed.factor()).put(report);
        return;
    }
    let offset = untraced.len();
    let traced = ctx.passes(0.5, 1, |k| {
        let mut pass = one_pass(&warm, ctx.seed, offset + k, true);
        check(report, &warm, &mut pass, true);
        pass
    });

    let mut layers = Layers::default();
    let mut all_spans = Vec::new();
    for pass in &traced {
        pass.spans.iter().for_each(|s| layers.spans.add(s));
        all_spans.extend(pass.spans.iter().cloned());
    }
    write_spans(ctx, "serve-mix", &all_spans);
    layers.sim = SimSums::of(traced.iter().flat_map(|p| &p.results));

    let us = |v: Vec<f64>| 1e6 * median(&v);
    let traced_hits =
        || traced.iter().flat_map(|p| &p.answers).filter(|a| matches!(a.job, Job::Hit(_)));
    let sv = &mut layers.serve;
    sv.request_encode_us = us(traced.iter().flat_map(|p| &p.answers).map(|a| a.encode_s).collect());
    sv.result_decode_us = us(traced.iter().flat_map(|p| p.decode_s.iter().copied()).collect());
    sv.cache_load_us = us(traced_hits().map(|a| a.load_s).collect());
    sv.hit_wire_us = us(traced_hits().map(|a| a.latency_s - a.encode_s - a.load_s).collect());

    let hits: Vec<f64> = untraced
        .iter()
        .flat_map(|p| &p.answers)
        .filter(|a| matches!(a.job, Job::Hit(_)))
        .map(|a| a.latency_s)
        .collect();
    let mut miss_lat = Vec::new();
    let mut miss_sim = Vec::new();
    let mut miss_wait = Vec::new();
    for pass in &untraced {
        let misses = pass.answers.iter().filter(|a| matches!(a.job, Job::Miss(_)));
        for (a, (sim_s, _)) in misses.zip(&pass.replays) {
            miss_lat.push(a.latency_s);
            miss_sim.push(*sim_s);
            miss_wait.push(a.latency_s - sim_s);
        }
    }
    sv.miss_sim_ms = 1e3 * median(&miss_sim);
    sv.miss_wait_ms = 1e3 * median(&miss_wait);
    sv.hit_p50_us = 1e6 * quantile(&hits, 0.5);
    sv.hit_p99_us = 1e6 * quantile(&hits, 0.99);
    sv.miss_p50_ms = 1e3 * quantile(&miss_lat, 0.5);
    sv.miss_p90_ms = 1e3 * quantile(&miss_lat, 0.9);
    let total = untraced.iter().chain(&traced).fold(ServeStats::default(), |mut t, p| {
        t.submitted += p.stats.submitted;
        t.hits += p.stats.hits;
        t.joined += p.stats.joined;
        t.busy += p.stats.busy;
        t
    });
    let grids: usize = untraced.iter().chain(&traced).map(|p| p.answers.len()).sum();
    sv.hit_frac = total.hits as f64 / total.submitted.max(1) as f64;
    sv.busy_frac = total.busy as f64 / grids.max(1) as f64;
    sv.joined = total.joined as f64;

    let replay_ms: Vec<f64> =
        untraced.iter().flat_map(|p| p.replays.iter().map(|r| 1e3 * r.0)).collect();
    layers.pool = PoolFigures {
        spec_p50_ms: median(&replay_ms),
        spec_max_ms: replay_ms.iter().copied().fold(0.0, f64::max),
        ..PoolFigures::default()
    };
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    layers.overhead_frac = traced_wall / PassFigures::of_run(&figs, setup_s, 1.0).wall_s - 1.0;
    layers.probe_ms = 1e3 * ctx.speed.probe_s();
    finish(warm, report);
    layers.put(report);
}

/// Stops the server and checks it never refused or failed a store. Each
/// failed store is a failed operation (refusals already are: a refused
/// job has no answer).
fn finish(warm: Warm, report: &mut Report) {
    let stats = warm.server.stop();
    if stats.busy > 0 || stats.store_failures > 0 {
        report.broken(format!("server counters: {stats}, {} store failures", stats.store_failures));
    }
    report.fail(stats.store_failures);
    let _ = std::fs::remove_dir_all(&warm.dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_hold_one_miss_per_block_and_never_repeat_a_miss() {
        let mut keys = std::collections::BTreeSet::new();
        for pass in 0..3 {
            for client in 0..CLIENTS {
                let jobs = stream(5, pass, client);
                assert_eq!(jobs.len(), JOBS_PER_CLIENT);
                for block in jobs.chunks(BLOCK) {
                    let misses: Vec<_> =
                        block.iter().filter(|j| matches!(j, Job::Miss(_))).collect();
                    assert_eq!(misses.len(), 1);
                    if let Job::Miss(spec) = misses[0] {
                        assert!(keys.insert(spec_key(spec)), "miss repeated: {}", spec.label());
                    }
                }
            }
        }
    }

    #[test]
    fn the_pool_is_distinct_specs() {
        let pool = pool(9);
        let keys: std::collections::BTreeSet<u64> = pool.iter().map(spec_key).collect();
        assert_eq!(keys.len(), POOL);
    }
}
