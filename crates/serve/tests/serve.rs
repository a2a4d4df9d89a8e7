//! End-to-end tests over a loopback socket: single-flight dedupe,
//! byte-identity across worker counts and submission orders, typed
//! backpressure, cache persistence across daemon restarts, and the
//! daemon binary's own start-up, cache and shutdown path.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test support code: a failed unwrap is the test failing"
)]

use std::net::SocketAddr;
use std::path::Path;

use chainiq::Bench;
use chainiq_bench::{ideal, segmented, PredictorConfig, RunSpec, DEFAULT_SEED};
use chainiq_serve::{spec_key, Client, Server, ServerConfig, Submission};

fn spec(bench: Bench, i: u64) -> RunSpec {
    let iq = if i.is_multiple_of(2) { segmented(256, Some(64)) } else { ideal(128) };
    RunSpec::new(bench, iq, PredictorConfig::ALL[i as usize % 4], 2_000).with_seed(DEFAULT_SEED + i)
}

fn start(cache_dir: &Path, workers: usize, queue_depth: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        workers,
        queue_depth,
        cache_dir: cache_dir.to_path_buf(),
        cache_max_bytes: None,
        warmup_cache: None,
    })
    .expect("server starts on an ephemeral port")
}

fn submit_ok(addr: SocketAddr, specs: &[RunSpec]) -> Vec<Vec<u8>> {
    let mut client = Client::connect(addr).expect("connect");
    match client.submit(specs).expect("submit") {
        Submission::Done(reply) => {
            reply.decode(specs).expect("every image decodes against its spec");
            reply.images
        }
        Submission::Busy { queued, cap } => panic!("unexpected Busy {{ {queued}/{cap} }}"),
    }
}

/// N concurrent submissions of the same spec run exactly one
/// simulation; every caller gets byte-identical results.
#[test]
fn concurrent_identical_submissions_simulate_once() {
    let dir = tempdir("single-flight");
    let server = start(&dir, 2, 64);
    let addr = server.addr();
    let one = spec(Bench::Swim, 0);

    let images: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..8).map(|_| scope.spawn(move || submit_ok(addr, &[one]))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread")[0].clone()).collect()
    });

    for image in &images[1..] {
        assert_eq!(image, &images[0], "all callers must see identical bytes");
    }
    let stats = server.stop();
    assert_eq!(stats.simulated, 1, "single-flight: one simulation for 8 submissions");
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.hits + stats.joined, 7, "the other 7 joined in flight or hit the cache");
}

/// The same mixed grid, submitted in different orders against servers
/// with 1 and 4 workers, yields byte-identical per-spec results — and
/// those bytes match a local, in-process encoding of the same run.
#[test]
fn results_are_byte_identical_across_workers_and_order() {
    let grid: Vec<RunSpec> = [Bench::Swim, Bench::Mgrid, Bench::Twolf, Bench::Equake, Bench::Ammp]
        .iter()
        .enumerate()
        .map(|(i, &b)| spec(b, i as u64))
        .collect();
    let mut reversed = grid.clone();
    reversed.reverse();

    let dir1 = tempdir("ident-jobs1");
    let server1 = start(&dir1, 1, 64);
    let forward = submit_ok(server1.addr(), &grid);
    let _ = server1.stop();

    let dir4 = tempdir("ident-jobs4");
    let server4 = start(&dir4, 4, 64);
    let backward = submit_ok(server4.addr(), &reversed);
    let _ = server4.stop();

    for (i, s) in grid.iter().enumerate() {
        let j = reversed.iter().position(|r| spec_key(r) == spec_key(s)).unwrap();
        assert_eq!(
            forward[i],
            backward[j],
            "spec {} must serialize identically at 1 and 4 workers",
            s.label()
        );
        let local = chainiq_serve::proto::encode_result(spec_key(s), s.sample, &s.execute());
        assert_eq!(forward[i], local, "served bytes must match a local encode of {}", s.label());
    }
}

/// A grid that would overflow the pending queue is refused atomically
/// with a typed `Busy`; a grid that fits still succeeds afterwards.
#[test]
fn overflowing_grid_is_refused_with_busy() {
    let dir = tempdir("busy");
    let server = start(&dir, 1, 2);
    let mut client = Client::connect(server.addr()).expect("connect");

    let big: Vec<RunSpec> = (0..3).map(|i| spec(Bench::Applu, i)).collect();
    match client.submit(&big).expect("submit") {
        Submission::Busy { queued, cap } => {
            assert_eq!((queued, cap), (0, 2), "refused against an empty queue of depth 2");
        }
        Submission::Done(_) => panic!("3 fresh jobs must not fit a depth-2 queue"),
    }

    let ok: Vec<RunSpec> = big[..2].to_vec();
    match client.submit(&ok).expect("submit") {
        Submission::Done(reply) => assert_eq!(reply.images.len(), 2),
        Submission::Busy { .. } => panic!("2 fresh jobs fit a depth-2 queue"),
    }

    let stats = server.stop();
    assert_eq!(stats.busy, 1);
    assert_eq!(stats.simulated, 2, "the refused grid must leave no queued work behind");
}

/// The result cache persists: a restarted daemon over the same cache
/// directory answers everything from disk without simulating.
#[test]
fn cache_survives_daemon_restart() {
    let dir = tempdir("restart");
    let grid: Vec<RunSpec> = (0..3).map(|i| spec(Bench::Vortex, i)).collect();

    let first = start(&dir, 2, 64);
    let cold = submit_ok(first.addr(), &grid);
    assert_eq!(first.stop().simulated, 3);

    let second = start(&dir, 2, 64);
    let warm = submit_ok(second.addr(), &grid);
    let stats = second.stop();
    assert_eq!(stats.simulated, 0, "restart must answer entirely from the persisted cache");
    assert_eq!(stats.hits, 3);
    assert_eq!(warm, cold, "hit-path bytes must equal the original miss-path bytes");
}

/// Under a cache too small to hold every result, entries get evicted —
/// and re-simulation after eviction reproduces the original bytes.
#[test]
fn eviction_then_resimulation_reproduces_bytes() {
    let dir = tempdir("evict");
    let grid: Vec<RunSpec> = (0..4).map(|i| spec(Bench::Gcc, i)).collect();

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        workers: 1,
        queue_depth: 64,
        cache_dir: dir.clone(),
        // Roughly one result image: every store evicts a predecessor.
        cache_max_bytes: Some(256),
        warmup_cache: None,
    })
    .expect("server starts");

    let first = submit_ok(server.addr(), &grid);
    let again = submit_ok(server.addr(), &grid);
    let stats = server.stop();
    assert!(stats.evicted > 0, "a 256-byte cache cannot hold 4 results");
    assert!(stats.simulated > 4, "evicted entries must be re-simulated on resubmission");
    assert_eq!(again, first, "re-simulated results must be byte-identical to the originals");
}

/// A fresh daemon reports zeroed counters, and a client speaking a
/// different protocol version is refused cleanly instead of hanging.
#[test]
fn stats_roundtrip_and_version_guard() {
    use chainiq_serve::proto::{read_frame, write_frame, ServerMsg};

    let dir = tempdir("stats");
    let server = start(&dir, 1, 64);
    let mut client = Client::connect(server.addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.submitted, 0);
    drop(client);

    // A future-version Hello, hand-rolled on a raw socket: tag 0,
    // MAGIC, then a version this server does not speak.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect raw");
    let mut hello = vec![0u8];
    hello.extend_from_slice(b"CHAINIQS");
    hello.extend_from_slice(&(chainiq_serve::PROTO_VERSION + 1).to_le_bytes());
    write_frame(&mut stream, &hello).expect("send future hello");
    match ServerMsg::decode(&read_frame(&mut stream).expect("refusal frame")) {
        Ok(ServerMsg::Error(msg)) => assert!(msg.contains("version"), "got: {msg}"),
        other => panic!("expected a version refusal, got {other:?}"),
    }

    let _ = server.stop();
}

/// The `chainiq-serve` binary, killed on drop so a failing test leaves
/// no daemon behind.
struct Daemon(Option<std::process::Child>);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The real daemon binary end to end: it publishes its port-0 address
/// through `--addr-file`, answers a repeated grid entirely from its
/// cache with byte-identical images, and exits successfully when a
/// client asks it to shut down.
#[test]
fn daemon_binary_serves_repeat_grid_from_cache_and_exits_cleanly() {
    use std::process::{Command, Stdio};

    let dir = tempdir("daemon");
    let addr_file = dir.join("addr");
    let child = Command::new(env!("CARGO_BIN_EXE_chainiq-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2", "--addr-file"])
        .arg(&addr_file)
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .env_remove("CHAINIQ_CKPT")
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn chainiq-serve");
    let mut daemon = Daemon(Some(child));

    let mut addr = None;
    for _ in 0..200 {
        if let Some(status) = daemon.0.as_mut().and_then(|c| c.try_wait().expect("poll daemon")) {
            panic!("chainiq-serve exited before publishing its address: {status}");
        }
        let published = std::fs::read_to_string(&addr_file).unwrap_or_default();
        addr = published.strip_suffix('\n').and_then(|a| a.parse::<SocketAddr>().ok());
        if addr.is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let addr = addr.expect("chainiq-serve never published its address");

    let grid: Vec<RunSpec> = (0..4).map(|i| spec(Bench::Equake, i)).collect();
    let cold = submit_ok(addr, &grid);
    let after_cold = Client::connect(addr).expect("connect").stats().expect("stats");
    assert_eq!(after_cold.simulated, 4, "a fresh cache simulates every spec once");

    let warm = submit_ok(addr, &grid);
    assert_eq!(warm, cold, "every image must be byte-identical across the two passes");
    let last = Client::connect(addr).expect("connect").shutdown().expect("shutdown");
    assert_eq!(last.simulated, after_cold.simulated, "the second pass must not re-simulate");
    assert_eq!(last.hits - after_cold.hits, 4, "the second pass is answered from the cache");

    let output = daemon.0.take().expect("daemon").wait_with_output().expect("wait for daemon");
    assert!(
        output.status.success(),
        "chainiq-serve exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("chainiq-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test cache dir");
    dir
}
