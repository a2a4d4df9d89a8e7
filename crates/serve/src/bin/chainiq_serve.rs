//! The `chainiq-serve` daemon binary.
//!
//! Binds the TCP listener, opens (or creates) the persistent result
//! cache, and serves until a client sends `Shutdown`. All defaults come
//! from the centralized `CHAINIQ_SERVE_*` knobs; flags override them:
//!
//! ```text
//! chainiq-serve [--addr HOST:PORT] [--addr-file PATH]
//!               [--cache-dir DIR] [--cache-max-mb N]
//!               [--workers N] [--queue-depth N]
//! ```
//!
//! `--addr-file` writes the *bound* address (resolving a port-0
//! request) to a file once the daemon is reachable — the hook the tests
//! use to rendezvous without racing on a fixed port.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "a binary may exit through a panic")]

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;

use chainiq_bench::{knob, results_dir};
use chainiq_serve::{Server, ServerConfig};

struct Args {
    addr: SocketAddr,
    addr_file: Option<PathBuf>,
    cache_dir: PathBuf,
    cache_max_mb: Option<u64>,
    workers: usize,
    queue_depth: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: chainiq-serve [--addr HOST:PORT] [--addr-file PATH] [--cache-dir DIR] \
         [--cache-max-mb N] [--workers N] [--queue-depth N]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: knob::serve_addr(),
        addr_file: None,
        cache_dir: results_dir().join("serve-cache"),
        cache_max_mb: knob::ckpt_max_mb(),
        workers: chainiq_bench::jobs(),
        queue_depth: knob::serve_queue_depth(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| match it.next() {
            Some(v) => v,
            None => {
                eprintln!("chainiq-serve: {flag} needs {what}");
                usage()
            }
        };
        match flag.as_str() {
            "--addr" => match value("an address").parse() {
                Ok(a) => args.addr = a,
                Err(e) => {
                    eprintln!("chainiq-serve: bad --addr: {e}");
                    usage()
                }
            },
            "--addr-file" => args.addr_file = Some(PathBuf::from(value("a path"))),
            "--cache-dir" => args.cache_dir = PathBuf::from(value("a directory")),
            "--cache-max-mb" => match value("a size").parse::<u64>() {
                Ok(0) => args.cache_max_mb = None,
                Ok(mb) => args.cache_max_mb = Some(mb),
                Err(e) => {
                    eprintln!("chainiq-serve: bad --cache-max-mb: {e}");
                    usage()
                }
            },
            "--workers" => match value("a count").parse() {
                Ok(n) if n > 0 => args.workers = n,
                _ => {
                    eprintln!("chainiq-serve: --workers needs a positive count");
                    usage()
                }
            },
            "--queue-depth" => match value("a depth").parse() {
                Ok(n) if n > 0 => args.queue_depth = n,
                _ => {
                    eprintln!("chainiq-serve: --queue-depth needs a positive depth");
                    usage()
                }
            },
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let config = ServerConfig {
        addr: args.addr,
        workers: args.workers,
        queue_depth: args.queue_depth,
        cache_dir: args.cache_dir.clone(),
        cache_max_bytes: args.cache_max_mb.map(|mb| mb << 20),
        // Misses additionally share warm-started simulation prefixes
        // through the PR-6 checkpoint store when it is switched on.
        warmup_cache: knob::ckpt_enabled().then(knob::ckpt_dir),
    };
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("chainiq-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "chainiq-serve: listening on {} ({} workers, queue depth {}, cache {})",
        server.addr(),
        args.workers,
        args.queue_depth,
        args.cache_dir.display()
    );
    if let Some(path) = &args.addr_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", server.addr())) {
            eprintln!("chainiq-serve: cannot write --addr-file: {e}");
            let _ = server.stop();
            return ExitCode::FAILURE;
        }
    }
    let stats = server.join();
    eprintln!("chainiq-serve: shut down; {stats}");
    ExitCode::SUCCESS
}
