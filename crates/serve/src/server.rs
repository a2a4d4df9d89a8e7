//! The daemon: a TCP accept loop, a bounded pending queue, a fixed
//! worker pool, and the content-addressed result cache.
//!
//! # Concurrency model
//!
//! One mutex guards the whole scheduling core — the pending queue, the
//! in-flight job table, the on-disk result cache, and the counters —
//! so every submit/complete transition is atomic and the single-flight
//! guarantee needs no lock ordering argument:
//!
//! * A **submission** probes the cache and the in-flight table under
//!   the lock. A cached key is answered from the cache; an in-flight
//!   key registers the connection as a waiter on the existing job; a
//!   fresh key creates a job and enqueues it — unless the pending queue
//!   would overflow, in which case the *whole grid* is refused with a
//!   typed `Busy` before any of it is registered (no partial enqueue,
//!   no unbounded buffering).
//! * A **worker** pops the oldest pending key, simulates *outside* the
//!   lock, then re-locks to store the image and hand it to every
//!   waiter. Jobs are keyed by content, so results are byte-identical
//!   whatever the worker count or completion order.
//!
//! Simulations dominate wall-clock by orders of magnitude, so the
//! single lock is never the bottleneck; what matters is that the warm
//! path (probe + file read) never waits behind a simulation.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use chainiq::ckpt::CacheDir;
use chainiq_bench::RunSpec;

use crate::proto::{
    self, entry_name, spec_key, ClientMsg, ServeError, ServeStats, ServerMsg, PROTO_VERSION,
};

/// Everything a [`Server`] needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 asks the OS for a free port (read the
    /// bound address back from [`Server::addr`]).
    pub addr: SocketAddr,
    /// Worker threads executing cache misses (clamped to ≥ 1).
    pub workers: usize,
    /// Pending-queue depth; a grid that would push the queue past this
    /// is refused with `Busy`.
    pub queue_depth: usize,
    /// Directory of the persistent result cache.
    pub cache_dir: PathBuf,
    /// Result-cache size cap in bytes (`None` = unlimited); enforced
    /// with deterministic LRU-by-key eviction on every store.
    pub cache_max_bytes: Option<u64>,
    /// Optional warmup-checkpoint cache for the simulations themselves
    /// (the PR-6 store): misses then share warm-started prefixes across
    /// specs that differ only beyond the warmup point.
    pub warmup_cache: Option<PathBuf>,
}

/// A waiter's channel paired with the grid index it wants the finished
/// image reported under.
type Waiter = (mpsc::Sender<(u64, Arc<Vec<u8>>)>, u64);

/// One in-flight simulation and the connections waiting on it.
struct Job {
    spec: RunSpec,
    waiters: Vec<Waiter>,
}

/// The mutex-guarded scheduling core.
struct Core {
    pending: VecDeque<u64>,
    jobs: BTreeMap<u64, Job>,
    cache: CacheDir,
    stats: ServeStats,
    shutdown: bool,
}

struct Shared {
    state: Mutex<Core>,
    work: Condvar,
    queue_depth: usize,
    warmup_cache: Option<PathBuf>,
    addr: SocketAddr,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Core> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Flips the shutdown flag and wakes everyone: the workers via the
    /// condvar, the accept loop via a throwaway self-connection.
    fn begin_shutdown(&self) {
        {
            let mut core = self.lock();
            core.shutdown = true;
        }
        self.work.notify_all();
        drop(TcpStream::connect(self.addr));
    }
}

/// A running daemon; dropping the handle does **not** stop it — call
/// [`Server::stop`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns
    /// once the daemon is reachable.
    ///
    /// # Errors
    /// [`ServeError::Io`] if the address cannot be bound or the cache
    /// directory cannot be opened.
    pub fn start(config: ServerConfig) -> Result<Server, ServeError> {
        let cache = CacheDir::open(&config.cache_dir, config.cache_max_bytes, None)
            .map_err(|e| ServeError::Proto(format!("cannot open result cache: {e}")))?;
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(Core {
                pending: VecDeque::new(),
                jobs: BTreeMap::new(),
                cache,
                stats: ServeStats::default(),
                shutdown: false,
            }),
            work: Condvar::new(),
            queue_depth: config.queue_depth.max(1),
            warmup_cache: config.warmup_cache,
            addr,
        });

        let mut threads = Vec::new();
        for _ in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(&listener, &shared)));
        }
        Ok(Server { addr, shared, threads })
    }

    /// The address actually bound (resolves a port-0 request).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the daemon counters.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.lock().stats
    }

    /// Drains the pending queue, stops the workers and the accept loop,
    /// and returns the final counters.
    #[must_use]
    pub fn stop(self) -> ServeStats {
        self.shared.begin_shutdown();
        self.join()
    }

    /// Blocks until the daemon shuts down (via [`Server::stop`] or a
    /// client's `Shutdown` message) and returns the final counters.
    #[must_use]
    pub fn join(mut self) -> ServeStats {
        for t in self.threads.drain(..) {
            drop(t.join());
        }
        self.shared.lock().stats
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.lock().shutdown {
            return;
        }
        let Ok(stream) = stream else {
            continue;
        };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            // A disconnecting client mid-grid is routine, not a daemon
            // error; only protocol violations are worth a stderr line.
            if let Err(ServeError::Proto(m)) = handle_conn(&stream, &shared) {
                eprintln!("chainiq-serve: protocol error: {m}");
            }
        });
    }
}

/// Pops pending keys, simulates them, stores and publishes the images.
/// Exits once shutdown is flagged **and** the queue is drained, so a
/// shutdown never abandons a registered waiter.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (key, spec) = {
            let mut core = shared.lock();
            loop {
                if let Some(key) = core.pending.pop_front() {
                    let Some(job) = core.jobs.get(&key) else {
                        continue; // defensive: pending without a job
                    };
                    break (key, job.spec);
                }
                if core.shutdown {
                    return;
                }
                core = shared.work.wait(core).unwrap_or_else(PoisonError::into_inner);
            }
        };

        // The expensive part runs outside the lock, so submissions keep
        // resolving hits and joins while this spec simulates.
        let (result, _ckpt) = spec.execute_cached(shared.warmup_cache.as_deref());
        let image = proto::encode_result(key, spec.sample, &result);

        let mut core = shared.lock();
        core.stats.simulated += 1;
        if core.cache.store(&entry_name(key), &image).is_err() {
            core.stats.store_failures += 1;
        }
        core.stats.evicted = core.cache.tally().evicted;
        if let Some(job) = core.jobs.remove(&key) {
            let image = Arc::new(image);
            for (tx, index) in job.waiters {
                // A waiter whose connection died is simply gone; the
                // image is cached either way.
                drop(tx.send((index, Arc::clone(&image))));
            }
        }
    }
}

fn handle_conn(stream: &TcpStream, shared: &Arc<Shared>) -> Result<(), ServeError> {
    drop(stream.set_nodelay(true));
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);

    // Handshake first: anything else on a fresh connection is rejected
    // before the server reads a single spec.
    let hello = ClientMsg::decode(&proto::read_frame(&mut reader)?);
    match hello {
        Ok(ClientMsg::Hello { version }) if version == PROTO_VERSION => {
            send(&mut writer, &ServerMsg::HelloAck { version: PROTO_VERSION })?;
        }
        Ok(ClientMsg::Hello { version }) => {
            let msg = format!("protocol version {version}, this server speaks {PROTO_VERSION}");
            send(&mut writer, &ServerMsg::Error(msg.clone()))?;
            return Err(ServeError::Proto(msg));
        }
        _ => {
            let msg = "expected Hello as the first frame".to_string();
            send(&mut writer, &ServerMsg::Error(msg.clone()))?;
            return Err(ServeError::Proto(msg));
        }
    }

    loop {
        let frame = match proto::read_frame(&mut reader) {
            Ok(f) => f,
            Err(ServeError::Io(_)) => return Ok(()), // client hung up
            Err(e) => return Err(e),
        };
        match ClientMsg::decode(&frame) {
            Ok(ClientMsg::Submit(specs)) => handle_submit(&specs, shared, &mut writer)?,
            Ok(ClientMsg::Stats) => {
                let stats = shared.lock().stats;
                send(&mut writer, &ServerMsg::Stats(stats))?;
            }
            Ok(ClientMsg::Shutdown) => {
                // Reply (flushed) *before* flipping the flag: once the
                // accept and worker threads drain, the process exits,
                // and this detached connection thread must not race its
                // own goodbye onto a dead socket.
                let stats = shared.lock().stats;
                send(&mut writer, &ServerMsg::Stats(stats))?;
                shared.begin_shutdown();
                return Ok(());
            }
            Ok(ClientMsg::Hello { .. }) => {
                let msg = "unexpected second Hello".to_string();
                send(&mut writer, &ServerMsg::Error(msg.clone()))?;
                return Err(ServeError::Proto(msg));
            }
            Err(e) => {
                send(&mut writer, &ServerMsg::Error(e.to_string()))?;
                return Err(e);
            }
        }
    }
}

/// Resolves one grid: waits for every miss, then sends the result images
/// strictly in submission order, then `GridDone`.
fn handle_submit(
    specs: &[RunSpec],
    shared: &Arc<Shared>,
    writer: &mut impl Write,
) -> Result<(), ServeError> {
    let keys: Vec<u64> = specs.iter().map(spec_key).collect();
    let (tx, rx) = mpsc::channel::<(u64, Arc<Vec<u8>>)>();
    let mut images: Vec<Option<Arc<Vec<u8>>>> = vec![None; specs.len()];

    {
        let mut core = shared.lock();

        // Classify every distinct key before touching anything, so a
        // Busy refusal leaves no trace of the grid behind.
        let mut cached: BTreeMap<u64, Arc<Vec<u8>>> = BTreeMap::new();
        let mut fresh: BTreeSet<u64> = BTreeSet::new();
        for &key in &keys {
            if cached.contains_key(&key) || fresh.contains(&key) || core.jobs.contains_key(&key) {
                continue;
            }
            match core.cache.load(&entry_name(key)) {
                Ok(Some(bytes)) => {
                    cached.insert(key, Arc::new(bytes));
                }
                // Unreadable entries fall through to re-simulation; the
                // cache is an accelerator, never a correctness input.
                Ok(None) | Err(_) => {
                    fresh.insert(key);
                }
            }
        }
        if core.pending.len() + fresh.len() > shared.queue_depth {
            let busy = ServerMsg::Busy {
                queued: core.pending.len() as u64,
                cap: shared.queue_depth as u64,
            };
            core.stats.busy += 1;
            drop(core);
            return send(writer, &busy);
        }

        core.stats.submitted += specs.len() as u64;
        for (i, (spec, &key)) in specs.iter().zip(&keys).enumerate() {
            if let Some(image) = cached.get(&key) {
                core.stats.hits += 1;
                images[i] = Some(Arc::clone(image));
            } else if let Some(job) = core.jobs.get_mut(&key) {
                job.waiters.push((tx.clone(), i as u64));
                core.stats.joined += 1;
            } else {
                core.jobs.insert(key, Job { spec: *spec, waiters: vec![(tx.clone(), i as u64)] });
                core.pending.push_back(key);
            }
        }
    }
    shared.work.notify_all();
    drop(tx); // rx must drain exactly the registered waiters

    let outstanding = images.iter().filter(|i| i.is_none()).count();
    for _ in 0..outstanding {
        let Ok((index, image)) = rx.recv() else {
            let msg = "worker pool shut down mid-grid".to_string();
            send(writer, &ServerMsg::Error(msg.clone()))?;
            return Err(ServeError::Proto(msg));
        };
        if let Some(slot) = images.get_mut(index as usize) {
            *slot = Some(image);
        }
    }

    for (i, image) in images.iter().enumerate() {
        let Some(image) = image else {
            let msg = format!("job {i} resolved without an image");
            send(writer, &ServerMsg::Error(msg.clone()))?;
            return Err(ServeError::Proto(msg));
        };
        send(writer, &ServerMsg::Result { index: i as u64, image: image.to_vec() })?;
    }
    send(writer, &ServerMsg::GridDone { total: specs.len() as u64 })
}

fn send(writer: &mut impl Write, msg: &ServerMsg) -> Result<(), ServeError> {
    proto::write_frame(writer, &msg.encode())
}
