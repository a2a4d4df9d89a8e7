//! An in-repo scoped thread pool for embarrassingly parallel job lists.
//!
//! `std::thread` + `std::sync::mpsc` only, honoring the workspace's
//! zero-crates.io policy (`DESIGN.md` §7). Jobs are claimed from a shared
//! atomic cursor and results are collected **by submission index**, so
//! the output of [`run_indexed`] is independent of worker count and
//! completion order — parallelism changes wall-clock, never values.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `f` over every job, fanning out across `workers` OS threads, and
/// returns the results in submission order.
///
/// * `f(i, &jobs[i])` is called exactly once per job, on whichever worker
///   claims index `i` first.
/// * `progress(i, &result)` runs on the calling thread as each result
///   arrives (in completion order — use it for reporting only).
/// * `workers <= 1` (or a single job) degenerates to a plain serial loop
///   on the calling thread.
///
/// # Panics
///
/// If `f` panics on any job, the panic is propagated to the caller once
/// the remaining workers have drained the job list.
#[expect(clippy::expect_used, reason = "every claimed job slot is filled before the scope ends")]
pub fn run_indexed<J, R, F, P>(jobs: &[J], workers: usize, f: F, mut progress: P) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
    P: FnMut(usize, &R),
{
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        return jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let r = f(i, j);
                progress(i, &r);
                r
            })
            .collect();
    }

    let workers = workers.min(n);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();

    // If a job panics its worker dies (dropping its sender), the other
    // workers drain the remaining jobs, the receive loop ends when the
    // last sender drops, and `thread::scope` re-raises the panic on join.
    std::thread::scope(|s| {
        let f = &f;
        let next = &next;
        for _ in 0..workers {
            let tx = tx.clone();
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &jobs[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            progress(i, &r);
            slots[i] = Some(r);
        }
    });

    slots.into_iter().map(|r| r.expect("worker delivered every claimed job")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_keep_submission_order_under_out_of_order_completion() {
        // Earlier submissions sleep longer, so completion order is the
        // reverse of submission order whenever workers overlap.
        let jobs: Vec<u64> = (0..16).collect();
        let out = run_indexed(
            &jobs,
            4,
            |i, &j| {
                std::thread::sleep(Duration::from_millis(2 * (16 - i as u64)));
                j * 10
            },
            |_, _| {},
        );
        assert_eq!(out, (0..16).map(|j| j * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_path_matches_parallel_path() {
        let jobs: Vec<u32> = (0..9).collect();
        let serial = run_indexed(&jobs, 1, |i, &j| (i as u32) + j, |_, _| {});
        let parallel = run_indexed(&jobs, 3, |i, &j| (i as u32) + j, |_, _| {});
        assert_eq!(serial, parallel);
    }

    #[test]
    fn progress_sees_every_job_exactly_once() {
        let jobs: Vec<usize> = (0..20).collect();
        let mut seen = vec![0u32; jobs.len()];
        let _ = run_indexed(&jobs, 4, |_, &j| j, |i, _| seen[i] += 1);
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let jobs: Vec<usize> = (0..8).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_indexed(
                &jobs,
                4,
                |_, &j| {
                    if j == 3 {
                        panic!("job 3 exploded");
                    }
                    j
                },
                |_, _| {},
            )
        }));
        assert!(caught.is_err(), "panic in a worker must reach the caller");
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out = run_indexed(&Vec::<u8>::new(), 4, |_, &j| j, |_, _| {});
        assert!(out.is_empty());
    }
}
