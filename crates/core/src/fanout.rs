//! Embarrassingly-parallel fan-out of independent simulations.
//!
//! A DES run is single-threaded by construction (the determinism contract
//! depends on one totally-ordered event stream), but a *sweep* of runs —
//! per-seed replicas, ablation grids, scale-factor ladders — is
//! embarrassingly parallel: each job builds its own `Sim`, its own world,
//! its own RNG streams, and shares nothing. [`run`] executes such a job
//! list across OS threads and returns results **in job order**, so output
//! bytes are identical whatever the thread count (including 1): parallelism
//! changes wall-clock only, never results. The unit tests below hold that
//! as an invariant, and [`crate::dss::run_dss`] schedules its scale factors
//! on it.
//!
//! Scheduling is a shared atomic cursor (work stealing by index): threads
//! grab the next unstarted job, so a straggler job never serializes the
//! whole sweep behind it.
//!
//! Jobs must be `Send` (moved into a worker thread) but results only need
//! to be `Send` too — `Sim`, engines, and stores are created *inside* the
//! job closure, so their `Rc` internals never cross threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run every job, up to `threads` at a time, and return their results in
/// job order. Panics in a job propagate (the sweep fails loudly rather
/// than returning partial results). A sweep of `n` jobs never spawns more
/// than `n` threads.
fn run_with_threads<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let threads = threads.clamp(1, n.max(1));
    // Each job/result cell is touched by exactly one worker; the mutexes
    // exist to hand ownership across the thread boundary, not to contend.
    let job_cells: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let result_cells: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = job_cells[i]
                    .lock()
                    .expect("job cell poisoned")
                    .take()
                    .expect("each job index is claimed exactly once");
                let out = job();
                *result_cells[i].lock().expect("result cell poisoned") = Some(out);
            });
        }
    });

    result_cells
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("result cell poisoned")
                .expect("every claimed job stored a result")
        })
        .collect()
}

/// Run every job, one worker per available core, and return their results
/// in job order; see `run_with_threads`.
pub fn run<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_with_threads(jobs, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_jobs(n: usize) -> Vec<impl FnOnce() -> usize + Send> {
        (0..n).map(|i| move || i * i).collect()
    }

    #[test]
    fn results_come_back_in_job_order() {
        let want: Vec<usize> = (0..64).map(|i| i * i).collect();
        assert_eq!(run(square_jobs(64)), want);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let want = run_with_threads(square_jobs(33), 1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(run_with_threads(square_jobs(33), threads), want);
        }
    }

    #[test]
    fn empty_and_single_job_sweeps_work() {
        let empty: Vec<fn() -> usize> = Vec::new();
        assert_eq!(run(empty), Vec::<usize>::new());
        assert_eq!(run(vec![|| 7usize]), vec![7]);
    }

    #[test]
    fn independent_sims_fan_out_deterministically() {
        // The real use: each job runs its own Sim built inside the closure.
        let sweep = || {
            let jobs: Vec<_> = (0..8u64)
                .map(|seed| {
                    move || {
                        let mut sim: simkit::Sim<Vec<u64>> = simkit::Sim::new();
                        let mut w = Vec::new();
                        for i in 0..100 {
                            let t = (seed + 1) * 1_000 * (i + 1);
                            sim.after(t, move |s, w: &mut Vec<u64>| w.push(s.now()));
                        }
                        let end = sim.run(&mut w);
                        (seed, end, w.len())
                    }
                })
                .collect();
            run_with_threads(jobs, 4)
        };
        let a = sweep();
        assert_eq!(a, sweep());
        for (i, (seed, end, count)) in a.iter().enumerate() {
            assert_eq!(*seed, i as u64);
            assert_eq!(*end, (seed + 1) * 1_000 * 100);
            assert_eq!(*count, 100);
        }
    }
}
