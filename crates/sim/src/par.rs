//! Work-stealing fork-join pool over `std::thread`.
//!
//! The campaign drivers need one parallel shape: *split a fault range
//! into small blocks, evaluate each block on some worker, splice the
//! per-block outputs back in index order*. `rayon` would express this
//! directly, but the build environment is offline, so this module
//! provides the same semantics on scoped threads.
//!
//! Scheduling is dynamic — workers race on a shared atomic work index,
//! so a worker that finishes its "home" share early steals blocks that
//! static contiguous chunking would have assigned elsewhere. Fault
//! dropping makes per-fault cost wildly uneven (a dropped fault costs
//! one batch, an undetected one costs the whole input space), which is
//! exactly the load shape static chunking handles worst. Output stays
//! bit-identical to single-thread because results are merged by block
//! index at the join barrier, never by completion order.
//!
//! Worker panics do not propagate as panics: each worker runs under
//! `std::panic::catch_unwind`, the first payload aborts the pool
//! (remaining workers stop taking blocks), and the caller receives a
//! typed [`SimError::WorkerPanicked`].

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::error::SimError;

/// A sensible default worker count: the machine's available
/// parallelism, 1 if it cannot be queried.
///
/// Queried once per process and frozen for its life: on Linux the
/// query reads the cgroup CPU quota from the filesystem, which cost
/// ~13 µs — every campaign driver calls this on construction, and a
/// small campaign's whole simulation can take less than that. A
/// long-running process such as `scdp serve` therefore does not see a
/// later change to its CPU quota until it restarts. That costs speed
/// only: campaign results are independent of the thread count, and a
/// job that names `threads` uses that count instead.
#[must_use]
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Work-block size for `n` items on `threads` workers.
///
/// Small enough that each worker sees several blocks (so stealing can
/// balance uneven per-fault cost): ~4 blocks per worker. One worker has
/// nothing to balance, so it takes blocks as large as the cap allows.
///
/// The cap trades the per-block fixed cost against per-block memory.
/// Each block evaluates the good machine once per batch over the whole
/// netlist, while a fault group costs only a pass over its fanout cone:
/// about 9% of the netlist on the w8 FIR/Both datapath (7,402 gates,
/// mean cone 672, largest 1,371). At 128 groups per block the good
/// machine is ~8% of the gate evaluations there, against ~26% at 32
/// groups (1.37× slower end to end) and ~4% at 256 (no faster; a cap
/// of 512 is no faster with shared cones either). A block builds one
/// cone per run of consecutive groups on the same site gates, and that
/// universe lists each site's stuck-at-0/1 and pin faults together
/// (5,182 groups, 952 cones), so its cone arena holds 15,662 `u32`s
/// per block on average (~63 KB; largest 23,760) instead of 84,915
/// (~340 KB) with one cone per group. It is bounded by 128 × 1,371
/// `u32`s (~0.7 MB) when no two neighbours share sites.
///
/// Sequential campaigns share this geometry (one driver runs both
/// engines): blocks of up to 128 groups, one block per campaign on a
/// single worker. The sequential engine keeps no per-block arena (its
/// faulty pass is still a full one), so its block memory does not grow
/// with the cap.
#[must_use]
pub fn auto_block(n: usize, threads: usize) -> usize {
    let per_worker = if threads <= 1 {
        n
    } else {
        n.div_ceil(threads * 4)
    };
    per_worker.clamp(1, 128)
}

/// What the pool observed while running: exported as `pool.*` telemetry
/// counters by the campaign drivers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers the pool actually ran with, the calling thread included.
    pub threads: usize,
    /// Number of work blocks the range was split into.
    pub blocks: u64,
    /// Blocks executed by a worker other than their static "home"
    /// worker — how much dynamic scheduling deviated from contiguous
    /// chunking. Zero on one thread; scheduling-dependent otherwise.
    pub steals: u64,
    /// Wall time each worker spent inside `f`, in nanoseconds. All
    /// entries are nonzero when every worker got at least one block.
    pub worker_busy_ns: Vec<u64>,
}

impl PoolStats {
    /// Total busy time across workers, in nanoseconds.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.worker_busy_ns.iter().sum()
    }
}

/// Maps `f` over `block`-sized index ranges of `0..n` on up to
/// `threads` workers and concatenates the per-block outputs in index
/// order, together with pool telemetry.
///
/// `f(lo..hi)` must depend only on the range, not on which worker runs
/// it — the drivers regenerate their deterministic input streams per
/// block — so the concatenation is bit-identical to calling
/// `f(0..n)` ranges sequentially. The calling thread is worker 0, so
/// one worker (or one block) spawns no thread and small workloads pay
/// no spawn cost.
///
/// # Errors
///
/// [`SimError::WorkerPanicked`] if any invocation of `f` panics; the
/// first payload is captured, the pool drains, and no result is
/// returned.
pub fn run_blocks<R, F>(
    n: usize,
    threads: usize,
    block: usize,
    f: F,
) -> Result<(Vec<R>, PoolStats), SimError>
where
    R: Send,
    F: Fn(Range<usize>) -> Vec<R> + Sync,
{
    let block = block.max(1);
    let nblocks = n.div_ceil(block);
    let threads = threads.max(1).min(nblocks.max(1));
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let panic_msg: Mutex<Option<String>> = Mutex::new(None);
    let fail = |payload: &(dyn std::any::Any + Send)| {
        abort.store(true, Ordering::Relaxed);
        let mut slot = panic_msg.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert_with(|| panic_message(payload));
    };

    // One worker's share: (block index, block output) pairs, merged by
    // block index after the join barrier, its steals and its busy time.
    let worker = |w: usize| {
        let start = Instant::now();
        let mut mine: Vec<(usize, Vec<R>)> = Vec::new();
        let mut steals = 0u64;
        while !abort.load(Ordering::Relaxed) {
            let b = next.fetch_add(1, Ordering::Relaxed);
            if b >= nblocks {
                break;
            }
            // The worker static chunking would have given this block
            // to; executing it elsewhere is a steal.
            if b * threads / nblocks != w {
                steals += 1;
            }
            let range = b * block..((b + 1) * block).min(n);
            match catch_unwind(AssertUnwindSafe(|| f(range))) {
                Ok(items) => mine.push((b, items)),
                Err(payload) => {
                    fail(payload.as_ref());
                    break;
                }
            }
        }
        (mine, steals, start.elapsed().as_nanos() as u64)
    };
    let per_worker = std::thread::scope(|s| {
        let worker = &worker;
        let handles: Vec<_> = (1..threads).map(|w| s.spawn(move || worker(w))).collect();
        let mut all = vec![worker(0)];
        for h in handles {
            // `f` runs under `catch_unwind`, so a failed join means the
            // worker loop itself panicked: fail the pool all the same.
            match h.join() {
                Ok(out) => all.push(out),
                Err(payload) => fail(payload.as_ref()),
            }
        }
        all
    });

    if let Some(message) = panic_msg.lock().unwrap_or_else(|e| e.into_inner()).take() {
        return Err(SimError::WorkerPanicked { message });
    }

    let mut stats = PoolStats {
        threads,
        blocks: nblocks as u64,
        steals: 0,
        worker_busy_ns: Vec::with_capacity(threads),
    };
    let mut slots: Vec<Option<Vec<R>>> = (0..nblocks).map(|_| None).collect();
    for (mine, steals, busy_ns) in per_worker {
        stats.steals += steals;
        stats.worker_busy_ns.push(busy_ns);
        for (b, items) in mine {
            slots[b] = Some(items);
        }
    }
    let out = slots
        .into_iter()
        .flat_map(|s| s.expect("pool completed without abort, so every block ran"))
        .collect();
    Ok((out, stats))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_items() {
        for threads in [1, 2, 3, 7, 64] {
            for block in [1, 3, 32, 1000, 5000] {
                let (doubled, stats) =
                    run_blocks(1000, threads, block, |r| r.map(|x| 2 * x as u64).collect())
                        .unwrap();
                assert_eq!(doubled.len(), 1000);
                assert!(doubled.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
                assert_eq!(stats.blocks, 1000u64.div_ceil(block.max(1) as u64));
                assert!(stats.threads >= 1);
                assert_eq!(stats.worker_busy_ns.len(), stats.threads);
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let (out, stats) = run_blocks(0, 4, 8, |_| vec![0u8]).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.blocks, 0);
    }

    #[test]
    fn worker_panic_becomes_typed_error() {
        for threads in [1, 4] {
            let err = run_blocks(100, threads, 4, |r| {
                if r.contains(&57) {
                    panic!("bad block at {}", r.start);
                }
                r.collect::<Vec<_>>()
            })
            .unwrap_err();
            match err {
                SimError::WorkerPanicked { message } => {
                    assert!(message.contains("bad block"), "message: {message}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn multi_thread_pool_reports_per_worker_busy() {
        let (out, stats) = run_blocks(256, 4, 2, |r| {
            // Enough work per block that every worker gets a slice.
            let mut acc = 0u64;
            for x in r.clone() {
                for i in 0..2000 {
                    acc = acc.wrapping_mul(31).wrapping_add(x as u64 ^ i);
                }
            }
            vec![(acc & 1) + r.start as u64]
        })
        .unwrap();
        assert_eq!(out.len(), 128);
        assert_eq!(stats.blocks, 128);
        assert_eq!(stats.worker_busy_ns.len(), stats.threads);
        assert!(stats.busy_ns() > 0);
    }

    #[test]
    fn auto_block_is_bounded() {
        assert_eq!(auto_block(0, 4), 1);
        assert_eq!(auto_block(1, 4), 1);
        assert_eq!(auto_block(1000, 4), 63);
        assert_eq!(auto_block(64, 4), 4);
        assert_eq!(auto_block(100, 1), 100, "one worker: one block");
        assert_eq!(auto_block(5182, 1), 128);
        assert!(auto_block(usize::MAX, 1) == 128);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
