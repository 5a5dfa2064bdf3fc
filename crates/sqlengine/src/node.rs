//! One SQL Server instance: clustered storage, buffer pool, row locks, WAL.

use simkit::{Event, Sim};
use std::collections::{HashMap, VecDeque};
use storage::bufpool::{Access, BufferPool};
use storage::BTree;

type S = Sim<()>;

/// Node-level configuration (already similitude-scaled by the caller).
#[derive(Clone, Debug)]
pub struct SqlNodeConfig {
    /// Buffer pool capacity in pages.
    pub bufpool_pages: usize,
    /// Records per 8 KB page (7 for the paper's 1 KB records).
    pub records_per_page: u64,
    /// Page size in bytes (8 KB).
    pub page_bytes: u64,
}

/// Per-key exclusive-lock state (read committed: writers exclude everyone).
#[derive(Default)]
struct LockState {
    x_held: bool,
    waiters: VecDeque<Event<()>>,
}

/// Access statistics used by the tests and the harness.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    pub reads: u64,
    pub writes: u64,
    pub lock_waits: u64,
}

/// One SQL Server node: real row versions (for correctness checks), a real
/// LRU buffer pool (for hit rates), and a lock table.
pub struct SqlNode {
    pub cfg: SqlNodeConfig,
    pub pool: BufferPool,
    /// key → version; the clustered index over this node's shard.
    pub rows: BTree<u64, u32>,
    locks: HashMap<u64, LockState>,
    pub stats: NodeStats,
    /// Write-ahead log: one record per *acknowledged* write (appended when
    /// the commit's log flush completes). Recovery replays it over the
    /// loaded base — full durability, the thing MongoDB's paper
    /// configuration gave up.
    pub wal: Vec<(u64, u32)>,
}

impl SqlNode {
    pub fn new(cfg: SqlNodeConfig) -> SqlNode {
        SqlNode {
            pool: BufferPool::new(cfg.bufpool_pages.max(1)),
            cfg,
            rows: BTree::new(),
            locks: HashMap::new(),
            stats: NodeStats::default(),
            wal: Vec::new(),
        }
    }

    /// Data page holding `key` (clustered by key).
    pub fn page_of(&self, key: u64) -> u64 {
        key / self.cfg.records_per_page
    }

    /// Touch the page for `key`; returns whether a disk read is needed and
    /// any dirty page that must be written back.
    pub fn touch(&mut self, key: u64, dirty: bool) -> (bool, Option<u64>) {
        let page = self.page_of(key);
        match self.pool.access(page, dirty) {
            Access::Hit => (false, None),
            Access::Miss { evicted_dirty } => (true, evicted_dirty),
        }
    }

    /// Try to take the X lock on `key`. On contention the continuation is
    /// queued and replayed at release time.
    pub fn lock_x(&mut self, key: u64, cont: Event<()>) -> Option<Event<()>> {
        let state = self.locks.entry(key).or_default();
        if state.x_held {
            self.stats.lock_waits += 1;
            state.waiters.push_back(cont);
            None
        } else {
            state.x_held = true;
            Some(cont)
        }
    }

    /// Read-committed S lock: blocks only while an X lock is held.
    pub fn lock_s(&mut self, key: u64, cont: Event<()>) -> Option<Event<()>> {
        match self.locks.get_mut(&key) {
            Some(state) if state.x_held => {
                self.stats.lock_waits += 1;
                state.waiters.push_back(cont);
                None
            }
            _ => Some(cont),
        }
    }

    /// Release the X lock, waking all waiters (they re-contend in order).
    pub fn unlock_x(&mut self, key: u64, sim: &mut S) {
        if let Some(state) = self.locks.get_mut(&key) {
            state.x_held = false;
            let waiters = std::mem::take(&mut state.waiters);
            if waiters.is_empty() {
                // Keep the table small: drop idle entries.
                self.locks.remove(&key);
            }
            for w in waiters {
                sim.schedule_in(0, w);
            }
        }
    }

    /// Number of dirty pages (checkpoint working set); marks them clean.
    pub fn checkpoint_take(&mut self) -> usize {
        let n = self.pool.dirty_pages().len();
        self.pool.mark_all_clean();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn node(pages: usize) -> SqlNode {
        SqlNode::new(SqlNodeConfig {
            bufpool_pages: pages,
            records_per_page: 7,
            page_bytes: 8192,
        })
    }

    #[test]
    fn page_mapping_is_clustered() {
        let n = node(10);
        assert_eq!(n.page_of(0), 0);
        assert_eq!(n.page_of(6), 0);
        assert_eq!(n.page_of(7), 1);
        assert_eq!(n.page_of(700), 100);
    }

    #[test]
    fn touch_tracks_hits_and_dirty_evictions() {
        let mut n = node(1);
        let (miss, evicted) = n.touch(0, true);
        assert!(miss);
        assert_eq!(evicted, None);
        let (hit_miss, _) = n.touch(1, false); // same page 0
        assert!(!hit_miss);
        let (miss2, evicted2) = n.touch(100, false); // evicts dirty page 0
        assert!(miss2);
        assert_eq!(evicted2, Some(0));
    }

    #[test]
    fn x_lock_excludes_and_wakes_in_order() {
        let mut sim: S = Sim::new();
        let mut n = node(10);
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let (o1, o2, o3) = (order.clone(), order.clone(), order.clone());
        // First writer gets the lock immediately.
        let got = n.lock_x(42, Box::new(move |_, _| o1.borrow_mut().push("w1")));
        assert!(got.is_some());
        got.unwrap()(&mut sim, &mut ());
        // Second writer and a reader queue.
        assert!(n
            .lock_x(42, Box::new(move |_, _| o2.borrow_mut().push("w2")))
            .is_none());
        assert!(n
            .lock_s(42, Box::new(move |_, _| o3.borrow_mut().push("r1")))
            .is_none());
        assert_eq!(n.stats.lock_waits, 2);
        // Release wakes both.
        n.unlock_x(42, &mut sim);
        sim.run(&mut ());
        assert_eq!(*order.borrow(), vec!["w1", "w2", "r1"]);
    }

    #[test]
    fn s_lock_free_when_uncontended() {
        let mut n = node(10);
        assert!(n.lock_s(7, Box::new(|_, _| {})).is_some());
        assert_eq!(n.stats.lock_waits, 0);
    }

    #[test]
    fn checkpoint_clears_dirty_set() {
        let mut n = node(10);
        n.touch(0, true);
        n.touch(7, true);
        n.touch(14, false);
        assert_eq!(n.checkpoint_take(), 2);
        assert_eq!(n.checkpoint_take(), 0);
    }
}
