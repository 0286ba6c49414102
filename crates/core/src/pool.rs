//! The one worker pool: the only place in the workspace that starts a
//! thread. The evidence walk fans each window of segments over it and the
//! fleet fans its members over it.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

thread_local! {
    /// Set while this thread runs a pool item: a pool call made there runs
    /// inline, on the item's own thread.
    static IN_ITEM: Cell<bool> = const { Cell::new(false) };
}

/// Restores the caller's `IN_ITEM` when its share of a call ends, however
/// it ends.
struct ItemScope(bool);

impl ItemScope {
    fn enter() -> Self {
        ItemScope(IN_ITEM.with(|in_item| in_item.replace(true)))
    }
}

impl Drop for ItemScope {
    fn drop(&mut self) {
        IN_ITEM.with(|in_item| in_item.set(self.0));
    }
}

/// `[f(0), f(1), …, f(len − 1)]`, in that order whatever thread computed
/// each. Items are claimed through one atomic index and each result lands in
/// a slot of its own; the calling thread takes a share beside
/// `workers − 1` scoped threads (fewer when there are fewer items). A call
/// made from inside an item runs inline on that item's thread, so nested
/// callers never multiply threads.
pub fn map<T: Send>(workers: usize, len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let nested = IN_ITEM.with(Cell::get);
    let _scope = ItemScope::enter();
    let threads = workers.min(len);
    if nested || threads <= 1 {
        return (0..len).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let claim = || loop {
        // The index publishes nothing: results travel through the slots'
        // locks and the scope's join.
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        let out = f(i);
        *slot.lock().expect("a slot is locked only to be filled") = Some(out);
    };
    thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| {
                IN_ITEM.with(|in_item| in_item.set(true));
                claim();
            });
        }
        claim();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a slot is locked only to be filled")
                .expect("every item was claimed")
        })
        .collect()
}

/// The machine's worker count — what the evidence walks run on. Asked once
/// per process.
pub(crate) fn machine_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_at_any_worker_count() {
        let squares: Vec<usize> = (0..100).map(|i| i * i).collect();
        for workers in [0, 1, 2, 4, 200] {
            assert_eq!(map(workers, 100, |i| i * i), squares, "{workers} workers");
        }
        assert!(map(4, 0, |i| i).is_empty());
    }

    #[test]
    fn a_call_made_inside_an_item_runs_on_that_items_thread() {
        let nested = map(2, 8, |_| {
            let item = thread::current().id();
            map(4, 8, |_| thread::current().id())
                .into_iter()
                .all(|id| id == item)
        });
        assert!(nested.into_iter().all(|inline| inline));
        // The caller's share ended: its next call fans out again.
        assert!(!IN_ITEM.with(Cell::get));
    }
}
