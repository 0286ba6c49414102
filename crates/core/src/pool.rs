//! The one worker pool: the only place in the workspace that starts a
//! thread. The evidence walk fans each window of segments over it and the
//! fleet fans its members over it; a device's offload engine keeps one
//! lane, where the pending tail's pre-image frame compresses — on a core of
//! its own while the host writes when the machine has one to spare.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};
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

/// A worker beside the thread that owns it: it runs `work` on each job sent,
/// in order, and queues what a job answers for [`Lane::reply`], in order.
/// Where the worker runs is the lane's only decision: on a helper thread of
/// its own when the machine has an idle core, else on the caller's thread,
/// at [`Lane::send`]. Dropping a helper-thread lane closes its queue and
/// joins the thread once it has run what was sent.
pub(crate) struct Lane<J: Send + 'static, R: Send + 'static> {
    runs: Runs<J, R>,
}

/// The two places a lane's worker runs.
enum Runs<J, R> {
    /// On a helper thread, fed through one queue and answering through
    /// another, behind a lock never taken (its owner reads it by `&mut`):
    /// it keeps the lane, and the device that owns one, `Sync`.
    Helper {
        jobs: Option<mpsc::Sender<J>>,
        replies: Mutex<mpsc::Receiver<R>>,
        thread: Option<thread::JoinHandle<()>>,
    },
    /// On the caller's thread, at each send, beside the answers it owes.
    Caller {
        work: Box<dyn FnMut(J) -> Option<R> + Send + Sync>,
        replies: VecDeque<R>,
    },
}

impl<J: Send + 'static, R: Send + 'static> Lane<J, R> {
    /// Starts a lane that runs `work`: on a helper thread, unless the
    /// machine has one worker (there is no idle core to put it on) or the
    /// caller runs inside a [`map`] item (the pool already counts every
    /// core); then on the caller's thread.
    pub(crate) fn start<W>(mut work: W) -> Self
    where
        W: FnMut(J) -> Option<R> + Send + Sync + 'static,
    {
        if machine_workers() <= 1 || IN_ITEM.with(Cell::get) {
            let (work, replies) = (Box::new(work), VecDeque::new());
            return Lane {
                runs: Runs::Caller { work, replies },
            };
        }
        let (jobs, inbox) = mpsc::channel::<J>();
        let (outbox, replies) = mpsc::channel::<R>();
        let thread = thread::spawn(move || {
            while let Some(job) = recv_spinning(&inbox) {
                if let Some(reply) = work(job) {
                    if outbox.send(reply).is_err() {
                        break;
                    }
                }
            }
        });
        Lane {
            runs: Runs::Helper {
                jobs: Some(jobs),
                replies: Mutex::new(replies),
                thread: Some(thread),
            },
        }
    }

    /// Runs `job` behind the ones sent before it: queues it for the helper
    /// thread, or runs it here.
    ///
    /// # Panics
    ///
    /// Panics if the lane died (a job panicked).
    pub(crate) fn send(&mut self, job: J) {
        match &mut self.runs {
            Runs::Helper { jobs, .. } => jobs
                .as_ref()
                .expect("a lane's queue closes only when it drops")
                .send(job)
                .expect("the lane outlives its jobs"),
            Runs::Caller { work, replies } => replies.extend(work(job)),
        }
    }

    /// Waits for the next answer.
    ///
    /// # Panics
    ///
    /// Panics if the lane died before answering, or, on the caller's
    /// thread, if no job sent has answered.
    pub(crate) fn reply(&mut self) -> R {
        match &mut self.runs {
            Runs::Helper { replies, .. } => {
                recv_spinning(replies.get_mut().expect("never locked, so never poisoned"))
            }
            Runs::Caller { replies, .. } => replies.pop_front(),
        }
        .expect("the lane answers the job that asks")
    }

    /// The worker runs on a helper thread.
    #[cfg(test)]
    pub(crate) fn on_helper(&self) -> bool {
        matches!(self.runs, Runs::Helper { .. })
    }
}

/// Polls before it sleeps: waking a parked thread costs more than a job's
/// worth of work on a virtual machine, and the two threads of a lane hand
/// each other work faster than that. `None` once every sender is gone.
fn recv_spinning<T>(queue: &mpsc::Receiver<T>) -> Option<T> {
    const POLLS: u32 = 1 << 12;
    for _ in 0..POLLS {
        match queue.try_recv() {
            Ok(item) => return Some(item),
            Err(mpsc::TryRecvError::Disconnected) => return None,
            Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
    queue.recv().ok()
}

impl<J: Send + 'static, R: Send + 'static> Drop for Lane<J, R> {
    fn drop(&mut self) {
        if let Runs::Helper { jobs, thread, .. } = &mut self.runs {
            drop(jobs.take());
            if let Some(thread) = thread.take() {
                // A lane that panicked has already failed its owner's last
                // send or reply.
                let _ = thread.join();
            }
        }
    }
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

    /// A summing worker that answers with its running total, and the
    /// thread it ran on, whenever it is sent a zero.
    fn summing_lane() -> Lane<u64, (u64, thread::ThreadId)> {
        let mut total = 0;
        Lane::start(move |n: u64| {
            total += n;
            (n == 0).then(|| (total, thread::current().id()))
        })
    }

    /// Sends the same jobs and returns the totals and the threads that
    /// computed them.
    fn run_summing(lane: &mut Lane<u64, (u64, thread::ThreadId)>) -> [(u64, thread::ThreadId); 2] {
        for n in [3, 4, 0, 5, 0] {
            lane.send(n);
        }
        [lane.reply(), lane.reply()]
    }

    #[test]
    fn a_lane_answers_in_order_on_a_helper_thread_or_inline_in_an_item() {
        let here = thread::current().id();
        if machine_workers() > 1 {
            let mut lane = summing_lane();
            let answers = run_summing(&mut lane);
            assert_eq!(answers.map(|(total, _)| total), [7, 12]);
            assert!(answers.iter().all(|(_, on)| *on != here), "a helper thread");
            assert!(lane.on_helper());
        }
        let inside = map(2, 2, |_| {
            let item = thread::current().id();
            let mut lane = summing_lane();
            let answers = run_summing(&mut lane);
            assert!(!lane.on_helper(), "no thread starts");
            (
                answers.map(|(total, _)| total),
                answers.iter().all(|(_, on)| *on == item),
            )
        });
        assert_eq!(inside, [([7, 12], true); 2]);
    }
}
