//! The discrete-event core: every rank is a green task on the caller's
//! thread, resumed in virtual-clock order.
//!
//! Each rank runs as a **stackful coroutine** with its own call stack.
//! All of them are hosted by the one OS thread that called
//! [`crate::world::World::run`]; there are no worker threads, locks or
//! channels.
//!
//! ## Determinism by total order
//!
//! The core runs **exactly one task at a time**, always the runnable task
//! with the lowest `(virtual_time, rank)` key:
//!
//! * a task runs until it blocks on a communication wait (recv, ack wait,
//!   lease window, get retry) and *parks*, reporting its virtual clock;
//! * a send is one `Sched::deliver`: the message joins the
//!   destination's mailbox, and the destination becomes runnable with key
//!   `max(dest_clock, arrival)` — the earliest virtual instant the
//!   receiver can observe the message;
//! * the dispatch loop resumes the lowest-keyed runnable task.
//!
//! Because the execution order is a pure function of virtual timestamps,
//! the same seed and scenario produce the same schedule — and therefore
//! byte-identical traces and `NetStats`.  `tests/digests.rs` pins that
//! against committed digests.
//!
//! ## Silence without wall clocks
//!
//! When no task is runnable, the world is **quiescent**: no message is in
//! flight, so no wait can ever be satisfied.  The core then wakes,
//! deterministically (lowest `(clock, rank)` first):
//!
//! 1. if every task finished its program: all service-mode tasks, with
//!    `WakeCause::Shutdown` — the run is complete;
//! 2. else one silence-capable waiter with `WakeCause::Silence` — it
//!    counts a lease miss, a get retry, a recv timeout or an expired
//!    world deadline;
//! 3. else every waiter with `Shutdown`: the world is deadlocked, and a
//!    deterministic teardown error beats a hang.
//!
//! Silence is the only way a wait gives up without a message; nothing
//! reads a wall clock.
//!
//! ## Park/resume
//!
//! A parking task writes its request into its `TaskCell` and switches
//! back to the dispatch loop, which records the park once the task's
//! context is saved.  Wake causes flow the other way: the loop writes
//! `TaskCell::wake` before switching in, and `Sched::park` returns it
//! to the endpoint.
//!
//! ## Stacks
//!
//! Each task stack is its own `mmap` with a `PROT_NONE` guard page below
//! it, and is unmapped when the world ends, so finished worlds give their
//! stack pages back to the OS.  Pages are never pre-touched: an idle rank
//! costs a few resident pages regardless of [`COOP_STACK_BYTES`].  A
//! stack overflow faults on the guard page (`SIGSEGV`).  A canary word
//! at the base of each stack, checked on every switch-out, is the second
//! line of defence: an overwrite aborts the process, since a silently
//! corrupted frame is not recoverable.
//!
//! The context switch is a few dozen instructions of assembly per
//! architecture (`ctx_x86_64.s`, SysV; `ctx_aarch64.s`, AAPCS64): save
//! the callee-saved registers, swap stack pointers, restore.  Other
//! architectures do not build.

use std::cell::{Cell, RefCell};
use std::collections::{BinaryHeap, VecDeque};
use std::ffi::{c_int, c_long, c_void};

use crate::message::Message;
use crate::model::{MachineModel, NetState};

/// Default stack size for one task.  Virtual memory only: untouched
/// pages are never resident.  Override per world with
/// [`crate::world::World::with_stack_bytes`].
pub const COOP_STACK_BYTES: usize = 1 << 20;

/// Why a parked task was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeCause {
    /// At least one message arrived for this rank since it parked.
    Message,
    /// Global quiescence: nothing can ever arrive unless this task acts.
    Silence,
    /// The world is tearing down (run complete, or deterministic
    /// deadlock teardown).
    Shutdown,
}

/// What a task is waiting for when it parks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ParkKind {
    /// Blocked in a communication wait.  `expiry` is the virtual time at
    /// which the wait would give up on its own (a recv timeout deadline,
    /// a world deadline, or the current clock for settle-now polls).  At
    /// global quiescence the waiter with the *earliest finite* expiry is
    /// woken with [`WakeCause::Silence`]; `f64::INFINITY` waits only wake
    /// on a message (or teardown).
    Wait { expiry: f64 },
    /// The rank's program returned; it keeps answering protocol traffic
    /// until the whole world completes.
    Service,
}

// ---------------------------------------------------------------------------
// Context switch.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
core::arch::global_asm!(include_str!("ctx_x86_64.s"));

#[cfg(target_arch = "aarch64")]
core::arch::global_asm!(include_str!("ctx_aarch64.s"));

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("mcsim's task context switch exists for x86_64 and aarch64 only");

extern "C" {
    /// Save the current continuation's stack pointer into `*save`, then
    /// restore `target` as the stack pointer and return into it.  The
    /// saved continuation resumes right after this call when someone
    /// switches back.
    fn mcsim_ctx_switch(save: *mut usize, target: usize);
    /// Initial return target of a fresh task stack: moves the cell
    /// pointer from its callee-saved slot into the first argument
    /// register and calls [`mcsim_coro_entry`].
    fn mcsim_coro_thunk();
}

// ---------------------------------------------------------------------------
// Stacks.
// ---------------------------------------------------------------------------

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const SC_PAGESIZE: c_int = 30;

/// Sentinel written at the base (lowest usable address) of every stack.
const STACK_CANARY: u64 = 0x6d63_7369_6d5f_6f6b; // "mcsim_ok"

/// One task stack: a private anonymous mapping whose lowest page is a
/// `PROT_NONE` guard.
struct StackMem {
    /// Start of the mapping (the guard page).
    map: *mut u8,
    /// Length of the mapping, guard included.
    len: usize,
    /// Size of the guard page.
    guard: usize,
}

impl StackMem {
    fn new(bytes: usize) -> StackMem {
        // SAFETY: sysconf reads a constant of the running system.
        let guard = usize::try_from(unsafe { sysconf(SC_PAGESIZE) }).expect("page size");
        let size = bytes.max(64 * 1024).next_multiple_of(guard);
        let len = size + guard;
        // SAFETY: a fresh private anonymous mapping aliases no existing
        // memory; the guard mprotect covers its first page only.
        unsafe {
            let map = mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            );
            assert!(map as isize != -1, "task stack mmap failed");
            assert_eq!(mprotect(map, guard, PROT_NONE), 0, "guard page mprotect");
            StackMem {
                map: map as *mut u8,
                len,
                guard,
            }
        }
    }

    /// Lowest usable address, just above the guard page.
    fn base(&self) -> *mut u8 {
        self.map.wrapping_add(self.guard)
    }

    fn top(&self) -> usize {
        self.map as usize + self.len
    }
}

impl Drop for StackMem {
    fn drop(&mut self) {
        // SAFETY: the mapping is owned by this value, and every task that
        // ran on it has finished, so no live frame points into it.  A
        // failed munmap only leaks the mapping.
        unsafe { munmap(self.map as *mut c_void, self.len) };
    }
}

// ---------------------------------------------------------------------------
// Tasks.
// ---------------------------------------------------------------------------

/// Lifetime-erased task body.  Safety: [`Sched::run`] drives every task
/// to completion before it returns, so the borrows captured inside never
/// outlive their owners.
pub(crate) type TaskBody = Box<dyn FnOnce()>;

/// Per-task control block, touched only by the dispatch loop and by the
/// task itself while it runs.
pub(crate) struct TaskCell {
    /// Saved stack pointer of the suspended task.
    ctx: usize,
    /// Saved stack pointer of the dispatch loop during a slice.
    host: usize,
    /// Set once the task body has returned and the stack is dead.
    finished: bool,
    /// Park request, written by the task just before switching out.
    park: ParkKind,
    /// The task's virtual clock at park time (the scheduler's key input).
    clock: f64,
    /// Wake cause, written by the dispatch loop just before switching in.
    wake: WakeCause,
    /// A panic that escaped the task body's own catch (a harness bug);
    /// re-raised by [`Sched::run`]'s caller so it is not silently lost.
    escaped: Option<Box<dyn std::any::Any + Send>>,
    body: Option<TaskBody>,
    stack: StackMem,
}

impl TaskCell {
    fn new(stack_bytes: usize, body: TaskBody) -> Box<TaskCell> {
        let stack = StackMem::new(stack_bytes);
        let mut cell = Box::new(TaskCell {
            ctx: 0,
            host: 0,
            finished: false,
            park: ParkKind::Service,
            clock: 0.0,
            wake: WakeCause::Message,
            escaped: None,
            body: Some(body),
            stack,
        });
        // SAFETY: both writes land inside the freshly mapped, writable
        // stack: the canary at its base, the initial frame at its top.
        // The cell is boxed, so the address the frame records is stable.
        unsafe {
            (cell.stack.base() as *mut u64).write(STACK_CANARY);
            cell.init_stack();
        }
        cell
    }

    /// Lay out the initial frame so the first switch-in pops zeroed
    /// callee-saved registers (with `r12` = cell pointer) and returns
    /// into `mcsim_coro_thunk`.
    ///
    /// # Safety
    /// The stack must be mapped and unused, and `self` must not move
    /// before the task finishes.
    #[cfg(target_arch = "x86_64")]
    unsafe fn init_stack(&mut self) {
        let top = self.stack.top();
        let slot = |i: usize| (top - 8 * i) as *mut u64;
        slot(1).write(0); // never-returned-to slot (keeps alignment)
        slot(2).write(mcsim_coro_thunk as *const () as usize as u64); // ret target
        slot(3).write(0); // rbp
        slot(4).write(0); // rbx
        slot(5).write(self as *mut TaskCell as u64); // r12 -> rdi in thunk
        slot(6).write(0); // r13
        slot(7).write(0); // r14
        slot(8).write(0); // r15
        self.ctx = top - 64;
    }

    /// Lay out the initial 160-byte frame `mcsim_ctx_switch` restores:
    /// zeroed registers except `x19` = cell pointer and `lr` =
    /// `mcsim_coro_thunk`.
    ///
    /// # Safety
    /// The stack must be mapped and unused, and `self` must not move
    /// before the task finishes.
    #[cfg(target_arch = "aarch64")]
    unsafe fn init_stack(&mut self) {
        let frame = self.stack.top() - 160;
        let slot = |off: usize| (frame + off) as *mut u64;
        for off in (0..160).step_by(8) {
            slot(off).write(0);
        }
        slot(0).write(self as *mut TaskCell as u64); // x19 -> x0 in thunk
        slot(88).write(mcsim_coro_thunk as *const () as usize as u64); // lr
        self.ctx = frame;
    }

    fn canary_ok(&self) -> bool {
        // SAFETY: the base word is inside the mapping this cell owns.
        unsafe { (self.stack.base() as *const u64).read() == STACK_CANARY }
    }
}

/// Entry point every fresh task stack starts in (called from the asm
/// thunk).  Never returns: on completion it marks the cell finished and
/// switches back to the dispatch loop forever.
///
/// # Safety
/// Only the thunk calls this, on the task's own stack, with the cell
/// that [`TaskCell::init_stack`] recorded.
#[no_mangle]
unsafe extern "C" fn mcsim_coro_entry(cell: *mut TaskCell) -> ! {
    let body = (*cell).body.take().expect("task body runs once");
    // The body contains its own catch_unwind (the supervisor loop); this
    // backstop only exists because unwinding must never reach the asm
    // frame below us.
    if let Err(e) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        (*cell).escaped = Some(e);
    }
    (*cell).finished = true;
    loop {
        mcsim_ctx_switch(&mut (*cell).ctx, (*cell).host);
    }
}

// ---------------------------------------------------------------------------
// Scheduler.
// ---------------------------------------------------------------------------

/// Heap entry ordering: min (key, rank) first.  `key` is finite by
/// construction (virtual clocks and arrivals are finite).
#[derive(PartialEq)]
struct HeapEntry {
    key: f64,
    rank: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum first.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.rank.cmp(&self.rank))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Whether a task is still executing its program or only answering
/// protocol traffic after its program returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Program,
    Service,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Queued in the heap under `Slot::key`.
    Runnable,
    /// Currently executing (at most one world-wide).
    Running,
    /// Parked in a communication wait.
    Waiting,
    /// Task body returned; stack is dead.
    Done,
}

struct Slot {
    mode: Mode,
    state: State,
    /// Valid when `Waiting`: virtual expiry of the wait.  Finite values
    /// compete for the Silence wake at quiescence; infinity means the
    /// wait only ends on a message or teardown.
    expiry: f64,
    /// Virtual clock the task last reported when parking.
    clock: f64,
    /// Scheduling key while `Runnable` (stale heap entries carry an old
    /// key and are discarded on pop).
    key: f64,
    /// At least one message arrived since the task last started running.
    mail: bool,
    /// Minimum arrival time among those messages.
    mail_min: f64,
    /// Cause to deliver at the next dispatch.
    wake: WakeCause,
    /// Messages delivered to this rank and not yet taken, in send order.
    mailbox: VecDeque<Message>,
}

struct Inner {
    slots: Vec<Slot>,
    heap: BinaryHeap<HeapEntry>,
    /// Tasks still in `Mode::Program`.
    unfinished: usize,
    /// Tasks not yet `Done`.
    live: usize,
    /// Per-link contention state on non-crossbar topologies.
    net: Option<NetState>,
}

/// The world's single-threaded core: task slots with their mailboxes,
/// the run queue, and the link state of the topology.  One per world
/// run, shared by every endpoint.
pub(crate) struct Sched {
    inner: RefCell<Inner>,
    /// Cell of the task currently running (null between slices).
    current: Cell<*mut TaskCell>,
}

impl Inner {
    /// Make `rank` runnable with `wake` at its own clock.
    fn wake_at_clock(&mut self, rank: usize, wake: WakeCause) {
        let s = &mut self.slots[rank];
        s.state = State::Runnable;
        s.wake = wake;
        s.key = s.clock;
        self.heap.push(HeapEntry { key: s.key, rank });
    }

    /// Pop the lowest-keyed runnable task and mark it running.
    fn take_dispatch(&mut self) -> Option<(usize, WakeCause)> {
        while let Some(e) = self.heap.pop() {
            let s = &mut self.slots[e.rank];
            if s.state != State::Runnable || e.key != s.key {
                continue; // stale duplicate
            }
            s.state = State::Running;
            s.mail = false;
            s.mail_min = f64::INFINITY;
            return Some((e.rank, s.wake));
        }
        None
    }

    /// Handle global quiescence: nothing runnable, but live tasks remain.
    /// Always enqueues at least one wake.
    fn quiesce(&mut self) {
        if self.unfinished == 0 {
            // Every program returned; release the service loops.
            for rank in 0..self.slots.len() {
                if self.slots[rank].state == State::Waiting {
                    self.wake_at_clock(rank, WakeCause::Shutdown);
                }
            }
            return;
        }
        // One silence-capable program waiter: earliest virtual expiry
        // wins (rank breaks ties), so a short recv timeout fires before a
        // distant world deadline.
        let pick = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.mode == Mode::Program && s.state == State::Waiting && s.expiry.is_finite()
            })
            .min_by(|(ar, a), (br, b)| a.expiry.total_cmp(&b.expiry).then(ar.cmp(br)))
            .map(|(r, _)| r);
        if let Some(rank) = pick {
            self.wake_at_clock(rank, WakeCause::Silence);
            return;
        }
        // True deadlock: no message in flight, nobody silence-capable.
        // Deterministic teardown (SimError::Shutdown at every waiter)
        // instead of a hang.
        if std::env::var_os("MCSIM_SCHED_DEBUG").is_some() {
            for (r, s) in self.slots.iter().enumerate() {
                eprintln!(
                    "mcsim-sched deadlock: rank={r} mode={:?} state={:?} clock={} mail={} expiry={}",
                    s.mode, s.state, s.clock, s.mail, s.expiry
                );
            }
        }
        for rank in 0..self.slots.len() {
            if self.slots[rank].state == State::Waiting {
                self.wake_at_clock(rank, WakeCause::Shutdown);
            }
        }
    }

    /// Record a park (or completion) once the task switched out.
    fn after_slice(&mut self, rank: usize, cell: &TaskCell) {
        let s = &mut self.slots[rank];
        if cell.finished {
            s.state = State::Done;
            // Defensive: bodies park Service before finishing, but a
            // panic escaping the harness could skip that.
            if s.mode == Mode::Program {
                s.mode = Mode::Service;
                self.unfinished -= 1;
            }
            self.live -= 1;
            return;
        }
        s.clock = cell.clock;
        if matches!(cell.park, ParkKind::Service) && s.mode == Mode::Program {
            s.mode = Mode::Service;
            self.unfinished -= 1;
        }
        if s.mail {
            // Mail that arrived during the slice (a self-send or a
            // protocol echo) wakes the task immediately.
            s.state = State::Runnable;
            s.wake = WakeCause::Message;
            s.key = s.clock.max(s.mail_min);
            self.heap.push(HeapEntry { key: s.key, rank });
        } else {
            s.state = State::Waiting;
            s.expiry = match cell.park {
                ParkKind::Wait { expiry } => expiry,
                ParkKind::Service => f64::INFINITY,
            };
        }
    }
}

impl Sched {
    pub(crate) fn new(size: usize, net: Option<NetState>) -> Sched {
        let slots = (0..size)
            .map(|_| Slot {
                mode: Mode::Program,
                state: State::Runnable,
                expiry: f64::INFINITY,
                clock: 0.0,
                key: 0.0,
                mail: false,
                mail_min: f64::INFINITY,
                wake: WakeCause::Message,
                mailbox: VecDeque::new(),
            })
            .collect();
        let heap = (0..size).map(|rank| HeapEntry { key: 0.0, rank }).collect();
        Sched {
            inner: RefCell::new(Inner {
                slots,
                heap,
                unfinished: size,
                live: size,
                net,
            }),
            current: Cell::new(std::ptr::null_mut()),
        }
    }

    /// Post `msg` (data, protocol frame, or poison) to `to`'s mailbox and
    /// make `to` runnable at `max(its clock, arrival)` if it was parked.
    pub(crate) fn deliver(&self, to: usize, msg: Message) {
        let mut g = self.inner.borrow_mut();
        let g = &mut *g;
        let s = &mut g.slots[to];
        if s.state == State::Done {
            // Every program has finished; the message can no longer
            // matter.
            return;
        }
        let arrival = msg.arrival;
        s.mailbox.push_back(msg);
        s.mail = true;
        if arrival < s.mail_min {
            s.mail_min = arrival;
        }
        let key = s.clock.max(s.mail_min);
        match s.state {
            State::Waiting => {
                s.state = State::Runnable;
                s.wake = WakeCause::Message;
                s.key = key;
                g.heap.push(HeapEntry { key, rank: to });
            }
            // Decrease-key: push a better duplicate, the stale entry is
            // discarded on pop.
            State::Runnable if key < s.key => {
                s.key = key;
                g.heap.push(HeapEntry { key, rank: to });
            }
            // Running: its own drain will pick the message up (mail is
            // latched for the park decision).
            _ => {}
        }
    }

    /// Take the oldest message in `rank`'s mailbox.  A mailbox found empty
    /// gives back the capacity a burst grew it to: an all-to-all at P=1024
    /// would otherwise pin ~64 KiB per rank for the rest of the run.
    pub(crate) fn take(&self, rank: usize) -> Option<Message> {
        let mut g = self.inner.borrow_mut();
        let mailbox = &mut g.slots[rank].mailbox;
        let msg = mailbox.pop_front();
        if msg.is_none() && mailbox.capacity() > 64 {
            *mailbox = VecDeque::new();
        }
        msg
    }

    /// Arrival time of `bytes` departing `src` for `dst` at `depart`:
    /// routed over the topology's links (with contention) when the world
    /// has one, the closed-form postal transit otherwise.
    pub(crate) fn transit(
        &self,
        m: &MachineModel,
        src: usize,
        dst: usize,
        bytes: usize,
        depart: f64,
    ) -> f64 {
        match &mut self.inner.borrow_mut().net {
            Some(net) => net.transit(m, src, dst, bytes, depart),
            None => depart + m.transit(bytes),
        }
    }

    /// Total virtual seconds messages spent queued behind busy links.
    pub(crate) fn contended_secs(&self) -> f64 {
        self.inner.borrow().net.as_ref().map_or(0.0, |n| n.queued)
    }

    /// Park the running task and return why it was resumed.  Must be
    /// called from inside a task (on its coroutine stack).
    pub(crate) fn park(&self, kind: ParkKind, clock: f64) -> WakeCause {
        let cell = self.current.get();
        assert!(!cell.is_null(), "park outside a running task");
        // SAFETY: `current` is the cell of the task executing this call,
        // set by `run` for the length of the slice; switching to `host`
        // returns to `run`, which resumes this frame later.
        unsafe {
            (*cell).park = kind;
            (*cell).clock = clock;
            mcsim_ctx_switch(&mut (*cell).ctx, (*cell).host);
            (*cell).wake
        }
    }

    /// Run every body as a task on this thread until all have finished.
    /// Returns a panic that escaped a task harness (a bug), if any.
    pub(crate) fn run(
        &self,
        stack_bytes: usize,
        bodies: Vec<TaskBody>,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        // Boxed on purpose: each cell's initial frame stores
        // `self as *mut TaskCell`, so the cell must not move.
        #[allow(clippy::vec_box)]
        let mut cells: Vec<Box<TaskCell>> = bodies
            .into_iter()
            .map(|b| TaskCell::new(stack_bytes, b))
            .collect();
        loop {
            let (rank, wake) = {
                let mut g = self.inner.borrow_mut();
                if g.live == 0 {
                    break;
                }
                match g.take_dispatch() {
                    Some(next) => next,
                    None => {
                        // Quiescent: manufacture the deterministic wake-up.
                        g.quiesce();
                        continue;
                    }
                }
            };
            let cell: *mut TaskCell = &mut *cells[rank];
            self.current.set(cell);
            // SAFETY: `cell` is a live boxed cell whose context is either
            // the fresh frame from `init_stack` or one saved by `park`; no
            // RefCell borrow is held across the switch.
            unsafe {
                (*cell).wake = wake;
                mcsim_ctx_switch(&mut (*cell).host, (*cell).ctx);
                if !(*cell).canary_ok() {
                    // The guard word at the stack base was overwritten:
                    // frames below it are already corrupt, so unwinding
                    // is unsafe.
                    eprintln!(
                        "mcsim: task stack overflow on rank {rank} \
                         (raise World::with_stack_bytes); aborting"
                    );
                    std::process::abort();
                }
            }
            self.current.set(std::ptr::null_mut());
            // SAFETY: the task is suspended, so nothing else touches it.
            self.inner.borrow_mut().after_slice(rank, unsafe { &*cell });
        }
        cells.iter_mut().find_map(|c| c.escaped.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Body;
    use crate::tag::Tag;
    use std::rc::Rc;

    fn ping(src: usize, arrival: f64) -> Message {
        Message {
            src,
            tag: Tag::user(0),
            body: Body::Data(Vec::new()),
            arrival,
        }
    }

    /// Bare coroutine round trip: resume / park / resume-to-completion.
    #[test]
    fn coroutine_switches_and_finishes() {
        let sched = Rc::new(Sched::new(1, None));
        let log = Rc::new(RefCell::new(Vec::new()));
        let (s, l) = (sched.clone(), log.clone());
        let body: TaskBody = Box::new(move || {
            l.borrow_mut().push("first");
            let w = s.park(ParkKind::Wait { expiry: 1.0 }, 1.0);
            assert_eq!(w, WakeCause::Silence);
            l.borrow_mut().push("second");
        });
        assert!(sched.run(COOP_STACK_BYTES, vec![body]).is_none());
        assert_eq!(*log.borrow(), vec!["first", "second"]);
    }

    /// Two tasks ping-ponging runnability purely through deliveries: the
    /// scheduler picks the lowest (clock, rank) key every time.
    #[test]
    fn lowest_key_runs_first() {
        let sched = Rc::new(Sched::new(2, None));
        let order = Rc::new(RefCell::new(Vec::new()));
        let bodies: Vec<TaskBody> = (0..2usize)
            .map(|rank| {
                let (s, order) = (sched.clone(), order.clone());
                Box::new(move || {
                    for round in 0..3u32 {
                        order.borrow_mut().push((rank, round));
                        // Wake the peer "now" and wait for it to wake us.
                        s.deliver(1 - rank, ping(rank, (round + 1) as f64));
                        if round < 2 {
                            let w = s.park(
                                ParkKind::Wait {
                                    expiry: f64::INFINITY,
                                },
                                (round + 1) as f64,
                            );
                            assert_eq!(w, WakeCause::Message);
                        }
                    }
                    // Completion protocol: park in service mode once.
                    while s.park(ParkKind::Service, 3.0) != WakeCause::Shutdown {}
                }) as TaskBody
            })
            .collect();
        assert!(sched.run(COOP_STACK_BYTES, bodies).is_none());
        // Rank 0 starts (tie on key 0 broken by rank), and rounds
        // alternate deterministically.
        assert_eq!(
            *order.borrow(),
            vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        );
        assert_eq!(sched.take(0).map(|m| m.arrival), Some(1.0));
    }

    /// With no messages in flight and no silence-capable waiter, the
    /// scheduler tears the world down instead of hanging.
    #[test]
    fn deadlock_becomes_shutdown() {
        let sched = Rc::new(Sched::new(1, None));
        let saw = Rc::new(Cell::new(None));
        let (s, saw2) = (sched.clone(), saw.clone());
        let body: TaskBody = Box::new(move || {
            let expiry = f64::INFINITY;
            saw2.set(Some(s.park(ParkKind::Wait { expiry }, 0.0)));
        });
        assert!(sched.run(COOP_STACK_BYTES, vec![body]).is_none());
        assert_eq!(saw.get(), Some(WakeCause::Shutdown));
    }

    /// Silence-capable waits get a Silence wake at quiescence, earliest
    /// expiry first.
    #[test]
    fn silence_wakes_lowest_clock_first() {
        let sched = Rc::new(Sched::new(2, None));
        let order = Rc::new(RefCell::new(Vec::new()));
        let bodies: Vec<TaskBody> = (0..2usize)
            .map(|rank| {
                let (s, order) = (sched.clone(), order.clone());
                Box::new(move || {
                    // Rank 1 parks at a lower clock than rank 0.
                    let clock = if rank == 0 { 5.0 } else { 2.0 };
                    let w = s.park(ParkKind::Wait { expiry: clock }, clock);
                    assert_eq!(w, WakeCause::Silence);
                    order.borrow_mut().push(rank);
                }) as TaskBody
            })
            .collect();
        assert!(sched.run(COOP_STACK_BYTES, bodies).is_none());
        assert_eq!(*order.borrow(), vec![1, 0]);
    }

    /// The deepest stack user: make sure slices survive real frames.
    #[test]
    fn coroutine_survives_deep_call_chain() {
        fn burn(n: usize, acc: u64) -> u64 {
            // Enough locals to consume real stack without overflowing.
            let pad = [acc; 8];
            if n == 0 {
                pad.iter().sum()
            } else {
                burn(n - 1, acc + 1) + pad[0]
            }
        }
        let sched = Sched::new(1, None);
        let out = Rc::new(Cell::new(0));
        let out2 = out.clone();
        let body: TaskBody = Box::new(move || out2.set(burn(2000, 0)));
        assert!(sched.run(COOP_STACK_BYTES, vec![body]).is_none());
        assert!(out.get() > 0);
    }

    /// Child half of [`stack_overflow_hits_guard_page`]: recurses without
    /// bound on a 64 KiB task stack.  Ignored when run directly.
    #[test]
    #[ignore = "overflows a task stack; run in a subprocess by stack_overflow_hits_guard_page"]
    fn overflow_task_stack_child() {
        #[repr(C)]
        struct RLimit {
            cur: u64,
            max: u64,
        }
        extern "C" {
            fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
        }
        const RLIMIT_CORE: c_int = 4;
        // No core file for a crash the parent expects.
        unsafe { setrlimit(RLIMIT_CORE, &RLimit { cur: 0, max: 0 }) };

        fn dive(n: u64) -> u64 {
            let pad = std::hint::black_box([n; 64]);
            if n == u64::MAX {
                return pad[0];
            }
            dive(n + 1).wrapping_add(pad[1])
        }
        let sched = Sched::new(1, None);
        let body: TaskBody = Box::new(|| {
            std::hint::black_box(dive(0));
        });
        sched.run(64 * 1024, vec![body]);
    }

    /// A task that overflows its stack dies on the guard page (`SIGSEGV`)
    /// instead of corrupting memory below it and reaching the canary
    /// abort.
    #[test]
    fn stack_overflow_hits_guard_page() {
        use std::os::unix::process::ExitStatusExt;
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "sched::tests::overflow_task_stack_child",
                "--ignored",
                "--nocapture",
                "--test-threads=1",
            ])
            .output()
            .expect("re-run the test binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.signal(),
            Some(11),
            "child must die by SIGSEGV: {:?}\n{stderr}",
            out.status
        );
        assert!(!stderr.contains("task stack overflow"), "{stderr}");
    }
}
