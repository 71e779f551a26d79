//! Deterministic virtual time (DESIGN.md §10).
//!
//! [`VClock`] is a discrete-event clock for the simulated internet: a
//! monotonically advancing microsecond counter plus a set of pending
//! waiters (timed sleeps and condition waits with optional deadlines).
//! Real threads still run the protocol code unchanged, but nothing ever
//! calls `thread::sleep` — a 300 ms probe timeout is an *event* that
//! fires the instant every participating thread is blocked, so a full
//! probing sweep completes in microseconds of wall time and the virtual
//! timestamps it produces are a pure function of the seed.
//!
//! ## How the clock advances
//!
//! Threads that participate in the simulation are *registered* (probe
//! workers and SimNet handler threads hold a persistent
//! [`Registration`]; any other thread is auto-registered for the span
//! of a single wait). The clock advances only at **quiescence**: when
//! every registered thread is blocked on the clock. At that moment it
//! jumps straight to the earliest pending deadline and fires every
//! waiter due at that instant. A runnable thread therefore always
//! suppresses the advance — a responsive request/response exchange
//! completes at zero virtual cost, while a timeout costs exactly its
//! configured duration, independent of host scheduling.
//!
//! ## Locking
//!
//! One global mutex + condvar serialize all clock state. Resource locks
//! (e.g. a pipe's buffer mutex) are always acquired *before* the clock
//! lock and the clock never takes resource locks, so the ordering is
//! acyclic. The two-phase wait ([`VClock::prepare_wait`] under the
//! resource lock, then [`VClock::complete_wait`] after releasing it)
//! closes the classic lost-wakeup window: a notifier cannot observe the
//! changed resource state without also seeing the registered waiter.

use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A time source the upper layers (prober, platform, bench binaries)
/// program against. Implemented by [`WallClock`], [`VClock`] and the
/// [`Clock`] handle.
pub trait ClockSource: Send + Sync {
    /// Monotonic now, in microseconds.
    fn now_us(&self) -> u64;
    /// Block the calling thread for `d` (virtual or real).
    fn sleep(&self, d: Duration);
    /// `"sim"` or `"wall"` — used as a metric-key component so
    /// histograms never mix virtual and real microseconds.
    fn label(&self) -> &'static str;
    /// Is this a virtual clock?
    fn is_virtual(&self) -> bool;
}

/// The real clock: `Instant` since process start, `thread::sleep`.
#[derive(Debug, Default, Clone, Copy)]
pub struct WallClock;

fn wall_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

impl ClockSource for WallClock {
    fn now_us(&self) -> u64 {
        wall_epoch().elapsed().as_micros() as u64
    }
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
    fn label(&self) -> &'static str {
        "wall"
    }
    fn is_virtual(&self) -> bool {
        false
    }
}

/// What a waiter is blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitKind {
    /// A timed sleep; only a clock advance releases it.
    Sleep,
    /// A condition wait (pipe readable/writable); released by
    /// [`VClock::notify_waiters`] or by its deadline.
    Cond,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitState {
    Blocked,
    /// Notified; the thread will recheck its predicate.
    Woken,
    /// Deadline reached by an advance.
    Fired,
}

/// Result of a completed wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// The resource was notified; recheck the predicate.
    Notified,
    /// The deadline fired first.
    TimedOut,
}

#[derive(Debug)]
struct Waiter {
    deadline: Option<u64>,
    kind: WaitKind,
    state: WaitState,
    /// Registered just for this wait (thread holds no persistent
    /// [`Registration`]).
    auto: bool,
    /// Wake channel: a resource identity (e.g. a pipe's address) so
    /// notifiers can wake only the threads parked on *that* resource.
    /// `0` is the wildcard channel: woken by every notification.
    chan: u64,
    /// Condvar lane this waiter parks on (see [`VClock::lanes`]).
    lane: u8,
}

#[derive(Debug, Default)]
struct VState {
    now_us: u64,
    next_token: u64,
    /// Threads participating in quiescence detection.
    registered: usize,
    /// Waiters currently in `Blocked`.
    blocked: usize,
    waiters: HashMap<u64, Waiter>,
    /// `(new now, waiters fired)` per advance — the deterministic event
    /// trace the proptests compare across runs.
    trace: Vec<(u64, u32)>,
}

thread_local! {
    /// Set while the current thread holds an [`ActiveRegistration`], so
    /// per-wait auto-registration doesn't double-count it.
    static PERSISTENT: Cell<bool> = const { Cell::new(false) };
}

/// Does the current thread hold an [`ActiveRegistration`]?
///
/// `SimNet::connect_for` uses this to decide whether the client end of
/// a new connection needs a *lease*: an unregistered caller (e.g. a
/// test's main thread) is invisible to quiescence detection, so the
/// connection itself holds a [`Registration`] for its lifetime —
/// otherwise a lone registered handler blocking on its idle timeout
/// would be instant quiescence and the timeout would fire while the
/// client is still mid-request.
pub fn thread_registered() -> bool {
    PERSISTENT.with(|p| p.get())
}

/// Number of condvar lanes waiters are spread across. Waking a channel
/// signals only the lanes its waiters actually park on, so a pipe event
/// costs one or two futex wakes instead of a broadcast to every blocked
/// thread in the world (the "thundering herd" that capped fw-serve).
const LANES: usize = 64;

/// The virtual clock. Shared by every component of one simulated world.
#[derive(Debug)]
pub struct VClock {
    state: Mutex<VState>,
    /// One condvar per lane; a waiter parks on `lanes[lane]` where
    /// `lane` is a hash of its channel (or token, for sleeps). All
    /// lanes share the single `state` mutex, so the usual
    /// predicate-recheck discipline still holds.
    lanes: [Condvar; LANES],
}

impl Default for VClock {
    fn default() -> VClock {
        VClock {
            state: Mutex::default(),
            lanes: std::array::from_fn(|_| Condvar::new()),
        }
    }
}

/// Spread a channel id (usually a pointer) over the lane space.
#[inline]
fn lane_of(key: u64) -> u8 {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58) as u8
}

/// Opaque handle for a registered-but-not-yet-completed wait.
#[must_use = "a prepared wait must be completed"]
pub struct WaitToken(u64);

impl VClock {
    pub fn new() -> Arc<VClock> {
        Arc::new(VClock::default())
    }

    /// Register a thread *before spawning it*, so the clock can never
    /// advance in the window between spawn and first wait. Call
    /// [`Registration::activate`] on the new thread.
    pub fn register(self: &Arc<VClock>) -> Registration {
        self.state.lock().registered += 1;
        Registration {
            clock: Some(self.clone()),
        }
    }

    /// The deterministic advance trace: `(virtual now, timers fired)`
    /// per advance since creation.
    pub fn advance_trace(&self) -> Vec<(u64, u32)> {
        self.state.lock().trace.clone()
    }

    /// Phase 1 of a condition wait: register the waiter while still
    /// holding the resource lock whose predicate just failed, so no
    /// notification can slip between the predicate check and the wait.
    /// `deadline_us` is absolute virtual time (`None` = wait forever).
    pub fn prepare_wait(&self, deadline_us: Option<u64>) -> WaitToken {
        self.prepare_wait_counted(deadline_us, false)
    }

    /// [`VClock::prepare_wait`] for a thread already accounted for in
    /// `registered` by a connection lease (`counted = true`), which
    /// must not auto-register a second time.
    pub fn prepare_wait_counted(&self, deadline_us: Option<u64>, counted: bool) -> WaitToken {
        self.prepare_wait_chan(deadline_us, counted, 0)
    }

    /// [`VClock::prepare_wait_counted`] on a specific wake channel.
    /// A non-zero `chan` (conventionally the address of the resource
    /// being waited on) lets [`VClock::notify_chan`] wake only this
    /// resource's waiters; channel `0` waiters are woken by every
    /// notification.
    pub fn prepare_wait_chan(
        &self,
        deadline_us: Option<u64>,
        counted: bool,
        chan: u64,
    ) -> WaitToken {
        let mut st = self.state.lock();
        let token = self.add_waiter(&mut st, deadline_us, WaitKind::Cond, counted, chan);
        self.maybe_advance(&mut st);
        WaitToken(token)
    }

    /// Phase 2: block (after releasing the resource lock) until
    /// notified or the deadline fires.
    pub fn complete_wait(&self, token: WaitToken) -> WaitOutcome {
        let mut st = self.state.lock();
        loop {
            let w = st.waiters.get(&token.0).expect("waiter registered");
            let lane = w.lane;
            match w.state {
                WaitState::Blocked => self.lanes[lane as usize].wait(&mut st),
                WaitState::Woken => {
                    self.remove_waiter(&mut st, token.0);
                    return WaitOutcome::Notified;
                }
                WaitState::Fired => {
                    self.remove_waiter(&mut st, token.0);
                    return WaitOutcome::TimedOut;
                }
            }
        }
    }

    /// Wake every condition waiter so it rechecks its predicate — the
    /// broadcast path, used for global state changes (fault injection,
    /// teardown). Pipes use the targeted [`VClock::notify_chan`] on the
    /// hot path. Safe to call while holding a resource lock (the clock
    /// never takes resource locks).
    pub fn notify_waiters(&self) {
        let mut st = self.state.lock();
        let st = &mut *st;
        let mut mask = 0u64;
        for w in st.waiters.values_mut() {
            if w.kind == WaitKind::Cond && w.state == WaitState::Blocked {
                w.state = WaitState::Woken;
                st.blocked -= 1;
                mask |= 1u64 << w.lane;
            }
        }
        self.notify_lanes(mask);
    }

    /// Wake only the condition waiters parked on `chan` (plus wildcard
    /// channel-0 waiters). This is the hot-path notification: a pipe
    /// write wakes exactly the peer blocked on that pipe instead of
    /// every blocked thread in the simulation.
    pub fn notify_chan(&self, chan: u64) {
        let mut st = self.state.lock();
        let st = &mut *st;
        let mut mask = 0u64;
        for w in st.waiters.values_mut() {
            if w.kind == WaitKind::Cond
                && w.state == WaitState::Blocked
                && (w.chan == chan || w.chan == 0)
            {
                w.state = WaitState::Woken;
                st.blocked -= 1;
                mask |= 1u64 << w.lane;
            }
        }
        self.notify_lanes(mask);
    }

    /// Signal every lane set in `mask`.
    fn notify_lanes(&self, mut mask: u64) {
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            self.lanes[lane].notify_all();
            mask &= mask - 1;
        }
    }

    fn add_waiter(
        &self,
        st: &mut VState,
        deadline: Option<u64>,
        kind: WaitKind,
        counted: bool,
        chan: u64,
    ) -> u64 {
        let auto = !counted && !PERSISTENT.with(|p| p.get());
        if auto {
            st.registered += 1;
        }
        let token = st.next_token;
        st.next_token += 1;
        // Channel-less waiters (sleeps, wildcard conds) spread over the
        // lanes by token so unrelated timers don't share a condvar.
        let lane = lane_of(if chan != 0 { chan } else { token | 1 });
        // A deadline already in the past fires immediately — the wait
        // degenerates to a timeout check.
        let state = if deadline.is_some_and(|d| d <= st.now_us) {
            WaitState::Fired
        } else {
            st.blocked += 1;
            WaitState::Blocked
        };
        st.waiters.insert(
            token,
            Waiter {
                deadline,
                kind,
                state,
                auto,
                chan,
                lane,
            },
        );
        token
    }

    fn remove_waiter(&self, st: &mut VState, token: u64) {
        let w = st.waiters.remove(&token).expect("waiter registered");
        debug_assert!(w.state != WaitState::Blocked, "removing a blocked waiter");
        if w.auto {
            st.registered -= 1;
            // This thread leaving may complete quiescence for the rest.
            self.maybe_advance(st);
        }
    }

    /// Advance iff every registered thread is blocked on the clock:
    /// jump to the earliest pending deadline and fire everything due.
    /// With no pending deadline this is a no-op (an unregistered
    /// external thread — e.g. a test main — may still act).
    fn maybe_advance(&self, st: &mut VState) {
        if st.registered == 0 || st.blocked < st.registered {
            return;
        }
        let Some(min_dl) = st
            .waiters
            .values()
            .filter(|w| w.state == WaitState::Blocked)
            .filter_map(|w| w.deadline)
            .min()
        else {
            return;
        };
        let delta = min_dl.saturating_sub(st.now_us);
        st.now_us = min_dl;
        if delta > 0 {
            // Mirror into the global fw-obs sim clock so stage spans
            // attribute virtual time alongside wall time.
            fw_obs::advance_sim_micros(delta);
        }
        let mut fired = 0u32;
        let mut mask = 0u64;
        for w in st.waiters.values_mut() {
            if w.state == WaitState::Blocked && w.deadline.is_some_and(|d| d <= min_dl) {
                w.state = WaitState::Fired;
                st.blocked -= 1;
                fired += 1;
                mask |= 1u64 << w.lane;
            }
        }
        st.trace.push((min_dl, fired));
        self.notify_lanes(mask);
    }

    /// [`ClockSource::sleep`] with explicit lease accounting: pass
    /// `counted = true` when the calling thread is already counted in
    /// `registered` by a connection lease (see [`thread_registered`]).
    pub fn sleep_counted(&self, d: Duration, counted: bool) {
        let dur = d.as_micros() as u64;
        if dur == 0 {
            return;
        }
        let st = self.state.lock();
        let deadline = st.now_us + dur;
        self.sleep_locked(st, deadline, counted);
    }

    /// Sleep until the absolute virtual time `deadline_us` (no-op if it
    /// has passed). `counted` as for [`VClock::sleep_counted`].
    pub fn sleep_until(&self, deadline_us: u64, counted: bool) {
        let st = self.state.lock();
        if deadline_us > st.now_us {
            self.sleep_locked(st, deadline_us, counted);
        }
    }

    fn sleep_locked(
        &self,
        mut st: parking_lot::MutexGuard<'_, VState>,
        deadline: u64,
        counted: bool,
    ) {
        let token = self.add_waiter(&mut st, Some(deadline), WaitKind::Sleep, counted, 0);
        self.maybe_advance(&mut st);
        loop {
            let w = st.waiters.get(&token).expect("waiter registered");
            let lane = w.lane;
            match w.state {
                WaitState::Blocked => self.lanes[lane as usize].wait(&mut st),
                // Sleep waiters are never notified, only fired.
                WaitState::Woken | WaitState::Fired => {
                    self.remove_waiter(&mut st, token);
                    return;
                }
            }
        }
    }
}

impl ClockSource for VClock {
    fn now_us(&self) -> u64 {
        self.state.lock().now_us
    }

    fn sleep(&self, d: Duration) {
        self.sleep_counted(d, false);
    }

    fn label(&self) -> &'static str {
        "sim"
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

/// A thread's claim on quiescence accounting, created with
/// [`VClock::register`] *before* the thread spawns.
pub struct Registration {
    clock: Option<Arc<VClock>>,
}

impl Registration {
    /// Bind the registration to the current thread. Hold the returned
    /// guard for the thread's whole lifetime.
    pub fn activate(mut self) -> ActiveRegistration {
        let clock = self.clock.take().expect("registration unused");
        PERSISTENT.with(|p| p.set(true));
        ActiveRegistration { clock }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        // Never activated (spawn failed): undo the registration.
        if let Some(clock) = self.clock.take() {
            let mut st = clock.state.lock();
            st.registered -= 1;
            clock.maybe_advance(&mut st);
        }
    }
}

/// RAII guard for an activated registration; deregisters on drop.
pub struct ActiveRegistration {
    clock: Arc<VClock>,
}

impl Drop for ActiveRegistration {
    fn drop(&mut self) {
        PERSISTENT.with(|p| p.set(false));
        let mut st = self.clock.state.lock();
        st.registered -= 1;
        self.clock.maybe_advance(&mut st);
    }
}

/// The time source of one simulated world. Cheap to clone; every
/// component of a world (pipes, SimNet, platform, prober) shares one.
#[derive(Debug, Clone)]
pub enum Clock {
    /// Real time (`--wall-clock`, TCP examples).
    Wall,
    /// Deterministic virtual time — the default for simulated worlds.
    Virtual(Arc<VClock>),
}

impl Clock {
    /// A fresh virtual clock at t = 0.
    pub fn new_virtual() -> Clock {
        Clock::Virtual(VClock::new())
    }

    /// The underlying virtual clock, if any.
    pub fn vclock(&self) -> Option<&Arc<VClock>> {
        match self {
            Clock::Wall => None,
            Clock::Virtual(vc) => Some(vc),
        }
    }

    /// Pre-spawn thread registration (no-op on the wall clock).
    pub fn register(&self) -> Option<Registration> {
        self.vclock().map(VClock::register)
    }

    /// Wake virtual condition waiters (no-op on the wall clock).
    pub fn notify(&self) {
        if let Clock::Virtual(vc) = self {
            vc.notify_waiters();
        }
    }

    /// Block until the absolute time `t_us` (this clock's
    /// [`ClockSource::now_us`] scale): a virtual sleep, or a real one on
    /// the wall clock.
    pub fn sleep_until(&self, t_us: u64) {
        match self {
            Clock::Wall => {
                let now = WallClock.now_us();
                if t_us > now {
                    std::thread::sleep(Duration::from_micros(t_us - now));
                }
            }
            Clock::Virtual(vc) => vc.sleep_until(t_us, false),
        }
    }

    /// Wake only the virtual waiters parked on `chan` (no-op on the
    /// wall clock). See [`VClock::notify_chan`].
    pub fn notify_chan(&self, chan: u64) {
        if let Clock::Virtual(vc) = self {
            vc.notify_chan(chan);
        }
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::new_virtual()
    }
}

impl ClockSource for Clock {
    fn now_us(&self) -> u64 {
        match self {
            Clock::Wall => WallClock.now_us(),
            Clock::Virtual(vc) => vc.now_us(),
        }
    }
    fn sleep(&self, d: Duration) {
        match self {
            Clock::Wall => WallClock.sleep(d),
            Clock::Virtual(vc) => vc.sleep(d),
        }
    }
    fn label(&self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual(_) => "sim",
        }
    }
    fn is_virtual(&self) -> bool {
        matches!(self, Clock::Virtual(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_advances_without_wall_time() {
        let clock = VClock::new();
        let wall = Instant::now();
        clock.sleep(Duration::from_secs(3600));
        assert_eq!(clock.now_us(), 3_600_000_000);
        assert!(wall.elapsed() < Duration::from_secs(5), "no real sleeping");
    }

    #[test]
    fn concurrent_sleep_chains_elapse_to_the_max() {
        let clock = VClock::new();
        let chains: &[&[u64]] = &[&[100, 200, 50], &[400], &[10, 10, 10, 10]];
        // Register every chain before spawning any: a lone registered
        // sleeper would otherwise be instant quiescence and race ahead.
        let regs: Vec<Registration> = chains.iter().map(|_| clock.register()).collect();
        let mut handles = Vec::new();
        for (chain, reg) in chains.iter().zip(regs) {
            let clock = clock.clone();
            let chain = chain.to_vec();
            handles.push(std::thread::spawn(move || {
                let _active = reg.activate();
                for ms in chain {
                    clock.sleep(Duration::from_millis(ms));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 400 ms is the longest chain; no chain loses a timer.
        assert_eq!(clock.now_us(), 400_000);
    }

    #[test]
    fn notify_releases_cond_waiter_without_advancing() {
        let clock = VClock::new();
        // Holding an unactivated registration models a runnable thread:
        // it pins `registered > blocked` so the deadline cannot fire
        // while the notifier is still about to act.
        let hold = clock.register();
        let reg = clock.register();
        let c2 = clock.clone();
        let waiter = std::thread::spawn(move || {
            let _active = reg.activate();
            let token = c2.prepare_wait(Some(c2.now_us() + 1_000_000));
            c2.complete_wait(token)
        });
        // Give the waiter a moment to block, then notify.
        std::thread::sleep(Duration::from_millis(30));
        clock.notify_waiters();
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Notified);
        assert_eq!(clock.now_us(), 0, "notification must not advance time");
        drop(hold);
    }

    #[test]
    fn notify_chan_wakes_only_the_matching_channel() {
        let clock = VClock::new();
        let hold = clock.register();
        let mk = |chan: u64| {
            let reg = clock.register();
            let c = clock.clone();
            std::thread::spawn(move || {
                let _active = reg.activate();
                let token = c.prepare_wait_chan(Some(c.now_us() + 1_000_000), false, chan);
                c.complete_wait(token)
            })
        };
        let a = mk(0x1000);
        let b = mk(0x2000);
        std::thread::sleep(Duration::from_millis(30));
        clock.notify_chan(0x1000);
        assert_eq!(a.join().unwrap(), WaitOutcome::Notified);
        // `b` must still be parked: its channel was not notified.
        std::thread::sleep(Duration::from_millis(30));
        assert!(!b.is_finished(), "chan 0x2000 must not wake on 0x1000");
        clock.notify_chan(0x2000);
        assert_eq!(b.join().unwrap(), WaitOutcome::Notified);
        assert_eq!(clock.now_us(), 0, "notification must not advance time");
        drop(hold);
    }

    #[test]
    fn wildcard_waiters_wake_on_any_channel() {
        let clock = VClock::new();
        let hold = clock.register();
        let reg = clock.register();
        let c = clock.clone();
        let w = std::thread::spawn(move || {
            let _active = reg.activate();
            let token = c.prepare_wait_chan(Some(c.now_us() + 1_000_000), false, 0);
            c.complete_wait(token)
        });
        std::thread::sleep(Duration::from_millis(30));
        clock.notify_chan(0xdead_beef);
        assert_eq!(w.join().unwrap(), WaitOutcome::Notified);
        drop(hold);
    }

    #[test]
    fn cond_deadline_fires_at_quiescence() {
        let clock = VClock::new();
        let token = clock.prepare_wait(Some(clock.now_us() + 250_000));
        assert_eq!(clock.complete_wait(token), WaitOutcome::TimedOut);
        assert_eq!(clock.now_us(), 250_000);
    }

    #[test]
    fn expired_deadline_times_out_immediately() {
        let clock = VClock::new();
        clock.sleep(Duration::from_millis(10));
        let token = clock.prepare_wait(Some(5_000)); // already in the past
        assert_eq!(clock.complete_wait(token), WaitOutcome::TimedOut);
        assert_eq!(clock.now_us(), 10_000, "no extra advance");
    }

    #[test]
    fn sleep_until_is_absolute_and_skips_the_past() {
        let clock = VClock::new();
        clock.sleep_until(7_000, false);
        assert_eq!(clock.now_us(), 7_000);
        clock.sleep_until(3_000, false); // already passed: no advance
        assert_eq!(clock.now_us(), 7_000);
        assert_eq!(clock.advance_trace(), vec![(7_000, 1)]);
    }

    #[test]
    fn trace_records_each_advance() {
        let clock = VClock::new();
        clock.sleep(Duration::from_millis(5));
        clock.sleep(Duration::from_millis(7));
        assert_eq!(clock.advance_trace(), vec![(5_000, 1), (12_000, 1)]);
    }

    #[test]
    fn wall_clock_labels_and_monotonic() {
        let w = WallClock;
        assert_eq!(w.label(), "wall");
        assert!(!w.is_virtual());
        let a = w.now_us();
        let b = w.now_us();
        assert!(b >= a);
        assert_eq!(Clock::Wall.label(), "wall");
        assert_eq!(Clock::default().label(), "sim");
    }
}
