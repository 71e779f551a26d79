//! The simulated internet.
//!
//! [`SimNet`] is a registry of listeners keyed by socket address. A client
//! [`SimNet::connect`]s to an address and receives a byte-stream
//! [`Connection`]. Listeners come in three kinds (DESIGN.md §18):
//!
//! * [`SimNet::listen`]: the handler runs on its own thread per
//!   connection with the other end of a duplex pipe, exactly as a
//!   blocking accept-loop server would — for long-lived stream handlers;
//! * [`SimNet::listen_pool`]: a fixed pool of accept workers;
//! * [`SimNet::listen_inline`]: a sans-IO [`Session`] runs on the
//!   *client's* thread, inside its `write_all` — no server thread, no
//!   pipe, no clock handoff for a request/response exchange.
//!
//! All connections pass through the fault layer ([`FaultConfig`]), and
//! global counters ([`NetStats`]) make fault behaviour observable.

use crate::conn::{pipe_pair_with_clock, Connection, PipeConn};
use crate::fault::{chunk_fate, ChunkFate, FaultConfig};
use crate::session::{Outbox, Session};
use crate::vclock::{Clock, ClockSource as _};
use parking_lot::{Condvar, Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server-side connection handler. Runs on a dedicated thread per
/// connection; returning closes the server end.
pub type Handler = Arc<dyn Fn(Box<dyn Connection>) + Send + Sync>;

/// Builds the [`Session`] of each connection to an inline listener.
pub type SessionFactory = Arc<dyn Fn() -> Box<dyn Session> + Send + Sync>;

/// How a listener accepts connections.
#[derive(Clone)]
enum Listener {
    /// One spawned thread per connection (the original model; fine for
    /// probe workloads where connections are long-lived relative to
    /// their number).
    Spawn(Handler),
    /// A fixed pool of pre-spawned, clock-registered workers with
    /// per-worker accept queues. Connections are steered to
    /// `flow % workers`, so a load harness partitioning clients the
    /// same way gets perfect affinity and zero cross-worker contention.
    Pool(Arc<AcceptPool>),
    /// A sans-IO session per connection, run on the client's thread.
    Inline(SessionFactory),
}

/// Accept queue for one pool worker.
struct AcceptQueue {
    state: Mutex<QueueState>,
    /// Wall-clock fallback (virtual worlds park on the clock instead).
    cv: Condvar,
    clock: Clock,
}

struct QueueState {
    conns: VecDeque<Box<dyn Connection>>,
    closed: bool,
    /// Workers parked on the virtual clock for this queue.
    vwaiters: u32,
}

impl AcceptQueue {
    fn new(clock: Clock) -> Arc<AcceptQueue> {
        Arc::new(AcceptQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
                vwaiters: 0,
            }),
            cv: Condvar::new(),
            clock,
        })
    }

    /// Wake channel: the queue's address (same convention as pipes).
    fn chan(self: &Arc<AcceptQueue>) -> u64 {
        Arc::as_ptr(self) as u64
    }

    /// Enqueue an accepted connection; dropped if the listener closed
    /// (the client then observes EOF, as with a refused accept).
    fn push(self: &Arc<AcceptQueue>, conn: Box<dyn Connection>) {
        let mut st = self.state.lock();
        if st.closed {
            return;
        }
        st.conns.push_back(conn);
        self.cv.notify_one();
        let wake = st.vwaiters > 0;
        drop(st);
        if wake {
            self.clock.notify_chan(self.chan());
        }
    }

    /// Close the queue: workers drain what is already queued, then exit.
    fn close(self: &Arc<AcceptQueue>) {
        let mut st = self.state.lock();
        st.closed = true;
        self.cv.notify_all();
        let wake = st.vwaiters > 0;
        drop(st);
        if wake {
            self.clock.notify_chan(self.chan());
        }
    }

    /// Blocking accept; `None` once closed and drained.
    fn accept(self: &Arc<AcceptQueue>) -> Option<Box<dyn Connection>> {
        let mut st = self.state.lock();
        loop {
            if let Some(c) = st.conns.pop_front() {
                return Some(c);
            }
            if st.closed {
                return None;
            }
            match self.clock.vclock() {
                Some(vc) => {
                    // Two-phase wait on the queue's channel; workers are
                    // persistently registered, so no deadline and no
                    // auto-registration: an idle worker is simply
                    // "blocked forever" to quiescence detection.
                    let token = vc.prepare_wait_chan(None, false, self.chan());
                    st.vwaiters += 1;
                    drop(st);
                    vc.complete_wait(token);
                    st = self.state.lock();
                    st.vwaiters -= 1;
                }
                None => self.cv.wait(&mut st),
            }
        }
    }
}

/// The per-worker queues of one pooled listener.
struct AcceptPool {
    queues: Vec<Arc<AcceptQueue>>,
}

impl AcceptPool {
    fn close(&self) {
        for q in &self.queues {
            q.close();
        }
    }
}

/// Global network counters.
#[derive(Debug, Default)]
pub struct NetStats {
    pub connections: AtomicU64,
    pub refused: AtomicU64,
    pub resets_injected: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub chunks_dropped: AtomicU64,
    pub chunks_corrupted: AtomicU64,
}

impl NetStats {
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.connections.load(Ordering::Relaxed),
            self.refused.load(Ordering::Relaxed),
            self.resets_injected.load(Ordering::Relaxed),
            self.bytes_sent.load(Ordering::Relaxed),
            self.chunks_dropped.load(Ordering::Relaxed),
            self.chunks_corrupted.load(Ordering::Relaxed),
        )
    }
}

struct Inner {
    listeners: RwLock<HashMap<SocketAddr, Listener>>,
    faults: RwLock<FaultConfig>,
    /// The world's time source. Virtual by default: timeouts and
    /// injected delays are discrete events, not real sleeps.
    clock: Clock,
    seed: u64,
    /// Per-flow connection ordinals: fault draws are keyed by
    /// `(seed, flow, ordinal)` so outcomes do not depend on how
    /// concurrent flows interleave (see [`SimNet::connect_for`]).
    flow_seq: Mutex<HashMap<u64, u64>>,
    stats: NetStats,
    next_client_port: AtomicU64,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Release pooled accept workers; they drain and exit. Without
        // this, a dropped world would leak parked worker threads.
        for listener in self.listeners.get_mut().values() {
            if let Listener::Pool(pool) = listener {
                pool.close();
            }
        }
    }
}

/// FNV-1a 64-bit, the flow-key hash (stable across processes, unlike
/// the std hasher).
use fw_types::fnv::fnv1a as fnv64;

/// splitmix64 finalizer: spreads structured seed material across the
/// whole word so nearby flows get unrelated RNG streams.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Handle to the simulated internet. Cheap to clone.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("listeners", &self.inner.listeners.read().len())
            .finish()
    }
}

impl SimNet {
    /// Create a healthy network with a seeded fault RNG, running on
    /// deterministic virtual time (see [`crate::vclock`]).
    pub fn new(seed: u64) -> SimNet {
        SimNet::with_clock(seed, Clock::new_virtual())
    }

    /// Like [`SimNet::new`], but on the real wall clock (the
    /// `--wall-clock` escape hatch: timeouts and injected delays sleep
    /// for real).
    pub fn new_wall(seed: u64) -> SimNet {
        SimNet::with_clock(seed, Clock::Wall)
    }

    /// Create a network with an explicit time source.
    pub fn with_clock(seed: u64, clock: Clock) -> SimNet {
        SimNet {
            inner: Arc::new(Inner {
                listeners: RwLock::new(HashMap::new()),
                faults: RwLock::new(FaultConfig::default()),
                clock,
                seed,
                flow_seq: Mutex::new(HashMap::new()),
                stats: NetStats::default(),
                next_client_port: AtomicU64::new(40_000),
            }),
        }
    }

    /// The world's time source.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Install a listener. Replaces any previous listener on the address.
    pub fn listen(&self, addr: SocketAddr, handler: Handler) {
        self.install(addr, Listener::Spawn(handler));
    }

    /// Convenience wrapper taking a closure.
    pub fn listen_fn<F>(&self, addr: SocketAddr, f: F)
    where
        F: Fn(Box<dyn Connection>) + Send + Sync + 'static,
    {
        self.listen(addr, Arc::new(f));
    }

    /// Install a pooled listener: `workers` pre-spawned, clock-registered
    /// accept loops, each fed by its own queue. `factory(w)` builds the
    /// per-worker handler (so each worker can own mutable scratch state
    /// with no locking); connections steer to `flow % workers` — the
    /// flow being the id given to [`SimNet::connect_flow_id`], or the
    /// flow key of [`SimNet::connect_for`].
    ///
    /// Unlike [`SimNet::listen`], handlers run *on the worker*, so a
    /// worker serves one connection at a time; suited to short
    /// request/response exchanges (the fw-serve plane), not long-lived
    /// streams.
    pub fn listen_pool<F, H>(&self, addr: SocketAddr, workers: usize, mut factory: F)
    where
        F: FnMut(usize) -> H,
        H: FnMut(Box<dyn Connection>) + Send + 'static,
    {
        let workers = workers.max(1);
        let mut queues = Vec::with_capacity(workers);
        for w in 0..workers {
            let q = AcceptQueue::new(self.inner.clock.clone());
            let mut handler = factory(w);
            // Register before spawning so the clock cannot advance in
            // the window where the worker exists but has not parked yet.
            let registration = self.inner.clock.register();
            let worker_q = q.clone();
            std::thread::Builder::new()
                .name(format!("sim-accept-{addr}-{w}"))
                .spawn(move || {
                    let _active = registration.map(|r| r.activate());
                    while let Some(conn) = worker_q.accept() {
                        handler(conn);
                    }
                })
                .expect("spawn accept worker");
            queues.push(q);
        }
        self.install(addr, Listener::Pool(Arc::new(AcceptPool { queues })));
    }

    /// Install an inline listener: each connection gets a fresh
    /// session from `factory`, run on the connecting thread. The
    /// client's `write_all` feeds it (after the fault layer) with no
    /// lock held, so a session may take its own locks or open nested
    /// connections — but since it runs on the client's thread, a client
    /// must not hold across a write a lock its server takes. Replies
    /// land in the client's receive buffer. A read
    /// that finds bytes waiting never touches the clock; only a delayed
    /// reply or an empty buffer waits, until the earlier of the read
    /// timeout and the reply's release time (a real sleep on the wall
    /// clock).
    pub fn listen_inline<F>(&self, addr: SocketAddr, factory: F)
    where
        F: Fn() -> Box<dyn Session> + Send + Sync + 'static,
    {
        self.install(addr, Listener::Inline(Arc::new(factory)));
    }

    fn install(&self, addr: SocketAddr, listener: Listener) {
        let prev = self.inner.listeners.write().insert(addr, listener);
        if let Some(Listener::Pool(pool)) = prev {
            pool.close();
        }
    }

    /// Remove a listener; future connects are refused. A pooled
    /// listener's workers drain their queues and exit.
    pub fn unlisten(&self, addr: &SocketAddr) {
        let prev = self.inner.listeners.write().remove(addr);
        if let Some(Listener::Pool(pool)) = prev {
            pool.close();
        }
    }

    /// Number of registered listeners.
    pub fn listener_count(&self) -> usize {
        self.inner.listeners.read().len()
    }

    /// Replace the fault configuration.
    pub fn set_faults(&self, config: FaultConfig) {
        config.validate().expect("invalid fault config");
        *self.inner.faults.write() = config;
    }

    /// Network counters.
    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }

    /// Open a connection to `addr`. The listener's handler is started on
    /// its own thread with the server end. Fault draws are keyed by the
    /// target address; concurrent callers hitting the same address
    /// should prefer [`SimNet::connect_for`] with a distinguishing flow
    /// name.
    pub fn connect(&self, addr: SocketAddr) -> io::Result<Box<dyn Connection>> {
        self.connect_for(addr, "")
    }

    /// Open a connection to `addr` as part of the named `flow` (e.g. the
    /// fqdn being probed). All fault decisions for the connection come
    /// from an RNG seeded by `(net seed, flow, addr, per-flow ordinal)`,
    /// so a multi-threaded client gets identical outcomes run-to-run no
    /// matter how its workers interleave — as long as each flow's own
    /// connects stay ordered (the prober probes one domain sequentially).
    pub fn connect_for(&self, addr: SocketAddr, flow: &str) -> io::Result<Box<dyn Connection>> {
        let key = fnv64(flow.as_bytes()) ^ fnv64(addr.to_string().as_bytes());
        let ordinal = {
            let mut seq = self.inner.flow_seq.lock();
            let slot = seq.entry(key).or_insert(0);
            let o = *slot;
            *slot += 1;
            o
        };
        self.connect_seeded(
            addr,
            mix(self.inner.seed ^ key ^ ordinal.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            key,
        )
    }

    /// [`SimNet::connect_for`] for callers that already have a unique
    /// numeric flow identity (e.g. a load-harness client id) and open
    /// **one** connection per flow. Skips the per-flow ordinal table and
    /// the string hashing entirely — with millions of one-shot clients
    /// the ordinal map would only grow without ever disambiguating
    /// anything — while keeping fault draws deterministic per
    /// `(net seed, flow_id)`.
    pub fn connect_flow_id(
        &self,
        addr: SocketAddr,
        flow_id: u64,
    ) -> io::Result<Box<dyn Connection>> {
        self.connect_seeded(addr, mix(self.inner.seed ^ mix(flow_id)), flow_id)
    }

    /// `steer` picks the worker of a pooled listener (`steer % workers`);
    /// it never feeds the fault RNG, so spawn- and pool-mode listeners
    /// observe identical fault draws for the same flow.
    fn connect_seeded(
        &self,
        addr: SocketAddr,
        conn_seed: u64,
        steer: u64,
    ) -> io::Result<Box<dyn Connection>> {
        let faults = *self.inner.faults.read();
        let mut rng = SmallRng::seed_from_u64(conn_seed);
        if faults.refuse_chance > 0.0 && rng.gen_bool(faults.refuse_chance) {
            self.inner.stats.refused.fetch_add(1, Ordering::Relaxed);
            fw_obs::counter_inc!("fw.net.refused");
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "connection refused (injected fault)",
            ));
        }
        let listener = match self.inner.listeners.read().get(&addr) {
            Some(l) => l.clone(),
            None => {
                self.inner.stats.refused.fetch_add(1, Ordering::Relaxed);
                fw_obs::counter_inc!("fw.net.refused");
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("nothing listening on {addr}"),
                ));
            }
        };
        // Injected hard reset right after establishment.
        let reset = faults.reset_chance > 0.0 && rng.gen_bool(faults.reset_chance);
        if reset {
            self.inner
                .stats
                .resets_injected
                .fetch_add(1, Ordering::Relaxed);
            fw_obs::counter_inc!("fw.net.resets_injected");
        }
        self.inner.stats.connections.fetch_add(1, Ordering::Relaxed);
        fw_obs::counter_inc!("fw.net.connections");
        // Each end draws chunk fates from its own stream of the
        // connection seed, so server scheduling cannot reorder the
        // client's draws.
        let server_rng = SmallRng::seed_from_u64(conn_seed ^ SERVER_STREAM);
        // Connection lifetimes overlap arbitrarily with the opening
        // stack, so they trace as async (Chrome `b`/`e`) events keyed by
        // target port rather than nested sync spans.
        let trace = fw_obs::trace_async("net/conn", addr.port() as u64);
        match listener {
            Listener::Inline(factory) => Ok(Box::new(InlineConn::new(
                factory(),
                self.inner.clone(),
                addr,
                [rng, server_rng],
                reset,
                trace,
            ))),
            Listener::Spawn(handler) => {
                let (client, server) = self.pipe_ends(addr, [rng, server_rng], reset, trace);
                // Register the handler thread with the virtual clock *before*
                // spawning it, so the clock cannot advance in the window where
                // the thread exists but has not run yet.
                let registration = self.inner.clock.register();
                std::thread::Builder::new()
                    .name(format!("sim-handler-{addr}"))
                    .spawn(move || {
                        let _active = registration.map(|r| r.activate());
                        handler(server)
                    })
                    .map_err(io::Error::other)?;
                Ok(client)
            }
            Listener::Pool(pool) => {
                let (client, server) = self.pipe_ends(addr, [rng, server_rng], reset, trace);
                // No spawn: hand the server end to the steered worker's
                // queue. The worker is already registered and parked.
                let w = (steer % pool.queues.len() as u64) as usize;
                pool.queues[w].push(server);
                Ok(client)
            }
        }
    }

    /// The two ends of a piped connection, each behind the fault layer
    /// with its own stream: `[client, server]`.
    fn pipe_ends(
        &self,
        addr: SocketAddr,
        [rng, server_rng]: [SmallRng; 2],
        reset: bool,
        trace: fw_obs::AsyncSpan,
    ) -> (Box<dyn Connection>, Box<dyn Connection>) {
        let port = self.inner.next_client_port.fetch_add(1, Ordering::Relaxed);
        let client_addr = SocketAddr::new(
            IpAddr::V4(Ipv4Addr::new(100, 64, (port >> 8) as u8 & 0x3f, port as u8)),
            (20_000 + (port % 40_000)) as u16,
        );
        let (mut client_end, server_end) =
            pipe_pair_with_clock(client_addr, addr, self.inner.clock.clone());
        // A caller with no persistent clock registration (a test main,
        // an example) is invisible to quiescence detection, so the
        // client end leases a registration for the connection's
        // lifetime — without it, the handler blocking on its idle
        // timeout would be instant quiescence and the timeout would
        // fire while the client is still composing its request.
        if let Some(vc) = self.inner.clock.vclock() {
            if !crate::vclock::thread_registered() {
                client_end.set_lease(vc.register());
            }
        }
        if reset {
            client_end.inject_reset();
        }
        let server = Box::new(FaultedConn {
            inner: server_end,
            rng: server_rng,
            net: self.inner.clone(),
            _trace: None,
        });
        let client = Box::new(FaultedConn {
            inner: client_end,
            rng,
            net: self.inner.clone(),
            _trace: Some(trace),
        });
        (client, server)
    }
}

/// Seed offset of a connection's server → client fault stream.
const SERVER_STREAM: u64 = 0x5ca1_ab1e_0000_0001;

impl Inner {
    /// Count one written chunk and draw its fate from `rng`, one
    /// direction's stream. Returns the fate and the injected delay (µs).
    fn draw_fate(&self, len: usize, rng: &mut SmallRng) -> (ChunkFate, u64) {
        let faults = *self.faults.read();
        self.stats
            .bytes_sent
            .fetch_add(len as u64, Ordering::Relaxed);
        fw_obs::counter_add!("fw.net.bytes_sent", len as u64);
        let fate = chunk_fate(&faults, len, rng);
        match fate {
            ChunkFate::Deliver => {}
            ChunkFate::Drop => {
                self.stats.chunks_dropped.fetch_add(1, Ordering::Relaxed);
                fw_obs::counter_inc!("fw.net.chunks_dropped");
            }
            ChunkFate::Corrupt(_) => {
                self.stats.chunks_corrupted.fetch_add(1, Ordering::Relaxed);
                fw_obs::counter_inc!("fw.net.chunks_corrupted");
            }
        }
        (fate, faults.delay_us)
    }

    /// Sleep an injected write delay. On the virtual clock it is a
    /// scheduled event (mirrored into the fw-obs sim counter by the
    /// clock); the wall clock sleeps for real and mirrors the delay
    /// explicitly so span timings still attribute it. `leased`: the
    /// writer's wait counts against a connection lease.
    fn inject_delay(&self, us: u64, leased: bool) {
        match &self.clock {
            Clock::Virtual(vc) => vc.sleep_counted(Duration::from_micros(us), leased),
            Clock::Wall => {
                fw_obs::advance_sim_micros(us);
                std::thread::sleep(Duration::from_micros(us));
            }
        }
    }
}

/// A pipe endpoint whose writes pass through the fault layer, drawing
/// fates from its own per-connection RNG.
struct FaultedConn {
    inner: PipeConn,
    rng: SmallRng,
    net: Arc<Inner>,
    /// Open async trace span bracketing the connection's lifetime
    /// (client end only; the guard's drop emits the AsyncEnd event).
    _trace: Option<fw_obs::AsyncSpan>,
}

impl std::fmt::Debug for FaultedConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultedConn")
            .field("inner", &self.inner)
            .finish()
    }
}

impl Connection for FaultedConn {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let (fate, delay_us) = self.net.draw_fate(buf.len(), &mut self.rng);
        if delay_us > 0 {
            // A leased endpoint's sleep counts against the lease (see
            // `PipeConn::set_lease`), not a fresh registration.
            self.net.inject_delay(delay_us, self.inner.is_leased());
        }
        match fate {
            ChunkFate::Deliver => self.inner.write_all(buf),
            ChunkFate::Drop => Ok(()), // silently vanishes: the peer will time out
            ChunkFate::Corrupt(off) => {
                let mut copy = buf.to_vec();
                copy[off] ^= 0x20;
                self.inner.write_all(&copy)
            }
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn shutdown_write(&mut self) {
        self.inner.shutdown_write()
    }

    fn peer_addr(&self) -> SocketAddr {
        self.inner.peer_addr()
    }
}

/// When the server side of an inline connection closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fin {
    Open,
    /// Closed once the clock reaches this time (after delayed replies).
    At(u64),
    Closed,
}

/// The client end of an inline connection: it owns the server's
/// session and runs it inside `write_all`.
struct InlineConn {
    session: Box<dyn Session>,
    /// Reused reply buffer of the session.
    out: Outbox,
    net: Arc<Inner>,
    /// Client → server fault stream.
    rng: SmallRng,
    /// Server → client fault stream.
    server_rng: SmallRng,
    peer: SocketAddr,
    read_timeout: Option<Duration>,
    /// Reply bytes released to the client; `rx_pos` is the read cursor.
    rx: Vec<u8>,
    rx_pos: usize,
    /// Delayed replies: `(release time, bytes)`, in release order.
    pending: VecDeque<(u64, Vec<u8>)>,
    /// When the server finishes its last delayed write; 0 while no
    /// write was ever delayed, so the no-delay path never reads the
    /// clock.
    busy_until: u64,
    fin: Fin,
    reset: bool,
    /// The client shut down its write side.
    client_fin: bool,
    _trace: fw_obs::AsyncSpan,
}

impl std::fmt::Debug for InlineConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InlineConn")
            .field("peer", &self.peer)
            .field("fin", &self.fin)
            .finish()
    }
}

impl InlineConn {
    /// The client end of an inline connection to `peer`, with the
    /// connection's `[client, server]` fault streams.
    fn new(
        session: Box<dyn Session>,
        net: Arc<Inner>,
        peer: SocketAddr,
        [rng, server_rng]: [SmallRng; 2],
        reset: bool,
        trace: fw_obs::AsyncSpan,
    ) -> InlineConn {
        InlineConn {
            session,
            out: Outbox::new(),
            net,
            rng,
            server_rng,
            peer,
            read_timeout: None,
            rx: Vec::new(),
            rx_pos: 0,
            pending: VecDeque::new(),
            busy_until: 0,
            fin: Fin::Open,
            reset,
            client_fin: false,
            _trace: trace,
        }
    }

    /// Move the session's queued writes towards the client: each one
    /// draws its fate from the server stream, as a blocking handler's
    /// `write_all` would, and lands in `rx` now or in `pending` at its
    /// release time. Delays accumulate like the sleeps of one server
    /// thread: a write waits for the writes before it.
    fn absorb(&mut self) {
        let mut now = None;
        for (delay, bytes) in self.out.writes() {
            let (fate, fault_us) = self.net.draw_fate(bytes.len(), &mut self.server_rng);
            let wait = delay.as_micros() as u64 + fault_us;
            let release = if wait == 0 && self.busy_until == 0 {
                None
            } else {
                let now = *now.get_or_insert_with(|| self.net.clock.now_us());
                self.busy_until = self.busy_until.max(now) + wait;
                Some(self.busy_until)
            };
            let mut corrupted;
            let bytes = match fate {
                ChunkFate::Drop => continue,
                ChunkFate::Deliver => bytes,
                ChunkFate::Corrupt(off) => {
                    corrupted = bytes.to_vec();
                    corrupted[off] ^= 0x20;
                    &corrupted[..]
                }
            };
            match release {
                None => self.rx.extend_from_slice(bytes),
                Some(at) => self.pending.push_back((at, bytes.to_vec())),
            }
        }
        if self.out.is_closed() && self.fin == Fin::Open {
            self.fin = match self.busy_until {
                0 => Fin::Closed,
                at => Fin::At(at),
            };
        }
        self.out.clear();
    }

    /// Release everything due by `now`.
    fn release(&mut self, now: u64) {
        while let Some((at, _)) = self.pending.front() {
            if *at > now {
                break;
            }
            let (_, bytes) = self.pending.pop_front().expect("front exists");
            self.rx.extend_from_slice(&bytes);
        }
        if let Fin::At(at) = self.fin {
            if at <= now && self.pending.is_empty() {
                self.fin = Fin::Closed;
            }
        }
    }

    /// Has the server closed by now?
    fn server_closed(&mut self) -> bool {
        if let Fin::At(_) = self.fin {
            let now = self.net.clock.now_us();
            self.release(now);
        }
        self.fin == Fin::Closed
    }
}

impl Connection for InlineConn {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let (fate, delay_us) = self.net.draw_fate(buf.len(), &mut self.rng);
        if delay_us > 0 {
            self.net.inject_delay(delay_us, false);
        }
        let mut corrupted;
        let bytes = match fate {
            ChunkFate::Drop => return Ok(()), // the session never sees it
            ChunkFate::Deliver => buf,
            ChunkFate::Corrupt(off) => {
                corrupted = buf.to_vec();
                corrupted[off] ^= 0x20;
                &corrupted[..]
            }
        };
        if self.reset {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "connection reset",
            ));
        }
        if self.server_closed() {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer closed read side",
            ));
        }
        if self.client_fin {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "write after shutdown",
            ));
        }
        // A session that has closed (its close still pending behind a
        // delayed reply) reads nothing more.
        if !self.out.is_closed() {
            self.session.feed(bytes, &mut self.out);
            self.absorb();
        }
        Ok(())
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut deadline = None;
        loop {
            if self.reset {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "connection reset",
                ));
            }
            let ready = self.rx.len() - self.rx_pos;
            if ready > 0 {
                let n = ready.min(buf.len());
                buf[..n].copy_from_slice(&self.rx[self.rx_pos..self.rx_pos + n]);
                self.rx_pos += n;
                if self.rx_pos == self.rx.len() {
                    self.rx.clear();
                    self.rx_pos = 0;
                }
                return Ok(n);
            }
            // Nothing buffered: the next event is a delayed reply or a
            // delayed close, if any.
            let next = match (self.pending.front(), self.fin) {
                (Some((at, _)), _) => Some(*at),
                (None, Fin::At(at)) => Some(at),
                (None, Fin::Closed) => return Ok(0), // clean EOF
                (None, Fin::Open) => None,
            };
            let now = self.net.clock.now_us();
            let deadline = *deadline
                .get_or_insert_with(|| self.read_timeout.map(|t| now + t.as_micros() as u64));
            match next {
                Some(at) if at <= now => self.release(now),
                // The reply comes strictly before the deadline (a tie
                // times out, as a read deadline and a server's wake
                // firing in one clock advance do).
                Some(at) if deadline.is_none_or(|d| at < d) => {
                    self.net.clock.sleep_until(at);
                    self.release(at);
                }
                _ => {
                    let Some(d) = deadline else {
                        // No thread will ever answer: the session only
                        // runs when this client writes.
                        return Err(io::Error::new(
                            io::ErrorKind::WouldBlock,
                            "inline session awaits input; a read without a timeout would block forever",
                        ));
                    };
                    self.net.clock.sleep_until(d);
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "read timed out"));
                }
            }
        }
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        Ok(())
    }

    fn shutdown_write(&mut self) {
        if self.client_fin {
            return;
        }
        self.client_fin = true;
        if !self.reset && !self.out.is_closed() {
            self.session.finish(&mut self.out);
            self.absorb();
        }
    }

    fn peer_addr(&self) -> SocketAddr {
        self.peer
    }
}

impl Drop for InlineConn {
    fn drop(&mut self) {
        // A blocking handler reads EOF when its client goes away and
        // runs the session's end; do the same, so its last writes (a
        // 400 for a cut-off request) still draw fates and count bytes.
        self.shutdown_write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_handler() -> Handler {
        Arc::new(|mut conn: Box<dyn Connection>| {
            let mut buf = [0u8; 1024];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if conn.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        })
    }

    fn addr(last: u8, port: u16) -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::new(203, 0, 113, last)), port)
    }

    #[test]
    fn connect_and_echo() {
        let net = SimNet::new(1);
        net.listen(addr(1, 80), echo_handler());
        let mut conn = net.connect(addr(1, 80)).unwrap();
        conn.write_all(b"ping").unwrap();
        let mut buf = [0u8; 16];
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let n = conn.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    fn connect_to_nothing_is_refused() {
        let net = SimNet::new(1);
        let err = net.connect(addr(9, 80)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(net.stats().refused.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unlisten_refuses_future_connects() {
        let net = SimNet::new(1);
        net.listen(addr(1, 80), echo_handler());
        assert!(net.connect(addr(1, 80)).is_ok());
        net.unlisten(&addr(1, 80));
        assert!(net.connect(addr(1, 80)).is_err());
    }

    #[test]
    fn injected_refusals_respect_probability() {
        let net = SimNet::new(42);
        net.listen(addr(1, 80), echo_handler());
        net.set_faults(FaultConfig {
            refuse_chance: 1.0,
            ..FaultConfig::default()
        });
        for _ in 0..10 {
            assert!(net.connect(addr(1, 80)).is_err());
        }
    }

    #[test]
    fn injected_reset_surfaces_as_connection_reset() {
        let net = SimNet::new(7);
        net.listen(addr(1, 80), echo_handler());
        net.set_faults(FaultConfig {
            reset_chance: 1.0,
            ..FaultConfig::default()
        });
        let mut conn = net.connect(addr(1, 80)).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut buf = [0u8; 4];
        let kind = match conn.write_all(b"ping") {
            Err(e) => e.kind(),
            Ok(()) => conn.read(&mut buf).unwrap_err().kind(),
        };
        assert_eq!(kind, io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn dropped_chunks_cause_peer_timeout() {
        let net = SimNet::new(5);
        net.listen(addr(1, 80), echo_handler());
        net.set_faults(FaultConfig {
            drop_chance: 1.0,
            ..FaultConfig::default()
        });
        let mut conn = net.connect(addr(1, 80)).unwrap();
        conn.write_all(b"lost").unwrap(); // vanishes
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            conn.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert!(net.stats().chunks_dropped.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let net = SimNet::new(9);
        net.listen(addr(1, 80), echo_handler());
        net.set_faults(FaultConfig {
            corrupt_chance: 1.0,
            ..FaultConfig::default()
        });
        let mut conn = net.connect(addr(1, 80)).unwrap();
        conn.write_all(b"aaaa").unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).unwrap();
        // The echo server ALSO corrupts its reply (both directions pass the
        // fault layer), so 0, 1 or 2 bytes differ (two flips at the same
        // offset cancel out). The counters prove both flips happened.
        let diff = buf.iter().filter(|b| **b != b'a').count();
        assert!(diff <= 2, "diff = {diff}, buf = {buf:?}");
        assert!(net.stats().chunks_corrupted.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn many_concurrent_connections() {
        let net = SimNet::new(3);
        net.listen(addr(1, 80), echo_handler());
        let mut handles = Vec::new();
        for i in 0..32u8 {
            let net = net.clone();
            handles.push(std::thread::spawn(move || {
                let mut conn = net.connect(addr(1, 80)).unwrap();
                let msg = vec![i; 128];
                conn.write_all(&msg).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                let mut buf = vec![0u8; 128];
                conn.read_exact(&mut buf).unwrap();
                assert_eq!(buf, msg);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(net.stats().connections.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn pooled_listener_echoes_and_steers_by_flow_id() {
        let net = SimNet::new(21);
        // Each worker answers with its own index, proving steering.
        net.listen_pool(addr(1, 80), 2, |w| {
            move |mut conn: Box<dyn Connection>| {
                let mut buf = [0u8; 64];
                while let Ok(n) = conn.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    if conn.write_all(&[w as u8]).is_err() {
                        break;
                    }
                }
            }
        });
        for id in 0..6u64 {
            let mut conn = net.connect_flow_id(addr(1, 80), id).unwrap();
            conn.write_all(b"ping").unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut buf = [0u8; 1];
            conn.read_exact(&mut buf).unwrap();
            assert_eq!(u64::from(buf[0]), id % 2, "flow {id} steered wrong");
        }
    }

    #[test]
    fn pooled_workers_keep_per_worker_state() {
        let net = SimNet::new(22);
        // A per-worker counter (no locks) survives across connections.
        net.listen_pool(addr(2, 80), 1, |_w| {
            let mut served = 0u8;
            move |mut conn: Box<dyn Connection>| {
                served += 1;
                let mut buf = [0u8; 8];
                let _ = conn.read(&mut buf);
                let _ = conn.write_all(&[served]);
            }
        });
        for expect in 1..=3u8 {
            let mut conn = net.connect_flow_id(addr(2, 80), 0).unwrap();
            conn.write_all(b"x").unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut buf = [0u8; 1];
            conn.read_exact(&mut buf).unwrap();
            assert_eq!(buf[0], expect);
        }
    }

    #[test]
    fn unlisten_shuts_down_pool_and_refuses() {
        let net = SimNet::new(23);
        net.listen_pool(addr(3, 80), 2, |_w| {
            move |mut conn: Box<dyn Connection>| {
                let mut buf = [0u8; 8];
                let _ = conn.read(&mut buf);
                let _ = conn.write_all(b"ok");
            }
        });
        assert!(net.connect_flow_id(addr(3, 80), 1).is_ok());
        net.unlisten(&addr(3, 80));
        assert!(net.connect_flow_id(addr(3, 80), 2).is_err());
    }

    #[test]
    fn distinct_client_addresses() {
        let net = SimNet::new(11);
        net.listen(addr(1, 80), echo_handler());
        let c1 = net.connect(addr(1, 80)).unwrap();
        let c2 = net.connect(addr(1, 80)).unwrap();
        assert_eq!(c1.peer_addr(), addr(1, 80));
        assert_eq!(c2.peer_addr(), addr(1, 80));
    }

    /// Echoes each write; `d<ms>` answers after that many ms and `c`
    /// closes after answering.
    struct Script;

    impl Session for Script {
        fn feed(&mut self, input: &[u8], out: &mut Outbox) {
            let text = std::str::from_utf8(input).unwrap();
            let delay = text
                .strip_prefix('d')
                .and_then(|ms| ms.trim_end_matches('c').parse().ok())
                .map_or(Duration::ZERO, Duration::from_millis);
            out.send_with(delay, |buf| buf.extend_from_slice(input));
            if text.ends_with('c') {
                out.close();
            }
        }
        fn finish(&mut self, out: &mut Outbox) {
            out.close();
        }
    }

    fn inline_net(seed: u64, clock: Clock) -> SimNet {
        let net = SimNet::with_clock(seed, clock);
        net.listen_inline(addr(5, 80), || Box::new(Script));
        net
    }

    fn read_string(conn: &mut dyn Connection) -> io::Result<String> {
        let mut buf = [0u8; 64];
        let n = conn.read(&mut buf)?;
        Ok(String::from_utf8_lossy(&buf[..n]).into_owned())
    }

    #[test]
    fn inline_replies_cost_no_virtual_time() {
        let net = inline_net(31, Clock::new_virtual());
        let mut conn = net.connect(addr(5, 80)).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        for msg in ["ping", "pong"] {
            conn.write_all(msg.as_bytes()).unwrap();
            assert_eq!(read_string(conn.as_mut()).unwrap(), msg);
        }
        assert_eq!(net.clock().now_us(), 0);
        // Nothing pending: the read waits out its own deadline.
        assert_eq!(
            conn.read(&mut [0u8; 4]).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(net.clock().now_us(), 50_000);
    }

    #[test]
    fn inline_delayed_reply_and_close_release_at_their_time() {
        let net = inline_net(32, Clock::new_virtual());
        let clock = net.clock().clone();
        let mut conn = net.connect(addr(5, 80)).unwrap();
        conn.write_all(b"d30c").unwrap();
        // A read deadline before the release times out at the deadline.
        conn.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(
            read_string(conn.as_mut()).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(clock.now_us(), 20_000);
        // The next read gets the reply at its release time, then EOF:
        // the close waited for the delayed bytes.
        assert_eq!(read_string(conn.as_mut()).unwrap(), "d30c");
        assert_eq!(clock.now_us(), 30_000);
        assert_eq!(read_string(conn.as_mut()).unwrap(), "");
        assert_eq!(
            conn.write_all(b"x").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }

    #[test]
    fn inline_read_without_timeout_or_pending_reply_would_block() {
        let net = inline_net(33, Clock::new_virtual());
        let mut conn = net.connect(addr(5, 80)).unwrap();
        assert_eq!(
            conn.read(&mut [0u8; 4]).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        conn.shutdown_write();
        assert_eq!(conn.read(&mut [0u8; 4]).unwrap(), 0, "finish closed it");
    }

    #[test]
    fn inline_reset_and_dropped_chunks_follow_the_fault_layer() {
        let net = inline_net(34, Clock::new_virtual());
        net.set_faults(FaultConfig {
            reset_chance: 1.0,
            ..FaultConfig::default()
        });
        let mut conn = net.connect(addr(5, 80)).unwrap();
        assert_eq!(
            conn.write_all(b"ping").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        net.set_faults(FaultConfig {
            drop_chance: 1.0,
            ..FaultConfig::default()
        });
        let mut conn = net.connect(addr(5, 80)).unwrap();
        conn.write_all(b"lost").unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(
            conn.read(&mut [0u8; 4]).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(net.stats().chunks_dropped.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn inline_delay_is_a_real_sleep_on_the_wall_clock() {
        let net = inline_net(35, Clock::Wall);
        let mut conn = net.connect(addr(5, 80)).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let start = std::time::Instant::now();
        conn.write_all(b"d20").unwrap();
        assert_eq!(read_string(conn.as_mut()).unwrap(), "d20");
        assert!(start.elapsed() >= Duration::from_millis(20));
    }
}
