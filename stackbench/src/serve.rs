//! The serving part of a run (`serve_read`), and the `serve_write`
//! diagnostic: closed-loop RESP over loopback against the kvstore
//! [`Reactor`], with the durable command log on real files. Halfway
//! through each round both connections pause for one `SAVE`; after the round
//! the server shuts down and is reopened, and the recovered graph is checked.
//!
//! Each connection runs on its own client thread and owns the source nodes
//! `u` with `u % CONNS == conn`. It reads and writes only those, so every
//! reply is fixed by the preload plus that connection's own earlier writes,
//! which its model ([`ConnModel`]) tracks. Expected replies are encoded by the
//! benchmark ([`crate::wire`]) and compared byte for byte.
//!
//! A traced run replays the same command stream (regenerated from the seed)
//! through the public layer functions on one thread without sockets, and
//! attributes the live burst time to those layers; `reactor.residual_us` is
//! what remains (socket I/O, queue hops and wakeups).

use crate::report::{median, proc_status_mib, quantile, Outcome, QUIET_LOW};
use crate::rng::SplitMix;
use crate::trace::{close, open, Tracer};
use crate::wire;
use cuckoograph::{ReadCounters, ShardedWeightedCuckooGraph};
use graph_api::EdgeExport;
use graph_datasets::{generate, DatasetKind};
use graph_durability::{
    check_header, scan_frames, AofWriter, DurabilityConfig, Manifest, RecoveryMode, StdVfs,
    SyncPolicy, Vfs,
};
use kvstore::persist::{
    decode_command, encode_command, KV_AOF_FILE, KV_MANIFEST_FILE, KV_RDB_MAGIC,
};
use kvstore::server::DEFAULT_GRAPH_SHARDS;
use kvstore::{
    CommandClass, CuckooGraphModule, DurableServer, Reactor, Reply, Server, ServerConfig, Session,
};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Which command mix the connections send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 90% `GRAPH.DEGREE` / `HASEDGE` / `SUCCESSORS`, 10% `GRAPH.ADDEDGE`.
    Read,
    /// `GRAPH.ADDEDGE` and `GRAPH.DELEDGE` at 3:1.
    Write,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Read => "serve_read",
            Mix::Write => "serve_write",
        }
    }
}

/// Client connections, one client thread each: one per CPU of the 2-vCPU
/// host the reference figures come from.
const CONNS: usize = 2;

/// Input size, load shape and round length of one run.
#[derive(Debug, Clone, Copy)]
pub struct ServeSize {
    /// The generator's dataset shape for the preload.
    pub kind: DatasetKind,
    /// Fraction of the dataset's published counts used for the preload.
    pub preload_scale: f64,
    /// Commands per burst (pipeline depth).
    pub depth: usize,
    /// Bursts each connection sends per round.
    pub bursts: u64,
}

/// The WikiTalk-shaped preload is about 188 k distinct edges over 60 k
/// nodes; a round is 2 x 2500 bursts of 16 commands.
pub const READ: ServeSize = ServeSize {
    kind: DatasetKind::WikiTalk,
    preload_scale: 0.02,
    depth: 16,
    bursts: 2500,
};

/// The same load shape over the paper's constant-degree-6 graph: 180 k
/// edges over 30 k nodes.
pub const READ_SPARSE: ServeSize = ServeSize {
    kind: DatasetKind::SparseGraph,
    preload_scale: 0.006,
    ..READ
};

/// The same preload and load shape as [`READ`]; a round is 2 x 1000 bursts
/// of writes.
pub const WRITE: ServeSize = ServeSize {
    bursts: 1000,
    ..READ
};

/// `GRAPH.ADDEDGE` commands per preload batch.
const PRELOAD_BATCH: usize = 4096;

/// Consecutive bursts of one connection whose median round trip is one
/// sample of `p50_us`.
const WINDOW: usize = 250;

/// Times the durable server is reopened after each round; `recover_s` takes
/// the quickest, and the last is checked.
const REOPENS: usize = 3;

/// The distinct edges of a preload stream and the node-id universe.
fn distinct_edges(stream: Vec<(u64, u64)>) -> (Vec<(u64, u64)>, u64) {
    let mut seen = HashSet::with_capacity(stream.len());
    let edges: Vec<(u64, u64)> = stream.into_iter().filter(|e| seen.insert(*e)).collect();
    let universe = edges.iter().map(|&(u, v)| u.max(v)).max().unwrap_or(0) + 1;
    (edges, universe)
}

fn command_parts(name: &str, ids: &[u64]) -> Vec<String> {
    std::iter::once(name.to_string())
        .chain(ids.iter().map(u64::to_string))
        .collect()
}

/// One connection's command stream and the model that predicts its replies.
#[derive(Debug)]
pub struct ConnModel {
    conn: u64,
    universe: u64,
    mix: Mix,
    rng: SplitMix,
    /// Successor sets of this connection's sources.
    succ: HashMap<u64, BTreeSet<u64>>,
    /// This connection's preloaded sources (read targets).
    sources: Vec<u64>,
    /// Edges this connection added and has not deleted yet (`serve_write`).
    added: Vec<(u64, u64)>,
    /// Repeated adds of an existing edge, each one more unit of weight.
    extra_weight: HashMap<(u64, u64), u64>,
    commands: u64,
}

/// One pipelined burst: the wire bytes and the expected reply per command.
#[derive(Debug)]
pub struct Burst {
    pub wire: Vec<u8>,
    pub expected: Vec<Vec<u8>>,
}

impl ConnModel {
    pub fn new(conn: usize, preload: &[(u64, u64)], universe: u64, seed: u64, mix: Mix) -> Self {
        let conn = conn as u64;
        let conns = CONNS as u64;
        let mut succ: HashMap<u64, BTreeSet<u64>> = HashMap::new();
        for &(u, v) in preload.iter().filter(|e| e.0 % conns == conn) {
            succ.entry(u).or_default().insert(v);
        }
        let mut sources: Vec<u64> = succ.keys().copied().collect();
        sources.sort_unstable();
        Self {
            conn,
            universe,
            mix,
            rng: SplitMix::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (conn + 1)),
            succ,
            sources,
            added: Vec::new(),
            extra_weight: HashMap::new(),
            commands: 0,
        }
    }

    /// Every edge the model holds, with its weight.
    pub fn edges(&self) -> impl Iterator<Item = ((u64, u64), u64)> + '_ {
        self.succ.iter().flat_map(move |(&u, vs)| {
            vs.iter()
                .map(move |&v| ((u, v), 1 + self.extra_weight.get(&(u, v)).unwrap_or(&0)))
        })
    }

    /// Drops one edge (a delete; also used to show that the checker
    /// catches a wrong model).
    pub fn forget(&mut self, edge: (u64, u64)) -> bool {
        self.extra_weight.remove(&edge);
        self.succ
            .get_mut(&edge.0)
            .is_some_and(|vs| vs.remove(&edge.1))
    }

    fn pick_source(&mut self) -> u64 {
        self.sources[self.rng.below(self.sources.len() as u64) as usize]
    }

    fn add(&mut self, wire_out: &mut Vec<u8>, u: u64, v: u64) -> Vec<u8> {
        wire::push_graph_command(wire_out, "GRAPH.ADDEDGE", &[u, v]);
        if !self.succ.entry(u).or_default().insert(v) {
            *self.extra_weight.entry((u, v)).or_default() += 1;
        }
        wire::ok()
    }

    fn next_read_mix(&mut self, out: &mut Vec<u8>) -> Vec<u8> {
        let roll = self.rng.below(100);
        let u = self.pick_source();
        if roll < 10 {
            let v = self.rng.below(self.universe);
            return self.add(out, u, v);
        }
        let succ = self.succ.get(&u);
        let degree = succ.map_or(0, BTreeSet::len);
        if roll < 40 {
            wire::push_graph_command(out, "GRAPH.DEGREE", &[u]);
            wire::integer(degree as i64)
        } else if roll < 70 {
            let v = match succ {
                Some(vs) if degree > 0 && self.rng.below(2) == 0 => *vs
                    .iter()
                    .nth(self.rng.below(degree as u64) as usize)
                    .expect("in range"),
                _ => self.rng.below(self.universe),
            };
            wire::push_graph_command(out, "GRAPH.HASEDGE", &[u, v]);
            let present = succ.is_some_and(|vs| vs.contains(&v));
            wire::integer(i64::from(present))
        } else {
            wire::push_graph_command(out, "GRAPH.SUCCESSORS", &[u]);
            match succ {
                Some(vs) => wire::id_array(vs.iter()),
                None => wire::id_array([].iter()),
            }
        }
    }

    fn next_write_mix(&mut self, out: &mut Vec<u8>) -> Vec<u8> {
        if self.commands % 4 == 3 && !self.added.is_empty() {
            let i = self.rng.below(self.added.len() as u64) as usize;
            let (u, v) = self.added.swap_remove(i);
            wire::push_graph_command(out, "GRAPH.DELEDGE", &[u, v]);
            self.forget((u, v));
            return wire::ok();
        }
        // A fresh edge from one of this connection's nodes.
        loop {
            let conns = CONNS as u64;
            let u = self.conn + conns * self.rng.below(self.universe / conns);
            let v = self.rng.below(self.universe);
            if !self.succ.get(&u).is_some_and(|vs| vs.contains(&v)) {
                self.added.push((u, v));
                return self.add(out, u, v);
            }
        }
    }

    pub fn next_burst(&mut self, depth: usize) -> Burst {
        let mut wire_out = Vec::with_capacity(depth * 40);
        let expected = (0..depth)
            .map(|_| {
                let reply = match self.mix {
                    Mix::Read => self.next_read_mix(&mut wire_out),
                    Mix::Write => self.next_write_mix(&mut wire_out),
                };
                self.commands += 1;
                reply
            })
            .collect();
        Burst {
            wire: wire_out,
            expected,
        }
    }
}

fn make_server() -> Server {
    let mut server = Server::new();
    server.load_module(Box::new(CuckooGraphModule::new()));
    server
}

fn durability_config(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir.to_string_lossy()).with_sync_policy(SyncPolicy::EverySecond)
}

fn open_durable(dir: &Path) -> (DurableServer<StdVfs>, graph_durability::RecoveryReport) {
    DurableServer::open(StdVfs, durability_config(dir), make_server).expect("open durable server")
}

/// Loads the preload through the logged batch path, as a client would.
/// Returns how many commands were not acknowledged with `+OK`.
fn preload_into(durable: &mut DurableServer<StdVfs>, preload: &[(u64, u64)]) -> u64 {
    let mut failed = 0;
    for chunk in preload.chunks(PRELOAD_BATCH) {
        let batch: Vec<Vec<String>> = chunk
            .iter()
            .map(|&(u, v)| command_parts("GRAPH.ADDEDGE", &[u, v]))
            .collect();
        let replies = durable.execute_batch(&batch);
        failed += replies.iter().filter(|r| !matches!(r, Reply::Ok)).count() as u64;
    }
    failed
}

fn connect(reactor: &Reactor) -> TcpStream {
    let stream = TcpStream::connect(reactor.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

/// A spawned serving stack with connected clients.
struct Stack {
    /// Wall time of the program's part of set-up: generating the preload,
    /// opening the durable server, loading the preload, spawning the
    /// reactor and connecting.
    setup_s: f64,
    reactor: Reactor,
    streams: Vec<TcpStream>,
    /// Per connection: the round's bursts, generated before the clock
    /// starts so the load generator spends little CPU while measured.
    plans: Vec<Vec<Burst>>,
    /// Per connection: the model after the whole round.
    models: Vec<ConnModel>,
    preload_len: usize,
}

/// Sets up one round. The benchmark's own work (deduplicating the preload,
/// the models and the burst plans) runs outside the set-up clock.
fn set_up(seed: u64, size: ServeSize, mix: Mix, dir: &Path, out: &mut Outcome) -> Stack {
    let t = Instant::now();
    let stream = generate(size.kind, size.preload_scale, seed).raw_edges;
    let generate_time = t.elapsed();

    let (preload, universe) = distinct_edges(stream);
    let mut models: Vec<ConnModel> = (0..CONNS)
        .map(|c| ConnModel::new(c, &preload, universe, seed, mix))
        .collect();
    let plans = models
        .iter_mut()
        .map(|m| (0..size.bursts).map(|_| m.next_burst(size.depth)).collect())
        .collect();

    let t = Instant::now();
    let (mut durable, _) = open_durable(dir);
    let failed = preload_into(&mut durable, &preload);
    let reactor = Reactor::spawn(durable, ServerConfig::new()).expect("spawn reactor");
    let streams = (0..CONNS).map(|_| connect(&reactor)).collect();
    let setup_s = (generate_time + t.elapsed()).as_secs_f64();
    out.attempted += preload.len() as u64;
    out.failed += failed;
    Stack {
        setup_s,
        reactor,
        streams,
        plans,
        models,
        preload_len: preload.len(),
    }
}

/// What one client thread saw.
struct ClientRun {
    /// Time spent paused around the `SAVE`.
    paused: Duration,
    /// Start and end of every burst round trip (the `SAVE` excluded).
    bursts: Vec<(Instant, Instant)>,
    acked: u64,
    attempted: u64,
    failed: u64,
    first_mismatch: Option<String>,
}

/// A client connection with its receive buffers.
struct Conn {
    stream: TcpStream,
    /// Received bytes not yet matched to a reply.
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            chunk: vec![0; 64 * 1024],
        }
    }

    /// Reads until `n` complete replies sit at the start of `buf`, returning
    /// the end offset of each.
    fn read_replies(&mut self, n: usize) -> std::io::Result<Vec<usize>> {
        let mut ends = Vec::with_capacity(n);
        let mut pos = 0;
        while ends.len() < n {
            match wire::reply_end(&self.buf, pos) {
                Some(end) => {
                    ends.push(end);
                    pos = end;
                }
                None => {
                    let got = self.stream.read(&mut self.chunk)?;
                    if got == 0 {
                        return Err(std::io::ErrorKind::UnexpectedEof.into());
                    }
                    self.buf.extend_from_slice(&self.chunk[..got]);
                }
            }
        }
        Ok(ends)
    }

    /// Sends one burst, reads one reply per command and checks each against
    /// the model's expectation. Returns the round trip, or `None` if the
    /// connection failed.
    fn exchange(&mut self, burst: &Burst, run: &mut ClientRun) -> Option<(Instant, Instant)> {
        let n = burst.expected.len();
        run.attempted += n as u64;
        let t0 = Instant::now();
        let ends = self
            .stream
            .write_all(&burst.wire)
            .and_then(|()| self.read_replies(n));
        let t1 = Instant::now();
        let ends = match ends {
            Ok(ends) => ends,
            Err(e) => {
                run.failed += n as u64;
                run.first_mismatch
                    .get_or_insert(format!("connection error: {e}"));
                return None;
            }
        };
        run.acked += n as u64;
        let mut from = 0;
        for (end, want) in ends.iter().zip(&burst.expected) {
            let got = &self.buf[from..*end];
            if got != want.as_slice() {
                run.failed += 1;
                run.first_mismatch
                    .get_or_insert_with(|| format!("expected {} got {}", show(want), show(got)));
            }
            from = *end;
        }
        self.buf.drain(..from);
        Some((t0, t1))
    }
}

fn show(bytes: &[u8]) -> String {
    String::from_utf8_lossy(&bytes[..bytes.len().min(80)])
        .escape_debug()
        .to_string()
}

/// The midpoint `SAVE` of a round. Every connection pauses after
/// `after` bursts and connection 0 sends `SAVE` while the others wait, so no
/// other write shares the writer's batch with it: a `SAVE` batched ahead of
/// other writes snapshots a log offset past writes it does not hold, and
/// those acknowledged writes are lost on recovery (see the README).
struct SavePoint {
    after: usize,
    barrier: Arc<Barrier>,
    send: bool,
}

/// One closed-loop connection: send a burst, wait for every reply, check
/// them, for every burst of `plan`.
fn client(stream: TcpStream, plan: &[Burst], save: Option<SavePoint>) -> ClientRun {
    let mut run = ClientRun {
        paused: Duration::ZERO,
        bursts: Vec::with_capacity(plan.len()),
        acked: 0,
        attempted: 0,
        failed: 0,
        first_mismatch: None,
    };
    let mut conn = Conn::new(stream);
    let mut broken = false;
    for (b, burst) in plan.iter().enumerate() {
        if let Some(p) = save.as_ref().filter(|p| p.after == b) {
            // A broken connection still meets the barrier, so no peer waits
            // forever. The pause is timed from the moment every connection
            // has arrived, so only the `SAVE` itself is excluded.
            p.barrier.wait();
            let paused = Instant::now();
            if p.send && !broken {
                let mut wire_out = Vec::new();
                wire::push_command(&mut wire_out, &[b"SAVE"]);
                let burst = Burst {
                    wire: wire_out,
                    expected: vec![wire::ok()],
                };
                broken = conn.exchange(&burst, &mut run).is_none();
            }
            p.barrier.wait();
            run.paused = paused.elapsed();
        }
        if broken {
            continue;
        }
        match conn.exchange(burst, &mut run) {
            Some(span) => run.bursts.push(span),
            None => broken = true,
        }
    }
    run
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

fn graph_edges(graph: &ShardedWeightedCuckooGraph) -> Vec<(u64, u64, u64)> {
    let mut edges = Vec::new();
    graph.for_each_edge_record(&mut |r| edges.push((r.source, r.target, r.weight)));
    edges
}

/// What one round measured.
#[derive(Debug, Default)]
struct Round {
    setup_s: f64,
    kops: f64,
    p50_us: f64,
    /// Median round trip of every [`WINDOW`] bursts of each connection.
    window_p50_us: Vec<f64>,
    p99_us: f64,
    samples: usize,
    bursts: Vec<u64>,
    counters: ReadCounters,
    recover_s: f64,
    disk_bytes_per_edge: f64,
    frames_replayed: u64,
    preload_len: usize,
}

/// One round: set up a fresh stack, run every connection's bursts closed
/// loop, shut down, reopen and check the recovered graph against the union
/// of the connection models.
fn round(
    mix: Mix,
    seed: u64,
    size: ServeSize,
    dir: &Path,
    id: u64,
    out: &mut Outcome,
    tracer: Option<&mut Tracer>,
) -> Round {
    let Stack {
        setup_s,
        reactor,
        streams,
        plans,
        models,
        preload_len,
    } = set_up(seed, size, mix, dir, out);
    let mut r = Round {
        setup_s,
        preload_len,
        ..Default::default()
    };

    let before = reactor.read_counters();
    let barrier = Arc::new(Barrier::new(CONNS + 1));
    let save_barrier = Arc::new(Barrier::new(CONNS));
    let handles: Vec<_> = streams
        .into_iter()
        .zip(plans)
        .enumerate()
        .map(|(c, (stream, plan))| {
            let barrier = Arc::clone(&barrier);
            let save = Some(SavePoint {
                after: plan.len() / 2,
                barrier: Arc::clone(&save_barrier),
                send: c == 0,
            });
            std::thread::spawn(move || {
                barrier.wait();
                client(stream, &plan, save)
            })
        })
        .collect();
    barrier.wait();
    let origin = Instant::now();
    let runs: Vec<ClientRun> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let after = reactor.read_counters();
    reactor.shutdown();

    let end = runs
        .iter()
        .filter_map(|run| run.bursts.last().map(|b| b.1))
        .max()
        .unwrap_or(origin);
    let lat: Vec<f64> = runs
        .iter()
        .flat_map(|run| run.bursts.iter())
        .map(|&(t0, t1)| t1.duration_since(t0).as_secs_f64() * 1e6)
        .collect();
    let acked: u64 = runs.iter().map(|run| run.acked).sum();
    // The pause around the `SAVE` is not serving time.
    let paused = runs.iter().map(|run| run.paused).max().unwrap_or_default();
    let serving = end.duration_since(origin).saturating_sub(paused);
    r.kops = acked as f64 / serving.as_secs_f64().max(1e-9) / 1e3;
    r.p50_us = median(&lat);
    for run in &runs {
        for window in run.bursts.chunks(WINDOW) {
            let lat: Vec<f64> = window
                .iter()
                .map(|&(t0, t1)| t1.duration_since(t0).as_secs_f64() * 1e6)
                .collect();
            r.window_p50_us.push(median(&lat));
        }
    }
    r.p99_us = quantile(&lat, 0.99);
    r.samples = lat.len();
    r.bursts = runs.iter().map(|run| run.bursts.len() as u64).collect();
    r.counters = ReadCounters {
        reader_retries: after.reader_retries - before.reader_retries,
        read_pins: after.read_pins - before.read_pins,
        epoch_advances: after.epoch_advances - before.epoch_advances,
    };
    for run in &runs {
        out.attempted += run.attempted;
        out.failed += run.failed;
        if let Some(m) = &run.first_mismatch {
            out.notes.push(format!("{}: MISMATCH {m}", mix.name()));
        }
    }
    if let Some(tracer) = tracer {
        for (c, run) in runs.iter().enumerate() {
            for (i, &(t0, t1)) in run.bursts.iter().enumerate() {
                tracer.record(
                    "client.burst",
                    (id << 48) | ((c as u64) << 40) | i as u64,
                    t0,
                    t1,
                );
            }
        }
    }

    let disk = dir_bytes(dir);
    let mut reopen_s = Vec::with_capacity(REOPENS);
    let mut reopened = None;
    for _ in 0..REOPENS {
        drop(reopened.take());
        let t = Instant::now();
        reopened = Some(open_durable(dir));
        reopen_s.push(t.elapsed().as_secs_f64());
    }
    let (durable, report) = reopened.expect("reopened at least once");
    r.recover_s = quantile(&reopen_s, 0.0);
    r.frames_replayed = report.frames_replayed;
    let models: Vec<&ConnModel> = models.iter().collect();
    let check = check_recovered(durable.server().graph(), &models);
    out.attempted += check.checked;
    out.failed += check.failed();
    if check.failed() > 0 {
        out.notes.push(format!(
            "{} round {id}: MISMATCH after recovery: {check:?}",
            mix.name()
        ));
    }
    let live_edges = durable.server().graph().read_view().edge_count();
    r.disk_bytes_per_edge = disk as f64 / live_edges.max(1) as f64;
    r
}

/// Runs one serve workload: whole rounds until `seconds` have passed.
pub fn run(
    mix: Mix,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: ServeSize,
    data: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let base = data.join(format!("{}-{}", mix.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut tracer = Tracer::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let id = rounds.len() as u64;
        if id > 0 {
            let _ = std::fs::remove_dir_all(base.join(format!("round{}", id - 1)));
        }
        let dir = base.join(format!("round{id}"));
        let r = round(
            mix,
            seed,
            size,
            &dir,
            id,
            &mut out,
            trace.then_some(&mut tracer),
        );
        out.notes.push(format!(
            "{} round {id}: setup {:.3} s, {:.2} kops, burst p50 {:.1} us p99 {:.1} us \
             over {} bursts, recover {:.3} s ({} frames after the snapshot)",
            mix.name(),
            r.setup_s,
            r.kops,
            r.p50_us,
            r.p99_us,
            r.samples,
            r.recover_s,
            r.frames_replayed
        ));
        rounds.push(r);
        if id == 0 {
            // Freed memory is not all returned to the OS between rounds, so
            // the peak is read once the first round is over: one set-up and
            // one round of work in a fresh process.
            peak_rss_mb = proc_status_mib("VmHWM");
        }
    }
    let last_dir = base.join(format!("round{}", rounds.len() - 1));
    out.notes.insert(
        0,
        format!(
            "{}: preload {} edges, {} connections x depth {}, {} bursts per connection per round, \
             ServerConfig::new(), sync EverySecond; {} rounds in {:.2} s",
            mix.name(),
            rounds[0].preload_len,
            CONNS,
            size.depth,
            size.bursts,
            rounds.len(),
            start.elapsed().as_secs_f64()
        ),
    );
    let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let q = |f: fn(&Round) -> f64, at: f64| quantile(&rounds.iter().map(f).collect::<Vec<_>>(), at);
    // Interference lasts shorter than a round, so the quieter quartile is
    // taken over windows of bursts rather than over whole rounds.
    let windows: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.window_p50_us.iter().copied())
        .collect();
    let p50_us = quantile(&windows, QUIET_LOW);

    out.setup_s = med(|r| r.setup_s);
    out.peak_rss_mb = peak_rss_mb;
    if !trace {
        out.push("p50_us", "us", p50_us);
        out.push("recover_s", "s", q(|r| r.recover_s, QUIET_LOW));
        out.push("disk_bytes_per_edge", "B", med(|r| r.disk_bytes_per_edge));
        let _ = std::fs::remove_dir_all(&base);
        return out;
    }

    // Traced run: replay one round's command stream on one thread.
    let last = rounds.last().expect("one round");
    let per_sec = last.kops * 1e3 / size.depth as f64;
    let replay = replay(
        mix,
        seed,
        size,
        &last.bursts,
        per_sec,
        &base.join("replay"),
        &mut tracer,
    );
    out.attempted += replay.attempted;
    out.failed += replay.failed;

    let cmds = replay.commands.max(1) as f64;
    let per_cmd = |name: &str| tracer.total(name).0 as f64 / cmds;
    let per_span_us = |name: &str| {
        let (ns, n) = tracer.total(name);
        ns as f64 / n.max(1) as f64 / 1e3
    };
    let bursts = replay.bursts.max(1) as f64;
    let per_burst_us = |name: &str| tracer.total(name).0 as f64 / bursts / 1e3;
    let inproc_us = per_burst_us("replay.burst");
    out.push("kvstore.decode_ns", "ns", per_cmd("kvstore.decode"));
    out.push("kvstore.classify_ns", "ns", per_cmd("kvstore.classify"));
    out.push("kvstore.encode_ns", "ns", per_cmd("kvstore.encode"));
    out.push("reactor.inproc_us_per_burst", "us", inproc_us);
    out.push("reactor.residual_us", "us", p50_us - inproc_us);
    out.push("trace.live_p50_us", "us", p50_us);
    // The burst tail and the closed-loop throughput, which the tail drags
    // down, move between runs with the host's scheduling and wakeup latency
    // far more than any bound allows, so they are reported here, ungated,
    // rather than as end-to-end metrics.
    out.push("trace.live_p99_us", "us", q(|r| r.p99_us, QUIET_LOW));
    out.push("trace.live_kops", "kops", q(|r| r.kops, 1.0 - QUIET_LOW));
    let layers = [
        "kvstore.decode",
        "kvstore.classify",
        "core.read_view",
        "kvstore.graph_read",
        "kvstore.execute_batch",
        "kvstore.encode",
    ];
    let named: f64 = layers.iter().map(|l| per_burst_us(l)).sum();
    out.notes.push(format!(
        "{} replay: {} bursts replayed; live p50 {p50_us:.2} us = {} + glue {:.2} + residual {:.2} us",
        mix.name(),
        replay.bursts,
        layers
            .iter()
            .map(|l| format!("{l} {:.2}", per_burst_us(l)))
            .collect::<Vec<_>>()
            .join(" + "),
        inproc_us - named,
        p50_us - inproc_us
    ));
    if mix == Mix::Read {
        let (view_ns, views) = tracer.total("core.read_view");
        out.push(
            "core.read_view_ns",
            "ns",
            view_ns as f64 / views.max(1) as f64,
        );
        out.push(
            "kvstore.graph_read_ns",
            "ns",
            tracer.total("kvstore.graph_read").0 as f64 / replay.reads.max(1) as f64,
        );
        out.push(
            "core.read_pins",
            "count",
            med(|r| r.counters.read_pins as f64),
        );
        out.push(
            "core.reader_retries",
            "count",
            med(|r| r.counters.reader_retries as f64),
        );
        out.push(
            "core.epoch_advances",
            "count",
            med(|r| r.counters.epoch_advances as f64),
        );
    }
    out.push(
        "kvstore.execute_batch_us",
        "us",
        per_span_us("kvstore.execute_batch"),
    );
    out.push(
        "durability.append_us",
        "us",
        per_span_us("durability.append"),
    );
    out.push(
        "core.fanout_us_per_run",
        "us",
        per_span_us("core.fanout_run"),
    );
    out.push(
        "kvstore.runs_per_batch",
        "count",
        replay.runs as f64 / bursts,
    );
    out.push(
        "core.threads_per_batch",
        "count",
        replay.shard_groups as f64 / bursts,
    );
    out.push(
        "durability.sync_ms",
        "ms",
        per_span_us("durability.sync") / 1e3,
    );
    out.push(
        "kvstore.inmem_log_entries",
        "count",
        replay.inmem_log_entries as f64,
    );
    let snapshot = Manifest::load(&StdVfs, &last_dir.join(KV_MANIFEST_FILE).to_string_lossy())
        .and_then(|m| {
            m.generations
                .first()
                .map(|g| file_len(&last_dir.join(&g.snapshot)))
        })
        .unwrap_or(0.0);
    out.push(
        "durability.aof_bytes",
        "B",
        file_len(&last_dir.join(KV_AOF_FILE)),
    );
    out.push("durability.snapshot_bytes", "B", snapshot);
    out.push(
        "durability.frames_replayed",
        "count",
        last.frames_replayed as f64,
    );
    let (load_s, replay_s) = decompose_recovery(&last_dir);
    out.push("durability.snapshot_load_s", "s", load_s);
    out.push("durability.replay_s", "s", replay_s);
    out.traces.push((mix.name(), tracer));
    let _ = std::fs::remove_dir_all(&base);
    out
}

/// Compares the recovered graph with the union of the connection models,
/// weights included.
#[derive(Debug, Default)]
struct RecoveryCheck {
    checked: u64,
    /// Recovered edges the models do not hold.
    extra: u64,
    /// Model edges the recovered graph lacks.
    missing: u64,
    /// Recovered edges whose weight differs from the model's.
    bad_weight: u64,
    /// The graph's own edge count disagrees with the model.
    bad_count: bool,
}

impl RecoveryCheck {
    fn failed(&self) -> u64 {
        self.extra + self.missing + self.bad_weight + u64::from(self.bad_count)
    }
}

fn check_recovered(graph: &ShardedWeightedCuckooGraph, models: &[&ConnModel]) -> RecoveryCheck {
    let want: HashMap<(u64, u64), u64> = models.iter().flat_map(|m| m.edges()).collect();
    let got = graph_edges(graph);
    let got_set: HashSet<(u64, u64)> = got.iter().map(|&(u, v, _)| (u, v)).collect();
    RecoveryCheck {
        checked: want.len() as u64 + 1,
        extra: got_set.iter().filter(|e| !want.contains_key(e)).count() as u64,
        missing: want.keys().filter(|e| !got_set.contains(e)).count() as u64,
        bad_weight: got
            .iter()
            .filter(|&&(u, v, w)| want.get(&(u, v)).is_some_and(|&m| m != w))
            .count() as u64,
        bad_count: graph.read_view().edge_count() != want.len(),
    }
}

/// Times the two halves of recovery through their public pieces: loading
/// the newest snapshot, then replaying the log suffix after it.
fn decompose_recovery(dir: &Path) -> (f64, f64) {
    let Some(gen) = Manifest::load(&StdVfs, &dir.join(KV_MANIFEST_FILE).to_string_lossy())
        .and_then(|m| m.generations.first().cloned())
    else {
        return (0.0, 0.0);
    };
    let mut server = make_server();
    let t = Instant::now();
    let snap_path = dir.join(&gen.snapshot);
    let bytes = std::fs::read(&snap_path).unwrap_or_default();
    let name = snap_path.to_string_lossy();
    let mut rdb = Vec::new();
    if check_header(&bytes, KV_RDB_MAGIC, RecoveryMode::Strict, &name).is_ok() {
        let _ = scan_frames(&bytes, 8, RecoveryMode::Strict, &name, |p| {
            if rdb.is_empty() {
                rdb = p.to_vec();
            }
        });
    }
    let loaded = server.load_rdb(&rdb).is_ok();
    let load_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let aof_path = dir.join(KV_AOF_FILE);
    let aof = std::fs::read(&aof_path).unwrap_or_default();
    let _ = scan_frames(
        &aof,
        gen.aof_offset,
        RecoveryMode::TolerateTornTail,
        &aof_path.to_string_lossy(),
        |p| {
            if let Some(parts) = decode_command(p) {
                server.execute(&parts);
            }
        },
    );
    let replay_s = t.elapsed().as_secs_f64();
    if !loaded {
        return (0.0, replay_s);
    }
    (load_s, replay_s)
}

/// Counts from the single-thread replay.
#[derive(Debug, Default)]
struct Replay {
    bursts: u64,
    commands: u64,
    reads: u64,
    runs: u64,
    shard_groups: u64,
    inmem_log_entries: usize,
    attempted: u64,
    failed: u64,
}

/// Replays every connection's command stream, burst by burst in turn,
/// through `Session` decode, `Server::classify_command`, the read view and
/// `Server::graph_read_reply` (reads), `DurableServer::execute_batch`
/// (writes and the reads queued behind them, as the reactor routes them)
/// and `Server::encode_reply_into`. Each burst's writes are also appended
/// to a separate `AofWriter` and applied to a separate sharded graph run by
/// run, to time those layers on their own, with one `AofWriter::sync` per
/// second of live traffic and one at the end. Every burst is recorded as
/// spans.
fn replay(
    mix: Mix,
    seed: u64,
    size: ServeSize,
    bursts: &[u64],
    live_bursts_per_sec: f64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Replay {
    let mut rep = Replay::default();
    let stream = generate(size.kind, size.preload_scale, seed).raw_edges;
    let (preload, universe) = distinct_edges(stream);
    let mut models: Vec<ConnModel> = (0..CONNS)
        .map(|c| ConnModel::new(c, &preload, universe, seed, mix))
        .collect();
    let (mut durable, _) = open_durable(&dir.join("server"));
    rep.failed += preload_into(&mut durable, &preload);
    let graph = durable.server().shared_graph();
    let mut sessions: Vec<Session> = (0..CONNS).map(|_| Session::new()).collect();

    let log_dir = dir.join("aof");
    std::fs::create_dir_all(&log_dir).expect("replay log directory");
    let file = StdVfs
        .open_append(&log_dir.join("replay.aof").to_string_lossy())
        .expect("replay log");
    let mut aof = AofWriter::new(file, SyncPolicy::Never, 0);
    let sharded = ShardedWeightedCuckooGraph::new(DEFAULT_GRAPH_SHARDS);
    let triples: Vec<(u64, u64, u64)> = preload.iter().map(|&(u, v)| (u, v, 1)).collect();
    sharded.ingest_weighted_batch(&triples);
    let sync_every = (live_bursts_per_sec.round() as u64).max(1);

    let rounds = bursts.iter().copied().max().unwrap_or(0);
    for b in 0..rounds {
        for c in 0..CONNS {
            if b >= bursts[c] {
                continue;
            }
            let burst = models[c].next_burst(size.depth);
            let group = ((c as u64) << 40) | b;
            let mut t = Some(&mut *tracer);
            let root = open(&mut t, "replay.burst", group, None);
            let s = open(&mut t, "kvstore.decode", group, root);
            sessions[c].push_bytes(&burst.wire);
            let mut commands: Vec<Vec<String>> = Vec::with_capacity(size.depth);
            while let Ok(Some(value)) = sessions[c].next_value() {
                commands.push(value.into_command().unwrap_or_default());
            }
            close(&mut t, s);

            let s = open(&mut t, "kvstore.classify", group, root);
            let names: Vec<String> = commands
                .iter()
                .map(|p| p.first().map_or(String::new(), |n| n.to_ascii_lowercase()))
                .collect();
            let classes: Vec<CommandClass> =
                names.iter().map(|n| Server::classify_command(n)).collect();
            close(&mut t, s);

            // Reads answer inline until the first write; from then on the
            // connection has a write in flight and everything queues.
            let mut replies: Vec<Vec<u8>> = vec![Vec::new(); commands.len()];
            let mut queued: Vec<usize> = Vec::new();
            {
                let mut view = None;
                for (i, parts) in commands.iter().enumerate() {
                    if queued.is_empty() && classes[i] == CommandClass::GraphRead {
                        if view.is_none() {
                            let s = open(&mut t, "core.read_view", group, root);
                            view = Some(graph.read_view());
                            close(&mut t, s);
                        }
                        let snap = view.as_ref().expect("view opened above");
                        let s = open(&mut t, "kvstore.graph_read", group, root);
                        let reply = Server::graph_read_reply(snap, &names[i], &parts[1..]);
                        close(&mut t, s);
                        let s = open(&mut t, "kvstore.encode", group, root);
                        Server::encode_reply_into(&reply, &mut replies[i]);
                        close(&mut t, s);
                        rep.reads += 1;
                    } else {
                        queued.push(i);
                    }
                }
            }
            let mut writes: Vec<(bool, u64, u64)> = Vec::new();
            if !queued.is_empty() {
                let batch: Vec<Vec<String>> = queued.iter().map(|&i| commands[i].clone()).collect();
                let s = open(&mut t, "kvstore.execute_batch", group, root);
                let batch_replies = durable.execute_batch(&batch);
                close(&mut t, s);
                let s = open(&mut t, "kvstore.encode", group, root);
                for (&i, reply) in queued.iter().zip(&batch_replies) {
                    Server::encode_reply_into(reply, &mut replies[i]);
                }
                close(&mut t, s);
                for &i in &queued {
                    let insert = names[i] == "graph.addedge";
                    if insert || names[i] == "graph.deledge" {
                        if let Ok((u, v, _)) =
                            Server::parse_graph_write(&names[i], &commands[i][1..])
                        {
                            writes.push((insert, u, v));
                        }
                    }
                }
            }
            close(&mut t, root);

            rep.bursts += 1;
            rep.commands += commands.len() as u64;
            rep.attempted += burst.expected.len() as u64;
            rep.failed += replies
                .iter()
                .zip(&burst.expected)
                .filter(|(got, want)| got != want)
                .count() as u64;
            rep.failed += burst.expected.len().abs_diff(replies.len()) as u64;

            replay_write_layers(&writes, &mut aof, &sharded, group, &mut t, &mut rep);
            if rep.bursts % sync_every == 0 {
                let s = tracer.begin("durability.sync", group, None);
                let _ = aof.sync();
                tracer.end(s);
            }
        }
    }
    // A round can be shorter than one sync interval: sync what it appended.
    let s = tracer.begin("durability.sync", rep.bursts, None);
    let _ = aof.sync();
    tracer.end(s);
    rep.inmem_log_entries = durable.server().aof_len();
    drop(durable);
    let _ = std::fs::remove_dir_all(dir);
    rep
}

/// Applies one burst's writes through `AofWriter::append_payloads` and
/// through `Sharded::ingest_weighted_batch` / `remove_batch`, one call per
/// run of same-kind writes, exactly as `DurableServer::execute_batch` folds
/// them; timed when `t` holds a tracer.
fn replay_write_layers(
    writes: &[(bool, u64, u64)],
    aof: &mut AofWriter<graph_durability::io::StdFile>,
    sharded: &ShardedWeightedCuckooGraph,
    group: u64,
    t: &mut Option<&mut Tracer>,
    rep: &mut Replay,
) {
    if writes.is_empty() {
        return;
    }
    let payloads: Vec<Vec<u8>> = writes
        .iter()
        .map(|&(insert, u, v)| {
            let name = if insert {
                "GRAPH.ADDEDGE"
            } else {
                "GRAPH.DELEDGE"
            };
            encode_command(&command_parts(name, &[u, v]))
        })
        .collect();
    let s = open(t, "durability.append", group, None);
    let _ = aof.append_payloads(payloads.iter().map(Vec::as_slice));
    close(t, s);
    for run in writes.chunk_by(|a, b| a.0 == b.0) {
        let shards: HashSet<usize> = run
            .iter()
            .map(|&(_, u, _)| sharded.shard_index(u))
            .collect();
        rep.runs += 1;
        rep.shard_groups += shards.len() as u64;
        let s = open(t, "core.fanout_run", group, None);
        if run[0].0 {
            let triples: Vec<(u64, u64, u64)> = run.iter().map(|&(_, u, v)| (u, v, 1)).collect();
            sharded.ingest_weighted_batch(&triples);
        } else {
            let pairs: Vec<(u64, u64)> = run.iter().map(|&(_, u, v)| (u, v)).collect();
            sharded.remove_batch(&pairs);
        }
        close(t, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const TINY: ServeSize = ServeSize {
        kind: DatasetKind::WikiTalk,
        preload_scale: 0.0005,
        depth: 8,
        bursts: 60,
    };

    fn data_dir() -> PathBuf {
        std::env::temp_dir().join(format!("stackbench-test-{}", std::process::id()))
    }

    #[test]
    fn tiny_serve_read_passes_its_checks() {
        for (seed, trace) in [(1, false), (2, true)] {
            let out = run(Mix::Read, seed, 0.0, trace, TINY, &data_dir());
            assert!(out.attempted > 0);
            let reported = out.metrics.iter().any(|m| m.name == "recover_s");
            assert_eq!(reported, !trace, "recover_s is an untraced metric");
            assert_eq!(out.failed, 0, "{:?}", out.notes);
        }
    }

    #[test]
    fn tiny_serve_write_passes_its_checks() {
        for (seed, trace) in [(1, true), (2, false)] {
            let out = run(Mix::Write, seed, 0.0, trace, TINY, &data_dir());
            let reported = out.metrics.iter().any(|m| m.name == "recover_s");
            assert_eq!(reported, !trace, "recover_s is an untraced metric");
            assert_eq!(out.failed, 0, "{:?}", out.notes);
        }
    }

    #[test]
    fn repeated_adds_are_modelled_as_weight() {
        let mut m = ConnModel::new(0, &[(0, 1)], 2, 1, Mix::Read);
        m.add(&mut Vec::new(), 0, 1);
        assert_eq!(m.edges().collect::<Vec<_>>(), vec![((0, 1), 2)]);
        assert!(m.forget((0, 1)));
        assert_eq!(m.edges().count(), 0);
    }

    #[test]
    fn a_model_missing_one_edge_fails_the_check() {
        let stream = generate(TINY.kind, TINY.preload_scale, 1).raw_edges;
        let (preload, universe) = distinct_edges(stream);
        let dir = data_dir().join("wrong-model");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut durable, _) = open_durable(&dir);
        assert_eq!(preload_into(&mut durable, &preload), 0);
        let right = ConnModel::new(0, &preload, universe, 1, Mix::Read);
        let other = ConnModel::new(1, &preload, universe, 1, Mix::Read);
        assert_eq!(
            check_recovered(durable.server().graph(), &[&right, &other]).failed(),
            0
        );

        // The recovery check catches the dropped edge...
        let mut wrong = ConnModel::new(0, &preload, universe, 1, Mix::Read);
        let (edge, _) = wrong.edges().next().expect("an edge");
        assert!(wrong.forget(edge));
        let check = check_recovered(durable.server().graph(), &[&wrong, &other]);
        assert_eq!((check.extra, check.bad_count), (1, true));

        // ...and so does the live reply check, once reads aim at its source.
        wrong.sources = vec![edge.0];
        let reactor = Reactor::spawn(durable, ServerConfig::new()).expect("spawn");
        let stream = connect(&reactor);
        let plan: Vec<Burst> = (0..20).map(|_| wrong.next_burst(8)).collect();
        let run = client(stream, &plan, None);
        reactor.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(run.failed > 0, "no mismatch detected");
        assert!(run.first_mismatch.is_some());
    }
}
