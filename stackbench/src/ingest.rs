//! The ingest part of a run: the embedded engine on one thread, with no
//! server and no log.
//!
//! Each round builds a fresh [`CuckooGraph`] and runs the paper's own
//! measurement on the workload's generated stream: insert every item with
//! its own call, query every distinct edge and as many absent edges, scan the
//! successors of every node (several scan rounds), then delete half of the
//! distinct edges. Every reply is checked against a `HashSet` model of the
//! stream built by the benchmark, never against the program's own output.

use crate::report::{mean, median, proc_status_mib, quantile, Outcome, QUIET_LOW};
use crate::rng::SplitMix;
use crate::trace::{close, open, Tracer};
use cuckoograph::{CuckooGraph, CuckooGraphConfig, StructureStats};
use graph_api::{DynamicGraph, MemoryFootprint};
use graph_datasets::{generate, DatasetKind};
use std::collections::HashSet;
use std::time::Instant;

/// Input size and repetition counts of one run.
#[derive(Debug, Clone, Copy)]
pub struct IngestSize {
    /// The generator's dataset shape.
    pub kind: DatasetKind,
    /// Fraction of the dataset's published counts passed to the generator.
    pub scale: f64,
    /// Full successor scans of every node per round.
    pub scan_rounds: usize,
    /// Generator runs per run; `setup_s` is the median of their times.
    pub setups: usize,
}

/// WikiTalk-shaped: about 2.5 M stream items and 0.94 M distinct edges.
pub const WIKITALK: IngestSize = IngestSize {
    kind: DatasetKind::WikiTalk,
    scale: 0.1,
    scan_rounds: 16,
    setups: 5,
};

/// The paper's constant-degree-6 graph: 1.5 M distinct edges over 250 k
/// nodes, no duplicates.
pub const SPARSE: IngestSize = IngestSize {
    kind: DatasetKind::SparseGraph,
    scale: 0.05,
    ..WIKITALK
};

/// Calls per timed chunk (and between two spans in a traced round).
const CHUNK: usize = 4096;

/// Phases, as indices into [`Round::chunk_s`].
const INSERT: usize = 0;
const QUERY: usize = 1;
const SCAN: usize = 2;
const DELETE: usize = 3;

/// The generated workload: everything the engine is fed, in order.
#[derive(Debug)]
pub struct Inputs {
    /// The raw stream, duplicates included, in arrival order.
    pub stream: Vec<(u64, u64)>,
    /// Per stream item: is this the edge's first arrival?
    pub first_arrival: Vec<bool>,
    /// Distinct edges in first-arrival order.
    pub distinct: Vec<(u64, u64)>,
    /// Every distinct edge plus as many absent edges, shuffled.
    pub queries: Vec<(u64, u64)>,
    /// Every source node, sorted.
    pub nodes: Vec<u64>,
    /// Every second distinct edge.
    pub deletes: Vec<(u64, u64)>,
}

/// The independent model: the set of edges the stream holds.
#[derive(Debug, Clone)]
pub struct Model {
    pub edges: HashSet<(u64, u64)>,
}

/// Every reply the engine must give, derived from the model.
#[derive(Debug)]
pub struct Expected {
    inserted: Vec<bool>,
    edge_count: usize,
    query_hit: Vec<bool>,
    /// Per node of [`Inputs::nodes`]: successor count and checksum.
    scan: Vec<(u64, u64)>,
    delete_hit: Vec<bool>,
    /// Per distinct edge: present after the delete phase?
    after_delete: Vec<bool>,
    edge_count_after: usize,
}

/// Order-independent checksum term for edge `u -> v`.
fn mix(u: u64, v: u64) -> u64 {
    (u.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ v).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

impl Inputs {
    /// Builds the query, scan and delete lists for a generated `stream`
    /// (from `seed`), and the model of the edges it holds.
    pub fn build(stream: Vec<(u64, u64)>, seed: u64) -> (Inputs, Model) {
        let mut edges = HashSet::with_capacity(stream.len() / 2);
        let mut first_arrival = Vec::with_capacity(stream.len());
        let mut distinct = Vec::new();
        for &e in &stream {
            let first = edges.insert(e);
            first_arrival.push(first);
            if first {
                distinct.push(e);
            }
        }
        let universe = stream.iter().map(|&(u, v)| u.max(v)).max().unwrap_or(0) + 1;

        let mut rng = SplitMix::new(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
        let mut queries = distinct.clone();
        while queries.len() < 2 * distinct.len() {
            // Absent edges from present sources, so misses reach the
            // neighbour tables instead of stopping at the node lookup.
            let u = distinct[rng.below(distinct.len() as u64) as usize].0;
            let v = rng.below(universe);
            if !edges.contains(&(u, v)) {
                queries.push((u, v));
            }
        }
        rng.shuffle(&mut queries);

        let mut nodes: Vec<u64> = distinct.iter().map(|&(u, _)| u).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let deletes = distinct.iter().copied().skip(1).step_by(2).collect();
        let inputs = Inputs {
            stream,
            first_arrival,
            distinct,
            queries,
            nodes,
            deletes,
        };
        (inputs, Model { edges })
    }
}

impl Expected {
    pub fn derive(model: &Model, inputs: &Inputs) -> Expected {
        let has = |e: &(u64, u64)| model.edges.contains(e);
        let inserted = inputs
            .stream
            .iter()
            .zip(&inputs.first_arrival)
            .map(|(e, &first)| first && has(e))
            .collect();
        let query_hit = inputs.queries.iter().map(has).collect();

        let universe = inputs.nodes.last().map_or(0, |&u| u as usize + 1);
        let mut per_node = vec![(0u64, 0u64); universe];
        for &(u, v) in &model.edges {
            if let Some(slot) = per_node.get_mut(u as usize) {
                slot.0 += 1;
                slot.1 = slot.1.wrapping_add(mix(u, v));
            }
        }
        let scan = inputs.nodes.iter().map(|&u| per_node[u as usize]).collect();

        let delete_hit: Vec<bool> = inputs.deletes.iter().map(has).collect();
        let removed = delete_hit.iter().filter(|&&h| h).count();
        // `deletes` is every second distinct edge, starting at index 1.
        let after_delete = inputs
            .distinct
            .iter()
            .enumerate()
            .map(|(i, e)| i % 2 == 0 && has(e))
            .collect();
        Expected {
            inserted,
            edge_count: model.edges.len(),
            query_hit,
            scan,
            delete_hit,
            after_delete,
            edge_count_after: model.edges.len() - removed,
        }
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub insert_s: f64,
    pub query_s: f64,
    pub scan_s: f64,
    pub delete_s: f64,
    pub scanned_edges: u64,
    /// Per phase: the time of every chunk of [`CHUNK`] calls, in order.
    pub chunk_s: [Vec<f64>; 4],
    pub bytes_per_edge: f64,
    pub bytes_per_edge_after_delete: f64,
    pub after_insert: StructureStats,
    pub after_delete: StructureStats,
    pub attempted: u64,
    pub failed: u64,
}

/// One fresh engine through every phase. With a tracer, every phase and
/// every chunk of [`CHUNK`] calls is a span, and the query phase runs hits
/// and misses as two passes so each gets its own time.
pub fn run_round(
    inputs: &Inputs,
    exp: &Expected,
    scan_rounds: usize,
    round: u64,
    mut tracer: Option<&mut Tracer>,
) -> Round {
    let t = &mut tracer;
    let mut r = Round::default();
    let mut g = CuckooGraph::new();

    // Insert: one call per stream item.
    let phase = open(t, "core.insert", round, None);
    let start = Instant::now();
    for (c, chunk) in inputs.stream.chunks(CHUNK).enumerate() {
        let span = open(t, "core.insert_chunk", round, phase);
        let at = Instant::now();
        for (i, &(u, v)) in chunk.iter().enumerate() {
            if g.insert_edge(u, v) != exp.inserted[c * CHUNK + i] {
                r.failed += 1;
            }
        }
        r.chunk_s[INSERT].push(at.elapsed().as_secs_f64());
        close(t, span);
    }
    r.insert_s = start.elapsed().as_secs_f64();
    close(t, phase);
    r.attempted += inputs.stream.len() as u64 + 1;
    r.failed += u64::from(g.edge_count() != exp.edge_count);
    r.bytes_per_edge = g.memory_bytes() as f64 / g.edge_count().max(1) as f64;
    if t.is_some() {
        r.after_insert = g.stats();
    }

    // Query: every distinct edge and as many absent ones.
    let phase = open(t, "core.query", round, None);
    let start = Instant::now();
    if t.is_some() {
        for (name, want) in [
            ("core.query_hit_chunk", true),
            ("core.query_miss_chunk", false),
        ] {
            let picked: Vec<(u64, u64)> = inputs
                .queries
                .iter()
                .zip(&exp.query_hit)
                .filter(|(_, &hit)| hit == want)
                .map(|(&e, _)| e)
                .collect();
            for chunk in picked.chunks(CHUNK) {
                let span = open(t, name, round, phase);
                for &(u, v) in chunk {
                    if g.has_edge(u, v) != want {
                        r.failed += 1;
                    }
                }
                close(t, span);
            }
        }
    } else {
        for (c, chunk) in inputs.queries.chunks(CHUNK).enumerate() {
            let at = Instant::now();
            for (i, &(u, v)) in chunk.iter().enumerate() {
                if g.has_edge(u, v) != exp.query_hit[c * CHUNK + i] {
                    r.failed += 1;
                }
            }
            r.chunk_s[QUERY].push(at.elapsed().as_secs_f64());
        }
    }
    r.query_s = start.elapsed().as_secs_f64();
    close(t, phase);
    r.attempted += inputs.queries.len() as u64;

    // Scan: the successors of every node, `scan_rounds` times.
    let phase = open(t, "core.scan", round, None);
    let start = Instant::now();
    for _ in 0..scan_rounds {
        for (c, chunk) in inputs.nodes.chunks(CHUNK).enumerate() {
            let span = open(t, "core.scan_chunk", round, phase);
            let at = Instant::now();
            for (i, &u) in chunk.iter().enumerate() {
                let (mut count, mut sum) = (0u64, 0u64);
                g.for_each_successor(u, &mut |v| {
                    count += 1;
                    sum = sum.wrapping_add(mix(u, v));
                });
                r.scanned_edges += count;
                if (count, sum) != exp.scan[c * CHUNK + i] {
                    r.failed += 1;
                }
            }
            r.chunk_s[SCAN].push(at.elapsed().as_secs_f64());
            close(t, span);
        }
    }
    r.scan_s = start.elapsed().as_secs_f64();
    close(t, phase);
    r.attempted += (scan_rounds * inputs.nodes.len()) as u64;

    // Delete half of the distinct edges.
    let phase = open(t, "core.delete", round, None);
    let start = Instant::now();
    for (c, chunk) in inputs.deletes.chunks(CHUNK).enumerate() {
        let span = open(t, "core.delete_chunk", round, phase);
        let at = Instant::now();
        for (i, &(u, v)) in chunk.iter().enumerate() {
            if g.delete_edge(u, v) != exp.delete_hit[c * CHUNK + i] {
                r.failed += 1;
            }
        }
        r.chunk_s[DELETE].push(at.elapsed().as_secs_f64());
        close(t, span);
    }
    r.delete_s = start.elapsed().as_secs_f64();
    close(t, phase);
    r.attempted += inputs.deletes.len() as u64;
    r.bytes_per_edge_after_delete = g.memory_bytes() as f64 / g.edge_count().max(1) as f64;
    if t.is_some() {
        r.after_delete = g.stats();
    }

    // Untimed: presence or absence of every edge after the deletes.
    r.attempted += inputs.distinct.len() as u64 + 1;
    r.failed += u64::from(g.edge_count() != exp.edge_count_after);
    for (&(u, v), &present) in inputs.distinct.iter().zip(&exp.after_delete) {
        if g.has_edge(u, v) != present {
            r.failed += 1;
        }
    }
    r
}

/// A phase's time with the host's interference taken out chunk by chunk:
/// for every chunk position, the quieter quartile of its time over the
/// untraced rounds, summed over the positions. Every round does the same
/// work in the same order, so a position's times differ only by
/// interference, which is shorter than a phase and lands on different
/// chunks in different rounds.
fn quiet_phase_s(rounds: &[Round], phase: usize) -> f64 {
    let positions = rounds.iter().map(|r| r.chunk_s[phase].len()).min();
    (0..positions.unwrap_or(0))
        .map(|i| {
            let times: Vec<f64> = rounds.iter().map(|r| r.chunk_s[phase][i]).collect();
            quantile(&times, QUIET_LOW)
        })
        .sum()
}

/// Runs the workload for `seconds` of whole rounds.
pub fn run(seed: u64, seconds: f64, trace: bool, size: IngestSize) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is the generator's work only: the model, queries and expected
    // replies are the benchmark's own and are built after the clock stops.
    let mut setup_s = Vec::new();
    let mut stream = Vec::new();
    for _ in 0..size.setups.max(1) {
        drop(std::mem::take(&mut stream));
        let t = Instant::now();
        stream = generate(size.kind, size.scale, seed).raw_edges;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (inputs, model) = Inputs::build(stream, seed);
    let exp = Expected::derive(&model, &inputs);
    drop(model);
    let input_rss_mb = proc_status_mib("VmRSS");
    out.notes.push(format!(
        "ingest: {} stream items, {} distinct edges, {} nodes, {} queries, {} deletes, {} scan rounds",
        inputs.stream.len(),
        inputs.distinct.len(),
        inputs.nodes.len(),
        inputs.queries.len(),
        inputs.deletes.len(),
        size.scan_rounds
    ));

    let mut tracer = Tracer::new();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let start = Instant::now();
    let mut round = 0u64;
    let mut peak_rss_mb = 0.0;
    // Whole rounds only; a traced run alternates untraced and traced rounds
    // so the tracing overhead is measured in the same process.
    while round == 0 || start.elapsed().as_secs_f64() < seconds || (trace && traced.is_empty()) {
        let traced_round = trace && round % 2 == 1;
        let r = run_round(
            &inputs,
            &exp,
            size.scan_rounds,
            round,
            traced_round.then_some(&mut tracer),
        );
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.notes.push(format!(
            "ingest round {round}{}: insert {:.3} s, query {:.3} s, scan {:.3} s, delete {:.3} s",
            if traced_round { " (traced)" } else { "" },
            r.insert_s,
            r.query_s,
            r.scan_s,
            r.delete_s
        ));
        if traced_round {
            traced.push(r);
        } else {
            plain.push(r);
        }
        if round == 0 {
            // Read once the first round is over: later rounds reuse memory
            // the allocator kept, so the peak is that of set-up plus one
            // round.
            peak_rss_mb = proc_status_mib("VmHWM");
        }
        round += 1;
    }
    out.notes.push(format!(
        "ingest: {} untraced and {} traced rounds in {:.2} s",
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    ));

    let med = |f: &dyn Fn(&Round) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let rate = |phase: usize, calls: f64| calls / 1e6 / quiet_phase_s(&plain, phase);
    out.setup_s = median(&setup_s);
    out.peak_rss_mb = peak_rss_mb;
    if !trace {
        let scanned = plain[0].scanned_edges as f64;
        out.push(
            "insert_mops",
            "Mops",
            rate(INSERT, inputs.stream.len() as f64),
        );
        out.push(
            "query_mops",
            "Mops",
            rate(QUERY, inputs.queries.len() as f64),
        );
        out.push("scan_medges", "Medges/s", rate(SCAN, scanned));
        out.push(
            "delete_mops",
            "Mops",
            rate(DELETE, inputs.deletes.len() as f64),
        );
        out.push("bytes_per_edge", "B", med(&|r| r.bytes_per_edge));
        out.push(
            "bytes_per_edge_after_delete",
            "B",
            med(&|r| r.bytes_per_edge_after_delete),
        );
        return out;
    }

    let last = traced.last().expect("one traced round");
    let (ins, del) = (&last.after_insert, &last.after_delete);
    let per_call = |name: &str, calls: usize| {
        let (ns, _) = tracer.total(name);
        ns as f64 / (calls * traced.len()).max(1) as f64
    };
    let hits = exp.query_hit.iter().filter(|&&h| h).count();
    let small = CuckooGraphConfig::default().basic_small_slots() as u64;
    let in_scht: u64 = exp.scan.iter().map(|s| s.0).filter(|&d| d > small).sum();
    let pool_total = (del.pool_hits + del.pool_misses).max(1);
    let phases = |r: &Round| r.insert_s + r.scan_s + r.delete_s;
    let plain_s = median(&plain.iter().map(phases).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(phases).collect::<Vec<_>>());

    out.push("datasets.generate_s", "s", median(&setup_s));
    out.push(
        "core.insert_ns",
        "ns",
        per_call("core.insert_chunk", inputs.stream.len()),
    );
    out.push(
        "core.lcht_placements_per_node",
        "ratio",
        ins.avg_lcht_placements_per_item(),
    );
    out.push(
        "core.scht_placements_per_edge",
        "ratio",
        ins.avg_scht_placements_per_item(),
    );
    out.push(
        "core.insertion_failures",
        "count",
        ins.insertion_failures as f64,
    );
    out.push("core.expansions", "count", ins.expansions as f64);
    out.push(
        "core.denylist_len",
        "count",
        (ins.l_denylist_len + ins.s_denylist_len) as f64,
    );
    out.push(
        "core.query_hit_ns",
        "ns",
        per_call("core.query_hit_chunk", hits),
    );
    out.push(
        "core.query_miss_ns",
        "ns",
        per_call("core.query_miss_chunk", inputs.queries.len() - hits),
    );
    out.push("core.segment_bytes", "B", ins.segment_bytes as f64);
    out.push(
        "core.scan_ns_per_node",
        "ns",
        per_call("core.scan_chunk", size.scan_rounds * inputs.nodes.len()),
    );
    out.push(
        "core.delete_ns",
        "ns",
        per_call("core.delete_chunk", inputs.deletes.len()),
    );
    out.push(
        "core.contractions",
        "count",
        (del.contractions - ins.contractions) as f64,
    );
    out.push(
        "core.segment_compactions",
        "count",
        (del.segment_compactions - ins.segment_compactions) as f64,
    );
    out.push(
        "core.pool_hit_ratio",
        "ratio",
        del.pool_hits as f64 / pool_total as f64,
    );
    out.push("core.lcht_loading_rate", "ratio", ins.lcht_loading_rate());
    out.push(
        "core.scht_loading_rate",
        "ratio",
        in_scht as f64 / ins.scht_slots.max(1) as f64,
    );
    out.push(
        "core.arena_free_blocks",
        "count",
        del.arena_free_blocks as f64,
    );
    out.push("bench.input_rss_mb", "MiB", input_rss_mb);
    out.push(
        "bench.trace_overhead_pct",
        "%",
        (traced_s / plain_s - 1.0) * 100.0,
    );
    out.notes.push(format!(
        "ingest trace: mean traced round {:.3} s vs untraced {:.3} s (insert+scan+delete)",
        mean(&traced.iter().map(phases).collect::<Vec<_>>()),
        mean(&plain.iter().map(phases).collect::<Vec<_>>())
    ));
    out.traces.push(("ingest", tracer));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: IngestSize = IngestSize {
        kind: DatasetKind::WikiTalk,
        scale: 0.002,
        scan_rounds: 2,
        setups: 1,
    };

    #[test]
    fn tiny_run_passes_its_checks() {
        for trace in [false, true] {
            let out = run(1, 0.0, trace, TINY);
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0, "trace={trace}");
        }
    }

    #[test]
    fn second_seed_passes_its_checks() {
        assert_eq!(run(2, 0.0, false, TINY).failed, 0);
    }

    #[test]
    fn a_model_missing_one_edge_fails_the_check() {
        let stream = generate(TINY.kind, TINY.scale, 1).raw_edges;
        let (inputs, mut model) = Inputs::build(stream, 1);
        let dropped = inputs.distinct[0];
        assert!(model.edges.remove(&dropped));
        let exp = Expected::derive(&model, &inputs);
        let r = run_round(&inputs, &exp, 1, 0, None);
        // Its insert, its query, its source's scan, the edge count and the
        // final presence check all disagree.
        assert!(r.failed >= 4, "failed {}", r.failed);
    }
}
