//! Per-layer accounting of the traced run, and the metric tables.
//!
//! Every layer metric names the end-to-end metric it should move and on
//! which workload — the prediction a change to that layer is judged by.
//! Times are totals over the run in milliseconds, counts are totals.
//! Times are only reported for work every workload does, so no time metric
//! is structurally zero: the open hit/miss and update append/remove splits,
//! which some workloads never exercise, are printed as detail lines.

use insynth_core::{EngineStatsSnapshot, SynthesisStats};

use crate::stats::ms;

/// Calls and busy time of one kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub count: u64,
    pub nanos: u64,
}

impl Busy {
    fn add(&mut self, nanos: u64) {
        self.count += 1;
        self.nanos += nanos;
    }
}

/// Work counts of one shadow run.
pub struct ShadowCounts {
    pub requests: u64,
    pub patterns: u64,
    pub nodes: u64,
    pub edges: u64,
    /// Successors the walk's branch-and-bound discarded. Session queries
    /// report none (their streamed walks never prune), so the count comes
    /// from the shadow walks of cold completions.
    pub pruned: u64,
}

#[derive(Debug, Default)]
pub struct Layers {
    pub open_hit: Busy,
    pub open_miss: Busy,
    pub update_append: Busy,
    pub update_remove: Busy,
    pub reprepares: u64,
    /// Completions that built their derivation graph.
    pub cold: Busy,
    /// Completions served from a cached graph, resumed walks included.
    pub warm: Busy,
    /// Completions that resumed a suspended walk (a subset of `warm`).
    pub resumed: Busy,
    pub walk_steps: u64,
    pub walk_pruned: u64,
    pub render: Busy,
    pub render_values: u64,
    /// Shadow phase times: prepare, explore, genp, graph, walk.
    pub shadow_nanos: [u64; 5],
    pub shadow_runs: u64,
    pub explore_requests: u64,
    pub patterns: u64,
    pub graph_nodes: u64,
    pub graph_edges: u64,
    pub engine_prepares: u64,
    pub engine_graph_builds: u64,
    pub sigma_nanos: u64,
    pub suspended_walks: u64,
    pub handle: Busy,
    pub serialize_nanos: u64,
    pub parse_nanos: u64,
    pub response_bytes: u64,
    pub spans: u64,
    /// Traced-run overhead against an untraced pass, in percent.
    pub overhead_pct: f64,
}

const PREPARE: usize = 0;
const EXPLORE: usize = 1;
const GENP: usize = 2;
const GRAPH: usize = 3;
const WALK: usize = 4;

impl Layers {
    pub fn open(&mut self, miss: bool, nanos: u64) {
        if miss {
            self.open_miss.add(nanos)
        } else {
            self.open_hit.add(nanos)
        }
    }

    pub fn update(&mut self, removes: bool, reprepared: bool, nanos: u64) {
        if removes {
            self.update_remove.add(nanos)
        } else {
            self.update_append.add(nanos)
        }
        self.reprepares += reprepared as u64;
    }

    pub fn query(&mut self, cold: bool, stats: &SynthesisStats, nanos: u64) {
        if cold {
            self.cold.add(nanos);
        } else {
            self.warm.add(nanos);
            if stats.resumed {
                self.resumed.add(nanos);
            }
        }
        self.walk_steps += stats.reconstruction_new_steps as u64;
    }

    pub fn render(&mut self, values: u64, nanos: u64) {
        self.render.add(nanos);
        self.render_values += values;
    }

    /// Folds in one shadow run: phase times (prepare, explore, genp, graph,
    /// walk) and the work counts of explore, genp, the graph and the walk.
    pub fn shadow(&mut self, nanos: [u64; 5], counts: ShadowCounts) {
        for (total, phase) in self.shadow_nanos.iter_mut().zip(nanos) {
            *total += phase;
        }
        self.shadow_runs += 1;
        self.explore_requests += counts.requests;
        self.patterns += counts.patterns;
        self.graph_nodes += counts.nodes;
        self.graph_edges += counts.edges;
        self.walk_pruned += counts.pruned;
    }

    /// Folds in the engine's counters at the end of a library pass.
    pub fn engine(&mut self, stats: &EngineStatsSnapshot) {
        self.engine_prepares += stats.prepare_count as u64;
        self.engine_graph_builds += stats.graph_build_count as u64;
        self.sigma_nanos += stats.prepare_time_ns;
        self.suspended_walks = self.suspended_walks.max(stats.suspended_walk_count as u64);
    }

    pub fn server(&mut self, handle: u64, serialize: u64, parse: u64, bytes: u64) {
        self.handle.add(handle);
        self.serialize_nanos += serialize;
        self.parse_nanos += parse;
        self.response_bytes += bytes;
    }

    /// Cold completion time the shadow phases after preparation do not
    /// account for (cache bookkeeping, snippet building, threading).
    fn cold_unattributed_ms(&self) -> f64 {
        let phases: u64 = self.shadow_nanos[EXPLORE..].iter().sum();
        ms(self.cold.nanos) - ms(phases)
    }

    /// Lines of detail that have no metric of their own.
    pub fn detail(&self) -> Vec<String> {
        let busy = |name: &str, b: &Busy| {
            format!("{name:<28} {:>12.3} ms over {} calls", ms(b.nanos), b.count)
        };
        vec![
            format!("{:<28} {:>12} spans", "trace.spans", self.spans),
            busy("prepare.open_hit_ms", &self.open_hit),
            busy("prepare.open_miss_ms", &self.open_miss),
            busy("update.append_ms", &self.update_append),
            busy("update.remove_ms", &self.update_remove),
        ]
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this layer metric should move.
    pub moves: &'static str,
    pub value: fn(&Layers) -> f64,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    value: fn(&Layers) -> f64,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        value,
    }
}

const QUERY: &str = "events_per_s, complete_tail_ms on query_13k and edit_figure1";
const EDIT: &str = "edit_p50_ms, edit_tail_ms, events_per_s on edit_figure1";
const PHASE: &str = "complete_tail_ms on query_13k";
const WARM: &str = "complete_p50_ms, peak_rss_mb on page_server";

use Better::{Higher, Lower};

#[rustfmt::skip]
pub const LAYER_METRICS: &[LayerMetric] = &[
    metric("query.cold_count", "count", Lower, QUERY, |l| l.cold.count as f64),
    metric("query.cold_ms", "ms", Lower, QUERY, |l| ms(l.cold.nanos)),
    metric("query.warm_count", "count", Higher, QUERY, |l| l.warm.count as f64),
    metric("query.warm_ms", "ms", Lower, QUERY, |l| ms(l.warm.nanos)),
    metric("query.resumed_count", "count", Higher, QUERY, |l| l.resumed.count as f64),
    metric("query.resumed_ms", "ms", Lower, QUERY, |l| ms(l.resumed.nanos)),
    metric("query.builds_per_fingerprint", "ratio", Lower, QUERY, |l| {
        l.engine_graph_builds as f64 / l.engine_prepares.max(1) as f64
    }),
    metric("engine.graph_builds", "count", Lower, QUERY, |l| l.engine_graph_builds as f64),
    metric("engine.prepares", "count", Lower, EDIT, |l| l.engine_prepares as f64),
    metric("query.cold_unattributed_ms", "ms", Lower, PHASE, Layers::cold_unattributed_ms),
    metric("prepare.open_ms", "ms", Lower, EDIT, |l| ms(l.open_hit.nanos + l.open_miss.nanos)),
    metric("prepare.open_miss_count", "count", Lower, EDIT, |l| l.open_miss.count as f64),
    metric("prepare.edit_ms", "ms", Lower, EDIT, |l| {
        ms(l.open_hit.nanos + l.open_miss.nanos + l.update_append.nanos + l.update_remove.nanos)
    }),
    metric("prepare.sigma_ms", "ms", Lower, EDIT, |l| ms(l.sigma_nanos)),
    metric("update.reprepare_count", "count", Lower, EDIT, |l| l.reprepares as f64),
    metric("shadow.prepare_ms", "ms", Lower, EDIT, |l| ms(l.shadow_nanos[PREPARE])),
    metric("explore.ms", "ms", Lower, PHASE, |l| ms(l.shadow_nanos[EXPLORE])),
    metric("explore.requests", "count", Lower, PHASE, |l| l.explore_requests as f64),
    metric("genp.ms", "ms", Lower, PHASE, |l| ms(l.shadow_nanos[GENP])),
    metric("genp.patterns", "count", Lower, PHASE, |l| l.patterns as f64),
    metric("graph.ms", "ms", Lower, PHASE, |l| ms(l.shadow_nanos[GRAPH])),
    metric("graph.nodes", "count", Lower, PHASE, |l| l.graph_nodes as f64),
    metric("graph.edges", "count", Lower, PHASE, |l| l.graph_edges as f64),
    // The shadow walks of cold completions only; the time of resumed walks
    // is in query.resumed_ms.
    metric("walk.ms", "ms", Lower, PHASE, |l| ms(l.shadow_nanos[WALK])),
    metric("walk.steps", "count", Lower, WARM, |l| l.walk_steps as f64),
    metric("walk.pruned", "count", Higher, PHASE, |l| l.walk_pruned as f64),
    metric("walk.suspended", "count", Lower, WARM, |l| l.suspended_walks as f64),
    metric("render.ms", "ms", Lower, WARM, |l| ms(l.render.nanos)),
    metric("render.values", "count", Higher, WARM, |l| l.render_values as f64),
    metric("server.handle_ms", "ms", Lower, WARM, |l| ms(l.handle.nanos)),
    metric("server.serialize_ms", "ms", Lower, WARM, |l| ms(l.serialize_nanos)),
    metric("server.parse_ms", "ms", Lower, WARM, |l| ms(l.parse_nanos)),
    metric("server.response_bytes", "bytes", Lower, WARM, |l| l.response_bytes as f64),
    metric("trace.overhead_pct", "%", Lower, "nothing: the traced run's own cost", |l| {
        l.overhead_pct
    }),
];

pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

#[rustfmt::skip]
pub const END_TO_END: &[EndToEndMetric] = &[
    EndToEndMetric { name: "events_per_s", unit: "1/s", better: Higher },
    EndToEndMetric { name: "complete_p50_ms", unit: "ms", better: Lower },
    EndToEndMetric { name: "complete_tail_ms", unit: "ms", better: Lower },
    EndToEndMetric { name: "edit_p50_ms", unit: "ms", better: Lower },
    EndToEndMetric { name: "edit_tail_ms", unit: "ms", better: Lower },
    EndToEndMetric { name: "peak_rss_mb", unit: "MB", better: Lower },
    EndToEndMetric { name: "setup_s", unit: "s", better: Lower },
    EndToEndMetric { name: "paper_top10", unit: "count", better: Higher },
    EndToEndMetric { name: "paper_rank1", unit: "count", better: Higher },
];
