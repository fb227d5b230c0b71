//! The benchmark's workloads and their set-up.
//!
//! A workload is a seeded editor-trace recipe (knobs of
//! [`insynth_corpus::trace::generate_trace`]) plus the path it drives. A run
//! generates several short traces, each from its own seed derived from the
//! run's `--seed`, and replays each `repeats` times, every replay (a *pass*)
//! from a fresh engine as a new editor session would. Several short traces
//! instead of one long one keep the mix of cold, resumed and edit events
//! close to its expectation from seed to seed. Repeating a trace lets the
//! run report, per event, the fastest of its repeats: on a shared host the
//! same event runs up to 1.5x slower for seconds at a time while other
//! tenants load the machine (CPU time slows as much as wall time, so it is
//! contention, not descheduling), and the minimum over passes a round apart,
//! each pinned to the next of the process's CPUs in turn (see `affinity`),
//! is the event's cost with the least of that in it.
//!
//! Why each workload exists, and which layer metrics it is the place to
//! watch (see `layers::LAYER_METRICS` for the full mapping):
//!
//! * `query_13k` — completions during an editing session on the
//!   ~13k-declaration scaled model, library path. Cold completions (explore,
//!   pattern generation, graph build, walk) do nearly all the work; this is
//!   the rung the interactive-latency target is set at. The default editor
//!   mix is used except for the update fraction, raised from 0.15 to 0.4:
//!   at 0.15 cold completions are 40-55% of all completions, so their
//!   median falls on the boundary between resumed walks (tens of
//!   microseconds) and cold builds (100+ ms) and moved fivefold from seed
//!   to seed; at 0.4 about 70% are cold and the median is a cold build.
//!   Updates never remove (removal fraction 0 instead of the default 0.3):
//!   here a removal or an open re-prepares all 13k declarations, in about
//!   twice the time of an incremental append or reweight, and at 0.3 the two
//!   kinds are each about half of all edits, so `edit_p50_ms` fell on one
//!   side of that gap or the other depending on the seed. Removals are
//!   `edit_figure1`'s subject.
//!   Watch `explore.*`, `genp.*`, `graph.*` and `query.cold_*` against
//!   `complete_p50_ms`, `complete_tail_ms` and `events_per_s`.
//! * `edit_figure1` — the removal-heavy mix on the Figure 1 environment,
//!   library path. Edits are a third of the time and almost every update is
//!   followed by a graph rebuild, so incremental edits and graph carry-over
//!   show here. Watch `prepare.*`, `update.*` and
//!   `query.builds_per_fingerprint` against `edit_p50_ms`, `edit_tail_ms`
//!   and `events_per_s`.
//! * `page_server` — warm paging through the JSON protocol, no edits after
//!   the opens. After a handful of cold builds every completion resumes a
//!   suspended walk, so the time is the walk, term rendering and JSON; engine
//!   phase work should not move these numbers. Watch `walk.*`, `render.*`
//!   and `server.*` against `complete_p50_ms` and `peak_rss_mb`. Its only
//!   edits are the four opens of each trace, 12 in a run: too few for a
//!   tail, so its `edit_tail_ms` is their maximum.

use std::time::Instant;

use insynth_bench::replay::{render_server_script, trace_environment};
use insynth_core::{Declaration, EnvDelta, Query, TypeEnv};
use insynth_corpus::trace::{
    generate_trace, Trace, TraceEnvSpec, TraceEvent, TraceEventKind, TraceGenConfig,
};

/// Which client drives the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Direct `Engine::prepare` / `Session::{update, query}` calls.
    Library,
    /// JSON request lines through `Server::handle_line`, responses
    /// serialized with `Json::to_string`.
    Server,
}

impl Path {
    pub fn name(self) -> &'static str {
        match self {
            Path::Library => "library",
            Path::Server => "server",
        }
    }

    pub fn other(self) -> Path {
        match self {
            Path::Library => Path::Server,
            Path::Server => Path::Library,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub path: Path,
    /// Events per trace.
    pub events: u64,
    /// Passes per trace; latencies are per-event minima over them.
    pub repeats: u64,
    /// Nominal wall time of one pass, its engine's teardown included, on a
    /// 2-core x86-64 box. `--seconds` divided by the time of one trace's
    /// passes gives the number of traces, so the work of a run is a
    /// function of `--seconds` alone, never of the machine's speed.
    pub pass_seconds: f64,
    /// The generation knobs apart from seed and event count.
    pub knobs: fn() -> TraceGenConfig,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "query_13k",
        path: Path::Library,
        events: 50,
        repeats: 3,
        pass_seconds: 2.5,
        knobs: || TraceGenConfig {
            points: 4,
            env: TraceEnvSpec::Scaled {
                target_decls: 13_000,
            },
            update_fraction: 0.4,
            remove_fraction: 0.0,
            ..TraceGenConfig::default()
        },
    },
    Workload {
        name: "edit_figure1",
        path: Path::Library,
        events: 500,
        repeats: 4,
        pass_seconds: 1.75,
        knobs: || TraceGenConfig {
            points: 6,
            env: TraceEnvSpec::Figure1 { filler: 4 },
            update_fraction: 0.4,
            remove_fraction: 0.8,
            ..TraceGenConfig::default()
        },
    },
    Workload {
        name: "page_server",
        path: Path::Server,
        events: 3000,
        repeats: 4,
        pass_seconds: 2.5,
        knobs: || TraceGenConfig {
            points: 4,
            env: TraceEnvSpec::Figure1 { filler: 4 },
            update_fraction: 0.0,
            close_fraction: 0.0,
            page_fraction: 0.5,
            max_n: 50,
            ..TraceGenConfig::default()
        },
    },
];

/// Distinct input sets: run seeds `s` and `s + INPUT_SETS` replay the same
/// traces.
pub const INPUT_SETS: u64 = 25;

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Traces a run of `seconds` replays (at least one).
    pub fn traces(&self, seconds: u64) -> u64 {
        let per_trace = self.pass_seconds * self.repeats as f64;
        ((seconds as f64 / per_trace).round() as u64).max(1)
    }

    /// The seed of trace `index` of a run with seed `seed`. Run seeds pick
    /// one of [`INPUT_SETS`] input sets, the ones `digests.tsv` records, so
    /// every seed's answers are checked against recorded digests.
    pub fn trace_seed(seed: u64, index: u64) -> u64 {
        (seed % INPUT_SETS) * 1000 + index
    }

    pub fn trace(&self, seed: u64, index: u64) -> Trace {
        generate_trace(&TraceGenConfig {
            seed: Self::trace_seed(seed, index),
            events: self.events,
            ..(self.knobs)()
        })
    }

    pub fn env_spec(&self) -> TraceEnvSpec {
        (self.knobs)().env
    }
}

/// One library-path request, built during set-up so the timed loop only
/// calls the engine.
pub enum LibraryRequest {
    Open(TypeEnv),
    Update { delta: EnvDelta, removes: bool },
    Complete { query: Query, cursor: usize },
    Close,
}

/// One trace, ready to replay on the paths it was rendered for.
pub struct PreparedTrace {
    pub trace_seed: u64,
    pub trace: Trace,
    /// One request per event; empty unless rendered for the library path.
    pub library: Vec<LibraryRequest>,
    /// The request lines of a fresh single-worker server (session ids are
    /// assigned 1, 2, 3, … in open order); empty unless rendered for the
    /// server path.
    pub lines: Vec<String>,
}

/// Builds the environment, generates every trace and renders its requests
/// for `paths`.
pub fn set_up(workload: &Workload, seed: u64, traces: u64, paths: &[Path]) -> Vec<PreparedTrace> {
    let ambient = trace_environment(workload.env_spec());
    (0..traces)
        .map(|index| {
            let trace = workload.trace(seed, index);
            PreparedTrace::new(trace, Workload::trace_seed(seed, index), &ambient, paths)
        })
        .collect()
}

impl PreparedTrace {
    pub fn new(trace: Trace, trace_seed: u64, ambient: &TypeEnv, paths: &[Path]) -> PreparedTrace {
        let library = if paths.contains(&Path::Library) {
            let request = |event: &TraceEvent| library_request(ambient, &event.kind);
            trace.events.iter().map(request).collect()
        } else {
            Vec::new()
        };
        let lines = if paths.contains(&Path::Server) {
            let script = render_server_script(&trace, ambient);
            script.lines().map(str::to_owned).collect()
        } else {
            Vec::new()
        };
        PreparedTrace {
            trace_seed,
            trace,
            library,
            lines,
        }
    }
}

/// Runs set-up once, returning its result and its wall time in seconds.
pub fn timed_set_up(
    workload: &Workload,
    seed: u64,
    traces: u64,
    paths: &[Path],
) -> (Vec<PreparedTrace>, f64) {
    let started = Instant::now();
    let setup = set_up(workload, seed, traces, paths);
    (setup, started.elapsed().as_secs_f64())
}

fn library_request(ambient: &TypeEnv, kind: &TraceEventKind) -> LibraryRequest {
    match kind {
        TraceEventKind::Open { locals } => LibraryRequest::Open(open_environment(ambient, locals)),
        TraceEventKind::Update {
            adds,
            removes,
            reweights,
        } => {
            let mut delta = EnvDelta::new();
            for decl in adds {
                delta = delta.add(decl.clone());
            }
            for name in removes {
                delta = delta.remove(name.clone());
            }
            for (name, weight) in reweights {
                delta = delta.reweight(name.clone(), *weight);
            }
            LibraryRequest::Update {
                delta,
                removes: !removes.is_empty(),
            }
        }
        // The server's `completion/complete` asks the engine for
        // cursor + n and serves the page past the cursor; so does the
        // library client.
        TraceEventKind::Query { goal, n } => LibraryRequest::Complete {
            query: Query::new(goal.clone()).with_n(*n),
            cursor: 0,
        },
        TraceEventKind::Page { goal, n, cursor } => LibraryRequest::Complete {
            query: Query::new(goal.clone()).with_n(cursor.saturating_add(*n)),
            cursor: *cursor,
        },
        TraceEventKind::Close => LibraryRequest::Close,
    }
}

/// The environment an open establishes: the ambient declarations with the
/// point's locals on top.
fn open_environment(ambient: &TypeEnv, locals: &[Declaration]) -> TypeEnv {
    let mut env = ambient.clone();
    for decl in locals {
        env.push(decl.clone());
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_generation_is_byte_identical_per_seed() {
        for workload in WORKLOADS {
            let small = |seed, pass| {
                generate_trace(&TraceGenConfig {
                    seed: Workload::trace_seed(seed, pass),
                    events: 300,
                    ..(workload.knobs)()
                })
                .to_text()
            };
            assert_eq!(small(7, 0), small(7, 0), "{}", workload.name);
            assert_eq!(small(7, 1), small(7, 1), "{}", workload.name);
            assert_ne!(small(7, 0), small(7, 1), "{}", workload.name);
            assert_ne!(small(7, 0), small(8, 0), "{}", workload.name);
            assert_eq!(small(7, 0), small(7 + INPUT_SETS, 0), "{}", workload.name);
        }
    }

    #[test]
    fn rendered_requests_are_byte_identical_per_seed() {
        let workload = workload("page_server").unwrap();
        let both = [Path::Library, Path::Server];
        let a = set_up(workload, 3, 2, &both);
        let b = set_up(workload, 3, 2, &both);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace.to_text(), y.trace.to_text());
            assert_eq!(x.lines, y.lines);
            assert_eq!(x.lines.len(), x.trace.events.len());
            assert_eq!(x.library.len(), x.trace.events.len());
        }
    }

    #[test]
    fn trace_count_follows_seconds_only() {
        let w = workload("edit_figure1").unwrap();
        assert_eq!(w.traces(0), 1);
        let seconds = (4.0 * w.pass_seconds * w.repeats as f64) as u64 + 1;
        assert_eq!(w.traces(seconds), 4);
        assert!(workload("nope").is_none());
    }
}
