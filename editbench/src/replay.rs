//! The closed-loop client: one thread issues each event of a pass only
//! after the previous one returned, as an editor waits on a program point.
//!
//! Latency is measured until the client holds the result text: on the
//! library path `Session::query` plus rendering the served page to strings
//! (`Engine::prepare` / `Session::update` for edits); on the server path
//! `Server::handle_line` plus `Json::to_string` of the response. Untraced
//! passes record nothing but these latencies, and check each answer only
//! after its clock has stopped.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use insynth_bench::replay::{replay_config, replay_server_config};
use insynth_core::{
    erase_coercions, explore, generate_patterns, generate_terms, DerivationGraph, Engine,
    ExploreLimits, GenerateLimits, PreparedEnv, Session,
};
use insynth_corpus::trace::TraceEventKind;
use insynth_lambda::Ty;
use insynth_server::{parse_json, Json, Server};
use insynth_succinct::TypeStore;

use crate::digest::EventDigest;
use crate::layers::{Layers, ShadowCounts};
use crate::spans::{SpanId, Tracer, ROOT};
use crate::workload::{LibraryRequest, Path, PreparedTrace};

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct PassOutcome {
    pub events: u64,
    /// Wall time of the whole closed loop.
    pub wall: Duration,
    /// Per-event loop time, nanoseconds: from the start of each event's
    /// iteration to the start of the next, answer checks included, so the
    /// entries add up to `wall`.
    pub event: Vec<u64>,
    /// Per-completion latency (queries and pages), nanoseconds.
    pub complete: Vec<u64>,
    /// Per-edit latency (opens and updates), nanoseconds.
    pub edit: Vec<u64>,
    /// Events that failed: error responses, events on unopened points,
    /// truncated completions, shadow mismatches.
    pub failed: u64,
    pub digest: u64,
    /// Time the traced pass spent re-running cold completions through the
    /// phases and re-parsing request lines, outside every event's window.
    pub shadow: Duration,
    /// Time dropping the pass's engine took, after the loop.
    pub teardown: Duration,
}

impl PassOutcome {
    /// Sets `wall` and `event` from the instants each event's iteration
    /// started at, closing the last one now.
    fn laps(&mut self, mut marks: Vec<Instant>) {
        marks.push(Instant::now());
        self.wall = marks[marks.len() - 1].saturating_duration_since(marks[0]);
        self.event = marks.windows(2).map(|w| nanos(w[0], w[1])).collect();
    }
}

/// Trace-mode state threaded through a pass.
pub struct Traced<'a> {
    pub tracer: &'a mut Tracer,
    pub layers: &'a mut Layers,
}

pub fn replay(path: Path, pass: &PreparedTrace, traced: Option<Traced<'_>>) -> PassOutcome {
    let requests = match path {
        Path::Library => pass.library.len(),
        Path::Server => pass.lines.len(),
    };
    assert_eq!(
        requests,
        pass.trace.events.len(),
        "trace not rendered for the {} path",
        path.name()
    );
    match path {
        Path::Library => replay_library(pass, traced),
        Path::Server => replay_server(pass, traced),
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

fn replay_library(pass: &PreparedTrace, mut traced: Option<Traced<'_>>) -> PassOutcome {
    let engine = Engine::new(replay_config(&pass.trace));
    let mut sessions: HashMap<u32, Session> = HashMap::new();
    let mut out = PassOutcome {
        events: pass.trace.events.len() as u64,
        ..PassOutcome::default()
    };
    let mut marks = Vec::with_capacity(pass.trace.events.len() + 1);
    for (index, (event, request)) in pass.trace.events.iter().zip(&pass.library).enumerate() {
        marks.push(Instant::now());
        let point = event.point;
        let mut digest = EventDigest::new(index, event.kind.op(), point);
        match request {
            LibraryRequest::Open(env) => {
                let prepares = engine.prepare_count();
                let t0 = Instant::now();
                let session = engine.prepare(env);
                let t1 = Instant::now();
                out.edit.push(nanos(t0, t1));
                if let Some(tr) = traced.as_mut() {
                    let root = tr.tracer.record(index, ROOT, "event", t0, t1);
                    tr.tracer.record(index, root, "engine.prepare", t0, t1);
                    let miss = engine.prepare_count() > prepares;
                    tr.layers.open(miss, nanos(t0, t1));
                }
                digest.text(&session.fingerprint().to_string());
                sessions.insert(point, session);
            }
            LibraryRequest::Update { delta, removes } => {
                let Some(session) = sessions.get(&point) else {
                    out.failed += 1;
                    continue;
                };
                let prepares = engine.prepare_count();
                let t0 = Instant::now();
                let updated = session.update(delta);
                let t1 = Instant::now();
                out.edit.push(nanos(t0, t1));
                if let Some(tr) = traced.as_mut() {
                    let root = tr.tracer.record(index, ROOT, "event", t0, t1);
                    tr.tracer.record(index, root, "session.update", t0, t1);
                    let reprepared = engine.prepare_count() > prepares;
                    tr.layers.update(*removes, reprepared, nanos(t0, t1));
                }
                digest.text(&updated.fingerprint().to_string());
                sessions.insert(point, updated);
            }
            LibraryRequest::Complete { query, cursor } => {
                let Some(session) = sessions.get(&point) else {
                    out.failed += 1;
                    continue;
                };
                let builds = engine.graph_build_count();
                let t0 = Instant::now();
                let result = session.query(query);
                let t1 = Instant::now();
                let page: Vec<String> = result
                    .snippets
                    .iter()
                    .skip(*cursor)
                    .map(|snippet| snippet.term.to_string())
                    .collect();
                let t2 = Instant::now();
                out.complete.push(nanos(t0, t2));
                if result.stats.truncated {
                    out.failed += 1;
                }
                for term in &page {
                    digest.text(term);
                }
                if let Some(tr) = traced.as_mut() {
                    let root = tr.tracer.record(index, ROOT, "event", t0, t2);
                    let span = tr.tracer.record(index, root, "session.query", t0, t1);
                    tr.tracer.record(index, root, "term.display", t1, t2);
                    let cold = engine.graph_build_count() > builds;
                    tr.layers.query(cold, &result.stats, nanos(t0, t1));
                    tr.layers.render(page.len() as u64, nanos(t1, t2));
                    if cold {
                        let shadow_started = Instant::now();
                        let timed: Vec<String> =
                            result.snippets.iter().map(|s| s.term.to_string()).collect();
                        let reproduced =
                            shadow_cold(tr, index, span, session, query.goal(), query.n());
                        if reproduced != timed {
                            eprintln!(
                                "shadow mismatch at pass {} event {index}: timed {timed:?}, phases {reproduced:?}",
                                pass.trace_seed
                            );
                            out.failed += 1;
                        }
                        out.shadow += shadow_started.elapsed();
                    }
                }
            }
            LibraryRequest::Close => {
                sessions.remove(&point);
                continue;
            }
        }
        out.digest ^= digest.finish();
    }
    out.laps(marks);
    if let Some(tr) = traced.as_mut() {
        tr.layers.engine(&engine.stats());
    }
    let teardown = Instant::now();
    drop((sessions, engine));
    out.teardown = teardown.elapsed();
    out
}

/// Re-runs a cold completion through the public phase functions, recording
/// each as a child span of the completion's `session.query` span, and
/// returns the terms it reproduces (coercions erased, as the session
/// reports them). Budgets are the session's, minus the wall-clock ones: the
/// timed answer was not truncated, so neither may its reproduction be.
fn shadow_cold(
    tr: &mut Traced<'_>,
    request: usize,
    parent: SpanId,
    session: &Session,
    goal: &Ty,
    n: usize,
) -> Vec<String> {
    let config = session.config();
    let env = session.env();

    let t0 = Instant::now();
    let prepared = Arc::new(PreparedEnv::prepare(env, &config.weights));
    let t1 = Instant::now();
    let mut store = prepared.scratch();
    let goal_succ = store.sigma(goal);
    let space = explore(
        &prepared,
        &mut store,
        goal_succ,
        &ExploreLimits {
            max_requests: config.max_explore_requests,
            time_limit: None,
        },
    );
    let t2 = Instant::now();
    let patterns = generate_patterns(&mut store, &space);
    let t3 = Instant::now();
    let graph = DerivationGraph::build_with_threads(
        &prepared,
        &mut store,
        &patterns,
        env,
        &config.weights,
        goal,
        config.graph_build_threads,
    );
    let t4 = Instant::now();
    let outcome = generate_terms(
        &graph,
        env,
        n,
        &GenerateLimits {
            max_steps: config.max_reconstruction_steps,
            time_limit: None,
            max_depth: config.max_depth,
            ..GenerateLimits::default()
        },
    );
    let t5 = Instant::now();

    for (name, from, to) in [
        ("shadow.prepare", t0, t1),
        ("shadow.explore", t1, t2),
        ("shadow.genp", t2, t3),
        ("shadow.graph", t3, t4),
        ("shadow.walk", t4, t5),
    ] {
        tr.tracer.record(request, parent, name, from, to);
    }
    tr.layers.shadow(
        [
            nanos(t0, t1),
            nanos(t1, t2),
            nanos(t2, t3),
            nanos(t3, t4),
            nanos(t4, t5),
        ],
        ShadowCounts {
            requests: space.requests_processed as u64,
            patterns: patterns.len() as u64,
            nodes: graph.node_count() as u64,
            edges: graph.edge_count() as u64,
            pruned: outcome.pruned_enqueues as u64,
        },
    );
    outcome
        .terms
        .iter()
        .map(|ranked| erase_coercions(&ranked.term).to_string())
        .collect()
}

fn replay_server(pass: &PreparedTrace, mut traced: Option<Traced<'_>>) -> PassOutcome {
    let server = Server::new(
        Engine::new(replay_config(&pass.trace)),
        replay_server_config(&pass.trace),
    );
    let mut out = PassOutcome {
        events: pass.trace.events.len() as u64,
        ..PassOutcome::default()
    };
    let mut marks = Vec::with_capacity(pass.trace.events.len() + 1);
    for (index, (event, line)) in pass.trace.events.iter().zip(&pass.lines).enumerate() {
        let t0 = Instant::now();
        marks.push(t0);
        let response = server.handle_line(line);
        let t1 = Instant::now();
        let text = response.to_string();
        let t2 = Instant::now();
        black_box(&text);
        let latency = nanos(t0, t2);
        match &event.kind {
            TraceEventKind::Open { .. } | TraceEventKind::Update { .. } => out.edit.push(latency),
            TraceEventKind::Query { .. } | TraceEventKind::Page { .. } => {
                out.complete.push(latency)
            }
            TraceEventKind::Close => {}
        }
        match check_response(&event.kind, index, event.point, &response) {
            Some(digest) => out.digest ^= digest,
            None => out.failed += 1,
        }
        if let Some(tr) = traced.as_mut() {
            let root = tr.tracer.record(index, ROOT, "event", t0, t2);
            let handle = tr.tracer.record(index, root, "server.handle_line", t0, t1);
            tr.tracer.record(index, root, "json.to_string", t1, t2);
            // The parse `handle_line` performs first, re-run on its own
            // outside the event's window.
            let p0 = Instant::now();
            black_box(parse_json(line).is_ok());
            let p1 = Instant::now();
            tr.tracer.record(index, handle, "server.parse_json", p0, p1);
            tr.layers.server(
                nanos(t0, t1),
                nanos(t1, t2),
                nanos(p0, p1),
                text.len() as u64,
            );
            out.shadow += p1 - p0;
        }
    }
    out.laps(marks);
    let teardown = Instant::now();
    drop(server);
    out.teardown = teardown.elapsed();
    out
}

/// Checks one response and returns its event digest; `None` marks a failed
/// event (an error response, a malformed result, a truncated completion).
fn check_response(kind: &TraceEventKind, index: usize, point: u32, response: &Json) -> Option<u64> {
    let result = response.get("result")?;
    let mut digest = EventDigest::new(index, kind.op(), point);
    match kind {
        TraceEventKind::Open { .. } | TraceEventKind::Update { .. } => {
            digest.text(result.get("fingerprint")?.as_str()?);
        }
        TraceEventKind::Query { .. } | TraceEventKind::Page { .. } => {
            if result.get("truncated")?.as_bool()? {
                return None;
            }
            for value in result.get("values")?.as_arr()? {
                digest.text(value.get("term")?.as_str()?);
            }
        }
        TraceEventKind::Close => return Some(0),
    }
    Some(digest.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::workload;
    use insynth_bench::replay::{replay_library as reference_library, trace_environment};
    use insynth_corpus::trace::{generate_trace, Trace, TraceEnvSpec, TraceEvent, TraceGenConfig};

    fn prepared(trace: Trace) -> (PreparedTrace, insynth_core::TypeEnv) {
        let ambient = trace_environment(trace.env);
        let both = [Path::Library, Path::Server];
        (PreparedTrace::new(trace, 0, &ambient, &both), ambient)
    }

    fn small_pass() -> (PreparedTrace, insynth_core::TypeEnv) {
        prepared(generate_trace(&TraceGenConfig {
            seed: 11,
            events: 150,
            env: TraceEnvSpec::Figure1 { filler: 0 },
            ..(workload("edit_figure1").unwrap().knobs)()
        }))
    }

    #[test]
    fn both_paths_digest_like_the_reference_replay() {
        let (pass, ambient) = small_pass();
        let lib = replay(Path::Library, &pass, None);
        let srv = replay(Path::Server, &pass, None);
        let reference = reference_library(&pass.trace, &ambient, 1);
        assert_eq!(lib.failed, 0);
        assert_eq!(srv.failed, 0);
        assert_eq!(lib.digest, reference.digest);
        assert_eq!(srv.digest, reference.digest);
        assert_eq!(lib.complete.len() as u64, reference.completions);
        assert_eq!(lib.events, 150);
    }

    #[test]
    fn traced_pass_reproduces_cold_answers_and_matches_untraced() {
        let (pass, _) = small_pass();
        let mut tracer = Tracer::new();
        let mut layers = Layers::default();
        let traced = replay(
            Path::Library,
            &pass,
            Some(Traced {
                tracer: &mut tracer,
                layers: &mut layers,
            }),
        );
        let plain = replay(Path::Library, &pass, None);
        assert_eq!(traced.failed, 0, "a shadow run diverged");
        assert_eq!(traced.digest, plain.digest);
        assert!(layers.cold.count > 0);
        assert_eq!(layers.shadow_runs, layers.cold.count);
        // Every shadow phase is a child of a session.query span.
        let spans = tracer.spans();
        for s in spans.iter().filter(|s| s.name.starts_with("shadow.")) {
            let parent = &spans[s.parent as usize - 1];
            assert_eq!(parent.name, "session.query");
            assert_eq!(parent.request, s.request);
        }
    }

    #[test]
    fn failures_are_counted_per_event() {
        // A query and an update before their point is opened, then a
        // well-formed open and query.
        let goal = insynth_lambda::Ty::base("String");
        let event = |tick, point, kind| TraceEvent { tick, point, kind };
        let trace = Trace {
            env: TraceEnvSpec::Figure1 { filler: 0 },
            events: vec![
                event(
                    1,
                    0,
                    TraceEventKind::Query {
                        goal: goal.clone(),
                        n: 3,
                    },
                ),
                event(
                    1,
                    0,
                    TraceEventKind::Update {
                        adds: Vec::new(),
                        removes: vec!["p0_a".into()],
                        reweights: Vec::new(),
                    },
                ),
                event(2, 0, TraceEventKind::Open { locals: Vec::new() }),
                event(3, 0, TraceEventKind::Query { goal, n: 3 }),
            ],
        };
        let (pass, _) = prepared(trace);
        for path in [Path::Library, Path::Server] {
            let outcome = replay(path, &pass, None);
            assert_eq!(outcome.events, 4, "{}", path.name());
            assert_eq!(outcome.failed, 2, "{}", path.name());
        }
    }
}
