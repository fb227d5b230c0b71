//! Integration tests of the session API: prepare once / query many, batched
//! execution, and concurrent use of a shared session.
//!
//! The determinism contract under test: `Engine::query_batch` must return,
//! in input order, results byte-identical to running every query sequentially
//! through `Session::query`, no matter how the thread pool schedules them;
//! and a single `Arc<Session>` must serve identical answers from any number
//! of threads.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use insynth::apimodel::{extract, javaapi, ProgramPoint};
use insynth::core::{
    BatchRequest, DeclKind, Declaration, Engine, EngineStatsSnapshot, EnvDelta, Query, Session,
    SynthesisConfig, SynthesisResult, TypeEnv,
};
use insynth::corpus::synthetic_corpus;
use insynth::lambda::Ty;

fn motivating_env(point: ProgramPoint) -> TypeEnv {
    let model = javaapi::standard_model();
    let mut env = extract(&model, &point);
    let corpus = synthetic_corpus(&model, 42);
    corpus.apply(&mut env);
    env
}

fn io_point_env() -> TypeEnv {
    motivating_env(
        ProgramPoint::new()
            .with_local("body", Ty::base("String"))
            .with_local("sig", Ty::base("String"))
            .with_import("java.io")
            .with_import("java.lang"),
    )
}

fn tree_point_env() -> TypeEnv {
    motivating_env(
        ProgramPoint::new()
            .with_local("tree", Ty::base("Tree"))
            .with_local("p", Ty::fun(vec![Ty::base("Tree")], Ty::base("Boolean")))
            .with_import("scala.tools.eclipse.javaelements")
            .with_import("java.lang"),
    )
}

fn tiny_env() -> TypeEnv {
    vec![
        Declaration::simple("a", Ty::base("A"), DeclKind::Local),
        Declaration::simple(
            "s",
            Ty::fun(vec![Ty::base("A")], Ty::base("A")),
            DeclKind::Local,
        ),
    ]
    .into_iter()
    .collect()
}

/// Byte-precise fingerprint of a result: rendered terms, raw terms, and the
/// exact bit patterns of the ranking weights.
fn fingerprint(result: &SynthesisResult) -> Vec<(String, String, u64, usize, usize)> {
    result
        .snippets
        .iter()
        .map(|s| {
            (
                s.term.to_string(),
                s.raw_term.to_string(),
                s.weight.value().to_bits(),
                s.depth,
                s.coercions,
            )
        })
        .collect()
}

#[test]
fn session_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<Engine>();
    assert_send_sync::<Arc<Session>>();
}

#[test]
fn query_batch_matches_sequential_queries_over_mixed_environments() {
    let engine = Engine::new(SynthesisConfig::default());
    let io = io_point_env();
    let tree = tree_point_env();
    let tiny = tiny_env();

    // Mixed program points, interleaved, with repeated points and varying N —
    // the grouping must prepare each distinct point once and still return
    // results in input order.
    let requests = vec![
        BatchRequest::new(
            io.clone(),
            Query::new(Ty::base("SequenceInputStream")).with_n(10),
        ),
        BatchRequest::new(tiny.clone(), Query::new(Ty::base("A")).with_n(7)),
        BatchRequest::new(
            tree.clone(),
            Query::new(Ty::base("FilterTypeTreeTraverser")).with_n(5),
        ),
        BatchRequest::new(io.clone(), Query::new(Ty::base("BufferedReader")).with_n(8)),
        BatchRequest::new(
            tiny.clone(),
            Query::new(Ty::base("A")).with_n(3).with_max_depth(2),
        ),
        BatchRequest::new(
            io.clone(),
            Query::new(Ty::base("FileInputStream")).with_n(4),
        ),
        BatchRequest::new(tree.clone(), Query::new(Ty::base("Boolean")).with_n(6)),
    ];

    let batched = engine.query_batch(&requests);
    assert_eq!(batched.len(), requests.len());

    for (i, request) in requests.iter().enumerate() {
        let sequential = engine.prepare(&request.env).query(&request.query);
        assert_eq!(
            fingerprint(&batched[i]),
            fingerprint(&sequential),
            "batched result {i} diverged from the sequential query"
        );
    }

    // Re-running the batch is deterministic too.
    let again = engine.query_batch(&requests);
    for (first, second) in batched.iter().zip(&again) {
        assert_eq!(fingerprint(first), fingerprint(second));
    }
}

#[test]
fn one_arc_session_serves_identical_results_from_many_threads() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = Arc::new(engine.prepare(&io_point_env()));

    let reference = session.query(&Query::new(Ty::base("SequenceInputStream")).with_n(10));
    let expected = fingerprint(&reference);

    let handles: Vec<_> = (0..6)
        .map(|worker| {
            let session = Arc::clone(&session);
            thread::spawn(move || {
                // Each thread issues several queries, including a goal of its
                // own, to interleave scratch interning across threads.
                let shared = session.query(&Query::new(Ty::base("SequenceInputStream")).with_n(10));
                let own_goal = if worker % 2 == 0 {
                    Ty::base("BufferedReader")
                } else {
                    Ty::base("FileInputStream")
                };
                let own = session.query(&Query::new(own_goal).with_n(5));
                (fingerprint(&shared), fingerprint(&own))
            })
        })
        .collect();

    for handle in handles {
        let (shared, own) = handle.join().expect("worker thread must not panic");
        assert_eq!(shared, expected, "concurrent query diverged");
        assert!(!own.is_empty());
    }
}

#[test]
fn batch_with_a_single_request_equals_the_direct_query() {
    let engine = Engine::new(SynthesisConfig::default());
    let env = tiny_env();
    let query = Query::new(Ty::base("A")).with_n(4);
    let batched = engine.query_batch(&[BatchRequest::new(env.clone(), query.clone())]);
    let direct = engine.prepare(&env).query(&query);
    assert_eq!(fingerprint(&batched[0]), fingerprint(&direct));
}

#[test]
fn repeated_queries_reuse_the_cached_graph_and_return_identical_results() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&io_point_env());
    assert_eq!(session.cached_graph_count(), 0);

    let query = Query::new(Ty::base("SequenceInputStream")).with_n(10);
    let first = session.query(&query);
    assert_eq!(
        session.cached_graph_count(),
        1,
        "first query builds the graph"
    );
    let second = session.query(&query);
    assert_eq!(session.cached_graph_count(), 1, "repeat query reuses it");

    // Identical snippets, weights and search statistics on the cached path.
    assert_eq!(fingerprint(&first), fingerprint(&second));
    assert_eq!(
        first.stats.requests_processed,
        second.stats.requests_processed
    );
    assert_eq!(first.stats.patterns, second.stats.patterns);
    assert_eq!(
        first.stats.reconstruction_steps,
        second.stats.reconstruction_steps
    );

    // A different n on the same goal shares the graph and returns a prefix.
    let top3 = session.query(&Query::new(Ty::base("SequenceInputStream")).with_n(3));
    assert_eq!(session.cached_graph_count(), 1);
    assert_eq!(fingerprint(&top3), fingerprint(&first)[..3].to_vec());

    // A new goal builds (and caches) its own graph.
    let _ = session.query(&Query::new(Ty::base("BufferedReader")).with_n(5));
    assert_eq!(session.cached_graph_count(), 2);
}

#[test]
fn structurally_equal_points_share_preparation_and_graphs_across_a_batch() {
    // The cross-point contract at paper scale: a batch over clones and a
    // permutation of one program point runs σ once and builds each queried
    // goal's graph once, while answering byte-identically to sequential
    // queries.
    let engine = Engine::new(SynthesisConfig::default());
    let env = io_point_env();
    let reversed: TypeEnv = env.iter().rev().cloned().collect();

    let goal = || Query::new(Ty::base("SequenceInputStream")).with_n(10);
    let requests = vec![
        BatchRequest::new(env.clone(), goal()),
        BatchRequest::new(reversed.clone(), goal()),
        BatchRequest::new(env.clone(), goal()),
        BatchRequest::new(env.clone(), goal().with_n(4)),
    ];
    let batched = engine.query_batch(&requests);

    assert_eq!(engine.prepare_count(), 1, "one σ run for four requests");
    assert_eq!(
        engine.graph_build_count(),
        1,
        "one derivation graph for four requests over one goal"
    );
    for result in &batched[1..3] {
        assert_eq!(fingerprint(result), fingerprint(&batched[0]));
    }
    assert_eq!(fingerprint(&batched[3]), fingerprint(&batched[0])[..4]);

    // Sequential preparation of the permuted environment also reuses the
    // canonical point.
    let session = engine.prepare(&reversed);
    assert_eq!(engine.prepare_count(), 1);
    assert_eq!(
        fingerprint(&session.query(&goal())),
        fingerprint(&batched[0])
    );
}

#[test]
fn interactive_edit_loop_updates_incrementally_and_matches_fresh_preparation() {
    // The paper's interactive loop: prepare, query, the user edits, query
    // again. The updated session must answer exactly like a from-scratch
    // preparation of the edited environment.
    let engine = Engine::new(SynthesisConfig::default());
    let env = io_point_env();
    let session = engine.prepare(&env);
    let query = Query::new(Ty::base("SequenceInputStream")).with_n(10);
    let before = session.query(&query);

    // Edit 1: a new String local appears (its type is already in Γ).
    let delta = EnvDelta::new().add(Declaration::simple(
        "header",
        Ty::base("String"),
        DeclKind::Local,
    ));
    let edited_session = session.update(&delta);
    let after = edited_session.query(&query);
    // The new local is cheap and shows up in the suggestions.
    assert!(
        after
            .snippets
            .iter()
            .any(|s| s.term.to_string().contains("header")),
        "the added local must appear in the edited point's suggestions"
    );

    let fresh = Engine::new(SynthesisConfig::default())
        .prepare(&delta.apply(session.env()))
        .query(&query);
    assert_eq!(fingerprint(&after), fingerprint(&fresh));

    // Edit 2: remove it again — the session round-trips back to the
    // original point's fingerprint and results.
    let back = edited_session.update(&EnvDelta::new().remove("header"));
    assert_eq!(back.fingerprint(), session.fingerprint());
    assert_eq!(fingerprint(&back.query(&query)), fingerprint(&before));

    // The original session was never disturbed.
    assert_eq!(fingerprint(&session.query(&query)), fingerprint(&before));
}

#[test]
fn prepare_time_is_paid_once_per_session() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&io_point_env());
    let prepare_once = session.prepare_time();

    // Many queries later, the session reports the same one-off prepare cost.
    for _ in 0..3 {
        let _ = session.query(&Query::new(Ty::base("FileInputStream")).with_n(5));
    }
    assert_eq!(session.prepare_time(), prepare_once);
}

#[test]
fn sessions_prepared_from_one_engine_are_independent() {
    let engine = Engine::new(SynthesisConfig::default());
    let io = engine.prepare(&io_point_env());
    let tiny = engine.prepare(&tiny_env());

    let io_result = io.query(&Query::new(Ty::base("FileInputStream")).with_n(5));
    let tiny_result = tiny.query(&Query::new(Ty::base("A")).with_n(5));

    assert!(io_result
        .snippets
        .iter()
        .any(|s| s.term.to_string().contains("FileInputStream")));
    assert_eq!(tiny_result.snippets[0].term.to_string(), "a");
    // Distinct program points, distinct prepared sizes.
    assert_ne!(
        io_result.stats.initial_declarations,
        tiny_result.stats.initial_declarations
    );
}

#[test]
fn growing_n_resumes_the_suspended_walk_without_replaying() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&io_point_env());
    let query = |n| Query::new(Ty::base("SequenceInputStream")).with_n(n);

    let ten = session.query(&query(10));
    assert!(!ten.stats.resumed, "first query starts from scratch");
    assert_eq!(
        ten.stats.reconstruction_new_steps,
        ten.stats.reconstruction_steps
    );
    assert!(
        ten.stats.has_more,
        "the IO point offers more than ten terms"
    );
    assert_eq!(engine.suspended_walk_count(), 1);

    let twenty = session.query(&query(20));
    assert!(
        twenty.stats.resumed,
        "the grown query resumes the parked walk"
    );
    assert_eq!(engine.graph_build_count(), 1, "resume rebuilds nothing");
    assert!(
        twenty.stats.reconstruction_new_steps < twenty.stats.reconstruction_steps,
        "a resumed walk pays only the delta"
    );

    // Byte-identical to a from-scratch n=20 on a cold engine, cumulative
    // search statistics included.
    let scratch = Engine::new(SynthesisConfig::default())
        .prepare(&io_point_env())
        .query(&query(20));
    assert!(!scratch.stats.resumed);
    assert_eq!(fingerprint(&twenty), fingerprint(&scratch));
    assert_eq!(
        twenty.stats.reconstruction_steps,
        scratch.stats.reconstruction_steps
    );
    assert_eq!(fingerprint(&ten), fingerprint(&scratch)[..10].to_vec());
}

#[test]
fn term_streams_paginate_deterministically_and_match_query() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&io_point_env());
    let query = Query::new(Ty::base("SequenceInputStream")).with_n(4);

    let first: Vec<_> = session.query_stream(&query).take(4).collect();
    assert_eq!(first.len(), 4);

    // A second stream resumes the suspended walk and replays the identical
    // prefix; dropping streams mid-iteration never perturbs later answers.
    let mut second_stream = session.query_stream(&query);
    assert!(second_stream.resumed());
    assert!(second_stream.has_more());
    let second: Vec<_> = second_stream.by_ref().take(4).collect();
    assert_eq!(first, second);
    assert!(
        second_stream.has_more(),
        "the IO point offers more than four terms"
    );
    drop(second_stream);

    // The classic API sees the same terms, weights and order.
    let result = session.query(&query);
    assert_eq!(result.snippets.len(), 4);
    for (ranked, snippet) in first.iter().zip(&result.snippets) {
        assert_eq!(ranked.term.to_string(), snippet.raw_term.to_string());
        assert_eq!(
            ranked.weight.value().to_bits(),
            snippet.weight.value().to_bits()
        );
    }
    assert!(result.stats.resumed);
    assert_eq!(
        result.stats.reconstruction_new_steps, 0,
        "a fully warmed walk serves n=4 from its emission log"
    );
}

#[test]
fn unrelated_edit_carries_the_suspended_walk_across_update() {
    let mut env = tiny_env();
    env.push(Declaration::simple(
        "gadget",
        Ty::base("Gadget"),
        DeclKind::Local,
    ));
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&env);
    let query = Query::new(Ty::base("A")).with_n(6);
    let before = session.query(&query);
    assert!(!before.stats.resumed);
    assert_eq!(engine.graph_build_count(), 1);
    assert_eq!(engine.suspended_walk_count(), 1);

    // Appending another Gadget cannot reach the A-walk: the A exploration
    // never requests Gadget, so the graph — suspended walk included —
    // carries over to the edited point.
    let delta = EnvDelta::new().add(Declaration::simple(
        "gadget2",
        Ty::base("Gadget"),
        DeclKind::Imported,
    ));
    let updated = session.update(&delta);
    let after = updated.query(&query);
    assert_eq!(engine.graph_build_count(), 1, "graph carried, not rebuilt");
    assert!(
        after.stats.resumed,
        "the suspended walk rode along with the carried graph"
    );
    assert_eq!(
        after.stats.reconstruction_new_steps, 0,
        "same n: the resumed walk serves its emission log without popping"
    );
    assert_eq!(fingerprint(&after), fingerprint(&before));

    // Identical to a fresh preparation of the edited environment.
    let fresh = Engine::new(SynthesisConfig::default())
        .prepare(&delta.apply(session.env()))
        .query(&query);
    assert_eq!(fingerprint(&after), fingerprint(&fresh));
}

#[test]
fn reaching_edit_drops_the_suspended_walk() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&tiny_env());
    let query = Query::new(Ty::base("A")).with_n(5);
    let before = session.query(&query);
    assert_eq!(engine.graph_build_count(), 1);
    assert_eq!(engine.suspended_walk_count(), 1);

    // A new producer of the walk's goal type reaches the graph: the edited
    // session must rebuild and must NOT resume the stale frontier.
    let delta = EnvDelta::new().add(Declaration::simple(
        "t",
        Ty::fun(vec![Ty::base("A")], Ty::base("A")),
        DeclKind::Local,
    ));
    let updated = session.update(&delta);
    let after = updated.query(&query);
    assert_eq!(
        engine.graph_build_count(),
        2,
        "the reaching edit forces a rebuild"
    );
    assert!(
        !after.stats.resumed,
        "no stale resume across a reaching edit"
    );
    let fresh = Engine::new(SynthesisConfig::default())
        .prepare(&delta.apply(session.env()))
        .query(&query);
    assert_eq!(fingerprint(&after), fingerprint(&fresh));
    assert_ne!(
        fingerprint(&after),
        fingerprint(&before),
        "the new producer changes the suggestions"
    );

    // The original session's walk is untouched and still resumes.
    let again = session.query(&query);
    assert!(again.stats.resumed);
    assert_eq!(fingerprint(&again), fingerprint(&before));
}

/// `(space_builds, graph_rebinds, graph_build_count)` of an engine.
fn build_split(stats: EngineStatsSnapshot) -> (usize, usize, usize) {
    (
        stats.space_builds,
        stats.graph_rebinds,
        stats.graph_build_count,
    )
}

/// Asserts that `result` answers exactly like an independent engine
/// preparing `env` afresh: terms, weight bits and search statistics.
fn assert_fresh_identical(result: &SynthesisResult, env: &TypeEnv, query: &Query) {
    let fresh = Engine::new(SynthesisConfig::default())
        .prepare(env)
        .query(query);
    assert_eq!(fingerprint(result), fingerprint(&fresh));
    assert_eq!(
        result.stats.requests_processed,
        fresh.stats.requests_processed
    );
    assert_eq!(result.stats.patterns, fresh.stats.patterns);
    assert_eq!(
        result.stats.reconstruction_steps,
        fresh.stats.reconstruction_steps
    );
    assert_eq!(result.stats.truncated, fresh.stats.truncated);
}

/// An environment whose σ-environment also covers `(Int → String) →
/// String`: `apply`'s argument `Int → Int → String` lowers to `{Int} →
/// String` too.
fn hole_env() -> TypeEnv {
    vec![
        Declaration::simple("s", Ty::base("String"), DeclKind::Local),
        Declaration::simple("n", Ty::base("Int"), DeclKind::Local),
        Declaration::simple(
            "fmt",
            Ty::fun(
                vec![Ty::base("Int"), Ty::base("String")],
                Ty::base("String"),
            ),
            DeclKind::Imported,
        ),
        Declaration::simple(
            "apply",
            Ty::fun(
                vec![Ty::fun(
                    vec![Ty::base("Int"), Ty::base("Int")],
                    Ty::base("String"),
                )],
                Ty::base("String"),
            ),
            DeclKind::Imported,
        ),
    ]
    .into_iter()
    .collect()
}

#[test]
fn two_points_with_one_sigma_environment_explore_each_goal_once() {
    let engine = Engine::new(SynthesisConfig::default());
    let io = io_point_env();
    // Other local names, same types in the same order: a different program
    // point (and fingerprint) over the same σ-environment.
    let renamed: TypeEnv = io
        .iter()
        .map(|decl| {
            let mut decl = decl.clone();
            if decl.name == "body" || decl.name == "sig" {
                decl.name = format!("{}2", decl.name);
            }
            decl
        })
        .collect();
    let first = engine.prepare(&io);
    let second = engine.prepare(&renamed);
    assert_ne!(first.fingerprint(), second.fingerprint());
    assert_eq!(
        first.prepared().sigma_space_digest(),
        second.prepared().sigma_space_digest()
    );

    let query = Query::new(Ty::base("SequenceInputStream")).with_n(10);
    let _ = first.query(&query);
    let rebound = second.query(&query);
    assert_eq!(
        build_split(engine.stats()),
        (1, 1, 2),
        "one exploration, one rebind"
    );
    assert!(rebound
        .snippets
        .iter()
        .any(|s| s.term.to_string().contains("body2")));
    assert_fresh_identical(&rebound, &renamed, &query);

    // A second goal explores once more, then rebinds at the other point.
    let other = Query::new(Ty::base("BufferedReader")).with_n(8);
    let _ = second.query(&other);
    let rebound = first.query(&other);
    assert_eq!(build_split(engine.stats()), (2, 2, 4));
    assert_fresh_identical(&rebound, &io, &other);
}

#[test]
fn a_hole_type_the_space_never_interned_forces_a_full_build() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&hole_env());
    let query = Query::new(Ty::base("String")).with_n(12);
    let _ = session.query(&query);
    assert_eq!(build_split(engine.stats()), (1, 0, 1));

    // Same σ-environment and per-type weights, but `apply1`'s argument
    // needs the hole type `Int -> String`, which the space never interned.
    let delta = EnvDelta::new().add(Declaration::simple(
        "apply1",
        Ty::fun(
            vec![Ty::fun(vec![Ty::base("Int")], Ty::base("String"))],
            Ty::base("String"),
        ),
        DeclKind::Imported,
    ));
    let updated = session.update(&delta);
    assert_eq!(
        updated.prepared().sigma_space_digest(),
        session.prepared().sigma_space_digest()
    );
    let result = updated.query(&query);
    assert_eq!(
        build_split(engine.stats()),
        (2, 0, 2),
        "the rebind fell back"
    );
    assert!(result
        .snippets
        .iter()
        .any(|s| s.term.to_string().contains("apply1")));
    assert_fresh_identical(&result, updated.env(), &query);
}

#[test]
fn a_reweight_that_moves_a_type_weight_does_not_reuse_the_space() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&hole_env());
    let query = Query::new(Ty::base("String")).with_n(12);
    let _ = session.query(&query);

    // `s` is the lightest `String` producer: lowering it moves the weight
    // exploration orders `String` requests by.
    let delta = EnvDelta::new().reweight("s", 0.5);
    let updated = session.update(&delta);
    assert_ne!(
        updated.prepared().sigma_space_digest(),
        session.prepared().sigma_space_digest()
    );
    let result = updated.query(&query);
    assert_eq!(build_split(engine.stats()), (2, 0, 2));
    assert_fresh_identical(&result, updated.env(), &query);

    // A heavier `String` producer keeps the per-type weights, so the space
    // is reused.
    let delta = EnvDelta::new()
        .add(Declaration::simple("t", Ty::base("String"), DeclKind::Local).with_weight(40.0));
    let heavier = updated.update(&delta);
    let result = heavier.query(&query);
    assert_eq!(build_split(engine.stats()), (2, 1, 3));
    assert_fresh_identical(&result, heavier.env(), &query);
}

#[test]
fn a_time_truncated_exploration_never_publishes_its_space() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&hole_env());
    let twin = engine.prepare(
        &hole_env()
            .iter()
            .map(|decl| {
                let mut decl = decl.clone();
                decl.name.push('2');
                decl
            })
            .collect(),
    );
    let truncated = Query::new(Ty::base("String"))
        .with_n(12)
        .with_prover_time_limit(Some(Duration::ZERO));
    let result = session.query(&truncated);
    assert!(
        result.stats.truncated,
        "a zero prover budget truncates exploration"
    );

    // Neither the same point nor a point of the same σ-environment may
    // rebind over the truncated space: both explore again.
    let _ = session.query(&truncated);
    let _ = twin.query(&truncated);
    assert_eq!(build_split(engine.stats()), (3, 0, 3));
    assert_eq!(engine.cached_graph_count(), 0);
}
