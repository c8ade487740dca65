//! Integration tests for the resident mining service.

use graphsig_core::{render_subgraphs, GraphSig, GraphSigConfig};
use graphsig_server::harness::{check, Harness};
use graphsig_server::{ServerConfig, Status};

type TestResult = Result<(), String>;

/// The one-shot pipeline's mine payload for `aids_like(count, seed)`.
fn one_shot(count: usize, seed: u64) -> String {
    let db = graphsig_datagen::aids_like(count, seed).db;
    let result = GraphSig::new(GraphSigConfig {
        min_freq: 0.05,
        max_pvalue: 0.05,
        radius: 3,
        ..GraphSigConfig::default()
    })
    .mine_outcome(&db)
    .result;
    render_subgraphs(&db, &result, usize::MAX)
}

/// The fault-injection gauntlet: every degradation path at once, and
/// every submitted request must resolve to exactly one structured
/// response — no silent drops, no dead workers:
///
/// 1. concurrent mine requests with mixed budgets (unlimited, expired
///    deadline, step budget),
/// 2. one deliberately panicking request (isolated to an error response),
/// 3. one request cancelled mid-flight,
/// 4. queue-full `busy` rejections while both workers are pinned,
/// 5. repeated identical requests served from the shared window-pass
///    cache, byte-identical to the in-process one-shot pipeline,
/// 6. a `freq` request sharing the label-pair index,
/// 7. graceful shutdown whose drain deadline force-cancels a hung
///    request — which still gets its response.
#[test]
fn smoke_scenario_passes() -> TestResult {
    let mut h = Harness::new(ServerConfig {
        workers: 2,
        queue_capacity: 2,
        drain_ms: 10_000,
        allow_inject: true,
        ..ServerConfig::default()
    });
    let mine = "dataset=d min_freq=0.05 max_pvalue=0.05 radius=3";

    // -- Resident dataset ------------------------------------------------
    h.send("load id=load1 dataset=d gen=aids count=120 seed=7");
    let (resp, _) = h.wait_response("load1")?;
    check(resp.status == Status::Ok, "load must succeed")?;
    check(
        resp.field("version") == Some("1"),
        "first load is version 1",
    )?;

    // -- Pin both workers, then exercise backpressure --------------------
    // Distinct sleep_ms: identical injected mines would *coalesce* (the
    // single-flight key includes the fault-injection knobs), and a rider
    // costs no worker — this scenario needs both workers genuinely pinned.
    h.send(&format!("mine id=sleepA sleep_ms=60000 {mine}"));
    h.send(&format!("mine id=sleepB sleep_ms=59000 {mine}"));
    h.wait_state("both workers pinned", |s| s.active == 2)?;
    h.send(&format!("mine id=q1 {mine}"));
    h.send(&format!("mine id=q2 {mine}"));
    h.wait_state("queue full", |s| s.queued == 2)?;
    for i in 0..3 {
        h.send(&format!("mine id=shed{i} {mine}"));
        let (resp, _) = h.wait_response(&format!("shed{i}"))?;
        check(
            resp.status == Status::Busy,
            "queue-full submission must be rejected busy",
        )?;
        check(resp.field("queue") == Some("2"), "busy reports queue depth")?;
    }
    check(
        h.server.snapshot().busy_rejected == 3,
        "busy rejections counted",
    )?;

    // Control plane still answers while saturated.
    h.send("ping id=ping1");
    let (resp, _) = h.wait_response("ping1")?;
    check(resp.status == Status::Ok, "ping while saturated")?;

    // -- Cancellation mid-flight -----------------------------------------
    h.send("cancel id=c1 target=sleepA");
    let (resp, _) = h.wait_response("c1")?;
    check(resp.field("found") == Some("true"), "cancel finds sleepA")?;
    let (resp, _) = h.wait_response("sleepA")?;
    check(
        resp.status == Status::Ok && resp.field("completion") == Some("truncated (cancelled)"),
        "cancelled request resolves structured",
    )?;
    // Response shape is uniform across outcomes: even a request cancelled
    // inside the injected sleep names the dataset it was resolved against.
    check(
        resp.field("dataset") == Some("d") && resp.field("version") == Some("1"),
        "cancelled mine response carries dataset identity",
    )?;
    // Cancelling an unknown id is a structured no-op.
    h.send("cancel id=c2 target=nonexistent");
    let (resp, _) = h.wait_response("c2")?;
    check(resp.field("found") == Some("false"), "cancel miss reported")?;

    // Queued work drains through the freed worker.
    let (q1, q1_body) = h.wait_response("q1")?;
    let (_q2, q2_body) = h.wait_response("q2")?;
    check(q1.status == Status::Ok, "queued mine served after drain")?;
    check(
        q1_body == q2_body && !q1_body.is_empty(),
        "identical queued requests produce identical payloads",
    )?;

    // -- Shared-state cache: byte-identical to the one-shot pipeline -----
    let expected = one_shot(120, 7);
    check(
        q1_body == expected,
        "server mine payload must be byte-identical to the one-shot pipeline",
    )?;
    h.send(&format!("mine id=warm {mine}"));
    let (resp, body) = h.wait_response("warm")?;
    check(
        resp.field("cached") == Some("hit"),
        "repeated identical request is a cache hit",
    )?;
    check(body == expected, "cache hit payload byte-identical")?;

    // -- Mixed budgets under load ----------------------------------------
    h.send(&format!("mine id=deadline timeout_ms=1 {mine}"));
    h.send(&format!("mine id=steps max_steps=200 {mine}"));
    let (resp, _) = h.wait_response("deadline")?;
    check(
        resp.status == Status::Ok && resp.field("completion") != Some("complete"),
        "expired deadline yields a truncated ok response",
    )?;
    let (resp, _) = h.wait_response("steps")?;
    check(
        resp.field("cached") == Some("bypass"),
        "step-budgeted request bypasses the cache",
    )?;
    check(
        resp.field("completion") == Some("truncated (step budget exhausted)"),
        "tiny step budget truncates deterministically",
    )?;

    // -- Panic isolation --------------------------------------------------
    h.send(&format!("mine id=poison inject=panic {mine}"));
    let (resp, _) = h.wait_response("poison")?;
    check(
        resp.status == Status::Error && resp.field("error").is_some_and(|e| e.contains("panicked")),
        "poisoned request resolves to a structured error",
    )?;
    check(h.server.snapshot().panics == 1, "panic counted")?;
    h.send(&format!("mine id=after_poison {mine}"));
    let (resp, body) = h.wait_response("after_poison")?;
    check(
        resp.status == Status::Ok && body == expected,
        "server keeps serving correctly after a panic",
    )?;

    // -- Shared index (`freq`) + cache observability via stats ------------
    h.send("freq id=f1 dataset=d min_support=40 max_edges=3");
    let (resp, _) = h.wait_response("f1")?;
    check(resp.status == Status::Ok, "freq request served")?;
    check(
        resp.field("index_types").is_some_and(|v| v != "0"),
        "freq uses the shared label-pair index",
    )?;
    h.send("stats id=s1 dataset=d");
    let (resp, _) = h.wait_response("s1")?;
    check(
        resp.field("prepared_hits")
            .and_then(|v| v.parse::<u64>().ok())
            .is_some_and(|hits| hits >= 2),
        "stats shows window-pass cache hits",
    )?;
    check(
        resp.field("index_types").is_some(),
        "stats shows the built shared index",
    )?;

    // -- Versioned invalidation -------------------------------------------
    h.send("load id=load2 dataset=d gen=aids count=120 seed=7");
    let (resp, _) = h.wait_response("load2")?;
    check(
        resp.field("version") == Some("2"),
        "reload bumps the version",
    )?;
    h.send("stats id=s2 dataset=d");
    let (resp, _) = h.wait_response("s2")?;
    check(
        resp.field("prepared_hits") == Some("0") && resp.field("prepared_entries") == Some("0"),
        "reload invalidates the prepared cache",
    )?;

    // -- Graceful shutdown force-cancels the hung request ------------------
    // sleepB is still hanging. A short drain deadline must cancel it, it
    // must still respond, and only then does shutdown confirm.
    h.send("shutdown id=bye drain_ms=300");
    let (resp, _) = h.wait_response("bye")?;
    check(resp.status == Status::Ok, "shutdown confirms")?;
    check(
        resp.field("forced") == Some("true"),
        "drain deadline forced cancellation of the hung request",
    )?;
    let (resp, _) = h.wait_response("sleepB")?;
    check(
        resp.field("completion") == Some("truncated (cancelled)"),
        "hung request resolved during forced drain",
    )?;
    check(h.server.is_terminated(), "server terminated after shutdown")?;
    // Post-shutdown submissions are rejected, not dropped.
    h.send(&format!("mine id=late {mine}"));
    let (resp, _) = h.wait_response("late")?;
    check(
        resp.status == Status::Error
            && resp
                .field("error")
                .is_some_and(|e| e.contains("shutting down")),
        "post-shutdown submission rejected with a structured error",
    )?;

    // -- Global invariant: one response per submitted request --------------
    h.check_one_response_each()?;
    h.server.join();
    Ok(())
}

#[test]
fn pipelined_loads_are_seen_by_exactly_the_requests_behind_them() -> TestResult {
    // The ordering rule: a request naming a dataset observes every load of
    // it submitted before the request, and none submitted after — however
    // many workers race for the queue. Nothing here waits between sends.
    let script = [
        "load id=L1 dataset=d gen=aids count=30 seed=1",
        "mine id=M1 dataset=d min_freq=0.1 max_pvalue=0.05 radius=2",
        "load id=L2 dataset=d gen=aids count=20 seed=2 append=true",
        "mine id=M2 dataset=d min_freq=0.1 max_pvalue=0.05 radius=2",
        "stats id=S dataset=d",
        "load id=L3 dataset=d gen=aids count=25 seed=3",
        "freq id=F dataset=d min_support=10 max_edges=3",
    ];
    let ids = ["L1", "M1", "L2", "M2", "S", "L3", "F"];
    let versions = ["1", "1", "2", "2", "2", "3", "3"];
    for workers in [1, 2, 4] {
        for round in 0..20 {
            let mut h = Harness::new(ServerConfig {
                workers,
                ..ServerConfig::default()
            });
            for line in script {
                h.send(line);
            }
            for (id, version) in ids.into_iter().zip(versions) {
                let (resp, _) = h.wait_response(id)?;
                let at = format!("workers={workers} round={round} {id}: {resp:?}");
                assert_eq!(resp.status, Status::Ok, "{at}");
                assert_eq!(resp.field("version"), Some(version), "{at}");
            }
            let (stats, _) = h.wait_response("S")?;
            assert_eq!(stats.field("graphs"), Some("50"), "append lands before S");
            assert_eq!(h.server.snapshot().errors, 0);
            h.server.join();
        }
    }
    Ok(())
}

#[test]
fn concurrent_mixed_budget_load_is_byte_identical_to_one_shot() -> TestResult {
    let mut h = Harness::new(ServerConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    h.send("load id=L dataset=d gen=aids count=100 seed=3");
    h.wait_response("L")?;

    // 12 concurrent submissions from 4 client threads: identical
    // unbudgeted requests interleaved with step-budgeted and
    // deadline-budgeted ones.
    let mine = "mine dataset=d min_freq=0.05 max_pvalue=0.05 radius=3";
    std::thread::scope(|s| {
        for t in 0..4 {
            let h = &h;
            s.spawn(move || {
                for (i, extra) in ["", " max_steps=100", " timeout_ms=1"].iter().enumerate() {
                    h.server
                        .dispatch_line(&format!("{mine} id=t{t}r{i}{extra}"), h.out());
                }
            });
        }
    });

    let db = graphsig_datagen::aids_like(100, 3).db;
    let cfg = GraphSigConfig {
        min_freq: 0.05,
        max_pvalue: 0.05,
        radius: 3,
        ..GraphSigConfig::default()
    };
    let unbudgeted = one_shot(100, 3);
    let budgeted =
        GraphSig::new(cfg.with_budget(graphsig_core::Budget::unlimited().with_max_steps(100)))
            .mine_outcome(&db);
    let budgeted_payload = render_subgraphs(&db, &budgeted.result, usize::MAX);

    for t in 0..4 {
        // Unbudgeted requests: byte-identical to the one-shot pipeline,
        // even though they raced budgeted requests for workers + cache.
        let (r, body) = h.wait_response(&format!("t{t}r0"))?;
        assert_eq!(r.status, Status::Ok);
        assert_eq!(r.field("completion"), Some("complete"));
        assert_eq!(
            body, unbudgeted,
            "client {t}: unbudgeted payload differs from one-shot"
        );
        // Step-budgeted requests: deterministic truncation, identical to
        // the one-shot budgeted run (cache bypassed by design).
        let (r, body) = h.wait_response(&format!("t{t}r1"))?;
        assert_eq!(r.field("cached"), Some("bypass"));
        assert_eq!(
            r.field("completion"),
            Some(budgeted.completion.to_string().as_str())
        );
        assert_eq!(body, budgeted_payload);
        // Deadline requests: structured ok, complete or truncated.
        let (r, _) = h.wait_response(&format!("t{t}r2"))?;
        assert_eq!(r.status, Status::Ok);
    }
    // At most one window pass was prepared across all 8 cache-eligible
    // requests (4 unbudgeted + 4 deadline).
    h.send("stats id=S dataset=d");
    let (r, _) = h.wait_response("S")?;
    assert_eq!(r.field("prepared_misses"), Some("1"));
    assert_eq!(r.field("prepared_bypasses"), Some("4"));
    h.server.join();
    Ok(())
}

#[test]
fn sweep_payload_segments_match_individual_freq_calls() -> TestResult {
    let mut h = Harness::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    h.send("load id=L dataset=d gen=aids count=60 seed=5");
    h.wait_response("L")?;
    h.send("freq id=f12 dataset=d min_support=12 max_edges=5");
    h.send("freq id=f6 dataset=d min_support=6 max_edges=5");
    h.send("freq id=fv dataset=d min_support=6 max_edges=5 matcher=vf2");
    h.send("sweep id=s dataset=d supports=12,6 max_edges=5");
    let body = |id: &str| -> Result<String, String> {
        let (r, b) = h.wait_response(id)?;
        assert_eq!(r.status, Status::Ok, "{id}");
        Ok(b)
    };
    // The vf2 engine produces the same frequent patterns as the default
    // fast engine — byte-identical payloads.
    assert_eq!(body("f6")?, body("fv")?, "vf2 vs fast freq payloads differ");
    // Each sweep segment (after its marker line) is byte-identical to the
    // corresponding individual freq payload.
    let sweep = body("s")?;
    let (r, _) = h.wait_response("s")?;
    assert_eq!(r.field("supports"), Some("2"));
    assert_eq!(r.field("completion"), Some("complete"));
    let markers: Vec<usize> = sweep
        .match_indices("# sweep support ")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(markers.len(), 2, "expected two sweep segments:\n{sweep}");
    let segment = |k: usize| -> &str {
        let start = markers[k] + sweep[markers[k]..].find('\n').unwrap() + 1;
        let end = if k + 1 < markers.len() {
            markers[k + 1]
        } else {
            sweep.len()
        };
        &sweep[start..end]
    };
    assert_eq!(segment(0), body("f12")?, "support=12 segment differs");
    assert_eq!(segment(1), body("f6")?, "support=6 segment differs");
    // Empty and zero support lists are structured errors.
    h.send("sweep id=z dataset=d supports=0,3");
    let (r, _) = h.wait_response("z")?;
    assert_eq!(r.status, Status::Error);
    h.server.join();
    Ok(())
}

#[test]
fn identical_concurrent_mines_coalesce_to_one_run() -> TestResult {
    let mut h = Harness::new(ServerConfig {
        workers: 4,
        queue_capacity: 64,
        allow_inject: true,
        ..ServerConfig::default()
    });
    h.send("load id=L dataset=d gen=aids count=80 seed=7");
    h.wait_response("L")?;

    // A slow leader holds the flight open; two byte-identical requests
    // arrive while it sleeps and must attach as riders rather than
    // running (or even preparing) anything themselves.
    let mine = "mine dataset=d min_freq=0.05 max_pvalue=0.05 radius=3 sleep_ms=1500";
    h.send(&format!("{mine} id=lead"));
    h.wait_state("leader to start", |s| s.active >= 1)?;
    h.send(&format!("{mine} id=ride1"));
    h.send(&format!("{mine} id=ride2"));
    // The coalesce counter proves both attached to the in-flight run
    // *before* it completed — not that they merely ran the same job.
    h.wait_state("riders to attach", |s| s.coalesce_riders == 2)?;

    let body = |id: &str| -> Result<String, String> {
        let (r, b) = h.wait_response(id)?;
        assert_eq!(r.status, Status::Ok, "{id}");
        assert_eq!(r.field("completion"), Some("complete"), "{id}");
        Ok(b)
    };
    assert_eq!(body("lead")?, body("ride1")?, "rider payload differs");
    assert_eq!(body("lead")?, body("ride2")?, "rider payload differs");

    let snap = h.server.snapshot();
    assert_eq!(snap.coalesce_leads, 1, "exactly one flight led");
    assert_eq!(snap.coalesce_riders, 2, "both followers attached");
    // One prepare across three requests: the window pass ran once.
    h.send("stats id=S dataset=d");
    let (r, _) = h.wait_response("S")?;
    assert_eq!(r.field("prepared_misses"), Some("1"));
    assert_eq!(r.field("prepared_hits"), Some("0"));
    h.server.join();
    Ok(())
}

#[test]
fn rider_cancel_detaches_without_cancelling_the_shared_run() -> TestResult {
    let mut h = Harness::new(ServerConfig {
        workers: 4,
        allow_inject: true,
        ..ServerConfig::default()
    });
    h.send("load id=L dataset=d gen=aids count=40 seed=2");
    h.wait_response("L")?;

    let mine = "mine dataset=d min_freq=0.05 max_pvalue=0.05 radius=3 sleep_ms=60000";
    h.send(&format!("{mine} id=lead"));
    h.wait_state("leader to start", |s| s.active >= 1)?;
    h.send(&format!("{mine} id=ride"));
    h.wait_state("rider to attach", |s| s.coalesce_riders == 1)?;

    // Cancelling the rider detaches it immediately: it answers
    // `truncated (cancelled)` with full dataset identity while the
    // shared run keeps going for the leader.
    h.send("cancel id=c1 target=ride");
    let (r, _) = h.wait_response("c1")?;
    assert_eq!(r.field("found"), Some("true"));
    let (r, _) = h.wait_response("ride")?;
    assert_eq!(r.status, Status::Ok);
    assert_eq!(r.field("completion"), Some("truncated (cancelled)"));
    assert_eq!(r.field("dataset"), Some("d"));
    assert_eq!(r.field("version"), Some("1"));
    let snap = h.server.snapshot();
    assert_eq!(snap.active, 1, "shared run must survive a rider cancel");

    // Cancelling the last participant cancels the group token: the
    // 60s sleep wakes immediately instead of running out the clock.
    h.send("cancel id=c2 target=lead");
    h.wait_response("c2")?;
    let (r, _) = h.wait_response("lead")?;
    assert_eq!(r.field("completion"), Some("truncated (cancelled)"));
    h.wait_state("workers to idle", |s| s.active == 0)?;
    h.server.join();
    Ok(())
}

#[test]
fn leader_panic_fails_every_rider() -> TestResult {
    let mut h = Harness::new(ServerConfig {
        workers: 4,
        allow_inject: true,
        ..ServerConfig::default()
    });
    h.send("load id=L dataset=d gen=aids count=40 seed=2");
    h.wait_response("L")?;

    let mine = "mine dataset=d min_freq=0.05 max_pvalue=0.05 radius=3 sleep_ms=1500 inject=panic";
    h.send(&format!("{mine} id=lead"));
    h.wait_state("leader to start", |s| s.active >= 1)?;
    h.send(&format!("{mine} id=ride"));
    h.wait_state("rider to attach", |s| s.coalesce_riders == 1)?;

    for id in ["lead", "ride"] {
        let (r, _) = h.wait_response(id)?;
        assert_eq!(r.status, Status::Error, "{id}");
        assert!(r.field("error").unwrap().contains("panicked"), "{id}");
    }
    // One panic isolated — the rider's failure is the same panic, not a
    // second one — and the server keeps serving.
    assert_eq!(h.server.snapshot().panics, 1);
    h.send("ping id=alive");
    h.wait_response("alive")?;
    h.server.join();
    Ok(())
}

#[test]
fn sweep_segments_do_not_starve_other_requests() -> TestResult {
    // One worker, one long sweep: per-threshold segments queue behind
    // regular requests, so a freq submitted mid-sweep completes before
    // the sweep does instead of waiting out every threshold.
    let mut h = Harness::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    h.send("load id=L dataset=d gen=aids count=200 seed=9");
    h.wait_response("L")?;
    h.send("sweep id=s dataset=d supports=80,60,40,30,20,10 max_edges=5");
    // Catch the sweep mid-flight with segments still queued.
    h.wait_state("sweep segments to queue", |s| s.segments >= 3)?;
    h.send("freq id=m dataset=d min_support=100 max_edges=3");
    let (r, _) = h.wait_response("s")?;
    assert_eq!(r.status, Status::Ok);
    assert_eq!(r.field("completion"), Some("complete"));
    let responses = h.responses()?;
    let pos = |id: &str| responses.iter().position(|(r, _)| r.id == id).expect(id);
    assert!(
        pos("m") < pos("s"),
        "freq response must precede the sweep's: segments hogged the worker"
    );
    h.server.join();
    Ok(())
}

#[test]
fn busy_rejected_request_is_never_cancellable() -> TestResult {
    // Regression: `submit` used to register the request id in the
    // inflight table *before* the capacity check, so a cancel racing a
    // busy rejection could observe (and report found=true for) a request
    // the server never accepted.
    let mut h = Harness::new(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        allow_inject: true,
        ..ServerConfig::default()
    });
    h.send("load id=L dataset=d gen=aids count=30 seed=1");
    h.wait_response("L")?;
    // Pin the only worker, then fill the only queue slot.
    let cheap = "min_freq=0.05 max_pvalue=0.05 radius=3";
    h.send(&format!("mine id=pin dataset=d {cheap} sleep_ms=60000"));
    h.wait_state("pin to start", |s| s.active == 1)?;
    h.send(&format!("mine id=fill dataset=d {cheap}"));
    h.wait_state("queue to fill", |s| s.queued == 1)?;

    for i in 0..8 {
        h.send(&format!("mine id=race{i} dataset=d {cheap}"));
        h.send(&format!("cancel id=c{i} target=race{i}"));
    }
    for i in 0..8 {
        let (r, _) = h.wait_response(&format!("race{i}"))?;
        assert_eq!(r.status, Status::Busy, "race{i} must be busy-rejected");
        let (r, _) = h.wait_response(&format!("c{i}"))?;
        assert_eq!(
            r.field("found"),
            Some("false"),
            "cancel c{i} observed a token for a request the server rejected"
        );
    }
    assert_eq!(h.server.snapshot().busy_rejected, 8);
    h.send("cancel id=cp target=pin");
    h.wait_response("pin")?;
    h.wait_response("fill")?;
    h.server.join();
    Ok(())
}

#[test]
fn duplicate_ids_and_unknown_datasets_are_structured_errors() -> TestResult {
    let mut h = Harness::new(ServerConfig {
        workers: 1,
        allow_inject: true,
        ..ServerConfig::default()
    });
    h.send("mine id=m1 dataset=nope");
    let (r, _) = h.wait_response("m1")?;
    assert_eq!(r.status, Status::Error);
    assert!(r.field("error").unwrap().contains("unknown dataset"));

    h.send("load id=L dataset=d gen=aids count=30 seed=1");
    h.wait_response("L")?;

    // Out-of-range thresholds are rejected with the field named.
    h.send("mine id=bad dataset=d fsm_freq=1.5");
    let (r, _) = h.wait_response("bad")?;
    assert_eq!(r.status, Status::Error);
    assert!(r.field("error").unwrap().contains("fsm_freq"), "{r:?}");

    // A duplicate id while the first is still in flight is rejected.
    h.send("mine id=dup dataset=d sleep_ms=2000");
    h.wait_state("dup to execute", |s| s.active > 0)?;
    h.send("mine id=dup dataset=d");
    h.send("cancel id=c target=dup");
    h.wait_response("c")?;
    let dup_errors = h
        .responses()?
        .iter()
        .filter(|(r, _)| r.id == "dup" && r.status == Status::Error)
        .count();
    assert_eq!(dup_errors, 1, "second 'dup' submission must error");
    h.server.join();
    Ok(())
}

#[test]
fn malformed_lines_get_error_responses_and_server_survives() -> TestResult {
    let mut h = Harness::new(ServerConfig::default());
    h.send("gibberish");
    h.send("mine id=x radius=");
    h.send("mine id=y dataset=d bogus=1");
    h.send(""); // ignored
    h.send("# comment"); // ignored
    h.send("ping id=alive");
    h.wait_response("alive")?;
    let responses = h.responses()?;
    assert_eq!(responses.len(), 4, "three errors + one pong");
    assert!(responses
        .iter()
        .filter(|(r, _)| r.id != "alive")
        .all(|(r, _)| r.status == Status::Error));
    // The scavenged id correlates the malformed mine line.
    assert!(responses.iter().any(|(r, _)| r.id == "y"));
    h.server.join();
    Ok(())
}

#[test]
fn eof_shutdown_via_connection_loop_drains() -> TestResult {
    // serve_connection on an in-memory request script: every request is
    // answered, shutdown confirms, and the loop returns.
    let h = Harness::new(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let script = "load id=L dataset=d gen=aids count=40 seed=2\n\
                  mine id=m dataset=d min_freq=0.05 max_pvalue=0.05 radius=3\n\
                  shutdown id=bye\n\
                  mine id=never dataset=d\n";
    h.server
        .serve_connection(std::io::Cursor::new(script), h.out().clone());
    let responses = h.responses()?;
    let ids: Vec<&str> = responses.iter().map(|(r, _)| r.id.as_str()).collect();
    assert!(ids.contains(&"L") && ids.contains(&"m") && ids.contains(&"bye"));
    // The post-shutdown line is never read: the loop stopped at shutdown.
    assert!(!ids.contains(&"never"));
    let (bye, _) = h.wait_response("bye")?;
    assert_eq!(bye.status, Status::Ok);
    assert_eq!(bye.field("forced"), Some("false"), "drain was graceful");
    assert!(h.server.is_terminated());
    h.server.join();
    Ok(())
}

#[test]
fn governor_rejects_oversized_loads_evicts_cold_caches_and_keeps_serving() -> TestResult {
    let mut h = Harness::new(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        max_resident_bytes: Some(4 * 1024 * 1024),
        ..ServerConfig::default()
    });

    // A dataset that fits, mined once to warm its prepared cache.
    h.send("load id=l1 dataset=d gen=aids count=80 seed=9");
    h.send("mine id=m1 dataset=d min_freq=0.05 max_pvalue=0.05 radius=3");
    let (l1, _) = h.wait_response("l1")?;
    assert_eq!(l1.status, Status::Ok);
    let (m1, body1) = h.wait_response("m1")?;
    assert_eq!(m1.status, Status::Ok);

    // A load that cannot fit even after eviction: structured rejection
    // that discloses the accounting, with the server still up.
    h.send("load id=big dataset=huge gen=aids count=9000 seed=1");
    let (big, _) = h.wait_response("big")?;
    assert_eq!(big.status, Status::Error, "{big:?}");
    assert_eq!(big.field("code"), Some("resource_exhausted"));
    for key in ["requested_bytes", "resident_bytes", "max_resident_bytes"] {
        assert!(big.field(key).is_some(), "rejection must report {key}");
    }

    // The attempt LRU-evicted the cold prepared cache before giving up,
    // and stats exposes both the eviction count and residency.
    h.send("stats id=s");
    let (s, _) = h.wait_response("s")?;
    assert_eq!(s.status, Status::Ok);
    assert!(
        s.field("evictions").and_then(|v| v.parse::<u64>().ok()) >= Some(1),
        "eviction attempt must be counted: {s:?}"
    );
    assert!(
        s.field("resident_bytes")
            .and_then(|v| v.parse::<u64>().ok())
            > Some(0),
        "{s:?}"
    );
    assert_eq!(s.field("max_resident_bytes"), Some("4194304"));
    assert_eq!(
        s.field("datasets"),
        Some("1"),
        "rejected load must not register"
    );

    // Mining after the rejection (and the cache eviction) still serves
    // byte-identical results.
    h.send("mine id=m2 dataset=d min_freq=0.05 max_pvalue=0.05 radius=3");
    let (m2, body2) = h.wait_response("m2")?;
    assert_eq!(m2.status, Status::Ok);
    assert_eq!(
        body2, body1,
        "mine after eviction must match the warm-cache run"
    );

    h.server.shutdown_now();
    h.server.join();
    Ok(())
}

#[test]
fn admitted_load_within_ceiling_succeeds() -> TestResult {
    let mut h = Harness::new(ServerConfig {
        workers: 1,
        max_resident_bytes: Some(64 * 1024 * 1024),
        ..ServerConfig::default()
    });
    h.send("load id=l dataset=d gen=aids count=200 seed=2");
    let (l, _) = h.wait_response("l")?;
    assert_eq!(l.status, Status::Ok, "{l:?}");
    h.server.shutdown_now();
    h.server.join();
    Ok(())
}

#[test]
fn packed_load_retries_transient_store_faults_and_reports_the_count() -> TestResult {
    use graphsig_store::{FaultPlan, Io};

    // Pack a store with clean I/O, then serve it through a seeded
    // transient fault plane: the load must succeed by backoff and report
    // how many retries it spent.
    let dir = std::env::temp_dir().join(format!("graphsig-srv-retry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = graphsig_datagen::aids_like(60, 17).db;
    graphsig_store::pack_with(&dir, &db, 16, &Io::real()).expect("pack");

    let io = Io::with_plan(FaultPlan::new(0xFAB).transient(400).transient_burst(2));
    let mut h = Harness::new(ServerConfig {
        workers: 1,
        io: io.clone(),
        ..ServerConfig::default()
    });
    h.send(&format!(
        "load id=lp dataset=p path={} format=packed",
        dir.display()
    ));
    let (lp, _) = h.wait_response("lp")?;
    assert_eq!(
        lp.status,
        Status::Ok,
        "transient faults must be absorbed: {lp:?}"
    );
    let reported: u64 = lp
        .field("retries")
        .expect("load reports retries")
        .parse()
        .expect("numeric retries");
    assert!(reported > 0, "seeded plan must have injected retries");
    assert_eq!(lp.field("graphs"), Some("60"));

    // stats surfaces the cumulative store retry count.
    h.send("stats id=s");
    let (s, _) = h.wait_response("s")?;
    assert!(
        s.field("store_retries").and_then(|v| v.parse::<u64>().ok()) >= Some(reported),
        "{s:?}"
    );

    h.server.shutdown_now();
    h.server.join();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
