//! Concurrency tests of the [`XplainService`]: many threads, one cached
//! columnar view per execution kind, bit-identical answers.
//!
//! Whether a query's own pair enumeration also fans out depends only on its
//! plan's candidate count (`PARALLEL_ENUMERATION_THRESHOLD`);
//! `tests/properties.rs` checks the fanned-out path against the map-based
//! one.

use perfxplain::prelude::*;
use perfxplain::QueryInput;

/// The paper's two canonical queries over a simulated Tiny sweep, repeated
/// so the batch exercises both the job view and the task view.
fn canonical_requests(log: &ExecutionLog, repeats: usize) -> Vec<QueryRequest> {
    let job_query = why_slower_despite_same_num_instances(log)
        .expect("the sweep contains the slower-despite-same-instances pattern");
    let task_query =
        why_last_task_faster(log).expect("the sweep contains the last-task-faster pattern");
    let mut requests = Vec::new();
    for _ in 0..repeats {
        requests.push(QueryRequest::bound(job_query.bound.clone()).with_narration());
        requests.push(QueryRequest::bound(task_query.bound.clone()).with_narration());
    }
    requests
}

#[test]
fn par_explain_batch_is_bit_identical_to_the_serial_path() {
    let log = build_execution_log(LogPreset::Tiny, 42);
    let service = XplainService::new(log.clone());
    // 8 requests alternating between the two canonical queries: with ≥4
    // cores this drives ≥4 worker threads over the two shared views.
    let requests = canonical_requests(&log, 4);

    let serial: Vec<QueryOutcome> = requests
        .iter()
        .map(|request| service.explain(request).expect("serial query succeeds"))
        .collect();
    let parallel = service.par_explain_batch(&requests);

    assert_eq!(parallel.len(), serial.len());
    for (serial, parallel) in serial.iter().zip(&parallel) {
        let parallel = parallel.as_ref().expect("parallel query succeeds");
        assert_eq!(serial.explanation, parallel.explanation);
        assert_eq!(serial.query, parallel.query);
        assert_eq!(serial.narration, parallel.narration);
        assert_eq!(serial.generation, parallel.generation);
    }
    // One cached view per kind serves the whole batch.
    assert_eq!(service.cached_view_count(), 2);

    // The serial service answers also match the stateless engine, so the
    // whole stack (engine == serial service == parallel service) agrees.
    let engine = PerfXplain::with_defaults();
    for (request, outcome) in requests.iter().zip(&serial) {
        let QueryInput::Bound(bound) = &request.query else {
            panic!("requests are bound");
        };
        assert_eq!(engine.explain(&log, bound).unwrap(), outcome.explanation);
    }
}

/// Above `SHARDED_BUILD_THRESHOLD` records the service encodes its cached
/// views through the sharded parallel path.  The encode must stay
/// bit-identical to the single-shot build, and a parallel batch answered
/// from the sharded view must match the serial answers.
#[test]
fn sharded_encode_under_par_explain_batch_is_bit_identical() {
    use perfxplain::ExecutionKind;
    use perfxplain_core::columnar::ColumnarLog;
    use perfxplain_core::SHARDED_BUILD_THRESHOLD;

    // A blocked log just past the auto-shard threshold: small per-script
    // groups keep the candidate space tractable while the row count forces
    // the sharded encode.
    let n = SHARDED_BUILD_THRESHOLD + 128;
    let group_size = 8;
    let log = perfxplain_bench::blocked_log(n, group_size, 0);

    // The explicitly sharded encode is bit-identical to the single-shot
    // encode (and to whatever build_auto picked for this machine).
    let single = ColumnarLog::build_sharded(&log, ExecutionKind::Job, 1);
    for shards in [2, 4, 8] {
        assert_eq!(
            ColumnarLog::build_sharded(&log, ExecutionKind::Job, shards),
            single,
            "{shards} shards diverge"
        );
    }
    assert_eq!(ColumnarLog::build_auto(&log, ExecutionKind::Job), single);

    // Batch answers off the (auto-sharded) cached view match the serial
    // path answer for answer.
    let service = XplainService::new(log);
    let requests: Vec<QueryRequest> = (0..6)
        .map(|q| {
            let base = q * group_size;
            QueryRequest::text(perfxplain_bench::BLOCKED_QUERY)
                .with_pair(format!("job_{}", base + 2), format!("job_{base}"))
        })
        .collect();
    let serial: Vec<QueryOutcome> = requests
        .iter()
        .map(|request| service.explain(request).expect("serial query succeeds"))
        .collect();
    let parallel = service.par_explain_batch(&requests);
    for (serial, parallel) in serial.iter().zip(&parallel) {
        let parallel = parallel.as_ref().expect("parallel query succeeds");
        assert_eq!(serial.explanation, parallel.explanation);
        assert_eq!(serial.query, parallel.query);
    }
    assert_eq!(service.cached_view_count(), 1);
}

#[test]
fn external_threads_share_one_service_and_agree() {
    let log = build_execution_log(LogPreset::Tiny, 7);
    let service = XplainService::new(log);
    let requests = canonical_requests(&service.snapshot(), 1);
    let expected: Vec<Explanation> = requests
        .iter()
        .map(|r| service.explain(r).expect("query succeeds").explanation)
        .collect();

    // ≥4 OS threads hammer the same service; every answer must be
    // bit-identical to the serial one.
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let (service, requests, expected) = (&service, &requests, &expected);
            scope.spawn(move || {
                for _ in 0..3 {
                    let outcomes = service.par_explain_batch(requests);
                    for (outcome, expected) in outcomes.iter().zip(expected) {
                        let outcome = outcome.as_ref().expect("batch query succeeds");
                        assert_eq!(
                            &outcome.explanation, expected,
                            "worker {worker} diverged from the serial answer"
                        );
                        assert!(outcome.view_reused, "warm queries must hit the view cache");
                    }
                }
            });
        }
    });
    assert_eq!(service.cached_view_count(), 2);
}
