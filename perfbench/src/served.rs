//! What the two served workloads share: the server set-up, the blocked
//! query, latency summaries, the answer check and the traced replay of
//! served requests.

use crate::driver::{Outcome, Planned};
use crate::layers::{self, StageTimes};
use crate::report::{Metric, RunResult};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use perfxplain_core::{ExecutionKind, QueryRequest, XplainService};
use perfxplain_server::protocol::{decode_request, encode_response_line};
use perfxplain_server::{QueryCost, ServerConfig, ServerHandle, WireRequest, WireResponse};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads of the served workloads' server, sized for a 2-core
/// machine; load comes from at most 2 client threads and 2 connections.
pub const WORKERS: usize = 2;

/// A run whose load generator sends later than this at p95 is flagged:
/// the offered load was not the planned one.
pub const LAG_BOUND_MS: f64 = 10.0;

/// Rows per blocking group of the synthetic logs.
pub const GROUP: usize = 10;

/// The server configuration of both served workloads: 2 workers and the
/// shipped admission policy; a shed request counts as a miss.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

/// Shuts down a discarded set-up's server and waits (at most 5 s) until its
/// service is freed, so the next set-up never overlaps it in memory.
pub fn retire(service: Arc<XplainService>, handle: ServerHandle) {
    handle.shutdown();
    let mut service = service;
    for _ in 0..1000 {
        match Arc::try_unwrap(service) {
            Ok(unique) => return drop(unique),
            Err(shared) => service = shared,
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// The canonical blocked query for a pair of interest.
pub fn blocked_wire(left: usize, right: usize, assess: bool) -> WireRequest {
    WireRequest {
        query: Some(perfxplain_bench::BLOCKED_QUERY.to_string()),
        left: Some(format!("job_{left}")),
        right: Some(format!("job_{right}")),
        assess: assess.then_some(true),
        ..WireRequest::default()
    }
}

/// A seeded pair of interest inside a seeded group of `groups`: two
/// big-block members (even positions), the larger input on the left, so
/// the query's despite clause holds.
pub fn blocked_pair(rng: &mut StdRng, groups: std::ops::Range<usize>) -> (usize, usize) {
    let group = rng.random_range(groups);
    let a = rng.random_range(0..GROUP / 2);
    let mut b = rng.random_range(0..GROUP / 2 - 1);
    if b >= a {
        b += 1;
    }
    let (hi, lo) = (a.max(b), a.min(b));
    (group * GROUP + 2 * hi, group * GROUP + 2 * lo)
}

/// The in-process request the server builds from a query frame (the
/// fields the benchmark sends).
pub fn query_request(wire: &WireRequest) -> QueryRequest {
    let mut request = QueryRequest::text(wire.query.clone().unwrap_or_default());
    if let (Some(left), Some(right)) = (&wire.left, &wire.right) {
        request = request.with_pair(left.clone(), right.clone());
    }
    if wire.assess.unwrap_or(false) {
        request = request.with_assessment();
    }
    request
}

/// Rendered atoms of a predicate, as the wire carries them.
pub fn atoms(predicate: &perfxplain_core::pxql::Predicate) -> Vec<String> {
    predicate.atoms().iter().map(|a| a.to_string()).collect()
}

/// p50 and p90 of query latency, plus p95 when the sample supports it;
/// failures count as +inf.
pub fn query_percentiles(outcomes: &[&Outcome]) -> Result<(f64, f64, Option<f64>), String> {
    let latencies: Vec<f64> = outcomes.iter().map(|o| o.latency_ms).collect();
    Ok((
        percentile(&latencies, 0.5).map_err(|e| format!("query p50: {e}"))?,
        percentile(&latencies, 0.9).map_err(|e| format!("query p90: {e}"))?,
        percentile(&latencies, 0.95).ok(),
    ))
}

/// p95 of how late the generator sent, flagged in the notes when above
/// [`LAG_BOUND_MS`].
pub fn driver_lag(outcomes: &[&Outcome], stream: &str, result: &mut RunResult) -> f64 {
    let lags: Vec<f64> = outcomes.iter().map(|o| o.lag_ms).collect();
    let lag = percentile(&lags, 0.95).unwrap_or_else(|_| crate::stats::max(&lags));
    result
        .notes
        .push(format!("driver lag p95 ({stream}) = {lag:.3} ms"));
    if lag > LAG_BOUND_MS {
        result.notes.push(format!(
            "FLAG: {stream} generator lag p95 {lag:.3} ms exceeds {LAG_BOUND_MS} ms; \
             the offered load was not the planned one"
        ));
    }
    lag
}

/// Checks that the because and despite atoms of `sample` answered queries
/// equal the in-process [`XplainService::explain`] answers.
pub fn check_answers(
    service: &XplainService,
    plan: &[Planned],
    outcomes: &[Outcome],
    sample: &[usize],
    result: &mut RunResult,
) {
    for &i in sample {
        let Some(response) = outcomes[i].response.as_ref().filter(|r| r.is_ok()) else {
            continue;
        };
        match service.explain(&query_request(&plan[i].request)) {
            Ok(outcome) => {
                let because = atoms(&outcome.explanation.because);
                let despite = atoms(&outcome.explanation.despite);
                if response.because.as_ref() != Some(&because)
                    || response.despite.as_ref() != Some(&despite)
                {
                    result.problem(format!(
                        "request {i}: wire answer {:?} differs from in-process {because:?}",
                        response.because
                    ));
                }
            }
            Err(e) => result.problem(format!("request {i}: in-process explain failed: {e}")),
        }
    }
}

/// `count` distinct seeded indices of successfully answered requests.
pub fn sample_answered(
    outcomes: &[Outcome],
    plan: &[Planned],
    seed: u64,
    count: usize,
) -> Vec<usize> {
    let mut answered: Vec<usize> = (0..outcomes.len())
        .filter(|&i| outcomes[i].ok() && plan[i].request.target.is_none())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked = Vec::new();
    while picked.len() < count && !answered.is_empty() {
        picked.push(answered.swap_remove(rng.random_range(0..answered.len())));
    }
    picked.sort_unstable();
    picked
}

/// Fills the server, protocol, scheduler, pxql, service and stage metrics
/// of a traced served run by replaying its requests in-process:
///
/// * every answered query goes through [`XplainService::explain`] again;
///   wire latency minus that time is the server residual;
/// * a seeded sample is replayed stage by stage (decode, parse and bind,
///   cost estimate, view, training, bridge, clause search, assess,
///   encode), and the stages on the served path are compared with
///   `query_p50_ms`.
#[allow(clippy::too_many_arguments)]
pub fn trace_served(
    tracer: &Tracer,
    service: &XplainService,
    plan: &[Planned],
    outcomes: &[Outcome],
    query_p50_ms: f64,
    replay_seed: u64,
    stage_sample: usize,
    layers: &mut Vec<Metric>,
) -> Result<(), String> {
    let answered: Vec<usize> = (0..outcomes.len())
        .filter(|&i| outcomes[i].ok() && plan[i].request.target.is_none())
        .collect();
    let mut residuals = Vec::with_capacity(answered.len());
    let mut served = std::collections::HashMap::new();
    for &i in &answered {
        let request = query_request(&plan[i].request);
        let start = Instant::now();
        let outcome = service
            .explain(&request)
            .map_err(|e| format!("replay of request {i} failed: {e}"))?;
        let end = Instant::now();
        tracer.record("service.explain", i as u64, None, start, end);
        residuals.push(outcomes[i].latency_ms - (end - start).as_secs_f64() * 1e3);
        served.insert(i, outcome);
    }
    layers::set(
        layers,
        "server.residual_p50_ms",
        percentile(&residuals, 0.5).map_err(|e| format!("residual p50: {e}"))?,
    );
    layers::set(
        layers,
        "server.residual_p90_ms",
        percentile(&residuals, 0.9).map_err(|e| format!("residual p90: {e}"))?,
    );
    let reused = answered
        .iter()
        .filter(|&&i| {
            outcomes[i]
                .response
                .as_ref()
                .and_then(|r| r.view_reused)
                .unwrap_or(false)
        })
        .count();
    layers::set(
        layers,
        "service.view_reused_ratio",
        reused as f64 / answered.len().max(1) as f64,
    );

    let sample = sample_answered(outcomes, plan, replay_seed, stage_sample);
    let (mut decode, mut encode, mut parse, mut estimate, mut view_ms, mut shares) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut stages: Vec<StageTimes> = Vec::new();
    let mut scanned = Vec::new();
    for &i in &sample {
        let id = i as u64;
        let root = tracer.open("replay", id, None);
        let wire = &plan[i].request;
        let frame = crate::driver::frame_line(&WireRequest {
            id: Some(id),
            ..wire.clone()
        });
        let us = |start: Instant| start.elapsed().as_secs_f64() * 1e6;

        let start = Instant::now();
        let decoded = decode_request(frame.trim_end().as_bytes())
            .map_err(|e| format!("captured frame {i} does not decode: {e}"))?;
        decode.push(us(start));
        tracer.record("protocol.decode", id, Some(root), start, Instant::now());

        let start = Instant::now();
        let query = perfxplain_core::pxql::parse_query(decoded.query.as_deref().unwrap_or(""))
            .map_err(|e| format!("request {i} does not parse: {e}"))?;
        let bound = perfxplain_core::BoundQuery::new(
            query,
            decoded.left.clone().unwrap_or_default(),
            decoded.right.clone().unwrap_or_default(),
        );
        parse.push(us(start));
        tracer.record("pxql.parse_bind", id, Some(root), start, Instant::now());

        let request = query_request(&decoded);
        let start = Instant::now();
        let cost = service
            .estimate_cost(&request)
            .map_err(|e| format!("request {i} cost estimate failed: {e}"))?;
        estimate.push(us(start));
        tracer.record(
            "scheduler.estimate_cost",
            id,
            Some(root),
            start,
            Instant::now(),
        );
        scanned.push(cost.scanned_pairs as f64);

        let start = Instant::now();
        let view = service.view(ExecutionKind::Job);
        view_ms.push(start.elapsed().as_secs_f64() * 1e3);
        tracer.record("columnar.view", id, Some(root), start, Instant::now());

        let config = service.config().clone();
        let stage = service.with_log(|log| {
            layers::replay_stages(tracer, id, Some(root), log, &view, &bound, &config)
        })?;

        let outcome = &served[&i];
        let start = Instant::now();
        let line = encode_response_line(&WireResponse::ok(
            Some(id),
            outcome,
            QueryCost::from(&cost).units(),
        ));
        std::hint::black_box(line);
        encode.push(us(start));
        tracer.record("protocol.encode", id, Some(root), start, Instant::now());
        tracer.close(root);

        let assessed = if request.assess { stage.assess_ms } else { 0.0 };
        let on_path_ms = (decode.last().unwrap()
            + parse.last().unwrap()
            + estimate.last().unwrap()
            + encode.last().unwrap())
            / 1e3
            + view_ms.last().unwrap()
            + stage.enumerate_ms
            + stage.featurize_ms
            + stage.clause_search_ms
            + assessed;
        shares.push(on_path_ms);
        stages.push(stage);
    }
    layers::set(layers, "protocol.decode_us", median(&decode));
    layers::set(layers, "protocol.encode_us", median(&encode));
    layers::set(layers, "pxql.parse_bind_us", median(&parse));
    layers::set(layers, "scheduler.estimate_cost_us", median(&estimate));
    layers::set(
        layers,
        "trace.stage_share_p50",
        median(&shares) / query_p50_ms,
    );
    layers::set_stage_metrics(layers, &stages, median(&scanned));
    Ok(())
}

/// Fills the scheduler and service counters from a `status` probe.
/// `charged_units` is the cost the answered queries were finally charged;
/// the refund ratio divides the refunded units by what admission charged
/// up front (final charge plus refund).
pub fn set_status_metrics(status: &WireResponse, charged_units: u64, layers: &mut Vec<Metric>) {
    let field = |v: Option<u64>| v.unwrap_or(0) as f64;
    let refunded = field(status.refunded_units);
    layers::set(layers, "scheduler.shed", field(status.shed));
    layers::set(layers, "scheduler.expired", field(status.expired));
    layers::set(
        layers,
        "scheduler.refund_ratio",
        refunded / (refunded + charged_units as f64).max(1.0),
    );
    layers::set(
        layers,
        "service.delta_refreshes",
        field(status.delta_refreshes),
    );
    layers::set(layers, "service.full_rebuilds", field(status.full_rebuilds));
    layers::set(layers, "service.compactions", field(status.compactions));
}

/// Cost units finally charged to the answered requests among `outcomes`.
pub fn charged_units(outcomes: &[Outcome]) -> u64 {
    outcomes
        .iter()
        .filter_map(|o| o.response.as_ref())
        .filter(|r| r.is_ok())
        .filter_map(|r| r.cost_units)
        .sum()
}

/// Status-probe requests every `every_s` seconds over `duration_s`,
/// interleaved into a plan so a traced run sees queue depth and tail size
/// over time.
pub fn with_status_probes(mut plan: Vec<Planned>, every_s: f64, duration_s: f64) -> Vec<Planned> {
    let probes = (duration_s / every_s).floor() as usize;
    plan.extend((1..=probes).map(|k| Planned {
        due_s: k as f64 * every_s - every_s / 2.0,
        request: WireRequest {
            target: Some("status".to_string()),
            ..WireRequest::default()
        },
    }));
    plan.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    plan
}

/// Largest value of a status field over the probes answered in a run.
pub fn status_max(outcomes: &[Outcome], field: fn(&WireResponse) -> Option<u64>) -> f64 {
    outcomes
        .iter()
        .filter_map(|o| o.response.as_ref())
        .filter_map(field)
        .max()
        .unwrap_or(0) as f64
}
