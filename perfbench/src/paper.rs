//! `paper_eval`: the paper's evaluation method (Sec. 6.1) on the `Small`
//! preset: 96 simulated jobs and their tasks, both paper queries
//! (WhySlowerDespiteSameNumInstances, WhyLastTaskFaster), all three
//! techniques, widths 0-5 and seeded 50/50 train/test rounds.
//!
//! Logs are small, so the clause search, split sweep, Relief and metric
//! scoring dominate while enumeration is cheap; this is also where the
//! paper's quality numbers are measured.  Each explanation request (one
//! technique answering one query on one round's training log, then scored
//! at every width on the round's test pairs) is one timed operation.  The
//! rounds are evaluated over and over until the run's time is up; every
//! repetition must reproduce the first one exactly.

use crate::layers;
use crate::report::{peak_rss_mb, reset_peak_rss, RunResult};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use perfxplain_core::eval::{related_pairs_for_evaluation, split_log};
use perfxplain_core::{
    generate_explanation, metrics, BoundQuery, ColumnarLog, ExecutionLog, ExplainConfig,
    Explanation, PerfXplain, QueryRequest, RuleOfThumb, Technique, TrainingSet, XplainService,
};
use pxql::Predicate;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use workload::{why_last_task_faster, why_slower_despite_same_num_instances, LogPreset};

/// Seeded train/test rounds per query.
const ROUNDS: usize = 8;
/// Share of jobs assigned to the training log.
const TRAIN_FRACTION: f64 = 0.5;
/// Explanation widths scored.
const MAX_WIDTH: usize = 5;
/// The width the quality metrics are reported at.
const REPORT_WIDTH: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One query of one round: its training log and test pairs.
struct Round {
    train: ExecutionLog,
    bound: BoundQuery,
    test: TrainingSet,
    /// Test pairs of the query without its despite clause (job query only,
    /// for the generated despite clause's relevance).
    underspecified: Option<(BoundQuery, TrainingSet)>,
    config: ExplainConfig,
}

/// What one explanation request produced: the explanation and its
/// `(precision, generality)` or relevance at every width.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    explanation: Explanation,
    scores: Vec<(Option<f64>, Option<f64>)>,
}

fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(round as u64 + 1))
}

fn technique_span(technique: Technique) -> &'static str {
    match technique {
        Technique::PerfXplain => "explain.perfxplain",
        Technique::RuleOfThumb => "baselines.ruleofthumb",
        Technique::SimButDiff => "baselines.simbutdiff",
    }
}

/// Runs the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    result.setting("preset", "Small");
    result.setting("rounds", ROUNDS);
    result.setting("train_fraction", TRAIN_FRACTION);
    result.setting("widths", format!("0-{MAX_WIDTH}"));
    result.setting("techniques", "PerfXplain, RuleOfThumb, SimButDiff");

    // Input preparation: the simulated sweep.
    let sweep = workload::presets::run_preset(LogPreset::Small, seed);
    reset_peak_rss();

    // Set-up: collect the simulated Hadoop logs and bind the two queries.
    let mut setups = Vec::new();
    let mut collect_ms = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let log = hadoop_logs::collect_traces(&sweep.traces)
            .map_err(|e| format!("collect_traces: {e}"))?;
        let collected = Instant::now();
        let job = why_slower_despite_same_num_instances(&log)
            .ok_or("no pair for WhySlowerDespiteSameNumInstances")?;
        let task = why_last_task_faster(&log).ok_or("no pair for WhyLastTaskFaster")?;
        let end = Instant::now();
        if let Some(tracer) = tracer {
            let root = tracer.record("setup", 0, None, start, end);
            tracer.record("hadoop-logs.collect", 0, Some(root), start, collected);
            tracer.record("workload.bind_queries", 0, Some(root), collected, end);
        }
        setups.push((end - start).as_secs_f64());
        collect_ms.push((collected - start).as_secs_f64() * 1e3);
        prepared = Some((log, [job, task]));
    }
    let (log, bindings) = prepared.expect("at least one set-up ran");
    result.setting("jobs", log.jobs().count());
    result.setting("tasks", log.tasks().count());

    // The rounds' splits and test pairs (evaluation-harness work, timed
    // apart from the explanation requests).
    let mut rounds = Vec::new();
    let mut test_pairs_ms = Vec::new();
    for r in 0..ROUNDS {
        let round = round_seed(seed, r);
        for (q, binding) in bindings.iter().enumerate() {
            let start = Instant::now();
            let (train, test_log) = split_log(&log, &binding.bound, TRAIN_FRACTION, round);
            let config = ExplainConfig::default()
                .with_width(MAX_WIDTH)
                .with_seed(round);
            let test = related_pairs_for_evaluation(&test_log, &binding.bound, &config);
            // The under-specified task query relates ~150k test pairs per
            // round (seconds each), so despite relevance is measured on the
            // job query alone.
            let underspecified = (q == 0).then(|| {
                let mut bound = binding.bound.clone();
                bound.query = bound.query.with_despite(Predicate::always_true());
                let pairs = related_pairs_for_evaluation(&test_log, &bound, &config);
                (bound, pairs)
            });
            let end = Instant::now();
            if let Some(tracer) = tracer {
                tracer.record("eval.test_pairs", (r * 2 + q) as u64, None, start, end);
            }
            test_pairs_ms.push((end - start).as_secs_f64() * 1e3);
            if test.is_empty() {
                return Err(format!("round {r} of {} has no test pairs", binding.name));
            }
            rounds.push(Round {
                train,
                bound: binding.bound.clone(),
                test,
                underspecified,
                config,
            });
        }
    }

    // The evaluation phase: every request of every round, repeated until
    // the time is up.
    let mut first: Vec<Answer> = Vec::new();
    let mut latencies = Vec::new();
    let mut score_ms = Vec::new();
    let mut by_technique: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut failed = 0u64;
    let phase = Instant::now();
    let mut cycle = 0u64;
    // After the first full cycle, the phase ends as soon as the time is up.
    let time_up = |cycle: u64| cycle > 0 && phase.elapsed().as_secs_f64() >= seconds;
    'cycles: while !time_up(cycle) {
        let mut index = 0;
        for (i, round) in rounds.iter().enumerate() {
            let id = (cycle << 32) | i as u64;
            let mut requests: Vec<Option<Technique>> =
                Technique::all().into_iter().map(Some).collect();
            if round.underspecified.is_some() {
                requests.push(None);
            }
            for technique in requests {
                if time_up(cycle) {
                    break 'cycles;
                }
                let start = Instant::now();
                let generated = match (technique, &round.underspecified) {
                    (Some(t), _) => {
                        generate_explanation(t, &round.train, &round.bound, &round.config)
                    }
                    (None, Some((bound, _))) => {
                        let mut config = round.config.clone();
                        config.despite_width = MAX_WIDTH;
                        PerfXplain::new(config)
                            .generate_despite(&round.train, bound)
                            .map(|despite| Explanation::new(despite, Predicate::always_true()))
                    }
                    (None, None) => unreachable!("despite requests exist only with test pairs"),
                };
                let generated_at = Instant::now();
                let answer = generated.map(|explanation| {
                    let scores = (0..=MAX_WIDTH)
                        .map(|w| match (technique, &round.underspecified) {
                            (Some(_), _) => {
                                let truncated = explanation.truncated(w);
                                (
                                    metrics::precision(&round.test, &truncated).value,
                                    metrics::generality(&round.test, &truncated).value,
                                )
                            }
                            (None, Some((_, pairs))) => (
                                metrics::relevance(pairs, &explanation.despite.truncated(w)).value,
                                None,
                            ),
                            (None, None) => unreachable!(),
                        })
                        .collect();
                    Answer {
                        explanation,
                        scores,
                    }
                });
                let end = Instant::now();
                let name = technique.map_or("explain.despite", technique_span);
                if let Some(tracer) = tracer {
                    let root = tracer.record("eval.request", id, None, start, end);
                    tracer.record(name, id, Some(root), start, generated_at);
                    tracer.record("metrics.score", id, Some(root), generated_at, end);
                }
                latencies.push((end - start).as_secs_f64() * 1e3);
                score_ms.push((end - generated_at).as_secs_f64() * 1e3);
                by_technique
                    .entry(name)
                    .or_default()
                    .push((generated_at - start).as_secs_f64() * 1e3);
                match answer {
                    Ok(answer) if cycle == 0 => first.push(answer),
                    Ok(answer) => {
                        if first[index] != answer {
                            result.problem(format!(
                                "cycle {cycle}: request {index} differs from its first answer"
                            ));
                        }
                    }
                    Err(e) => {
                        failed += 1;
                        result.problem(format!("request {index} failed: {e}"));
                        if cycle == 0 {
                            first.push(Answer {
                                explanation: Explanation::default(),
                                scores: Vec::new(),
                            });
                        }
                    }
                }
                index += 1;
            }
        }
        cycle += 1;
    }
    let phase_s = phase.elapsed().as_secs_f64();
    let peak = peak_rss_mb();

    // Quality from the first cycle: PerfXplain's mean width-3 precision and
    // generality over both queries and all rounds, each baseline's
    // precision, and the generated despite clause's relevance.
    let mut precision: Vec<(Technique, Vec<f64>)> = Technique::all()
        .into_iter()
        .map(|t| (t, Vec::new()))
        .collect();
    let mut generality = Vec::new();
    let mut relevance = Vec::new();
    let mut index = 0;
    for round in &rounds {
        for technique in Technique::all() {
            let answer = &first[index];
            index += 1;
            if let Some(&(p, g)) = answer.scores.get(REPORT_WIDTH) {
                let slot = precision
                    .iter_mut()
                    .find(|(t, _)| *t == technique)
                    .expect("all techniques");
                slot.1.extend(p);
                if technique == Technique::PerfXplain {
                    generality.extend(g);
                }
            }
        }
        if round.underspecified.is_some() {
            if let Some(&(r, _)) = first[index].scores.get(REPORT_WIDTH) {
                relevance.extend(r);
            }
            index += 1;
        }
    }
    let precision_of = |t: Technique| {
        mean(
            &precision
                .iter()
                .find(|(x, _)| *x == t)
                .expect("all techniques")
                .1,
        )
    };
    let precision_w3 = precision_of(Technique::PerfXplain);
    let generality_w3 = mean(&generality);
    let relevance_w3 = mean(&relevance);
    for baseline in [Technique::RuleOfThumb, Technique::SimButDiff] {
        let theirs = precision_of(baseline);
        result.e2e(
            if baseline == Technique::RuleOfThumb {
                "ruleofthumb_precision_w3"
            } else {
                "simbutdiff_precision_w3"
            },
            "ratio",
            theirs,
        );
        if precision_w3 < theirs {
            result.problem(format!(
                "PerfXplain width-3 precision {precision_w3} is below {baseline}'s {theirs}"
            ));
        }
    }

    let (p50, p90) = (
        percentile(&latencies, 0.5).map_err(|e| format!("request p50: {e}"))?,
        percentile(&latencies, 0.9).map_err(|e| format!("request p90: {e}"))?,
    );
    let explanations_per_s = latencies.len() as f64 / phase_s;
    result.attempted = latencies.len() as u64;
    result.failed = failed;
    result.e2e("setup_s", "s", median(&setups));
    result.e2e("peak_rss_mb", "MB", peak);
    result.e2e("query_p50_ms", "ms", p50);
    result.e2e("query_p90_ms", "ms", p90);
    result.e2e("explanations_per_s", "1/s", explanations_per_s);
    result.e2e("precision_w3", "ratio", precision_w3);
    result.e2e("generality_w3", "ratio", generality_w3);
    result.e2e("despite_relevance_w3", "ratio", relevance_w3);
    result.e2e(
        "failed_frac",
        "ratio",
        failed as f64 / latencies.len().max(1) as f64,
    );
    result.notes.push(format!(
        "{} explanation requests in {:.2} s ({cycle} full cycles of {} rounds x 2 queries)",
        latencies.len(),
        phase_s,
        ROUNDS
    ));

    if let Some(tracer) = tracer {
        let layers = &mut result.layers;
        let technique_ms = |name: &str| by_technique.get(name).map_or(0.0, |s| median(s));
        layers::set(
            layers,
            "baselines.ruleofthumb_ms",
            technique_ms("baselines.ruleofthumb"),
        );
        layers::set(
            layers,
            "baselines.simbutdiff_ms",
            technique_ms("baselines.simbutdiff"),
        );
        layers::set(layers, "metrics.score_ms", median(&score_ms));
        layers::set(layers, "eval.test_pairs_ms", median(&test_pairs_ms));
        layers::set(layers, "eval.precision_w3", precision_w3);
        layers::set(layers, "eval.generality_w3", generality_w3);
        layers::set(layers, "eval.despite_relevance_w3", relevance_w3);
        layers::set(layers, "hadoop-logs.collect_ms", median(&collect_ms));

        // PerfXplain's stages on every round's training log.
        let mut build_ms = Vec::new();
        let mut stages = Vec::new();
        let mut scanned = Vec::new();
        let mut relief_ms = Vec::new();
        for (i, round) in rounds.iter().enumerate() {
            let id = i as u64;
            let root = tracer.open("replay", id, None);
            let start = Instant::now();
            let view = Arc::new(ColumnarLog::build_auto(&round.train, round.bound.kind));
            let end = Instant::now();
            tracer.record("columnar.build", id, Some(root), start, end);
            build_ms.push((end - start).as_secs_f64() * 1e3);
            stages.push(layers::replay_stages(
                tracer,
                id,
                Some(root),
                &round.train,
                &view,
                &round.bound,
                &round.config,
            )?);
            // RuleOfThumb's offline stage: Relief over the dataset it builds
            // from the training log (the build is a small share of it).
            let start = Instant::now();
            std::hint::black_box(
                RuleOfThumb::new(round.config.clone()).rank_features(&round.train, &round.bound),
            );
            let end = Instant::now();
            tracer.record("mlcore.relief", id, Some(root), start, end);
            relief_ms.push((end - start).as_secs_f64() * 1e3);
            tracer.close(root);
            let estimate = XplainService::with_config(round.train.clone(), round.config.clone())
                .estimate_cost(&QueryRequest::bound(round.bound.clone()))
                .map_err(|e| format!("cost estimate of round {i}: {e}"))?;
            scanned.push(estimate.scanned_pairs as f64);
        }
        layers::set(layers, "columnar.build_ms", median(&build_ms));
        layers::set_stage_metrics(layers, &stages, median(&scanned));
        layers::set(layers, "mlcore.relief_ms", median(&relief_ms));
    }
    Ok(result)
}
