//! Per-layer metrics, and the stage-by-stage replay of one query through
//! the public entry point of each pipeline stage.

use crate::report::Metric;
use crate::trace::{SpanId, Tracer};
use mlcore::best_split_for_attribute_filtered;
use perfxplain_core::bridge::DatasetBridge;
use perfxplain_core::pairs::PairCatalog;
use perfxplain_core::training::prepare_encoded_training_in;
use perfxplain_core::{assess, BoundQuery, ColumnarLog, ExecutionLog, ExplainConfig, PerfXplain};
use std::sync::Arc;

/// Every per-layer metric, with its unit.  A traced run reports all of
/// them on every workload; a layer the workload does not exercise reads 0.
pub const LAYER_METRICS: [(&str, &str); 50] = [
    ("server.residual_p50_ms", "ms"),
    ("server.residual_p90_ms", "ms"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.append_frame_bytes", "bytes"),
    ("scheduler.estimate_cost_us", "us"),
    ("scheduler.queue_depth_max", "count"),
    ("scheduler.shed", "count"),
    ("scheduler.expired", "count"),
    ("scheduler.refund_ratio", "ratio"),
    ("pxql.parse_bind_us", "us"),
    ("service.view_reused_ratio", "ratio"),
    ("service.delta_refreshes", "count"),
    ("service.full_rebuilds", "count"),
    ("service.compactions", "count"),
    ("columnar.build_ms", "ms"),
    ("columnar.refresh_p50_ms", "ms"),
    ("columnar.refresh_p95_ms", "ms"),
    ("columnar.tail_rows_max", "count"),
    ("training.enumerate_ms", "ms"),
    ("training.scanned_pairs", "count"),
    ("training.related_pairs", "count"),
    ("training.scanned_per_related", "ratio"),
    ("bridge.featurize_ms", "ms"),
    ("bridge.cells", "count"),
    ("explain.clause_search_ms", "ms"),
    ("mlcore.split_sweep_ms", "ms"),
    ("mlcore.relief_ms", "ms"),
    ("baselines.ruleofthumb_ms", "ms"),
    ("baselines.simbutdiff_ms", "ms"),
    ("metrics.assess_ms", "ms"),
    ("metrics.score_ms", "ms"),
    ("eval.test_pairs_ms", "ms"),
    ("eval.precision_w3", "ratio"),
    ("eval.generality_w3", "ratio"),
    ("eval.despite_relevance_w3", "ratio"),
    ("hadoop-logs.collect_ms", "ms"),
    ("snapshot.open_ms", "ms"),
    ("snapshot.checkpoint_p50_ms", "ms"),
    ("snapshot.checkpoint_max_ms", "ms"),
    ("snapshot.checkpoint_bytes", "bytes"),
    ("snapshot.store_bytes_per_record", "bytes"),
    ("journal.append_p50_us", "us"),
    ("journal.fsyncs", "count"),
    ("journal.bytes_per_record", "bytes"),
    ("driver.lag_p95_ms", "ms"),
    ("trace.stage_share_p50", "ratio"),
    ("trace.overhead_setup_s", "s"),
    ("trace.overhead_query_p50_ms", "ms"),
    ("trace.overhead_query_p90_ms", "ms"),
];

/// Every per-layer metric at 0, ready to be filled in.
pub fn zeroed() -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: 0.0,
        })
        .collect()
}

/// Sets one per-layer metric; the first call fills in every other metric
/// at 0.
///
/// # Panics
/// Panics on a name missing from [`LAYER_METRICS`]: a typo must not
/// silently drop a measurement.
pub fn set(layers: &mut Vec<Metric>, name: &str, value: f64) {
    if layers.is_empty() {
        *layers = zeroed();
    }
    layers
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .value = value;
}

/// Stage times of one replayed query (milliseconds) and its work counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// `prepare_encoded_training_in`: pair enumeration and sampling.
    pub enumerate_ms: f64,
    /// `DatasetBridge::encode_from_view`: the split-search dataset.
    pub featurize_ms: f64,
    /// `PerfXplain::explain_in` minus the enumerate and featurize stages
    /// it repeats: precondition check plus the clause search.
    pub clause_search_ms: f64,
    /// One sweep of `best_split_for_attribute_filtered` over every
    /// applicable attribute of the query's dataset: the first clause-growing
    /// iteration of PerfXplain's search (line 5 of Algorithm 1), serially.
    pub split_sweep_ms: f64,
    /// `assess` of the explanation over the training pairs.
    pub assess_ms: f64,
    /// Related pairs the training set was drawn from.
    pub related_pairs: u64,
    /// Training rows x attributes of the split-search dataset.
    pub cells: u64,
}

/// Replays one query stage by stage against `view`, timing each call as a
/// span under `parent`.
pub fn replay_stages(
    tracer: &Tracer,
    request: u64,
    parent: Option<SpanId>,
    log: &ExecutionLog,
    view: &Arc<ColumnarLog>,
    bound: &BoundQuery,
    config: &ExplainConfig,
) -> Result<StageTimes, String> {
    let timed = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
        let start = std::time::Instant::now();
        f();
        let end = std::time::Instant::now();
        tracer.record(name, request, parent, start, end);
        (end - start).as_secs_f64() * 1e3
    };
    let mut encoded = None;
    let enumerate_ms = timed("training.enumerate", &mut || {
        encoded = Some(prepare_encoded_training_in(
            log,
            view.clone(),
            bound,
            config,
        ));
    });
    let encoded = encoded
        .expect("stage ran")
        .map_err(|e| format!("training failed: {e}"))?;
    let catalog = PairCatalog::from_raw(log.catalog(bound.kind))
        .restrict_to_groups(config.feature_level.allowed_groups());
    let excluded = perfxplain_core::query::excluded_raw_features(bound, config);
    let poi = encoded
        .poi_rows(bound)
        .ok_or("pair of interest missing from the training view")?;
    let mut bridge = None;
    let featurize_ms = timed("bridge.featurize", &mut || {
        bridge = Some(DatasetBridge::encode_from_view(
            &encoded,
            poi,
            &catalog,
            &excluded,
            config.sim_threshold,
        ));
    });
    let bridge = bridge.expect("stage ran");
    let dataset = bridge.dataset();
    let rows: Vec<usize> = (0..dataset.len()).collect();
    let split_sweep_ms = timed("mlcore.split_sweep", &mut || {
        for attr in 0..bridge.num_attributes() {
            let poi_value = bridge.poi_value(attr);
            if !poi_value.is_missing() {
                std::hint::black_box(best_split_for_attribute_filtered(
                    dataset,
                    &rows,
                    attr,
                    |atom| atom.matches_value(poi_value),
                ));
            }
        }
    });
    let engine = PerfXplain::new(config.clone());
    let mut explanation = None;
    let explain_in_ms = timed("explain.explain_in", &mut || {
        explanation = Some(engine.explain_in(log, view.clone(), bound));
    });
    let explanation = explanation
        .expect("stage ran")
        .map_err(|e| format!("explain_in failed: {e}"))?;
    let training = encoded.materialise(config.sim_threshold);
    let assess_ms = timed("metrics.assess", &mut || {
        std::hint::black_box(assess(&training, &explanation));
    });
    Ok(StageTimes {
        enumerate_ms,
        featurize_ms,
        clause_search_ms: (explain_in_ms - enumerate_ms - featurize_ms).max(0.0),
        split_sweep_ms,
        assess_ms,
        related_pairs: encoded.related_pairs as u64,
        cells: (dataset.len() * dataset.num_attributes()) as u64,
    })
}

/// Fills the training, bridge, explain and split-sweep metrics from
/// replayed stages (medians over the replayed queries).
pub fn set_stage_metrics(layers: &mut Vec<Metric>, stages: &[StageTimes], scanned_pairs: f64) {
    use crate::stats::median;
    let pick =
        |f: fn(&StageTimes) -> f64| -> f64 { median(&stages.iter().map(f).collect::<Vec<_>>()) };
    let related = pick(|s| s.related_pairs as f64);
    set(layers, "training.enumerate_ms", pick(|s| s.enumerate_ms));
    set(layers, "training.related_pairs", related);
    set(layers, "training.scanned_pairs", scanned_pairs);
    set(
        layers,
        "training.scanned_per_related",
        if related > 0.0 {
            scanned_pairs / related
        } else {
            0.0
        },
    );
    set(layers, "bridge.featurize_ms", pick(|s| s.featurize_ms));
    set(layers, "bridge.cells", pick(|s| s.cells as f64));
    set(
        layers,
        "explain.clause_search_ms",
        pick(|s| s.clause_search_ms),
    );
    set(layers, "mlcore.split_sweep_ms", pick(|s| s.split_sweep_ms));
    set(layers, "metrics.assess_ms", pick(|s| s.assess_ms));
}
